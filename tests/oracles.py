"""Independent oracles used by the test suite.

Everything here is deliberately written against the production package: plain
dict-based polynomial arithmetic, sympy differentiation, exact rational
(Fraction) arithmetic, and a hand-written flow of the builtin bottle integrated
with plain scipy. Slow and simple on purpose. Two references check an
optimization of the package against its plain form instead: an orbit and
a Poincare section read off a global dense output, a composition that
forms every monomial on its own, a product that sums its raw terms by
sorting them, a sum that sorts the terms of both operands, a bracket that
forms both products of every pair, a section field that adds one grid pass
per term, a field CSV formatted cell by cell, a monodromy integrated over a
half period, a resonance scan that evaluates its grid one action at a
time, and a DOP853 trial step that loops over the tableau.  Two helpers
read polynomials back: ``from_records`` inverts ``polyalg.to_records``,
and ``coefficient_distance`` compares two polynomials term by term.
"""

from fractions import Fraction
from math import comb, sqrt
from operator import mul

import numpy as np
import sympy as sp
from scipy.integrate import DOP853, solve_ivp
from scipy.optimize import brentq

Q1, P1, Q2, P2 = sp.symbols("q1 p1 q2 p2")
_VARS = (Q1, P1, Q2, P2)


def sympy_expr(terms):
    """Build a sympy expression from ``{(k1,l1,k2,l2): complex}``."""
    expr = sp.Integer(0)
    for (k1, l1, k2, l2), c in terms.items():
        expr += (
            (sp.Float(c.real, 20) + sp.I * sp.Float(c.imag, 20))
            * Q1**k1 * P1**l1 * Q2**k2 * P2**l2
        )
    return sp.expand(expr)


def sympy_bracket(f_terms, g_terms):
    """Poisson bracket of two term dicts via symbolic differentiation.

    Returns ``{(k1,l1,k2,l2): complex}``.
    """
    f = sympy_expr(f_terms)
    g = sympy_expr(g_terms)
    br = sp.Integer(0)
    for q, p in ((Q1, P1), (Q2, P2)):
        br += sp.diff(f, q) * sp.diff(g, p) - sp.diff(f, p) * sp.diff(g, q)
    br = sp.expand(br)
    out = {}
    poly = sp.Poly(br, *_VARS) if br != 0 else None
    if poly is None:
        return out
    for monom, coeff in poly.terms():
        c = complex(coeff)
        if abs(c) > 0:
            out[tuple(int(e) for e in monom)] = c
    return out


# ---------------------------------------------------------------------------
# exact rational normalization of the builtin model, low order
# ---------------------------------------------------------------------------


class QC:
    """Complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, other):
        return QC(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return QC(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return QC(-self.re, -self.im)

    def __mul__(self, other):
        if isinstance(other, QC):
            return QC(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        return QC(self.re * other, self.im * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, QC):
            d = other.re * other.re + other.im * other.im
            return self * QC(other.re / d, -other.im / d)
        return QC(self.re / other, self.im / other)

    def __eq__(self, other):
        return self.re == other.re and self.im == other.im

    def is_zero(self):
        return self.re == 0 and self.im == 0

    def to_complex(self):
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self):
        return f"QC({self.re}, {self.im})"


def _i_pow(j):
    return (QC(1), QC(0, 1), QC(-1), QC(0, -1))[j % 4]


def _padd_into(target, src, factor=None):
    for key, c in src.items():
        v = c if factor is None else c * factor
        cur = target.get(key)
        nv = v if cur is None else cur + v
        if nv.is_zero():
            target.pop(key, None)
        else:
            target[key] = nv


def _pmul(a, b):
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            v = ca * cb
            cur = out.get(key)
            nv = v if cur is None else cur + v
            if nv.is_zero():
                out.pop(key, None)
            else:
                out[key] = nv
    return out


def _pdiff(a, var):
    out = {}
    for key, c in a.items():
        e = key[var]
        if e == 0:
            continue
        nk = list(key)
        nk[var] = e - 1
        out[tuple(nk)] = c * e
    return out


def _pbracket(a, b):
    out = {}
    for iq, ip in ((0, 1), (2, 3)):
        _padd_into(out, _pmul(_pdiff(a, iq), _pdiff(b, ip)))
        neg = _pmul(_pdiff(a, ip), _pdiff(b, iq))
        _padd_into(out, {k: -c for k, c in neg.items()})
    return out


def _in_kernel(key):
    k1, l1, k2, l2 = key
    if k1 != l1:
        return False
    if k1 + l1 == 0:
        return k2 == 0 and l2 == 2
    return l2 == 0


def _solve_exact(htilde, r):
    """Exact generator for {Z0, chi} = -Htilde at order r (omega10 = 1)."""
    blocks = {}
    for (k1, l1, k2, l2), c in htilde.items():
        assert k1 + l1 + k2 + l2 == 2 * r + 2
        blocks.setdefault((k1, l1), {})[k2] = c
    chi = {}
    for (k, l), grp in sorted(blocks.items()):
        D = 2 * r + 2 - k - l
        h = [grp.get(n, QC()) for n in range(D + 1)]
        b = [QC() for _ in range(D + 1)]
        if k != l:
            c_kl = QC(0, l - k)
            b[D] = -h[D] / c_kl
            for n in range(D - 1, -1, -1):
                b[n] = ((n + 1) * b[n + 1] - h[n]) / c_kl
        else:
            assert h[D].is_zero(), "inconsistent k=l block in exact oracle"
            for n in range(D):
                b[n + 1] = h[n] / (n + 1)
        for n in range(D + 1):
            if not b[n].is_zero():
                chi[(k, l, n, D - n)] = b[n]
    return chi


def rational_normal_form(r_max=3):
    """Exact-rational normalization of the builtin bottle, orders 1..r_max.

    Returns ``(Z, chis)`` where ``Z[s]`` is the kernel dict at book-keeping
    order ``s`` (exponent key -> QC) and ``chis[r-1]`` the exact generators.
    Uses omega10 = 1 and the builtin potential only. Independent of the
    package: plain dicts and Fractions throughout.
    """
    TR = r_max
    H = [dict() for _ in range(TR + 1)]
    H[0] = {(1, 1, 0, 0): QC(0, 1), (0, 0, 0, 2): QC(Fraction(1, 2))}
    # anharmonic potential terms rho^(2a) z^(2b) with exact coefficients
    for a, b, coef in (
        (1, 1, Fraction(1, 2)),
        (2, 0, Fraction(-1, 8)),
        (1, 2, Fraction(1, 8)),
        (2, 1, Fraction(-1, 16)),
        (3, 0, Fraction(1, 128)),
    ):
        s = a + b - 1
        if s > TR:
            continue
        for j in range(2 * a + 1):
            c = _i_pow(j) * Fraction(comb(2 * a, j) * 1, 2**a) * coef
            key = (2 * a - j, j, 2 * b, 0)
            _padd_into(H[s], {key: c})

    z0 = dict(H[0])
    chis = []
    for r in range(1, TR + 1):
        kernel = {}
        htilde = {}
        for key, c in H[r].items():
            (kernel if _in_kernel(key) else htilde)[key] = c
        chi = _solve_exact(htilde, r)
        chis.append(chi)
        # residual {Z0, chi} + Htilde must vanish identically
        res = _pbracket(z0, chi)
        _padd_into(res, htilde)
        assert not res, f"exact homological residual non-zero at r={r}: {res}"
        # exp(L_chi) order by order
        new_H = [dict(h) for h in H]
        for s in range(TR + 1):
            if not H[s]:
                continue
            term = H[s]
            k = 1
            while s + k * r <= TR:
                term = _pbracket(term, chi)
                term = {key: c / k for key, c in term.items()}
                if not term:
                    break
                _padd_into(new_H[s + k * r], term)
                k += 1
        H = new_H
        # the transformed order-r part must be exactly the kernel part
        assert all(_in_kernel(key) for key in H[r]), f"non-kernel residue at r={r}"
    return H, chis


def rational_action_series(Z, pattern="energy"):
    """Read I1-power coefficients off an exact Z.

    ``pattern='energy'`` returns the coefficients of I1^n (terms q1^n p1^n),
    ``pattern='omega2sq'`` the coefficients of I1^n in omega2^2 = 2 * (I1^n q2^2
    coefficient). All values are exact Fractions; imaginary parts must vanish.
    """
    out = {}
    for s, zs in enumerate(Z):
        for (k1, l1, k2, l2), c in zs.items():
            if k1 != l1:
                continue
            if pattern == "energy" and (k2, l2) != (0, 0):
                continue
            if pattern == "omega2sq" and (k2, l2) != (2, 0):
                continue
            val = c * _i_pow(-k1 % 4)  # times (-i)^n
            assert val.im == 0, f"non-real action coefficient at {(k1, l1, k2, l2)}"
            coeff = val.re if pattern == "energy" else 2 * val.re
            out[k1] = out.get(k1, Fraction(0)) + coeff
    return out


# ---------------------------------------------------------------------------
# full-flow return map of the builtin bottle
# ---------------------------------------------------------------------------


def _bottle_flow(_t, y):
    """Hamilton's equations of the builtin bottle, forces written out by hand."""
    rho, z, p_rho, p_z = y
    r2, z2 = rho * rho, z * z
    d_rho = rho * (1 + z2 - r2 / 2 + z2 * z2 / 4 - r2 * z2 / 4 + 3 * r2 * r2 / 64)
    d_z = z * r2 * (1 + z2 / 2 - r2 / 8)
    return (p_rho, p_z, -d_rho, -d_z)


def _first_return(E, z, p_z, t_max):
    """(z, p_z) at the first return to rho = 0, p_rho > 0 after t = 0."""
    p_rho = sqrt(2.0 * E - p_z**2)  # V vanishes on the axis rho = 0

    def crossing(_t, y):
        return y[0]

    crossing.direction = 1.0
    sol = solve_ivp(
        _bottle_flow, (0.0, t_max), (0.0, z, p_rho, p_z),
        method="DOP853", rtol=1e-13, atol=1e-15, events=[crossing],
    )
    # the seed sits on the section, so solve_ivp also reports it at t = 0
    later = sol.t_events[0] > 0.0
    assert later.any(), f"no return to the section within t = {t_max}"
    y = sol.y_events[0][later][0]
    return y[1], y[3]


def return_map_trace(E, h=1e-6, t_max=12.0):
    """Trace of the Poincare return map's Jacobian at the central orbit.

    The central periodic orbit of the builtin bottle crosses the section
    rho = 0, p_rho > 0 at (z, p_z) = (0, 0).  The Jacobian of the first
    return map there is taken by central differences of step ``h`` on the
    full 4-D flow; no variational equations and neither the half- nor the
    quarter-period symmetry are used.  The orbit is linearly stable while |trace| < 2.
    ``t_max`` must exceed one period of the central orbit (7.65 at
    E = 0.37).
    """
    z_plus, _ = _first_return(E, h, 0.0, t_max)
    z_minus, _ = _first_return(E, -h, 0.0, t_max)
    _, p_plus = _first_return(E, 0.0, h, t_max)
    _, p_minus = _first_return(E, 0.0, -h, t_max)
    return (z_plus - z_minus + p_plus - p_minus) / (2 * h)


# ---------------------------------------------------------------------------
# reference Poincare section: full time budget, global dense output
# ---------------------------------------------------------------------------


def dense_section_reference(rhs, y0, n_crossings, t_max, rtol, atol):
    """First ``n_crossings`` rho = 0, p_rho > 0 crossings as (z, p_z, t).

    Integrates ``rhs`` from ``y0`` with plain scipy DOP853 over the whole
    budget ``(0, t_max)`` with no terminal event, keeps the global dense
    output, and reads each crossing state off it at the event time.  A seed
    on the section is reported at t = 0 and counts as the first crossing.
    """

    def crossing(_t, y):
        return y[0]

    crossing.direction = 1.0
    sol = solve_ivp(
        rhs, (0.0, t_max), y0, method="DOP853", rtol=rtol, atol=atol,
        dense_output=True, events=[crossing],
    )
    assert sol.status == 0, sol.message
    times = sol.t_events[0][:n_crossings]
    assert times.size == n_crossings, f"{times.size} crossings within t = {t_max}"
    return [(sol.sol(t)[1], sol.sol(t)[3], t) for t in times]


# ---------------------------------------------------------------------------
# reference orbit: scipy's driver with global dense output
# ---------------------------------------------------------------------------


def dense_orbit(initial, T, escape_bound=20.0):
    """Global dense output of the builtin bottle's orbit from ``initial``
    over time ``T``, the interpolant on [initial.t, initial.t + T].

    Plain scipy DOP853 (``solve_ivp``) at the tolerances of
    ``dynamics.integrate``'s default tol, with terminal events where |rho|
    or |z| reaches ``escape_bound``.

    Raises
    ------
    EscapeDetected
        At the first event in the sense of time, with the state read off
        the interpolant.
    """
    from magbottle import dynamics
    from magbottle.errors import EscapeDetected
    from magbottle.model import build_builtin_model

    def rho_escape(_t, y):
        return abs(y[0]) - escape_bound

    def z_escape(_t, y):
        return abs(y[1]) - escape_bound

    rho_escape.terminal = z_escape.terminal = True
    tol = dynamics.DEFAULT_TOL
    sol = solve_ivp(
        dynamics._rhs_factory(build_builtin_model()),
        (initial.t, initial.t + T), initial.as_array(), method="DOP853",
        rtol=tol * dynamics._RTOL_FACTOR, atol=tol * dynamics._ATOL_FACTOR,
        dense_output=True, events=[rho_escape, z_escape],
    )
    assert sol.status >= 0, sol.message
    if sol.status == 1:
        t_esc = min(np.concatenate(sol.t_events), key=lambda t: abs(t - initial.t))
        raise EscapeDetected(float(t_esc), tuple(float(v) for v in sol.sol(t_esc)))
    return sol.sol


# ---------------------------------------------------------------------------
# central-orbit monodromy over a half period
# ---------------------------------------------------------------------------


def half_period_monodromy(potential, rho_max, rtol, atol):
    """(period, M_half, nfev) of the central orbit, integrated over half a
    period.

    Starts at the turning point (rho_max, 0) with the two transverse
    variational columns and stops where p_rho rises back through zero at
    -rho_max; the half-period matrix is read off the state there.
    """
    rho_terms = [
        (a, c) for (a, b), c in potential.derivative(1, 0).as_dict().items() if b == 0
    ]
    zz_terms = [
        (a, c) for (a, b), c in potential.derivative(0, 2).as_dict().items() if b == 0
    ]

    def rhs(_t, y):
        rho, prho, dz1, dp1, dz2, dp2 = y
        force = sum(c * rho**a for a, c in rho_terms)
        curv = sum(c * rho**a for a, c in zz_terms)
        return (prho, -force, dp1, -curv * dz1, dp2, -curv * dz2)

    def half_turn(_t, y):
        return y[1]

    half_turn.terminal = True
    half_turn.direction = 1.0
    sol = solve_ivp(
        rhs, (0.0, 1e4), [rho_max, 0.0, 1.0, 0.0, 0.0, 1.0],
        method="DOP853", rtol=rtol, atol=atol, events=[half_turn],
    )
    assert sol.t_events[0].size, "no half period"
    y = sol.y_events[0][0]
    half = np.array([[y[2], y[4]], [y[3], y[5]]])
    return 2.0 * float(sol.t_events[0][0]), half, int(sol.nfev)


# ---------------------------------------------------------------------------
# resonance scan, one grid action at a time
# ---------------------------------------------------------------------------


def scalar_grid_resonance(energy_series, omega2_series, m1, m2, e_crit):
    """(m1, m2, I1*, omega1, omega2, energy) of the m1:m2 equatorial
    resonance, every series evaluated on Python floats.

    The action ceiling climbs by a factor 1.05 from 1e-3 until the energy
    reaches ``e_crit``, omega1 turns over, or the action passes 1e3; the
    detuning is scanned on 512 points below it and its first sign change
    refined by ``brentq``.
    """

    def series(coefficients):
        items = sorted(coefficients.items())
        return lambda I: sum(c * I**n for n, c in items)

    Z_eq = series(energy_series)
    omega1_eq = series({n - 1: n * c for n, c in energy_series.items()})
    omega2sq = series(omega2_series)

    def detune(I):
        return m2 * omega1_eq(I) - m1 * sqrt(omega2sq(I))

    I_hi = 1e-3
    while omega1_eq(I_hi) > 0.0 and Z_eq(I_hi) < e_crit and I_hi < 1e3:
        I_hi *= 1.05
    grid = np.linspace(1e-6, I_hi, 512)
    values = [detune(I) for I in grid]
    for i in range(len(grid) - 1):
        a, b = values[i], values[i + 1]
        if a > 0.0 > b or a < 0.0 < b:
            I_star = brentq(detune, grid[i], grid[i + 1], xtol=1e-14)
            return (
                int(m1), int(m2), float(I_star), float(omega1_eq(I_star)),
                float(sqrt(omega2sq(I_star))), float(Z_eq(I_star)),
            )
    raise AssertionError(f"no {m1}:{m2} sign change below I1 = {I_hi}")


# ---------------------------------------------------------------------------
# composition, one monomial at a time
# ---------------------------------------------------------------------------


def per_term_compose(f, subs):
    """``f`` with the polynomials ``subs`` put in for (q1, p1, q2, p2).

    Each term builds its own q1^k1 p1^l1 q2^k2 p2^l2 from the powers of the
    substitutions, left to right, with no work shared between the terms of
    ``f``.  The raw products are summed in one pass in the package's term
    order (book-keeping order, then l2, k2, l1, k1).  A linear pair
    substitution of the package forms its products in another order, so it
    matches this reference within 1e-15 of the largest coefficient, not bit
    for bit.
    """
    from magbottle.polyalg import CanonicalPolynomial

    bounds = (f.trunc_order, f.degree_cap, f.transverse_cap)
    one = CanonicalPolynomial.from_terms([((0, 0, 0, 0), 1.0, 0)], *bounds)
    powers = [[one] for _ in range(4)]

    def power(var, n):
        while len(powers[var]) <= n:
            powers[var].append(powers[var][-1] * subs[var])
        return powers[var][n]

    terms = sorted(
        f.term_items(), key=lambda t: (t[2], t[0].l2, t[0].k2, t[0].l1, t[0].k1)
    )
    raw = []
    for key, coeff, bk in terms:
        p = power(0, key.k1)
        for var in (1, 2, 3):
            if key[var]:
                p = p * power(var, key[var])
        items = list(p.term_items())
        scaled = np.array([c for _, c, _ in items]) * np.complex128(coeff)
        raw.extend((k, c, bk) for (k, _, _), c in zip(items, scaled))
    return CanonicalPolynomial.from_terms(raw, *bounds)


def pair_map_polynomials(maps, trunc_order, degree_cap=None):
    """The four substitution polynomials of the pair ``maps`` of
    ``substitute_pairs``: q_j = a x_j + b y_j and p_j = c x_j + d y_j, and
    the identity for a pair whose map is None."""
    from magbottle.polyalg import CanonicalPolynomial

    subs = []
    for j, matrix in enumerate(maps):
        slots = [(0,) * (2 * j) + e + (0,) * (2 - 2 * j) for e in ((1, 0), (0, 1))]
        rows = ((1.0, 0.0), (0.0, 1.0)) if matrix is None else matrix
        for row in rows:
            terms = [(slot, c, 0) for slot, c in zip(slots, row)]
            subs.append(CanonicalPolynomial.from_terms(terms, trunc_order, degree_cap))
    return subs


# ---------------------------------------------------------------------------
# products, summed by sorting every raw term
# ---------------------------------------------------------------------------


def sorted_product(f, g):
    """``f * g`` with every raw product sorted and merged in one pass.

    Raw products are concatenated f group by g group, in ascending
    book-keeping order of each, and row by row within a pair, so each
    output term sums its products in the order the package adds them.
    One constructor call sorts, merges, caps and prunes them all.
    """
    from magbottle.polyalg import CanonicalPolynomial

    bounds = f._binary_bounds(g)
    keys = [np.empty(0, dtype=np.int64)]
    coeffs = [np.empty(0, dtype=np.complex128)]
    g_groups = list(g._bk_slices())
    for s1, k1, c1 in f._bk_slices():
        for s2, k2, c2 in g_groups:
            if s1 + s2 > bounds[0]:
                break
            keys.append((k1[:, None] + k2[None, :]).ravel())
            coeffs.append((c1[:, None] * c2[None, :]).ravel())
    return CanonicalPolynomial(np.concatenate(keys), np.concatenate(coeffs), *bounds)


def concatenated_sum(f, g):
    """``f + g`` as one sort-and-merge of the terms of both operands.

    The terms go to the constructor in f-then-g order, under the tighter
    bounds of the two, so every shared term sums 0.0 + f + g and every sum
    is pruned.
    """
    from magbottle.polyalg import CanonicalPolynomial

    return CanonicalPolynomial(
        np.concatenate([f._keys, g._keys]),
        np.concatenate([f._coeffs, g._coeffs]),
        *f._binary_bounds(g),
    )


def four_product_bracket(f, g):
    """{f, g} with both products of each pair, pair (q1, p1) first, each
    pair's difference added to the sum in that order."""
    from magbottle import polyalg

    out = None
    for iq, ip in ((0, 1), (2, 3)):
        piece = polyalg._multiply(f.derivative(iq), g.derivative(ip)) - (
            polyalg._multiply(f.derivative(ip), g.derivative(iq))
        )
        out = piece if out is None else out + piece
    return out


def term_conjugate(f, pairs):
    """{(k1, l1, k2, l2, bk): coeff} of the conjugate of ``f``, term by term:
    the exponents of each pair in ``pairs`` swap, and the coefficient c
    becomes i^n conj(c) with n the degree of the term in those pairs."""
    out = {}
    for key, c, bk in f.term_items():
        exps = list(key)
        n = 0
        for j in pairs:
            n += exps[2 * j] + exps[2 * j + 1]
            exps[2 * j], exps[2 * j + 1] = exps[2 * j + 1], exps[2 * j]
        out[(*exps, bk)] = (1, 1j, -1, -1j)[n % 4] * c.conjugate()
    return out


# ---------------------------------------------------------------------------
# the section field, one grid pass per term
# ---------------------------------------------------------------------------


def per_term_section_field(integral, E, z_vals, pz_vals, potential):
    """Phi on the section rho = 0 over the (z, p_z) meshgrid, term by term.

    Collects the rho-free terms as c p_rho^(2m) z^a p_z^b and adds
    c G^m Z^a PZ^b over the whole grid for each, with G = p_rho^2 =
    2 (E - V(0, z)) - p_z^2.  Points with G <= 0 hold NaN.  Returns
    (values, valid).
    """
    collected = {}
    for key, coeff, _bk in integral.poly.term_items():
        if key.k1:
            continue
        if key.l1 % 2:
            raise ValueError("integral has odd p_rho powers on the section")
        index = (key.l1 // 2, key.k2, key.l2)
        collected[index] = collected.get(index, 0.0) + coeff.real
    Z, PZ = np.meshgrid(z_vals, pz_vals, indexing="ij")
    radicand = 2.0 * (E - potential.value(0.0, Z)) - PZ**2
    valid = radicand > 0.0
    G = np.where(valid, radicand, 0.0)
    values = np.zeros_like(G)
    for (m, a, b), c in collected.items():
        values += c * G**m * Z**a * PZ**b
    values[~valid] = np.nan
    return values, valid


def per_cell_field_lines(field):
    """The (z, p_z, phi, valid) CSV lines of a section field, z-major, each
    cell formatted on its own: ``repr`` of a float, ``str`` of the flag."""
    lines = []
    for i, z in enumerate(field.z_axis.tolist()):
        for j, pz in enumerate(field.pz_axis.tolist()):
            row = (z, pz, float(field.values[i, j]), int(field.valid[i, j]))
            cells = (repr(float(v)) if isinstance(v, float) else str(v) for v in row)
            lines.append(",".join(cells) + "\n")
    return "".join(lines)


# ---------------------------------------------------------------------------
# polynomial records and distances
# ---------------------------------------------------------------------------


def from_records(records, trunc_order, degree_cap=None):
    """Inverse of ``polyalg.to_records``."""
    from magbottle.polyalg import CanonicalPolynomial

    terms = [
        ((r["k1"], r["l1"], r["k2"], r["l2"]), r["re"] + 1j * r["im"], r["bk"])
        for r in records
    ]
    return CanonicalPolynomial.from_terms(terms, trunc_order, degree_cap)


def coefficient_distance(f, g):
    """Max absolute coefficient difference over the union of term keys."""
    d = f.as_dict()
    for key, c in g.as_dict().items():
        d[key] = d.get(key, 0.0) - c
    return max((abs(v) for v in d.values()), default=0.0)


# ---------------------------------------------------------------------------
# DOP853 trial step, a loop over the tableau
# ---------------------------------------------------------------------------

# row s of A keeps the s stages it combines, and the error weights drop
# their last entry, the weight (0) of the derivative at the new state
_STAGES = tuple(
    (tuple(map(float, row[:s])), float(c))
    for s, (row, c) in enumerate(zip(DOP853.A, DOP853.C))
)[1:]
_B = tuple(map(float, DOP853.B))
_E3 = tuple(map(float, DOP853.E3[:-1]))
_E5 = tuple(map(float, DOP853.E5[:-1]))


def dop853_trial(fun, t, y, f, h):
    """``(y_new, err5, err3)`` of one DOP853 trial step from ``(t, y)``, with
    ``f = fun(t, y)``, as lists: every stage, the solution and the error
    estimates sum a tableau row with ``sum(map(mul, ...))``, zero entries
    included.  On Python 3.11 and older ``sum`` adds floats left to right;
    from 3.12 it compensates the rounding of each addition.
    """
    # cols[i] holds component i of every stage derivative so far
    cols = [[v] for v in f]
    for a, c in _STAGES:
        stage = [v + sum(map(mul, a, col)) * h for v, col in zip(y, cols)]
        list(map(list.append, cols, fun(t + c * h, stage)))
    y_new = [v + h * sum(map(mul, _B, col)) for v, col in zip(y, cols)]
    err5 = [sum(map(mul, _E5, col)) for col in cols]
    err3 = [sum(map(mul, _E3, col)) for col in cols]
    return y_new, err5, err3
