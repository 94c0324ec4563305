"""Magnetic-bottle potentials and their complexified Hamiltonians.

The model is planar motion in the meridian plane of an axisymmetric
magnetic bottle with zero angular momentum:

    H(rho, z, p_rho, p_z) = (p_rho^2 + p_z^2)/2 + V(rho, z)

with a polynomial potential V.  This module owns the potential
representation (:class:`PotentialSpec`), a text parser for user-supplied
potentials, and the two canonical preparations consumed by the normal-form
pipeline:

* :func:`complexify_nonresonant` rotates the elliptic (rho, p_rho) pair to
  complex variables so the quadratic part becomes ``i w10 q1 p1 + p2^2/2``
  and grades each degree-(2s+2) block with book-keeping order ``s``.
* :func:`prepare_resonant` additionally complexifies the (z, p_z) pair at a
  resonant frequency ``w2*`` and moves the detuning terms to book-keeping
  order 1, so the order-0 part is ``i w1* q1 p1 + i w2* q2 p2``.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidFrequencyError,
    MissingQuadraticError,
    NonPolynomialError,
    ParseError,
    UnsupportedPotentialError,
)
from .polyalg import _IPOW, _MAX_EXPONENT, CanonicalPolynomial

_BUILTIN_TERMS = {
    (2, 0): 0.5,
    (2, 2): 0.5,
    (4, 0): -0.125,
    (2, 4): 0.125,
    (4, 2): -0.0625,
    (6, 0): 1.0 / 128.0,
}


class PotentialSpec:
    """Polynomial potential ``V(rho, z) = sum c[a, b] rho^a z^b``.

    Parameters
    ----------
    terms : mapping
        ``{(a, b): c}`` with integer exponents ``0 <= a, b <= 127``, the
        largest the polynomial algebra packs; a larger one raises
        :class:`UnsupportedPotentialError`.  Zero coefficients are dropped.
    """

    __slots__ = ("_terms", "_critical_energy")

    def __init__(self, terms):
        cleaned = {}
        for (a, b), c in terms.items():
            a, b = int(a), int(b)
            if a < 0 or b < 0:
                raise NonPolynomialError(f"negative exponent in rho^{a}*z^{b}")
            if max(a, b) > _MAX_EXPONENT:
                raise UnsupportedPotentialError(
                    f"monomial rho^{a}*z^{b} has an exponent above {_MAX_EXPONENT}"
                )
            c = float(c)
            if c != 0.0:
                cleaned[(a, b)] = c
        self._terms = dict(sorted(cleaned.items()))
        self._critical_energy = None  # filled by critical_energy()

    def as_dict(self):
        """Return ``{(a, b): c}`` for the non-zero monomials."""
        return dict(self._terms)

    def coefficient(self, a, b):
        """Coefficient of ``rho^a z^b`` (0.0 if absent)."""
        return self._terms.get((int(a), int(b)), 0.0)

    @property
    def max_degree(self):
        return max((a + b for a, b in self._terms), default=0)

    def value(self, rho, z):
        """Evaluate V; broadcasts over array inputs."""
        rho = np.asarray(rho, dtype=float)
        z = np.asarray(z, dtype=float)
        out = np.zeros(np.broadcast(rho, z).shape)
        for (a, b), c in self._terms.items():
            out = out + c * rho**a * z**b
        return float(out) if out.ndim == 0 else out

    def derivative(self, n_rho, n_z):
        """V differentiated ``n_rho`` times in rho and ``n_z`` times in z.

        Each coefficient is multiplied by its exponents one at a time,
        c * a * (a - 1) ... then * b * (b - 1) ..., so every caller forms
        the same bits.
        """
        terms = {}
        for (a, b), c in self._terms.items():
            if a < n_rho or b < n_z:
                continue
            for k in range(n_rho):
                c = c * (a - k)
            for k in range(n_z):
                c = c * (b - k)
            terms[(a - n_rho, b - n_z)] = c
        return PotentialSpec(terms)

    def __eq__(self, other):
        if not isinstance(other, PotentialSpec):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(tuple(self._terms.items()))

    def __repr__(self):
        return f"PotentialSpec({potential_to_text(self)!r})"


def build_builtin_model() -> PotentialSpec:
    """The magnetic-bottle potential with B0 = 2 and beta1 = 1.

    V = rho^2/2 + rho^2 z^2/2 - rho^4/8 + rho^2 z^4/8 - rho^4 z^2/16
        + rho^6/128.
    """
    return PotentialSpec(_BUILTIN_TERMS)


def resolve_potential(potential: PotentialSpec | None) -> PotentialSpec:
    """The given potential, or the builtin model when it is None."""
    return build_builtin_model() if potential is None else potential


def potential_to_text(spec: PotentialSpec) -> str:
    """Render a potential in the grammar accepted by :func:`parse_potential`.

    Terms are sorted by total degree, then by rho power, and coefficients
    use shortest-round-trip floats, so parsing the result reproduces the
    spec exactly.
    """
    parts = []
    for (a, b), c in sorted(spec.as_dict().items(), key=lambda kv: (sum(kv[0]), kv[0])):
        factors = [repr(abs(c))]
        for name, e in (("rho", a), ("z", b)):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        piece = "*".join(factors)
        if not parts:
            parts.append(piece if c > 0 else f"-{piece}")
        else:
            parts.append(f"{'+' if c > 0 else '-'} {piece}")
    return " ".join(parts) if parts else "0"


_NUMBER_RE = re.compile(r"(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_INT_RE = re.compile(r"\d+")


class _Parser:
    """Recursive-descent parser producing ``{(a, b): coeff}`` dictionaries.

    Grammar (whitespace insignificant)::

        expr   := ['+'|'-'] term (('+'|'-') term)*
        term   := factor (('*'|'/') factor)*
        factor := atom ['^' ['-'] integer]
        atom   := number | 'rho' | 'z' | '(' expr ')'

    Division is only defined by a non-zero constant, and exponents must be
    non-negative integers; violations raise :class:`NonPolynomialError`.
    """

    def __init__(self, text):
        self.text = text
        self.pos = 0

    def parse(self):
        poly = self._expr()
        self._skip_ws()
        if self.pos != len(self.text):
            self._fail(f"unexpected character {self.text[self.pos]!r}")
        return poly

    # ------------------------------------------------------------- plumbing

    def _line_col(self, pos):
        line = self.text.count("\n", 0, pos) + 1
        col = pos - self.text.rfind("\n", 0, pos)
        return line, col

    def _fail(self, message, pos=None):
        line, col = self._line_col(self.pos if pos is None else pos)
        raise ParseError(message, line=line, col=col)

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self):
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    # -------------------------------------------------------------- grammar

    def _expr(self):
        sign = 1.0
        ch = self._peek()
        if ch in ("+", "-"):
            sign = -1.0 if ch == "-" else 1.0
            self.pos += 1
        poly = _pscale(self._term(), sign)
        while True:
            ch = self._peek()
            if ch not in ("+", "-"):
                return poly
            self.pos += 1
            rhs = self._term()
            poly = _padd(poly, _pscale(rhs, -1.0 if ch == "-" else 1.0))

    def _term(self):
        poly = self._factor()
        while True:
            ch = self._peek()
            if ch == "*":
                self.pos += 1
                poly = _pmul(poly, self._factor())
            elif ch == "/":
                self.pos += 1
                divisor = self._factor()
                if set(divisor) - {(0, 0)}:
                    raise NonPolynomialError(
                        "division by an expression containing rho or z"
                    )
                value = divisor.get((0, 0), 0.0)
                if value == 0.0:
                    raise NonPolynomialError("division by zero")
                poly = _pscale(poly, 1.0 / value)
            else:
                return poly

    def _factor(self):
        poly = self._atom()
        if self._peek() == "^":
            self.pos += 1
            exponent = self._exponent()
            result = {(0, 0): 1.0}
            for _ in range(exponent):
                result = _pmul(result, poly)
            poly = result
        return poly

    def _exponent(self):
        self._skip_ws()
        start = self.pos
        negative = False
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            negative = self.text[self.pos] == "-"
            self.pos += 1
        match = _INT_RE.match(self.text, self.pos)
        if match is None:
            self._fail("expected an integer exponent after '^'", pos=start)
        self.pos = match.end()
        if self.pos < len(self.text) and self.text[self.pos] == ".":
            raise NonPolynomialError(f"fractional exponent near offset {start}")
        value = int(match.group())
        if negative:
            raise NonPolynomialError(f"negative exponent -{value}")
        if value > _MAX_EXPONENT:
            self._fail(f"exponent {value} too large", pos=start)
        return value

    def _atom(self):
        ch = self._peek()
        if ch == "":
            self._fail("unexpected end of input")
        if ch == "(":
            self.pos += 1
            poly = self._expr()
            if self._peek() != ")":
                self._fail("expected ')'")
            self.pos += 1
            return poly
        if ch in ("+", "-"):
            sign = -1.0 if ch == "-" else 1.0
            self.pos += 1
            return _pscale(self._factor(), sign)
        match = _NUMBER_RE.match(self.text, self.pos)
        if match is not None:
            self.pos = match.end()
            return {(0, 0): float(match.group())}
        match = _NAME_RE.match(self.text, self.pos)
        if match is not None:
            name = match.group()
            if name == "rho":
                self.pos = match.end()
                return {(1, 0): 1.0}
            if name == "z":
                self.pos = match.end()
                return {(0, 1): 1.0}
            self._fail(f"unknown symbol {name!r}")
        self._fail(f"unexpected character {ch!r}")


def _padd(u, v):
    out = dict(u)
    for key, c in v.items():
        out[key] = out.get(key, 0.0) + c
    return out


def _pscale(u, s):
    return {key: c * s for key, c in u.items()}


def _pmul(u, v):
    out = {}
    for (a1, b1), c1 in u.items():
        for (a2, b2), c2 in v.items():
            key = (a1 + a2, b1 + b2)
            out[key] = out.get(key, 0.0) + c1 * c2
    return out


def parse_potential(text: str) -> PotentialSpec:
    """Parse a potential expression such as ``"0.5*rho^2 - 1/8*rho^4"``.

    Raises
    ------
    ParseError
        On malformed syntax, with 1-based line and column.
    NonPolynomialError
        On negative or fractional exponents, or division by anything other
        than a non-zero constant.
    UnsupportedPotentialError
        On a monomial whose rho or z exponent exceeds 127.
    """
    if not text.strip():
        raise ParseError("empty potential expression")
    return PotentialSpec(_Parser(text).parse())


# scipy.optimize.brentq's defaults, and the only values the callers use
_BRENT_RTOL = 4 * sys.float_info.epsilon
_BRENT_MAXITER = 100


def brentq(f, a, b, xtol):
    """A root of ``f`` in [a, b] by Brent's method.

    A line-for-line port of scipy's ``optimize/Zeros/brentq.c``, with the
    NaN check of ``scipy.optimize.brentq`` and its default ``rtol`` and
    ``maxiter``: for the same ``xtol`` it calls ``f`` at the same floats and
    returns the same root, within ``xtol + 4 * eps * |root|``.

    Raises
    ------
    ValueError
        If f(a) and f(b) have the same sign, or ``f`` returns NaN.
    RuntimeError
        If 100 iterations do not converge.
    """

    def call(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis  # bisect
        else:
            spre = scur = sbis  # bisect
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {_BRENT_MAXITER} iterations.")


def equatorial_roots(spec: PotentialSpec) -> list:
    """Positive real roots of the equatorial profile V(rho, 0), ascending.

    Roots come from the companion-matrix eigenvalues (``np.roots``); a root
    counts as real when its imaginary part is at most 1e-9.
    """
    profile = {a: c for (a, b), c in spec.as_dict().items() if b == 0}
    coeffs = np.zeros(max(profile, default=0) + 1)  # highest power first
    for a, c in profile.items():
        coeffs[-1 - a] = c
    return sorted(
        float(root.real)
        for root in np.roots(coeffs)
        if abs(root.imag) <= 1e-9 and root.real > 1e-12
    )


def critical_energy(spec: PotentialSpec) -> float:
    """Energy of the lowest barrier of the equatorial profile V(rho, 0).

    Returns ``inf`` when the profile has no local maximum at rho > 0 (a
    globally confining potential).  For the builtin model this is 16/27 at
    rho = sqrt(8/3).  A spec does not change, so each one computes it once.
    """
    if spec._critical_energy is None:
        curvature = spec.derivative(2, 0)
        spec._critical_energy = min(
            (
                spec.value(rho, 0.0)
                for rho in equatorial_roots(spec.derivative(1, 0))
                if curvature.value(rho, 0.0) < 0.0
            ),
            default=math.inf,
        )
    return spec._critical_energy


@dataclass(frozen=True)
class Resonance:
    """An m1:m2 resonance of the equatorial orbit.

    ``I1_star`` is the action of the resonant equatorial orbit, ``omega1``
    and ``omega2`` the in-plane and transverse frequencies there, and
    ``energy`` its equatorial energy.
    """

    m1: int
    m2: int
    I1_star: float
    omega1: float
    omega2: float
    energy: float


@dataclass(frozen=True)
class PreparedHamiltonian:
    """A complexified, book-keeping-graded Hamiltonian ready to normalize.

    ``resonance`` is None for the nonresonant form and the resonance the
    form is built at otherwise; it is the only record of the mode.
    """

    poly: CanonicalPolynomial
    omega10: float
    potential: PotentialSpec
    resonance: Resonance | None = None

    @property
    def mode(self):
        return "nonresonant" if self.resonance is None else "resonant"

    @property
    def complex_pairs(self):
        """The pairs written in complex variables: (q1, p1), index 0, in
        both modes, and (q2, p2), index 1, in resonant mode only."""
        return (0,) if self.resonance is None else (0, 1)


def _validated_frequency(spec: PotentialSpec) -> float:
    for (a, b), _c in spec.as_dict().items():
        if a % 2 or b % 2:
            raise UnsupportedPotentialError(
                f"monomial rho^{a}*z^{b} has an odd power; the model must be "
                "even in rho and in z"
            )
        if a == 0:
            raise UnsupportedPotentialError(
                f"monomial z^{b} does not vanish on the magnetic axis rho=0"
            )
    c20 = spec.coefficient(2, 0)
    if c20 <= 0.0:
        raise MissingQuadraticError(
            "potential needs a rho^2 term with positive coefficient to define "
            "the elliptic frequency"
        )
    return math.sqrt(2.0 * c20)


def _rho_binomial(a, scale):
    """Coefficients of (q1 + i p1)^a scaled: list of (j, coeff) with j = p1 power."""
    return [(j, scale * math.comb(a, j) * _IPOW[j & 3]) for j in range(a + 1)]


def inverse_complexification(omega):
    """The matrix ((a, b), (c, d)), q = a x + b y and p = c x + d y, that
    inverts the complexification x = (q + i p)/sqrt(2 omega), y =
    sqrt(omega/2) (i q + p) of a real pair (x, y) at frequency omega."""
    sa = math.sqrt(2.0 * omega) / 2.0
    sb = math.sqrt(2.0 / omega) / 2.0
    return ((sa, -1j * sb), (-1j * sa, sb))


def complexify_nonresonant(spec: PotentialSpec) -> PreparedHamiltonian:
    """Rotate (rho, p_rho) to complex canonical variables and grade by degree.

    The substitution rho = (q1 + i p1)/sqrt(2 w10), p_rho =
    sqrt(w10/2) (i q1 + p1) with w10 = sqrt(2 c20) turns the quadratic part
    into exactly ``i w10 q1 p1 + p2^2 / 2``; the variables (z, p_z) are kept
    real as (q2, p2).  A term of polynomial degree 2s+2 receives
    book-keeping order s.
    """
    omega10 = _validated_frequency(spec)
    trunc = max((spec.max_degree - 2) // 2, 0)
    terms = [
        ((1, 1, 0, 0), 1j * omega10, 0),
        ((0, 0, 0, 2), 0.5, 0),
    ]
    for (a, b), c in spec.as_dict().items():
        if (a, b) == (2, 0):
            continue
        bk = (a + b - 2) // 2
        scale = c * (2.0 * omega10) ** (-a / 2.0)
        for j, coeff in _rho_binomial(a, scale):
            terms.append(((a - j, j, b, 0), coeff, bk))
    poly = CanonicalPolynomial.from_terms(terms, trunc_order=trunc)
    return PreparedHamiltonian(poly=poly, omega10=omega10, potential=spec)


def prepare_resonant(spec: PotentialSpec, resonance: Resonance) -> PreparedHamiltonian:
    """Complexify both degrees of freedom around an m1:m2 resonance.

    The (z, p_z) pair is complexified at the transverse frequency
    ``omega2`` of the resonant equatorial orbit.  The order-0 part is
    exactly ``i omega1 q1 p1 + i omega2 q2 p2``; the detuning terms
    ``-i (omega1 - w10) q1 p1`` and ``-(omega2^2) z^2 / 2`` are graded at
    book-keeping order 1 alongside the degree-4 block, so at order r the
    polynomial degrees 2, 4, ..., 2r+2 coexist.  Summing all orders (the
    book-keeping parameter set to 1) recovers the original Hamiltonian.

    Raises
    ------
    ValueError
        If m1 or m2 is below 1.
    InvalidFrequencyError
        If omega1 or omega2 is not positive.
    """
    if resonance.m1 < 1 or resonance.m2 < 1:
        raise ValueError("resonance indices must be positive integers")
    omega1, omega2 = resonance.omega1, resonance.omega2
    if omega2 <= 0.0 or omega1 <= 0.0:
        raise InvalidFrequencyError(
            f"resonant frequencies must be positive, got omega1={omega1}, "
            f"omega2={omega2}"
        )
    omega10 = _validated_frequency(spec)
    trunc = max((spec.max_degree - 2) // 2, 1)
    terms = [
        ((1, 1, 0, 0), 1j * omega1, 0),
        ((0, 0, 1, 1), 1j * omega2, 0),
        # detuning, book-keeping order 1
        ((1, 1, 0, 0), -1j * (omega1 - omega10), 1),
        ((0, 0, 2, 0), -omega2 / 4.0, 1),
        ((0, 0, 1, 1), -1j * omega2 / 2.0, 1),
        ((0, 0, 0, 2), omega2 / 4.0, 1),
    ]
    for (a, b), c in spec.as_dict().items():
        if (a, b) == (2, 0):
            continue
        bk = (a + b - 2) // 2
        scale = c * (2.0 * omega10) ** (-a / 2.0) * (2.0 * omega2) ** (-b / 2.0)
        for j1, c1 in _rho_binomial(a, scale):
            for j2, c2 in _rho_binomial(b, 1.0):
                terms.append(((a - j1, j1, b - j2, j2), c1 * c2, bk))
    poly = CanonicalPolynomial.from_terms(terms, trunc_order=trunc)
    return PreparedHamiltonian(
        poly=poly, omega10=omega10, potential=spec, resonance=resonance
    )
