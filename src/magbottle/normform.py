"""Recursive Lie-series normalization of prepared Hamiltonians.

Each step r splits the book-keeping-order-r part of the working Hamiltonian
into its normal-form component (terms inside the kernel set) and the rest,
solves the homological equation ``{Z_0, chi_r} = -Htilde_r`` for a generator,
and pushes the Hamiltonian through ``exp(L_chi_r)``.  After ``r_max`` steps
the orders 0..r_max hold the normal form Z and the higher orders hold the
remainder.

One predicate, :func:`kernel_mask`, selects the kernel from the
prepared Hamiltonian's resonance.  With no resonance it is the
nonresonant set built on the nilpotent quadratic part
``i w10 q1 p1 + p2^2/2`` (bidiagonal block solve by backward
substitution); with an m1:m2 periodic-orbit resonance it is the resonant
set (diagonal per-monomial solve with a small-divisor guard).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InconsistentBlockError,
    ModeError,
    NonRealHamiltonianError,
    NonRealIntegralError,
    OrderOverflowError,
    SmallDivisorError,
)
from .model import PreparedHamiltonian, Resonance
from .polyalg import (
    _IPOW,
    CanonicalPolynomial,
    conjugate,
    lie_transform,
)

__all__ = [
    "kernel_mask",
    "require_real",
    "NormalizationState",
    "solve_homological_nonresonant",
    "solve_homological_resonant",
    "normalize",
    "extract_omega2_squared",
    "equatorial_energy_series",
]

#: absolute tolerance on the consistency entry of a k=l block
BLOCK_TOL = 1e-12
#: resonant solver refuses divisors below this magnitude
DIVISOR_FLOOR = 1e-9
#: largest |c - c*| of a prepared Hamiltonian, relative to its largest |c|
REALITY_TOL = 1e-12


def kernel_mask(resonance: Resonance | None, k1, l1, k2, l2):
    """The kernel predicate, over exponent arrays or on one term's exponents.

    Without a resonance the kernel holds the terms with k1 = l1 that
    either carry no p2 (when k1 + l1 > 0) or are exactly p2^2 (when
    k1 + l1 = 0).  For an m1:m2 resonance it holds the terms with
    (k1 - l1) m1 + (k2 - l2) m2 = 0.
    """
    if resonance is None:
        trans = (k1 + l1 > 0) & (l2 == 0)
        axis = (k1 + l1 == 0) & (k2 == 0) & (l2 == 2)
        return (k1 == l1) & (trans | axis)
    return (k1 - l1) * resonance.m1 + (k2 - l2) * resonance.m2 == 0


def require_real(poly, pairs, error, name):
    """Raise ``error`` if ``poly`` differs from its conjugate on ``pairs`` by
    more than ``REALITY_TOL`` of its largest coefficient; ``name`` names
    ``poly`` in the message."""
    gap = (poly - conjugate(poly, pairs)).max_abs()
    if gap > REALITY_TOL * poly.max_abs():
        raise error(
            f"{name} differs from its conjugate on pairs {pairs} "
            f"by {gap:.3e} (largest coefficient {poly.max_abs():.3e})"
        )


def _partition(poly, resonance):
    """Split ``poly`` into (kernel part, complement) preserving truncation."""
    if poly.nterms == 0:
        return poly, poly
    k1, l1, k2, l2, _, _ = poly.term_arrays()
    mask = kernel_mask(resonance, k1, l1, k2, l2)
    inside = poly._same_bounds(poly._keys[mask], poly._coeffs[mask])
    outside = poly._same_bounds(poly._keys[~mask], poly._coeffs[~mask])
    return inside, outside


def solve_homological_nonresonant(
    htilde: CanonicalPolynomial, omega10: float, r: int
) -> CanonicalPolynomial:
    """Generator chi_r with ``{Z_0, chi_r} = -Htilde_r`` in nonresonant mode.

    ``Z_0 = i w10 q1 p1 + p2^2/2`` acts block-diagonally on the (k1, l1)
    exponent pairs: within a block the q2-ladder gives a bidiagonal system
    with diagonal ``i (l1 - k1) w10`` and subdiagonal from ``p2^2/2``, solved
    by backward substitution.  In a k1 = l1 block the diagonal vanishes; the
    free coefficient is set to zero and the top entry must vanish, which is
    guaranteed when the kernel predicate removed every pure-q2 term.

    Raises
    ------
    InconsistentBlockError
        If a k1 = l1 block has a pure-q2 entry above ``BLOCK_TOL``.
    """
    if htilde.nterms == 0:
        return htilde
    k1, l1, k2, l2, _, coeffs = htilde.term_arrays(lexicographic=True)
    degree = int(2 * r + 2)
    if not np.all(k1 + l1 + k2 + l2 == degree):
        raise ValueError(f"terms of order {r} must have polynomial degree {degree}")
    out = []
    # sorted by (k1, l1) first, each block is a run
    new_block = (k1[1:] != k1[:-1]) | (l1[1:] != l1[:-1])
    bounds = np.flatnonzero(np.concatenate([[True], new_block, [True]]))
    for i0, i1 in zip(bounds[:-1], bounds[1:]):
        k, l = int(k1[i0]), int(l1[i0])
        span = degree - k - l
        h = np.zeros(span + 1, dtype=np.complex128)
        h[k2[i0:i1]] = coeffs[i0:i1]
        b = np.zeros(span + 1, dtype=np.complex128)
        if k != l:
            c = 1j * (l - k) * omega10
            b[span] = -h[span] / c
            for n in range(span - 1, -1, -1):
                b[n] = ((n + 1) * b[n + 1] - h[n]) / c
        else:
            if abs(h[span]) > BLOCK_TOL:
                raise InconsistentBlockError(
                    f"k=l block ({k},{l}) at order {r} has pure-q2 entry "
                    f"{abs(h[span]):.3e} (tol {BLOCK_TOL:g}); a term outside "
                    "the admissible class reached the solver"
                )
            for n in range(span):
                b[n + 1] = h[n] / (n + 1)
        for n in range(span + 1):
            if b[n] != 0.0:
                out.append(((k, l, n, span - n), b[n], r))
    return CanonicalPolynomial.from_terms(
        out,
        trunc_order=htilde.trunc_order,
        degree_cap=htilde.degree_cap,
        transverse_cap=htilde.transverse_cap,
    )


def solve_homological_resonant(
    htilde: CanonicalPolynomial, resonance: Resonance
) -> CanonicalPolynomial:
    """Generator chi_r with ``{Z_0, chi_r} = -Htilde_r`` in resonant mode.

    ``Z_0 = i w1 q1 p1 + i w2 q2 p2`` is diagonal on monomials, so each
    coefficient is divided by ``i ((k1-l1) w1 + (k2-l2) w2)``.

    Raises
    ------
    ValueError
        If a term inside the resonance's kernel reaches the solver.
    SmallDivisorError
        If a divisor magnitude falls below ``DIVISOR_FLOOR``, reporting the
        offending exponent key.
    """
    if htilde.nterms == 0:
        return htilde
    k1, l1, k2, l2, _, coeffs = htilde.term_arrays()
    if np.any(kernel_mask(resonance, k1, l1, k2, l2)):
        raise ValueError(
            f"terms inside the {resonance.m1}:{resonance.m2} kernel must not "
            "reach the resonant solver"
        )
    divisor = (k1 - l1) * resonance.omega1 + (k2 - l2) * resonance.omega2
    small = np.abs(divisor) < DIVISOR_FLOOR
    if np.any(small):
        i = int(np.argmax(small))
        key = (int(k1[i]), int(l1[i]), int(k2[i]), int(l2[i]))
        raise SmallDivisorError(key, float(divisor[i]), DIVISOR_FLOOR)
    return htilde._same_bounds(htilde._keys.copy(), coeffs / (1j * divisor))


@dataclass
class NormalizationState:
    """Result of ``r`` normalization steps.

    ``hamiltonian`` is the full transformed Hamiltonian H^(r) truncated at
    ``r_trunc``; orders 0..r form the normal form and orders r+1..r_trunc
    the remainder.  ``residuals`` holds per-step pairs (infinity norm of
    ``{Z_0, chi_r} + Htilde_r``, infinity norm of ``Htilde_r``); a step
    with nothing to remove records (0.0, 0.0).  The residual is what the
    step's transform left outside the kernel at order r, read before that
    slice is replaced by its kernel part (see :func:`normalize`).
    ``transverse_cap`` is the Hamiltonian's cap on k2 + l2 (None for a
    full run); a capped state holds only the terms up to that transverse
    degree, in the Hamiltonian and in the generators.
    """

    prepared: PreparedHamiltonian
    r: int
    r_trunc: int
    hamiltonian: CanonicalPolynomial
    generators: list = field(default_factory=list)
    residuals: list = field(default_factory=list)

    @property
    def transverse_cap(self):
        return self.hamiltonian.transverse_cap

    def require_full(self, consumer):
        """Raise ModeError if the state was normalized under a transverse cap.

        ``consumer`` names the operation that reads every transverse degree.
        """
        if self.transverse_cap is not None:
            raise ModeError(
                f"{consumer} reads every transverse degree, but the state was "
                f"normalized with transverse_cap={self.transverse_cap}"
            )

    @property
    def Z(self):
        """Normal-form parts per book-keeping order, list of length r+1."""
        return [self.hamiltonian.bk_part(s) for s in range(self.r + 1)]

    @property
    def normal_form(self):
        """Orders 0..r of the transformed Hamiltonian as one polynomial."""
        return self.hamiltonian.restrict_bk(0, self.r)

    @property
    def remainder(self):
        """Orders r+1..r_trunc of the transformed Hamiltonian."""
        return self.hamiltonian.restrict_bk(self.r + 1, self.r_trunc)


def normalize(
    prepared: PreparedHamiltonian,
    r_max: int,
    r_trunc: int,
    step_callback=None,
    transverse_cap: int | None = None,
) -> NormalizationState:
    """Run ``r_max`` normalization steps, truncating at order ``r_trunc``.

    After each step the order-r slice is replaced by its exact kernel part:
    the transform cancels the non-kernel terms only to rounding, and the
    leftover dust would otherwise pollute the normal form.  That dust is
    the step's residual: the only contribution of ``exp(L_chi_r)`` at
    order r is ``{Z_0, chi_r}``, so the transformed order-r slice less its
    kernel part is ``Htilde_r + {Z_0, chi_r}``, term for term the sum the
    bracket would form.  Its largest coefficient is read off the
    transformed Hamiltonian before the slice is replaced and recorded in
    ``state.residuals``; no bracket is formed for it.

    ``transverse_cap`` drops every term of transverse degree k2 + l2 above
    the cap from the working Hamiltonian and the generators.  The terms up
    to the cap come out exactly as in the full run, because in the
    admissible models, where every term has even transverse degree, a higher
    transverse degree never feeds a lower one (see :mod:`polyalg`), so a
    cap of 2 serves every reader of the equatorial energy and omega2^2
    series at a fraction of the cost.  The back-transform reads the whole
    polynomial and refuses a capped state.

    The Hamiltonian and every generator are real functions written in the
    complex variables of ``prepared.complex_pairs``, so each bracket forms
    one product per complex pair and takes the other as its conjugate (see
    :func:`polyalg.poisson_bracket`).

    Both also lie on the phase lattice of :mod:`polyalg`: every coefficient
    of the Hamiltonian is i^(l1+l2) r (theta 0) and every coefficient of a
    generator i^(1+l1+l2) r (theta 1), with r real. V is real, and the
    momenta enter only through the kinetic term, so the prepared
    Hamiltonian has theta 0; the theta of a bracket is that of its factors
    plus one, mod 2 as i^2 = -1 goes into r, and each homological solver
    adds one. So every large product of the run is summed in float64.

    ``step_callback(r, hamiltonian)``, when given, observes the working
    Hamiltonian after each step; it must not mutate it.

    Raises
    ------
    OrderOverflowError
        If ``r_max > r_trunc``.
    NonRealHamiltonianError
        If ``prepared.poly`` differs from its conjugate by more than
        ``REALITY_TOL`` of its largest coefficient.
    """
    if r_max < 0:
        raise ValueError(f"r_max must be non-negative, got {r_max}")
    if r_max > r_trunc:
        raise OrderOverflowError(
            f"normalization order {r_max} exceeds truncation order {r_trunc}"
        )
    pairs = prepared.complex_pairs
    require_real(prepared.poly, pairs, NonRealHamiltonianError, "prepared Hamiltonian")
    resonance = prepared.resonance
    ham = prepared.poly.copy(trunc_order=r_trunc, transverse_cap=transverse_cap)
    state = NormalizationState(
        prepared=prepared, r=0, r_trunc=r_trunc, hamiltonian=ham
    )
    for r in range(1, r_max + 1):
        order_part = ham.bk_part(r)
        inside, htilde = _partition(order_part, resonance)
        if htilde.nterms:
            if resonance is None:
                chi = solve_homological_nonresonant(htilde, prepared.omega10, r)
            else:
                chi = solve_homological_resonant(htilde, resonance)
            ham = lie_transform(ham, chi, complex_pairs=pairs)
            # the transform left Htilde_r + {Z_0, chi_r} beside the kernel part
            residual = (ham.bk_part(r) - inside).max_abs()
            state.residuals.append((residual, htilde.max_abs()))
            # replace the order-r slice with its exact kernel part
            ham = ham.restrict_bk(0, r - 1) + inside + ham.restrict_bk(r + 1, r_trunc)
        else:
            chi = CanonicalPolynomial.zero(r_trunc, ham.degree_cap, transverse_cap)
            state.residuals.append((0.0, 0.0))
        state.generators.append(chi)
        state.r = r
        state.hamiltonian = ham
        if step_callback is not None:
            step_callback(r, ham)
    return state


def _real_series_coefficient(gamma, n):
    """Real c with c * i^n = gamma, for coefficients of (i q1 p1)^n terms."""
    c = gamma * _IPOW[-n & 3]
    if abs(c.imag) > 1e-10 * max(1.0, abs(c)):
        raise NonRealIntegralError(
            f"coefficient {gamma} at action power {n} is not real after "
            "de-complexification"
        )
    return float(c.real)


def extract_omega2_squared(state: NormalizationState) -> dict:
    """Transverse frequency series: w2^2(I1) = sum_n w_n I1^n, n = 1..r.

    Reads the I1^n q2^2 coefficients of the nonresonant normal form, where
    I1 = i q1 p1, and doubles them.

    Raises
    ------
    ModeError
        If the state is resonant; the resonant normal form has no
        single-frequency q2^2 ladder.
    """
    if state.prepared.resonance is not None:
        raise ModeError("omega2^2 extraction requires a nonresonant normal form")
    series = {}
    for n in range(1, state.r + 1):
        gamma = state.hamiltonian.coefficient(n, n, 2, 0, bk=n)
        series[n] = 2.0 * _real_series_coefficient(gamma, n)
    return series


def equatorial_energy_series(state: NormalizationState) -> dict:
    """Equatorial energy Z(I1) = sum_n e_n I1^n, n = 1..r+1.

    Reads the pure-action terms of the nonresonant normal form (q2 = p2 = 0).

    Raises
    ------
    ModeError
        If the state is resonant.
    """
    if state.prepared.resonance is not None:
        raise ModeError("equatorial series extraction requires a nonresonant state")
    series = {}
    for n in range(1, state.r + 2):
        gamma = state.hamiltonian.coefficient(n, n, 0, 0, bk=n - 1)
        series[n] = _real_series_coefficient(gamma, n)
    return series
