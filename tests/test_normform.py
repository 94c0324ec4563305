"""Tests for the homological solvers and the normalization driver."""

import dataclasses
import math
import random

import numpy as np
import pytest

from magbottle.errors import (
    InconsistentBlockError,
    ModeError,
    NonRealHamiltonianError,
    OrderOverflowError,
    SmallDivisorError,
)
from magbottle.analysis import bifurcation_energy
from magbottle.model import (
    Resonance,
    build_builtin_model,
    complexify_nonresonant,
    parse_potential,
    prepare_resonant,
)
from magbottle.normform import (
    _partition,
    equatorial_energy_series,
    extract_omega2_squared,
    kernel_mask,
    normalize,
    solve_homological_nonresonant,
    solve_homological_resonant,
)
from magbottle.polyalg import (
    CanonicalPolynomial,
    _lattice,
    conjugate,
    lie_transform,
    poisson_bracket,
)

from conftest import jittered_builtin
from oracles import coefficient_distance, rational_action_series, rational_normal_form


def make(terms, trunc=10, cap=None):
    return CanonicalPolynomial.from_terms(terms, trunc_order=trunc, degree_cap=cap)


def resonance(m1, m2, omega1, omega2, I1_star=0.25):
    """A resonance built by hand; its energy is the leading term I1_star
    omega1 of the equatorial energy, which no normalization reads."""
    return Resonance(m1, m2, I1_star, omega1, omega2, energy=I1_star * omega1)


#: the 2:1 resonance the resonant normalization tests are built at
RES21 = resonance(2, 1, omega1=0.93, omega2=0.465)


# ------------------------------------------------------------------- kernels


def test_nonresonant_kernel_predicate():
    def kern(key):
        return kernel_mask(None, *key)

    assert kern((0, 0, 0, 2))  # p2^2
    assert kern((1, 1, 0, 0))  # q1 p1
    assert kern((2, 2, 4, 0))  # (q1 p1)^2 q2^4
    assert not kern((2, 1, 1, 0))  # k1 != l1
    assert not kern((1, 1, 1, 1))  # carries p2
    assert not kern((0, 0, 2, 0))  # pure q2^2
    assert not kern((0, 0, 0, 4))  # p2^4


def test_resonant_kernel_predicate():
    def kern(key):
        return kernel_mask(RES21, *key)

    assert kern((1, 1, 3, 3))
    assert kern((1, 0, 0, 2))  # (1-0)*2 + (0-2)*1 = 0
    assert kern((0, 1, 2, 0))
    assert not kern((1, 0, 2, 0))
    assert not kern((0, 0, 1, 0))
    with pytest.raises(ValueError):
        prepare_resonant(build_builtin_model(), resonance(0, 1, 0.93, 0.465))


def test_kernel_mask_matches_scalar_predicate():
    keys = [(k1, l1, k2, l2) for k1 in range(3) for l1 in range(3)
            for k2 in range(4) for l2 in range(4)]
    arrays = tuple(np.array(col) for col in zip(*keys))
    for res in (None, resonance(3, 1, 0.93, 0.31)):
        mask = kernel_mask(res, *arrays)
        for key, bit in zip(keys, mask):
            assert bool(bit) == kernel_mask(res, *key)


# -------------------------------------------------- nonresonant block solver


Z0 = make([((1, 1, 0, 0), 1j, 0), ((0, 0, 0, 2), 0.5, 0)])


def check_cancellation(htilde, chi):
    residual = poisson_bracket(Z0, chi) + htilde
    assert residual.max_abs() < 1e-12


def test_solver_single_offdiagonal_term():
    # a q1^2 p1 p2: block (2,1), diagonal i(1-2) = -i
    htilde = make([((2, 1, 0, 1), 2.0, 1)])
    chi = solve_homological_nonresonant(htilde, 1.0, 1)
    check_cancellation(htilde, chi)
    assert chi.coefficient(2, 1, 0, 1) == pytest.approx(2.0 / 1j)


def test_solver_ladder_spill():
    # a q2-carrying term makes backward substitution fill the p2 slot below
    htilde = make([((2, 1, 1, 0), 2.0, 1)])
    chi = solve_homological_nonresonant(htilde, 1.0, 1)
    check_cancellation(htilde, chi)
    assert chi.coefficient(2, 1, 1, 0) != 0.0
    assert chi.coefficient(2, 1, 0, 1) != 0.0


def test_solver_diagonal_block_recursion():
    # k=l block: b_{n+1} = h_n/(n+1) against {p2^2/2, .}
    htilde = make([((1, 1, 0, 2), 1.5, 1), ((1, 1, 1, 1), -2.0j, 1)])
    chi = solve_homological_nonresonant(htilde, 1.0, 1)
    check_cancellation(htilde, chi)
    assert chi.coefficient(1, 1, 1, 1) == pytest.approx(1.5)


def test_solver_rejects_inconsistent_diagonal_block():
    htilde = make([((1, 1, 2, 0), 1.0, 1)])  # pure q2 in a k=l block
    with pytest.raises(InconsistentBlockError):
        solve_homological_nonresonant(htilde, 1.0, 1)


def test_solver_zero_input():
    chi = solve_homological_nonresonant(CanonicalPolynomial.zero(5), 1.0, 3)
    assert chi.nterms == 0


def test_solver_random_order_cancellation():
    rng = np.random.default_rng(5)
    r = 2
    terms = []
    for k1 in range(7):
        for l1 in range(7 - k1):
            for k2 in range(7 - k1 - l1):
                l2 = 6 - k1 - l1 - k2
                if k1 == l1 == 0 and l2 == 0:
                    # pure q2^6 has no solution and never arises: every
                    # admissible potential term carries at least rho^2
                    continue
                if not kernel_mask(None, k1, l1, k2, l2):
                    c = rng.standard_normal() + 1j * rng.standard_normal()
                    terms.append(((k1, l1, k2, l2), c, r))
    htilde = make(terms)
    chi = solve_homological_nonresonant(htilde, 1.0, r)
    check_cancellation(htilde, chi)


def test_solver_generic_frequency():
    w = 1.83
    z0 = make([((1, 1, 0, 0), 1j * w, 0), ((0, 0, 0, 2), 0.5, 0)])
    htilde = make([((3, 1, 0, 2), 1.0, 2), ((0, 2, 3, 1), 0.7j, 2)])
    chi = solve_homological_nonresonant(htilde, w, 2)
    assert (poisson_bracket(z0, chi) + htilde).max_abs() < 1e-12


# ------------------------------------------------------------ resonant solver


def test_resonant_solver_example_divisor():
    # q1 q2 p2^2 with w1=1, w2=0.5: divisor i(1*1 + (1-2)*0.5) = 0.5i
    htilde = make([((1, 0, 1, 2), 3.0, 1)])
    chi = solve_homological_resonant(htilde, resonance(2, 1, 1.0, 0.5))
    assert chi.coefficient(1, 0, 1, 2) == pytest.approx(3.0 / 0.5j)
    z0 = make([((1, 1, 0, 0), 1j, 0), ((0, 0, 1, 1), 0.5j, 0)])
    assert (poisson_bracket(z0, chi) + htilde).max_abs() < 1e-12


def test_resonant_solver_small_divisor():
    # (k1-l1) w1 + (k2-l2) w2 = 2*1.0 - 4*0.5000000001 ~ -4e-10
    htilde = make([((2, 0, 0, 4), 1.0, 1)])
    with pytest.raises(SmallDivisorError) as info:
        solve_homological_resonant(htilde, resonance(3, 1, 1.0, 0.5000000001))
    assert info.value.key == (2, 0, 0, 4)


def test_resonant_solver_rejects_kernel_terms():
    htilde = make([((1, 0, 0, 2), 1.0, 1)])  # inside the 2:1 kernel
    with pytest.raises(ValueError):
        solve_homological_resonant(htilde, resonance(2, 1, 0.9, 0.45))


def test_resonant_solver_zero_input():
    chi = solve_homological_resonant(
        CanonicalPolynomial.zero(5), resonance(2, 1, 0.9, 0.45)
    )
    assert chi.nterms == 0


# ----------------------------------------------------------------- normalize


@pytest.fixture(scope="module")
def nf5():
    return normalize(complexify_nonresonant(build_builtin_model()), r_max=5,
                     r_trunc=6)


def test_normalize_r0_is_identity():
    prep = complexify_nonresonant(build_builtin_model())
    state = normalize(prep, r_max=0, r_trunc=4)
    assert state.r == 0
    assert coefficient_distance(state.hamiltonian, prep.poly.copy(trunc_order=4)) == 0.0
    assert state.normal_form.nterms == 2
    assert not state.generators


def test_normalize_rejects_order_above_truncation():
    prep = complexify_nonresonant(build_builtin_model())
    with pytest.raises(OrderOverflowError):
        normalize(prep, r_max=8, r_trunc=6)


def test_normalized_energy_series_matches_published_values(nf5):
    series = equatorial_energy_series(nf5)
    published = {1: 1.0, 2: -0.1875, 3: -0.046875, 4: -0.0256348,
                 5: -0.0184021, 6: -0.0152607}
    for n, want in published.items():
        assert series[n] == pytest.approx(want, rel=5e-5)


def test_normalized_q2_ladders_match_published_values(nf5):
    ham = nf5.hamiltonian

    def real_coeff(n, k2):
        gamma = ham.coefficient(n, n, k2, 0, bk=n + k2 // 2 - 1)
        value = gamma * (-1j) ** n
        assert abs(value.imag) < 1e-10
        return value.real

    published = {
        (1, 2): 0.5, (2, 2): 0.15625, (3, 2): 0.1875, (4, 2): 0.299194,
        (5, 2): 0.551285,
        (2, 4): -0.151042, (3, 4): -0.46224, (4, 4): -1.29767,
        (2, 6): 0.107812, (3, 6): 0.669227,
        (2, 8): -0.0697545,
    }
    for (n, k2), want in published.items():
        assert real_coeff(n, k2) == pytest.approx(want, rel=5e-5)
    assert ham.coefficient(0, 0, 0, 2, bk=0) == 0.5


def test_omega2_squared_series(nf5):
    series = extract_omega2_squared(nf5)
    published = {1: 1.0, 2: 0.3125, 3: 0.375, 4: 0.598388, 5: 1.10257}
    for n, want in published.items():
        assert series[n] == pytest.approx(want, rel=5e-5)


def test_low_order_coefficients_are_exact_rationals(nf5):
    # independent exact-arithmetic normalization of the same model
    z_parts, _chis = rational_normal_form(3)
    eq_exact = rational_action_series(z_parts, "energy")
    w2_exact = rational_action_series(z_parts, "omega2sq")
    eq = equatorial_energy_series(nf5)
    w2 = extract_omega2_squared(nf5)
    for n, frac in eq_exact.items():
        assert eq[n] == pytest.approx(float(frac), abs=1e-13)
    for n, frac in w2_exact.items():
        assert w2[n] == pytest.approx(float(frac), abs=1e-13)
    # headline values: 5/16 and 3/8 transverse, -3/16 and -105/4096 equatorial
    assert w2_exact[2] == pytest.approx(5.0 / 16.0)
    assert w2_exact[3] == pytest.approx(3.0 / 8.0)
    assert eq_exact[2] == pytest.approx(-3.0 / 16.0)
    assert eq_exact[4] == pytest.approx(-105.0 / 4096.0)


def test_kernel_purity(nf5):
    for s, zpart in enumerate(nf5.Z):
        for key, _c, bk in zpart.term_items():
            assert bk == s
            if s > 0:
                assert kernel_mask(None, *key), (key, s)


def test_z0_unchanged(nf5):
    z0 = nf5.Z[0]
    assert z0.as_dict() == {(1, 1, 0, 0, 0): 1j, (0, 0, 0, 2, 0): 0.5 + 0j}


def test_residuals_are_small(nf5):
    for absolute, scale in nf5.residuals:
        assert absolute < 1e-11
        assert absolute <= 1e-13 * max(1.0, scale)


@pytest.mark.parametrize("name", ["prep", "res21_prep"])
def test_recorded_residual_equals_the_bracket_residual_bitwise(request, name):
    # normalize reads each step's residual off the transformed Hamiltonian;
    # it must equal the infinity norm of {Z_0, chi_r} + Htilde_r formed by
    # a bracket, bit for bit
    prepared = request.getfixturevalue(name)
    r_trunc = 9 if prepared.resonance is None else 10
    before = [prepared.poly.copy(trunc_order=r_trunc)]
    state = normalize(prepared, r_max=8, r_trunc=r_trunc,
                      step_callback=lambda r, ham: before.append(ham))
    z0, pairs = before[0].bk_part(0), prepared.complex_pairs
    for r, (chi, recorded) in enumerate(zip(state.generators, state.residuals), 1):
        _inside, htilde = _partition(before[r - 1].bk_part(r), prepared.resonance)
        residual = poisson_bracket(z0, chi, pairs) + htilde
        want = (residual.max_abs(), htilde.max_abs())
        assert [v.hex() for v in recorded] == [v.hex() for v in want], r
    # from r = 5 on the cancellation leaves rounding, which the bracket and
    # the transform must leave alike
    assert state.residuals[-1][0] > 0.0


def test_normal_form_commutes_with_action(nf5):
    # {i q1 p1, Z} = 0: Z depends on (q1, p1) only through the product q1 p1
    action = CanonicalPolynomial.from_terms([((1, 1, 0, 0), 1j, 0)], trunc_order=6)
    assert poisson_bracket(action, nf5.normal_form).max_abs() < 1e-12


def test_inverse_transform_recovers_input():
    prep = complexify_nonresonant(build_builtin_model())
    state = normalize(prep, r_max=3, r_trunc=6)
    back = state.hamiltonian
    for chi in reversed(state.generators):
        back = lie_transform(back, chi, inverse=True)
    assert coefficient_distance(back, prep.poly.copy(trunc_order=6)) < 1e-10


def test_normalize_is_deterministic():
    prep = complexify_nonresonant(build_builtin_model())
    a = normalize(prep, r_max=4, r_trunc=5).hamiltonian.as_dict()
    b = normalize(prep, r_max=4, r_trunc=5).hamiltonian.as_dict()
    assert a == b


def test_step_callback_observes_each_step():
    seen = []
    normalize(complexify_nonresonant(build_builtin_model()), r_max=3, r_trunc=4,
              step_callback=lambda r, ham: seen.append((r, ham.nterms)))
    assert [r for r, _n in seen] == [1, 2, 3]


#: the builtin model with every non-quadratic coefficient moved by a few %
JITTERED = (
    "0.5*rho^2 + 0.51*rho^2*z^2 - 0.1231*rho^4 + 0.1289*rho^2*z^4"
    " - 0.0608*rho^4*z^2 + 0.00801*rho^6"
)


@pytest.mark.parametrize("potential", ["builtin", "jittered"])
def test_transverse_cap_reproduces_the_low_transverse_degrees(potential):
    if potential == "builtin":
        spec = build_builtin_model()
    else:
        spec = parse_potential(JITTERED)
    prep = complexify_nonresonant(spec)
    full = normalize(prep, r_max=12, r_trunc=12)
    capped = normalize(prep, r_max=12, r_trunc=12, transverse_cap=2)
    assert full.transverse_cap is None and capped.transverse_cap == 2
    assert equatorial_energy_series(capped) == equatorial_energy_series(full)
    assert extract_omega2_squared(capped) == extract_omega2_squared(full)
    low = {
        key: c
        for key, c in full.hamiltonian.as_dict().items()
        if key[2] + key[3] <= 2
    }
    assert capped.hamiltonian.as_dict() == low
    assert capped.hamiltonian.nterms < full.hamiltonian.nterms
    assert all(chi.transverse_cap == 2 for chi in capped.generators)


def test_extractors_reject_resonant_states(res21):
    with pytest.raises(ModeError):
        extract_omega2_squared(res21)
    with pytest.raises(ModeError):
        equatorial_energy_series(res21)


# ------------------------------------------------------ resonant normalization


@pytest.fixture(scope="module")
def res21():
    prep = prepare_resonant(build_builtin_model(), RES21)
    return normalize(prep, r_max=4, r_trunc=6)


def test_resonant_kernel_purity(res21):
    for s, zpart in enumerate(res21.Z):
        for key, _c, _bk in zpart.term_items():
            if s > 0:
                assert kernel_mask(RES21, *key), (key, s)


def test_resonant_residuals(res21):
    for absolute, scale in res21.residuals:
        assert absolute < 1e-11
        assert absolute <= 1e-12 * max(1.0, scale)


def test_resonant_normal_form_commutes_with_resonant_action(res21):
    combo = CanonicalPolynomial.from_terms(
        [((1, 1, 0, 0), 2j, 0), ((0, 0, 1, 1), 1j, 0)], trunc_order=6
    )
    assert poisson_bracket(combo, res21.normal_form).max_abs() < 1e-11


def test_resonant_inverse_transform_recovers_input():
    prep = prepare_resonant(build_builtin_model(), RES21)
    state = normalize(prep, r_max=3, r_trunc=5)
    back = state.hamiltonian
    for chi in reversed(state.generators):
        back = lie_transform(back, chi, inverse=True)
    assert coefficient_distance(back, prep.poly.copy(trunc_order=5)) < 1e-10


def test_resonant_z1_contains_detuning(res21):
    # the detuning terms sit inside the 2:1 kernel, so step 1 keeps them
    z1 = res21.Z[1]
    assert z1.coefficient(1, 1, 0, 0, bk=1) == pytest.approx(-1j * (0.93 - 1.0))
    assert z1.coefficient(0, 0, 1, 1, bk=1) == pytest.approx(-1j * 0.465 / 2.0)


# -------------------------------------------------------------------- reality


def conjugacy_gap(poly, pairs):
    """Largest |c - c*| over the terms of ``poly`` and of its conjugate."""
    other = conjugate(poly, pairs)
    keys = np.union1d(poly._keys, other._keys)
    gap = np.zeros(keys.size, dtype=complex)
    gap[np.searchsorted(keys, poly._keys)] += poly._coeffs
    gap[np.searchsorted(keys, other._keys)] -= other._coeffs
    return float(np.abs(gap).max(initial=0.0))


@pytest.fixture(scope="module")
def nf16():
    return normalize(complexify_nonresonant(build_builtin_model()), r_max=16,
                     r_trunc=17)


@pytest.mark.parametrize("name", ["nf8", "res21_nf8", "nf16"])
def test_hamiltonian_and_generators_are_real(request, name):
    # a real function in complex variables is its own conjugate
    state = request.getfixturevalue(name)
    pairs = state.prepared.complex_pairs
    assert len(state.generators) == state.r
    for poly in [state.hamiltonian, *state.generators]:
        assert conjugacy_gap(poly, pairs) <= 1e-12 * poly.max_abs()


def test_resonant_transform_is_exactly_real(res21_nf8):
    # each bracket sums one product and its exact conjugate, so the
    # resonant Hamiltonian and generators are their own conjugates bit for bit
    pairs = res21_nf8.prepared.complex_pairs
    for poly in [res21_nf8.hamiltonian, *res21_nf8.generators]:
        other = conjugate(poly, pairs)
        assert np.array_equal(other._keys, poly._keys)
        assert np.array_equal(other._coeffs, poly._coeffs)


@pytest.mark.parametrize("mode", ["nonresonant", "resonant"])
def test_normalize_refuses_a_non_real_hamiltonian(mode):
    spec = build_builtin_model()
    if mode == "nonresonant":
        prep = complexify_nonresonant(spec)
    else:
        prep = prepare_resonant(spec, RES21)
    # q1^3 p1 at bk 1 is real only together with its partner i^4 conj(c) q1 p1^3
    c = prep.poly.coefficient(3, 1, 0, 0, bk=1)
    bad = prep.poly + make([((3, 1, 0, 0), 1e-6 * abs(c) * 1j, 1)],
                           trunc=prep.poly.trunc_order)
    with pytest.raises(NonRealHamiltonianError):
        normalize(dataclasses.replace(prep, poly=bad), r_max=1, r_trunc=2)
    normalize(prep, r_max=1, r_trunc=2)


# -------------------------------------------------------------- phase lattice


def lattice_theta(poly):
    """theta of a polynomial on the phase lattice, None off it."""
    lattice = _lattice(poly)
    return None if lattice is None else lattice[0]


@pytest.mark.parametrize("potential", ["builtin", 1, 2])
@pytest.mark.parametrize("mode", ["nonresonant", "resonant"])
def test_normalization_stays_on_the_phase_lattice(potential, mode):
    # the prepared H and every Lie image of it have theta 0, every
    # generator theta 1, so each large product is summed in float64
    if potential == "builtin":
        spec = build_builtin_model()
    else:
        spec = jittered_builtin(random.Random(potential))
    prep = complexify_nonresonant(spec)
    if mode == "resonant":
        prep = prepare_resonant(
            spec, bifurcation_energy(normalize(prep, r_max=8, r_trunc=9), 2, 1)
        )
    state = normalize(prep, r_max=6, r_trunc=8)
    for poly in (prep.poly, state.normal_form, state.remainder):
        assert poly.nterms and lattice_theta(poly) == 0
    chis = [chi for chi in state.generators if chi.nterms]
    assert chis
    assert all(lattice_theta(chi) == 1 for chi in chis)
