"""Tests for potential parsing and Hamiltonian preparation."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq

from magbottle.errors import (
    InvalidFrequencyError,
    MissingQuadraticError,
    NonPolynomialError,
    ParseError,
    UnsupportedPotentialError,
)
from magbottle.model import (
    PotentialSpec,
    Resonance,
    brentq,
    build_builtin_model,
    complexify_nonresonant,
    critical_energy,
    inverse_complexification,
    parse_potential,
    potential_to_text,
    prepare_resonant,
)
from magbottle.polyalg import evaluate, substitute_pairs


# ------------------------------------------------------------- the potential


def test_builtin_vanishes_on_axis():
    V = build_builtin_model()
    for z in (-3.0, 0.0, 0.7, 12.0):
        assert V.value(0.0, z) == 0.0


def test_builtin_point_value():
    assert build_builtin_model().value(1.0, 1.0) == pytest.approx(0.9453125, abs=1e-15)


def test_builtin_equatorial_profile_and_barrier():
    V = build_builtin_model()
    rho = np.linspace(0.0, 2.5, 11)
    profile = 0.5 * rho**2 * (1.0 - rho**2 / 8.0) ** 2
    assert np.allclose(V.value(rho, 0.0), profile, atol=1e-15)
    rho_max = math.sqrt(8.0 / 3.0)
    assert V.value(rho_max, 0.0) == pytest.approx(16.0 / 27.0, abs=1e-14)
    assert critical_energy(V) == pytest.approx(16.0 / 27.0, abs=1e-12)


def test_critical_energy_confining_well_is_infinite():
    assert critical_energy(parse_potential("0.5*rho^2")) == math.inf


def test_partial_derivatives_match_finite_differences():
    V = build_builtin_model()
    h = 1e-6
    for rho, z in ((0.8, 0.3), (1.4, -0.9), (0.2, 1.7)):
        drho = (V.value(rho + h, z) - V.value(rho - h, z)) / (2 * h)
        dz = (V.value(rho, z + h) - V.value(rho, z - h)) / (2 * h)
        dzz = (V.value(rho, z + h) - 2 * V.value(rho, z) + V.value(rho, z - h)) / h**2
        assert V.derivative(1, 0).value(rho, z) == pytest.approx(drho, rel=1e-8)
        assert V.derivative(0, 1).value(rho, z) == pytest.approx(dz, rel=1e-8)
        assert V.derivative(0, 2).value(rho, z) == pytest.approx(dzz, rel=1e-3)


def test_partial_zz_on_equator():
    V = build_builtin_model()
    rho = 1.3
    want = rho**2 - rho**4 / 8.0
    assert V.derivative(0, 2).value(rho, 0.0) == pytest.approx(want, abs=1e-14)


def _term_by_term(V, n_rho, n_z, rho, z):
    # each coefficient times its exponents, rho first, then the powers
    out = np.zeros(np.broadcast(rho, z).shape)
    for (a, b), c in V.as_dict().items():
        if a < n_rho or b < n_z:
            continue
        for k in range(n_rho):
            c = c * (a - k)
        for k in range(n_z):
            c = c * (b - k)
        out = out + c * rho ** (a - n_rho) * z ** (b - n_z)
    return out


def test_derivative_matches_term_by_term_partials_bitwise():
    V = build_builtin_model()
    rho = np.linspace(-2.0, 2.0, 41)[:, None]
    z = np.linspace(-1.5, 1.5, 31)[None, :]
    for n_rho, n_z in ((1, 0), (0, 1), (0, 2), (2, 0), (1, 2)):
        got = V.derivative(n_rho, n_z).value(rho, z)
        assert np.array_equal(got, _term_by_term(V, n_rho, n_z, rho, z))


def test_derivative_past_the_degree_is_empty():
    V = build_builtin_model()
    for n_rho, n_z in ((7, 0), (0, 5), (3, 3)):
        D = V.derivative(n_rho, n_z)
        assert D.as_dict() == {}
        assert D.value(0.7, -0.4) == 0.0
    assert V.derivative(0, 0) == V


# ------------------------------------------------------------------- parsing


def test_parse_single_term():
    spec = parse_potential("0.5*rho^2")
    assert spec.as_dict() == {(2, 0): 0.5}


def test_parse_rational_coefficients():
    spec = parse_potential("1/2*rho^2 - 1/8*rho^4")
    assert spec.coefficient(2, 0) == pytest.approx(0.5, abs=1e-16)
    assert spec.coefficient(4, 0) == pytest.approx(-0.125, abs=1e-16)


def test_parse_parentheses_and_products():
    spec = parse_potential("rho^2*(1 - z)^2/2")
    assert spec.as_dict() == {(2, 0): 0.5, (2, 1): -1.0, (2, 2): 0.5}


def test_parse_whitespace_and_newlines():
    spec = parse_potential("0.5*rho^2\n + 0.5 * rho^2 * z^2")
    assert spec.as_dict() == {(2, 0): 0.5, (2, 2): 0.5}


def test_builtin_text_roundtrip():
    V = build_builtin_model()
    reparsed = parse_potential(potential_to_text(V))
    for key in set(V.as_dict()) | set(reparsed.as_dict()):
        assert reparsed.coefficient(*key) == pytest.approx(
            V.coefficient(*key), abs=1e-15
        )


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as info:
        parse_potential("0.5*rho^2 +\n 0.3*q^2")
    assert info.value.line == 2
    assert info.value.col == 6


def test_parse_error_on_trailing_garbage():
    with pytest.raises(ParseError):
        parse_potential("rho^2 )")
    with pytest.raises(ParseError):
        parse_potential("rho^^2")
    with pytest.raises(ParseError):
        parse_potential("")


def test_non_polynomial_exponents_rejected():
    with pytest.raises(NonPolynomialError):
        parse_potential("rho^-2")
    with pytest.raises(NonPolynomialError):
        parse_potential("rho^1.5")
    with pytest.raises(NonPolynomialError):
        parse_potential("rho^2/z")
    with pytest.raises(NonPolynomialError):
        parse_potential("rho^2/0")


# ----------------------------------------------------------- complexification


def test_nonresonant_quadratic_part_is_exact():
    prepared = complexify_nonresonant(build_builtin_model())
    assert prepared.mode == "nonresonant"
    assert prepared.omega10 == pytest.approx(1.0, abs=0.0)
    h0 = prepared.poly.bk_part(0)
    assert h0.nterms == 2
    assert h0.coefficient(1, 1, 0, 0, bk=0) == 1j
    assert h0.coefficient(0, 0, 0, 2, bk=0) == 0.5


def test_nonresonant_degree_census():
    prepared = complexify_nonresonant(build_builtin_model())
    degrees = set()
    orders = set()
    for key, _c, bk in prepared.poly.term_items():
        degrees.add(sum(key))
        orders.add(bk)
        assert sum(key) == 2 * bk + 2
    assert degrees == {2, 4, 6}
    assert orders == {0, 1, 2}


def test_rho_squared_expansion():
    # rho^2 -> (q1 + i p1)^2 / 2 = (q1^2 + 2i q1 p1 - p1^2)/2
    prepared = complexify_nonresonant(parse_potential("0.5*rho^2 + rho^2*z^2"))
    h1 = prepared.poly.bk_part(1)
    assert h1.coefficient(2, 0, 2, 0) == pytest.approx(0.5)
    assert h1.coefficient(1, 1, 2, 0) == pytest.approx(1j)
    assert h1.coefficient(0, 2, 2, 0) == pytest.approx(-0.5)


def test_omega10_from_quadratic_coefficient():
    prepared = complexify_nonresonant(parse_potential("2*rho^2 + 0.1*rho^4"))
    assert prepared.omega10 == pytest.approx(2.0, abs=1e-15)
    assert prepared.poly.coefficient(1, 1, 0, 0, bk=0) == pytest.approx(2j)


def test_back_substitution_recovers_real_hamiltonian():
    # the inverse complexification of (q1, p1) undoes the forward one of
    # complexify_nonresonant; slots are reinterpreted as (rho, p_rho, z, p_z)
    prepared = complexify_nonresonant(build_builtin_model())
    inverse = inverse_complexification(prepared.omega10)
    real_h = substitute_pairs(prepared.poly, [inverse, None])
    V = build_builtin_model()
    expected = {}
    for (a, b), c in V.as_dict().items():
        expected[(a, 0, b, 0)] = c
    expected[(0, 2, 0, 0)] = 0.5
    expected[(0, 0, 0, 2)] = 0.5
    for key, c, _bk in real_h.term_items():
        want = expected.pop(tuple(key), 0.0)
        assert c == pytest.approx(want, abs=1e-13)
    assert not expected


def test_real_on_reality_submanifold():
    prepared = complexify_nonresonant(build_builtin_model())
    rng = np.random.default_rng(3)
    for _ in range(10):
        rho, prho, z, pz = rng.uniform(-1.2, 1.2, size=4)
        q1 = (rho - 1j * prho) * math.sqrt(2.0) / 2.0
        p1 = (prho - 1j * rho) * math.sqrt(2.0) / 2.0
        value = evaluate(prepared.poly, q1, p1, z, pz)
        assert abs(value.imag) < 1e-12
        direct = 0.5 * (prho**2 + pz**2) + build_builtin_model().value(rho, z)
        assert value.real == pytest.approx(direct, abs=1e-12)


def test_missing_quadratic_raises():
    with pytest.raises(MissingQuadraticError):
        complexify_nonresonant(parse_potential("rho^4/8"))
    with pytest.raises(MissingQuadraticError):
        complexify_nonresonant(parse_potential("-0.5*rho^2 + rho^4"))


def test_unsupported_potentials_raise():
    with pytest.raises(UnsupportedPotentialError):
        complexify_nonresonant(parse_potential("0.5*rho^2 + rho^3"))
    with pytest.raises(UnsupportedPotentialError):
        complexify_nonresonant(parse_potential("0.5*rho^2 + rho^2*z"))
    with pytest.raises(UnsupportedPotentialError):
        complexify_nonresonant(parse_potential("0.5*rho^2 + z^2"))
    with pytest.raises(UnsupportedPotentialError):
        complexify_nonresonant(parse_potential("0.5*rho^2 + 1"))


def test_exponents_past_the_packing_limit_are_unsupported():
    # every '^' of the text is at most 127, but (rho^2)^70 expands to rho^140
    with pytest.raises(UnsupportedPotentialError, match="rho\\^140"):
        parse_potential("0.5*rho^2 + 0.1*(rho^2)^70")
    with pytest.raises(UnsupportedPotentialError, match="above 127"):
        PotentialSpec({(2, 0): 0.5, (2, 128): 1.0})
    assert PotentialSpec({(2, 0): 0.5, (2, 126): 1.0}).max_degree == 128


# ------------------------------------------------------- resonant preparation


OMEGA1 = 0.9
OMEGA2 = 0.45


def resonance(omega1=OMEGA1, omega2=OMEGA2):
    """The 2:1 resonance at I1* = 0.2; its energy is a stand-in that the
    preparation does not read."""
    return Resonance(2, 1, I1_star=0.2, omega1=omega1, omega2=omega2, energy=0.18)


def resonant_builtin():
    return prepare_resonant(build_builtin_model(), resonance())


def test_resonant_order_zero_part():
    prepared = resonant_builtin()
    assert prepared.mode == "resonant"
    h0 = prepared.poly.bk_part(0)
    assert h0.nterms == 2
    assert h0.coefficient(1, 1, 0, 0, bk=0) == 1j * OMEGA1
    assert h0.coefficient(0, 0, 1, 1, bk=0) == 1j * OMEGA2
    assert prepared.resonance.m1 == 2 and prepared.resonance.m2 == 1


def test_resonant_detuning_terms():
    h1 = resonant_builtin().poly.bk_part(1)
    assert h1.coefficient(1, 1, 0, 0, bk=1) == pytest.approx(-1j * (OMEGA1 - 1.0))
    assert h1.coefficient(0, 0, 2, 0, bk=1) == pytest.approx(-OMEGA2 / 4.0)
    assert h1.coefficient(0, 0, 1, 1, bk=1) == pytest.approx(-1j * OMEGA2 / 2.0)
    assert h1.coefficient(0, 0, 0, 2, bk=1) == pytest.approx(OMEGA2 / 4.0)


def test_resonant_degrees_coexist_per_order():
    prepared = resonant_builtin()
    degrees_at_1 = {sum(key) for key, _c, bk in prepared.poly.term_items() if bk == 1}
    assert degrees_at_1 == {2, 4}


def test_invalid_frequency_raises():
    V = build_builtin_model()
    with pytest.raises(InvalidFrequencyError):
        prepare_resonant(V, resonance(omega2=0.0))
    with pytest.raises(InvalidFrequencyError):
        prepare_resonant(V, resonance(omega1=-0.9))


def test_resonant_sum_matches_z_complexified_nonresonant():
    # with the book-keeping parameter set to 1, the graded resonant
    # Hamiltonian is the nonresonant one with (z, p_z) complexified
    prepared_r = resonant_builtin()
    prepared_n = complexify_nonresonant(build_builtin_model())
    s2 = math.sqrt(2.0 * OMEGA2)
    # z = (q2 + i p2)/s2 and p_z = OMEGA2 (i q2 + p2)/s2
    forward = ((1.0 / s2, 1j / s2), (1j * OMEGA2 / s2, OMEGA2 / s2))
    expected = substitute_pairs(prepared_n.poly, [None, forward])
    keys = set()
    for key, _c, _bk in expected.term_items():
        keys.add(tuple(key))
    for key, _c, _bk in prepared_r.poly.term_items():
        keys.add(tuple(key))
    for key in keys:
        got = prepared_r.poly.coefficient(*key)
        want = expected.coefficient(*key)
        assert got == pytest.approx(want, abs=1e-13)


def test_resonant_real_on_reality_submanifold():
    prepared = resonant_builtin()
    rng = np.random.default_rng(11)
    s1 = math.sqrt(2.0)
    s2 = math.sqrt(2.0 * OMEGA2)
    for _ in range(8):
        rho, prho, z, pz = rng.uniform(-0.9, 0.9, size=4)
        q1 = (s1 * rho - 1j * (2.0 / s1) * prho) / 2.0
        p1 = ((2.0 / s1) * prho - 1j * s1 * rho) / 2.0
        q2 = (s2 * z - 1j * (2.0 / s2) * pz) / 2.0
        p2 = ((2.0 / s2) * pz - 1j * s2 * z) / 2.0
        value = evaluate(prepared.poly, q1, p1, q2, p2)
        direct = 0.5 * (prho**2 + pz**2) + build_builtin_model().value(rho, z)
        assert abs(value.imag) < 1e-12
        assert value.real == pytest.approx(direct, abs=1e-12)


# ---------------------------------------------------------------- root finder

BRENT_CASES = {
    "exp": (lambda x: math.exp(x) - 2.0, 0.0, 10.0),
    "cubic": (lambda x: x**3 - x - 1.0, 1.0, 2.0),
    "cos_reversed": (lambda x: math.cos(x) - x, 1.0, -1.0),
    "shallow_root": (lambda x: (x - 0.3) ** 3 + 1e-6 * (x - 0.3), 0.0, 1.0),
    "steep_atan": (lambda x: math.atan(1e3 * (x - 1e-3)), -2.0, 2.0),
    "root_at_zero": (lambda x: x * (1.0 + x * x), -1.0, 3.0),
    "root_at_a": (lambda x: x - 0.5, 0.5, 2.0),
    "root_at_b": (lambda x: x - 2.0, 0.5, 2.0),
}


@pytest.mark.parametrize("xtol", [5e-324, 1e-14, 2e-12, 1e-6])
@pytest.mark.parametrize("case", sorted(BRENT_CASES))
def test_brentq_calls_f_where_scipy_does(case, xtol):
    f, a, b = BRENT_CASES[case]
    runs = []
    for solver in (brentq, scipy_brentq):
        calls = []

        def logged(x):
            calls.append(x)
            return f(x)

        root = solver(logged, a, b, xtol=xtol)
        runs.append(repr((root, calls)))  # repr tells -0.0 from 0.0
    assert runs[0] == runs[1]


def _error(solver, f, a, b):
    with pytest.raises((ValueError, RuntimeError)) as info:
        solver(f, a, b, xtol=1e-12)
    return type(info.value), str(info.value)


def test_brentq_errors_are_scipys():
    same_sign = (lambda x: x * x + 1.0, -1.0, 1.0)
    nan_inside = (lambda x: x - 0.5 if x in (0.0, 1.0) else math.nan, 0.0, 1.0)
    # near a ninth-order root f is rounding noise, and the steps stall
    flat_root = (lambda x: (x - 0.3) ** 9, 0.0, 1.0)
    cases = [
        (same_sign, ValueError, "f(a) and f(b) must have different signs"),
        (nan_inside, ValueError, "The function value at x=0.5 is NaN"),
        (flat_root, RuntimeError, "Failed to converge after 100 iterations."),
    ]
    for (f, a, b), kind, message in cases:
        ours = _error(brentq, f, a, b)
        assert ours == _error(scipy_brentq, f, a, b)
        assert ours[0] is kind and ours[1].startswith(message)
