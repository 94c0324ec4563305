"""Acceptance gate: every headline result at its stated tolerance.

Each criterion prints exactly one `CRITERION n: PASS|FAIL` line (visible
even under captured output) and then asserts.

Criterion 4 pins the 1:1 transition at 0.368815 +- 1e-4, not at the
paper's 0.36688 (1.9e-3 lower).  The monodromy bisection converges to
0.3688152, and a witness that shares nothing with it agrees: the trace of
the full-flow Poincare return map at the central orbit (central
differences, ``oracles.return_map_trace``) crosses 2 within E_t +- 1e-5
and is still 1.927 at 0.36688.  The series estimates approach the same
value, (E_r - 0.368815) r staying near 0.288 for r = 20..60.  Criteria 1-3
confirm the potential and the 1/3 and 1/2 pins to ~2e-5, so 0.36688 is
not the 1:1 transition of V as written; the documents do not settle what
system or method it came from.  The series clauses keep 0.36688 as their
reference energy.

The resonant clauses of criterion 6 are red, and stay unchanged.  The
resonant norm is a monomial l1 majorant: at E = 0.2, delta E = 1.25e-3
it grows 4.5e-3, 9.3e-3, 1.8e-1 at r = 1, 3, 5 while the measured
variation of the resonant integral on that orbit falls 4.0e-3, 9.3e-5,
2.6e-6 (``test_invariants``).  At r = 5, 73% of the sum comes from
detuning-graded terms at book-keeping orders 14-20 with I2 power 1 and
I1 power peaking at 8-9; the per-order sum grows from 8e-3 at order 6 to
1.3e-1 at order 20, so the N-sum does not converge, and on the torus
those terms cancel.  Summing each Fourier harmonic with its torus phase
before taking the modulus tracks the measurement (9.1e-4, 1.1e-5, 4.4e-7
at r = 1, 3, 5), but for every delta E <= 1e-2 it falls monotonically to
r = 19 and stays orders of magnitude below the nonresonant norm, so it
would fail the interior-minimum and [3, 30] clauses as well.  The
smallest resonant divisor is 2 omega2* = 0.92, so compounded small
divisors are not the mechanism.  Which norm the paper used is not
settled by the documents.

This module is slow (~10 minutes): it times a fresh r=30 normalization
and builds the resonant remainder profile.
"""

import math
import time

import numpy as np
import pytest

from magbottle.analysis import (
    bifurcation_energy,
    chaos_threshold_convergence,
    optimal_order_scan,
)
from magbottle.dynamics import (
    central_orbit_monodromy,
    numerical_bifurcation_energy,
    poincare_section,
)
from magbottle.invariants import back_transform, section_levels
from magbottle.normform import (
    equatorial_energy_series,
    extract_omega2_squared,
    kernel_mask,
    normalize,
)
from magbottle.polyalg import (
    CanonicalPolynomial,
    lie_transform,
    poisson_bracket,
)

from oracles import coefficient_distance
from test_invariants import CHAIN_WINDOW, islands_and_rings

TOL = 1e-11


def report(capsys, number, clauses):
    """Print the one-line verdict for a criterion, then assert it."""
    ok = all(flag for flag, _ in clauses)
    detail = "; ".join(text for _, text in clauses)
    with capsys.disabled():
        print(f"\nCRITERION {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    failed = [text for flag, text in clauses if not flag]
    assert not failed, f"criterion {number}: " + "; ".join(failed)


def clause(ok, text):
    return bool(ok), f"{'ok' if ok else 'FAILED'}: {text}"


def near(fit_dict, target):
    """The grid key closest to ``target`` (logspace keys sit ulps off)."""
    return min(fit_dict, key=lambda k: abs(k - target))


# ---------------------------------------------------------------- criterion 1


def test_criterion_1_printed_coefficients_r5(prep, capsys):
    t0 = time.perf_counter()
    state = normalize(prep, r_max=5, r_trunc=6)
    elapsed = time.perf_counter() - t0
    series = equatorial_energy_series(state)
    equatorial = {1: 1.0, 2: -0.1875, 3: -0.046875, 4: -0.0256348,
                  5: -0.0184021, 6: -0.0152607}
    eq_ok = all(
        abs(series[n] - want) <= 5e-5 * abs(want)
        for n, want in equatorial.items()
    )
    ladders = {
        (1, 2): 0.5, (2, 2): 0.15625, (3, 2): 0.1875, (4, 2): 0.299194,
        (5, 2): 0.551285,
        (2, 4): -0.151042, (3, 4): -0.46224, (4, 4): -1.29767,
        (2, 6): 0.107812, (3, 6): 0.669227,
        (2, 8): -0.0697545,
    }
    bad = []
    for (n, k2), want in ladders.items():
        gamma = state.hamiltonian.coefficient(n, n, k2, 0, bk=n + k2 // 2 - 1)
        value = (gamma * (-1j) ** n).real
        if abs(value - want) > 5e-5 * abs(want):
            bad.append((n, k2, value))
    report(capsys, 1, [
        clause(eq_ok, "equatorial I1-series coefficients within 5e-5"),
        clause(not bad, f"q2-ladder coefficients within 5e-5 {bad or ''}"),
        clause(elapsed < 60.0, f"r=5 normalization in {elapsed:.2f}s < 60s"),
    ])


# ---------------------------------------------------------------- criterion 2


def test_criterion_2_transverse_frequency_series(nf5, capsys):
    from oracles import rational_action_series, rational_normal_form

    series = extract_omega2_squared(nf5)
    published = {1: 1.0, 2: 0.3125, 3: 0.375, 4: 0.598388, 5: 1.10257}
    float_ok = all(
        abs(series[n] - want) <= 5e-5 * abs(want)
        for n, want in published.items()
    )
    z_parts, _chis = rational_normal_form(3)
    exact = rational_action_series(z_parts, "omega2sq")
    exact_ok = (
        exact[1] == 1
        and float(exact[2]) == 5.0 / 16.0
        and float(exact[3]) == 3.0 / 8.0
        and abs(series[2] - float(exact[2])) < 1e-13
        and abs(series[3] - float(exact[3])) < 1e-13
    )
    report(capsys, 2, [
        clause(float_ok, "published values (1, 0.3125, 0.375, 0.598388, 1.10257)"),
        clause(exact_ok, "5/16 and 3/8 confirmed by exact-rational recomputation"),
    ])


# ---------------------------------------------------------------- criterion 3


def test_criterion_3_bifurcation_energies(nf8, capsys):
    b31 = bifurcation_energy(nf8, 3, 1)
    b21 = bifurcation_energy(nf8, 2, 1)
    n31 = numerical_bifurcation_energy(3, 1)
    n21 = numerical_bifurcation_energy(2, 1)
    report(capsys, 3, [
        clause(abs(b31.energy - 0.097279) <= 2e-5,
               f"series E_1/3 = {b31.energy:.6f} vs 0.097279 +- 2e-5"),
        clause(abs(b21.energy - 0.188036) <= 2e-5,
               f"series E_1/2 = {b21.energy:.6f} vs 0.188036 +- 2e-5"),
        clause(abs(n31 - 0.097253) <= 1e-4,
               f"numeric E_1/3 = {n31:.6f} vs 0.097253 +- 1e-4"),
        clause(abs(n21 - 0.188015) <= 1e-4,
               f"numeric E_1/2 = {n21:.6f} vs 0.188015 +- 1e-4"),
    ])


# ---------------------------------------------------------------- criterion 4


@pytest.fixture(scope="module")
def nf30_timed(prep):
    t0 = time.perf_counter()
    state = normalize(prep, r_max=30, r_trunc=30)
    return state, time.perf_counter() - t0


def test_criterion_4_chaos_threshold(nf30_timed, capsys):
    from oracles import return_map_trace

    nf30, elapsed = nf30_timed
    e_t = numerical_bifurcation_energy(1, 1)
    # the full-flow witness shares nothing with the monodromy bisection
    below = return_map_trace(e_t - 1e-5) - 2.0
    above = return_map_trace(e_t + 1e-5) - 2.0
    at_paper = return_map_trace(0.36688)
    rows = chaos_threshold_convergence(nf30, (10, 30), reference_energy=0.36688)
    e10, err10 = rows[0][1], rows[0][2]
    err30 = rows[1][2]
    report(capsys, 4, [
        clause(abs(e_t - 0.368815) <= 1e-4,
               f"monodromy bisection E_t = {e_t:.6f} vs 0.368815 +- 1e-4 "
               f"(paper 0.36688, offset {e_t - 0.36688:+.1e})"),
        clause(below < 0.0 < above,
               f"full-flow return map Tr - 2 = {below:+.2e} at E_t - 1e-5, "
               f"{above:+.2e} at E_t + 1e-5"),
        clause(at_paper < 2.0,
               f"return-map trace {at_paper:.3f} < 2 at 0.36688: still stable"),
        clause(abs(e10 - 0.39550) <= 5e-4,
               f"series estimate at r=10 is {e10:.5f} vs 0.39550 +- 5e-4"),
        clause(abs(err10 - 0.0286) <= 5e-4,
               f"r=10 error {err10:.4f} vs 0.0286"),
        clause(3e-3 <= abs(err30) <= 3e-2,
               f"r=30 error {abs(err30):.4f} is about 1e-2"),
        clause(elapsed < 1800.0, f"r=30 normalization in {elapsed:.0f}s < 30min"),
    ])


# ---------------------------------------------------------------- criterion 5


@pytest.fixture(scope="module")
def nonres_scan(nonres_profile):
    return optimal_order_scan(nonres_profile, E=0.2)


@pytest.fixture(scope="module")
def res_scan(res21_profile):
    return optimal_order_scan(res21_profile, E=0.2)


def test_criterion_5_nonresonant_asymptotics(nonres_profile, nonres_scan, capsys):
    _table, fit = nonres_scan
    last = max(nonres_profile.orders)
    interior = all(
        1 < r < last for dE, r in fit.r_opt.items() if dE <= 1e-2
    )
    ladder = [fit.r_opt[dE] for dE in sorted(fit.r_opt)]
    decreasing = all(a >= b for a, b in zip(ladder, ladder[1:]))
    anchor4 = fit.optimal_norms[near(fit.optimal_norms, 1e-4)]
    anchor2 = fit.optimal_norms[near(fit.optimal_norms, 1e-2)]
    report(capsys, 5, [
        clause(interior, "interior minimum for every delta_E <= 1e-2"),
        clause(decreasing, f"r_opt decreases {ladder[0]} -> {ladder[-1]}"),
        clause(abs(fit.alpha - 0.15) <= 0.05,
               f"power-law exponent alpha = {fit.alpha:.4f} vs 0.15 +- 0.05"),
        clause(abs(fit.d - 0.12) <= 0.04,
               f"exponential exponent d = {fit.d:.4f} vs 0.12 +- 0.04"),
        clause(1.0 / 30.0 <= anchor4 / 1e-9 <= 30.0,
               f"optimal norm {anchor4:.2e} at delta_E=1e-4 vs 1e-9 x30"),
        clause(1.0 / 30.0 <= anchor2 / 1e-4 <= 30.0,
               f"optimal norm {anchor2:.2e} at delta_E=1e-2 vs 1e-4 x30"),
    ])


# ---------------------------------------------------------------- criterion 6


def test_criterion_6_resonant_asymptotics(
    res21_profile, nonres_scan, res_scan, capsys
):
    _ntable, nfit = nonres_scan
    _rtable, rfit = res_scan
    last = max(res21_profile.orders)
    interior = all(
        1 < r < last for dE, r in rfit.r_opt.items() if dE <= 1e-2
    )
    ladder = [rfit.r_opt[dE] for dE in sorted(rfit.r_opt)]
    decreasing = all(a >= b for a, b in zip(ladder, ladder[1:]))
    uplifts = [
        rfit.optimal_norms[dE] / nfit.optimal_norms[dE] for dE in rfit.r_opt
    ]
    report(capsys, 6, [
        clause(interior, "interior minimum for every delta_E <= 1e-2 "
               f"(r_opt ladder {ladder[0]} -> {ladder[-1]})"),
        clause(decreasing, "r_opt decreases with delta_E"),
        clause(all(3.0 <= u <= 30.0 for u in uplifts),
               "optimal-remainder uplift within [3, 30] at matched delta_E "
               f"(measured {min(uplifts):.3g} .. {max(uplifts):.3g})"),
        clause(0.1 <= rfit.alpha <= 0.3,
               f"power-law exponent alpha = {rfit.alpha:.4f} in [0.1, 0.3]"),
    ])


# ---------------------------------------------------------------- criterion 7

# exact binary fractions keep the algebra identities at rounding level
_PALETTE = np.array(
    [1.0, -1.0, 0.5, -0.25, 1.0j, -0.5j, 1.0 + 1.0j, 2.0 - 0.5j]
)


def _random_poly(rng, bk_range=(0, 1), trunc=30):
    # the wide degree cap keeps iterated products exact; the production cap
    # assumes the solver's degree-per-order grading, which random inputs break
    terms = []
    for _ in range(8):
        key = tuple(int(v) for v in rng.integers(0, 3, size=4))
        coeff = complex(_PALETTE[rng.integers(0, len(_PALETTE))])
        terms.append((key, coeff, int(rng.integers(*bk_range))))
    return CanonicalPolynomial.from_terms(terms, trunc_order=trunc, degree_cap=200)


def test_criterion_7_property_suites(nf8, res21_nf8, drift_orbit, capsys):
    rng = np.random.default_rng(42)
    algebra_ok = True
    for _ in range(10):
        f, g, h = (_random_poly(rng) for _ in range(3))
        anti = poisson_bracket(f, g) + poisson_bracket(g, f)
        jacobi = (
            poisson_bracket(f, poisson_bracket(g, h))
            + poisson_bracket(g, poisson_bracket(h, f))
            + poisson_bracket(h, poisson_bracket(f, g))
        )
        leibniz = poisson_bracket(f, g * h) - (
            poisson_bracket(f, g) * h + g * poisson_bracket(f, h)
        )
        algebra_ok &= anti.max_abs() < TOL
        algebra_ok &= jacobi.max_abs() < TOL
        algebra_ok &= leibniz.max_abs() < TOL

    # generator scaled to production size; unit-size coefficients would pump
    # the exp-series intermediates to ~1e7 and the identities drown in rounding
    chi = _random_poly(rng, bk_range=(1, 3), trunc=8).scale(0.0625)
    f = _random_poly(rng, bk_range=(0, 3), trunc=8)
    roundtrip = lie_transform(lie_transform(f, chi), chi, inverse=True)
    invert_ok = coefficient_distance(roundtrip, f) < TOL
    coords = [
        CanonicalPolynomial.from_terms([(key, 1.0, 0)], trunc_order=8, degree_cap=200)
        for key in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    ]
    new = [lie_transform(c, chi) for c in coords]
    canonical_ok = True
    for (i, j), want in {(0, 1): 1.0, (2, 3): 1.0, (0, 2): 0.0,
                         (0, 3): 0.0, (1, 2): 0.0, (1, 3): 0.0}.items():
        br = poisson_bracket(new[i], new[j])
        unit = CanonicalPolynomial.from_terms(
            [((0, 0, 0, 0), want, 0)], 8, degree_cap=200
        )
        canonical_ok &= (br - unit).max_abs() < TOL

    def residuals_ok(state):
        # relative to each step's input: the eliminated part H-tilde grows
        # like the divergent series itself, so an absolute bar says nothing
        # at deep orders
        return all(
            absolute <= TOL * max(1.0, scale)
            for absolute, scale in state.residuals
        )

    def purity_ok(state):
        return all(
            kernel_mask(state.prepared.resonance, *key)
            for s in range(1, state.r + 1)
            for key, _c, _bk in state.hamiltonian.bk_part(s).term_items()
        )

    traj = drift_orbit
    energies = traj.energies()
    drift = float(np.abs(energies - energies[0]).max() / abs(energies[0]))
    mono = central_orbit_monodromy(0.2)
    report(capsys, 7, [
        clause(algebra_ok, "Poisson antisymmetry, Jacobi, Leibniz at 1e-11"),
        clause(invert_ok and canonical_ok,
               "Lie transform inverts and preserves canonical brackets"),
        clause(residuals_ok(nf8) and purity_ok(nf8),
               "nonresonant residuals < 1e-11 of step input, kernel pure"),
        clause(residuals_ok(res21_nf8) and purity_ok(res21_nf8),
               "resonant residuals < 1e-11 of step input, kernel pure"),
        clause(drift < 1e-10, f"energy drift {drift:.2e} < 1e-10 over 1e4 time"),
        clause(abs(mono.determinant - 1.0) <= 1e-8,
               f"monodromy determinant 1 {mono.determinant - 1.0:+.2e}"),
    ])


# ---------------------------------------------------------------- criterion 8


def test_criterion_8_phase_portrait_fidelity(
    nf5, nf8, res21_nf8, nonres_profile, capsys
):
    E = 0.1
    phi = back_transform(nf5)
    potential = nf5.prepared.potential
    omega2sq = extract_omega2_squared(nf8)
    action = E / nf5.prepared.omega10
    w2sq = sum(c * action**n for n, c in omega2sq.items())

    def phi_sect(z, pz):
        p_rho = math.sqrt(2.0 * (E - potential.value(0.0, z)) - pz**2)
        return phi.evaluate(0.0, z, p_rho, pz)

    seeds = [(0.0, 0.02), (0.05, 0.03), (0.1, 0.0), (0.0, 0.12),
             (0.0, 0.15), (0.0, 0.25)]
    crossings = poincare_section(seeds, E, 60)
    ratios = []
    for index, (z0, pz0) in enumerate(seeds):
        level = phi_sect(z0, pz0)
        errors = [
            phi_sect(zc, pzc) - level for zc, pzc in crossings.for_seed(index)
        ]
        rms = float(np.sqrt(np.mean(np.square(errors))))
        # transverse (mirror) energy of the seed, to quadratic order
        delta_E = 0.5 * (pz0**2 + w2sq * z0**2)
        estimate = nonres_profile.norm(5, 20, E, delta_E)
        ratios.append(rms / estimate)
    rms_ok = all(ratio < 100.0 for ratio in ratios)

    phi_res = back_transform(res21_nf8)
    phi_non = back_transform(nf8)
    counts_res = [
        islands_and_rings(section_levels(phi_res, 0.2, [seed], grid=CHAIN_WINDOW)[0])
        for seed in [(0.2, 0.0), (0.0, 0.11)]
    ]
    counts_non = [
        islands_and_rings(section_levels(phi_non, 0.2, [seed], grid=CHAIN_WINDOW)[0])
        for seed in [(0.2, 0.0), (0.0, 0.11)]
    ]
    report(capsys, 8, [
        clause(rms_ok,
               f"{len(seeds)} seeds at E=0.1, r=5: RMS level mismatch below "
               f"remainder norm x100 (ratios {min(ratios):.3g} .. "
               f"{max(ratios):.3g})"),
        clause(all(c == (4, 0) for c in counts_res),
               "resonant 2:1 level sets at E=0.2 split into 4 islands"),
        clause(all(c == (0, 1) for c in counts_non),
               "nonresonant level sets at E=0.2 stay a single ring"),
    ])
