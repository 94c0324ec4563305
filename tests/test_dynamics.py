"""Tests for orbit integration, sections, and central-orbit stability."""

import math
import random
import sys
from operator import mul

import numpy as np
import pytest
from scipy.integrate import DOP853, quad

from magbottle import dynamics, model
from magbottle.dynamics import (
    OrbitState,
    central_orbit_monodromy,
    equatorial_turning_point,
    integrate,
    numerical_bifurcation_energy,
    poincare_section,
    section_seed_state,
)
from magbottle.errors import (
    EscapeDetected,
    IncompleteSectionError,
    NoBifurcationInRange,
    SeedOutsideCZVError,
)
from magbottle.model import (
    build_builtin_model,
    critical_energy,
    parse_potential,
)

from conftest import jittered_builtin
from oracles import (
    dense_orbit,
    dense_section_reference,
    dop853_trial,
    half_period_monodromy,
)

# generic bound seed used for the drift and reversibility checks
SEED = OrbitState(0.9, 0.3, 0.2, 0.1)


# ---------------------------------------------------------------- integrate


def test_equatorial_plane_is_invariant():
    traj = integrate(OrbitState(0.5, 0.0, 0.2, 0.0), 50.0)
    assert np.abs(traj.states[:, 1]).max() == 0.0
    assert np.abs(traj.states[:, 3]).max() == 0.0


def test_energy_drift_stays_below_bound(drift_orbit):
    # the headline integrator property: relative drift < 1e-10 over 1e4 units
    traj = drift_orbit
    energies = traj.energies()
    drift = np.abs(energies - energies[0]).max() / abs(energies[0])
    assert drift < 1e-10


def test_backward_integration_recovers_initial_state():
    fwd = integrate(SEED, 40.0)
    f = fwd.final_state
    back = integrate(OrbitState(f.rho, f.z, -f.p_rho, -f.p_z), 40.0)
    b = back.final_state
    assert abs(b.rho - SEED.rho) < 1e-10
    assert abs(b.z - SEED.z) < 1e-10
    assert abs(b.p_rho + SEED.p_rho) < 1e-10
    assert abs(b.p_z + SEED.p_z) < 1e-10


def test_negative_time_runs_backward():
    fwd = integrate(SEED, 10.0)
    back = integrate(fwd.final_state, -10.0)
    assert back.times[-1] == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(back.final_state.as_array(), SEED.as_array(), atol=1e-10)


def test_empty_interval_gives_copies_of_the_initial_state():
    # 1e-20 is below the spacing of floats at t = 1, so t + T == t
    for start, T in ((SEED, 0.0), (OrbitState(0.9, 0.3, 0.2, 0.1, t=1.0), 1e-20)):
        traj = integrate(start, T, n_samples=5)
        assert traj.times.tolist() == [start.t] * 5
        assert traj.states.tolist() == [start.as_array().tolist()] * 5


def test_sample_count_below_one_is_rejected():
    for n_samples in (0, -1):
        with pytest.raises(ValueError, match="n_samples"):
            integrate(SEED, 1.0, n_samples=n_samples)


def test_axis_orbit_escapes_through_the_neck():
    # V(0, z) = 0, so an on-axis orbit feels no force and leaves the box
    with pytest.raises(EscapeDetected) as info:
        integrate(OrbitState(0.0, 0.5, 0.0, 1.0), 200.0)
    assert info.value.t == pytest.approx(19.5, abs=1e-6)
    assert abs(info.value.state[1]) >= 20.0 - 1e-6


def test_axis_orbit_escapes_backward():
    # free flight z = 0.5 + t meets z = -20 at t = -20.5
    with pytest.raises(EscapeDetected) as info:
        integrate(OrbitState(0.0, 0.5, 0.0, 1.0), -200.0)
    assert info.value.t == pytest.approx(-20.5, abs=1e-6)
    assert abs(info.value.state[1]) == pytest.approx(20.0, abs=1e-12)


@pytest.mark.parametrize("p_rho, T", [(0.1, 1.0), (-0.1, -1.0)])
def test_orbit_starting_on_the_escape_bound_escapes_at_once(p_rho, T):
    # rho moves outward in the sense of time, forward and backward alike
    start = OrbitState(20.0, 0.0, p_rho, 0.0)
    with pytest.raises(EscapeDetected) as info:
        integrate(start, T)
    assert info.value.t == 0.0
    assert info.value.state == (20.0, 0.0, p_rho, 0.0)


def test_radial_escape_over_an_open_barrier():
    hilltop = parse_potential("0.5*rho^2 - 0.125*rho^4")
    with pytest.raises(EscapeDetected) as info:
        integrate(OrbitState(0.1, 0.0, 1.5, 0.0), 200.0, potential=hilltop)
    assert abs(info.value.state[0]) >= 20.0 - 1e-6


def test_samples_equal_a_dense_output_reference():
    # several samples fall inside one step; each is landed on its own
    for T in (5.0, -5.0):
        traj = integrate(SEED, T, n_samples=201)
        reference = dense_orbit(SEED, T)(traj.times).T
        assert np.abs(traj.states - reference).max() <= 1e-12


# ----------------------------------------------------------------- sections


def test_seed_outside_zero_velocity_curve_is_rejected():
    with pytest.raises(SeedOutsideCZVError):
        section_seed_state(0.0, 1.0, 0.2)
    with pytest.raises(SeedOutsideCZVError):
        poincare_section([(0.0, 1.0)], 0.2, 3)


def test_seed_lift_conserves_energy():
    state = section_seed_state(0.25, 0.1, 0.1)
    assert state.rho == 0.0
    assert state.p_rho > 0.0
    assert state.energy() == pytest.approx(0.1, abs=1e-14)


def test_central_orbit_is_a_section_fixed_point():
    section = poincare_section([(0.0, 0.0)], 0.2, 6)
    assert len(section.points) == 6
    assert np.abs(section.points[:, 1:3]).max() < 1e-12


def test_quasiperiodic_seed_traces_a_closed_curve():
    section = poincare_section([(0.25, 0.0)], 0.1, 40)
    pts = section.for_seed(0)
    assert len(pts) == 40
    # in aspect-corrected coordinates the crossings wind consistently
    # around the fixed point and stay on a thin annulus
    z, pz = pts[:, 0], pts[:, 1]
    x, y = z, pz * (z.std() / pz.std())
    cross = x[:-1] * y[1:] - y[:-1] * x[1:]
    assert np.all(cross > 0.0) or np.all(cross < 0.0)
    radii = np.hypot(x, y)
    assert radii.max() / radii.min() < 1.2


def test_crossings_lie_on_the_section():
    section = poincare_section([(0.25, 0.0)], 0.1, 10)
    state = section_seed_state(0.25, 0.0, 0.1)
    dense = dense_orbit(state, float(section.points[:, 3].max()) + 1.0)
    residuals = [abs(float(dense(t)[0])) for t in section.points[:, 3]]
    assert max(residuals) < 1e-9


def test_section_points_conserve_energy():
    section = poincare_section([(0.25, 0.0), (0.1, 0.05)], 0.1, 8)
    V = build_builtin_model()
    for _, z, pz, _ in section.points:
        radicand = 2.0 * (0.1 - V.value(0.0, z)) - pz**2
        assert radicand > 0.0  # p_rho stays real on recorded crossings


def test_section_counts_seeds_given_as_an_iterator():
    seeds = [(0.25, 0.0), (0.1, 0.05)]
    listed = poincare_section(seeds, 0.1, 3)
    streamed = poincare_section(iter(seeds), 0.1, 3)
    assert listed.n_seeds == streamed.n_seeds == 2
    assert np.array_equal(streamed.points, listed.points)


def test_rhs_is_the_force_of_the_potential_bitwise():
    V = build_builtin_model()
    rhs = dynamics._rhs_factory(V)
    for y in ((0.3, 0.2, 0.1, -0.05), (1.4, -0.9, 0.0, 0.7), (-0.8, 1.7, -0.2, 0.0)):
        rho, z, prho, pz = y
        frho = V.derivative(1, 0).value(rho, z)
        fz = V.derivative(0, 1).value(rho, z)
        want = (prho, pz, -frho, -fz)
        assert rhs(0.0, y) == want


@pytest.mark.parametrize(
    "E, seed",
    [
        (0.1, (0.25, 0.0)),
        (0.1, (0.1, 0.05)),
        (0.2, (0.3, 0.0)),
        (0.2, (0.0, 0.2)),
        # near the edge of the section: p_rho is small at the crossings
        (0.2, (0.0, 0.99 * math.sqrt(0.4))),
        (0.1, (0.0, 0.999 * math.sqrt(0.2))),
    ],
)
def test_crossings_equal_a_full_budget_dense_output_reference(E, seed):
    # the surface hits give the crossings a global interpolant gives, to
    # rounding, and are no further from a tight reference than scipy is
    n = 30
    V = build_builtin_model()
    tol = dynamics.DEFAULT_TOL
    got = poincare_section([seed], E, n).points[:, 1:]
    # the reference steps as the section does up to its end, one unit past
    # the last crossing, so its crossings are those of the full budget
    y0 = section_seed_state(*seed, E).as_array()
    t_end = float(got[-1, 2]) + 1.0

    def reference(rtol, atol):
        rhs = dynamics._rhs_factory(V)
        return np.array(dense_section_reference(rhs, y0, n, t_end, rtol, atol))

    same_tol = reference(tol * dynamics._RTOL_FACTOR, tol * dynamics._ATOL_FACTOR)
    assert np.abs(got - same_tol).max() <= 1e-12
    tight = reference(2.3e-14, 1e-17)
    assert np.abs(got - tight).max() <= 2.0 * np.abs(same_tol - tight).max()


def test_every_crossing_is_on_the_section_to_1e_12():
    seed, E = (0.25, 0.0), 0.1
    points = poincare_section([seed], E, 20).points
    dense = dense_orbit(section_seed_state(*seed, E), float(points[-1, 3]) + 1.0)
    residuals = [abs(float(dense(t)[0])) for t in points[:, 3]]
    assert max(residuals) <= 1e-12


def test_section_seed_above_the_escape_energy_escapes(monkeypatch):
    # above 16/27 the orbit leaves the well along the valley rho^2 = 8 + 4 z^2
    monkeypatch.setattr(dynamics, "ESCAPE_BOUND", 5.0)
    seed, E = (1.0, 0.0), 0.62
    assert E > critical_energy(build_builtin_model())
    with pytest.raises(EscapeDetected) as info:
        poincare_section([seed], E, 100)
    err = info.value
    assert abs(err.state[0]) == 5.0
    assert OrbitState(*err.state).energy() == pytest.approx(E, abs=1e-9)
    # at E = 0.62 the escape ends a chaotic transient of about 187 time
    # units whose length moves with the tolerance; at E = 1 the orbit leaves
    # at t = 17.4, where the section's escape matches a dense-output one
    E = 1.0
    with pytest.raises(EscapeDetected) as info:
        poincare_section([seed], E, 100)
    err = info.value
    assert abs(err.state[0]) == 5.0
    with pytest.raises(EscapeDetected) as ref:
        dense_orbit(section_seed_state(*seed, E), 1000.0, escape_bound=5.0)
    assert err.t == pytest.approx(ref.value.t, abs=1e-9)
    assert np.allclose(err.state, ref.value.state, atol=1e-9)


def test_short_time_budget_raises_instead_of_truncating(monkeypatch):
    # a revolution takes a few time units, so 1 unit per crossing falls short
    monkeypatch.setattr(dynamics, "SECTION_TIME_PER_CROSSING", 1.0)
    with pytest.raises(IncompleteSectionError) as info:
        poincare_section([(0.25, 0.0), (0.1, 0.05)], 0.1, 10)
    err = info.value
    assert err.seed_index == 0
    assert err.requested == 10 and err.found < 10
    assert err.t_max == 12.0
    assert "seed 0" in str(err) and "t_max=12" in str(err)


# ------------------------------------------------------- integration loop


def test_loop_steps_as_scipy_dop853():
    # the benchmark's anchor orbit: E = 0.1 from the section point (0.3, 0)
    rhs = dynamics._rhs_factory(build_builtin_model())
    y0 = section_seed_state(0.3, 0.0, 0.1).as_array()
    tol, T = dynamics.DEFAULT_TOL, 160.0
    solver = DOP853(
        rhs, 0.0, y0, T,
        rtol=tol * dynamics._RTOL_FACTOR, atol=tol * dynamics._ATOL_FACTOR,
    )
    want = [0.0]
    while solver.status == "running":
        solver.step()
        want.append(solver.t)
    got = [0.0]

    def stop(_t0, _y0, _f0, t1, y1):
        got.append(t1)
        return y1 if t1 == T else None

    end, nfev = dynamics._dop853(rhs, 0.0, [float(v) for v in y0], T, tol, stop)
    assert len(got) == len(want)
    assert np.abs(np.array(end) - solver.y).max() <= 1e-13
    # scipy forms 2 derivatives for the initial step and 12 per trial step;
    # the loop forms the derivative at a new state only when it steps on
    trials = (solver.nfev - 2) // 12
    assert nfev == 2 + 11 * trials + len(got) - 2
    # the first step's error estimate is rounding noise (its truncation
    # error is far below the tolerance), so summing the stages in another
    # order moves the second step by a few percent; the controller forgets
    # it, and the later steps differ only as the shifted times do
    ratios = np.diff(got)[2:-1] / np.diff(want)[2:-1]
    assert np.abs(ratios - 1.0).max() <= 0.05


def test_surface_hit_lands_on_its_target():
    rhs = dynamics._rhs_factory(build_builtin_model())
    tol = dynamics.DEFAULT_TOL
    start = OrbitState(-0.05, 0.2, 0.3, -0.1, t=2.0)
    y = [start.rho, start.z, start.p_rho, start.p_z]
    for k, target in ((0, 0.0), (1, 0.19)):
        t, state, nfev = dynamics._hit(rhs, k, start.t, y, rhs(start.t, y), target, tol)
        assert state[k] == target
        assert t > start.t and nfev > 0
        assert np.abs(dense_orbit(start, t - start.t + 1.0)(t) - state).max() <= 1e-12
    # p_rho < 0 carries rho away from the axis: the orbit turns first
    y = [-0.05, 0.2, -0.3, 0.1]
    with pytest.raises(RuntimeError, match="turns"):
        dynamics._hit(rhs, 0, 0.0, y, rhs(0.0, y), 0.0, tol)


def test_escape_reports_the_first_bound_reached():
    # in free flight z reaches -20 at |t| = 0.025, rho reaches 20 at 0.1
    def free(_t, y):
        return (y[2], y[3], 0.0, 0.0)

    for sense in (1.0, -1.0):
        y0 = [19.9, -19.95, sense, -2.0 * sense]
        y1 = [20.1, -20.35, sense, -2.0 * sense]
        with pytest.raises(EscapeDetected) as info:
            dynamics._escape(free, 0.0, y0, free(0.0, y0), 0.2 * sense, y1, 20.0, 1e-12)
        assert info.value.t == pytest.approx(0.025 * sense, abs=1e-12)
        assert info.value.state[1] == -20.0


def test_loop_raises_on_a_non_finite_error_norm():
    def turns_nan(t, _y):
        return (math.nan if t > 0.5 else 1.0,)

    with pytest.raises(RuntimeError, match="non-finite"):
        dynamics._dop853(turns_nan, 0.0, [0.0], 2.0, 1e-12, lambda *_: None)


def test_loop_raises_on_a_step_size_underflow():
    # finite everywhere, but no step is short enough to resolve it
    def noise(t, _y):
        return (1e6 * math.sin(1e30 * t),)

    with pytest.raises(RuntimeError, match="underflow"):
        dynamics._dop853(noise, 1.0, [0.0], 2.0, 1e-12, lambda *_: None)


def test_tableau_literals_are_scipys_bitwise():
    # repr tells every float apart, the sign of a zero included
    n = DOP853.n_stages
    assert repr(dynamics._C) == repr(tuple(DOP853.C.tolist()))
    assert repr(dynamics._A) == repr(tuple(tuple(DOP853.A[s, :s].tolist()) for s in range(n)))
    assert not np.triu(DOP853.A).any()  # the rows carry every stage weight
    assert repr(dynamics._B) == repr(tuple(DOP853.B.tolist()))
    # scipy's error weights also weight the derivative at the new state, by 0
    assert repr(dynamics._E3 + (0.0,)) == repr(tuple(DOP853.E3.tolist()))
    assert repr(dynamics._E5 + (0.0,)) == repr(tuple(DOP853.E5.tolist()))
    assert dynamics._ERROR_ESTIMATOR_ORDER == DOP853.error_estimator_order


@pytest.mark.skipif(
    sys.version_info >= (3, 12),
    reason="sum() compensates float rounding from Python 3.12 on",
)
@pytest.mark.parametrize("n", [1, 4, 6])
def test_trial_step_equals_the_tableau_loop(n):
    rng = random.Random(n)
    matrix = [[rng.uniform(-1.0, 1.0) for _ in range(n)] for _ in range(n)]

    def field(t, y):
        return tuple(
            math.sin(t) * v * v + sum(map(mul, row, y)) for v, row in zip(y, matrix)
        )

    cases = []
    for _ in range(20):
        y = [rng.uniform(-2.0, 2.0) for _ in range(n)]
        h = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-6.0, 0.0)
        cases.append((field, rng.uniform(-5.0, 5.0), y, h))
    if n == 4:
        # the equatorial plane with z = p_z = -0.0, where every sum of the
        # z and p_z components is a zero whose sign the step must keep
        rhs = dynamics._rhs_factory(build_builtin_model())
        cases += [(rhs, 0.0, [0.3, -0.0, 0.1, -0.0], h) for h in (0.1, -0.1)]
    trial = dynamics._trial_for(n)
    for fun, t, y, h in cases:
        runs = []
        for step in (trial, dop853_trial):
            # every stage state goes into the record; repr tells -0.0 from 0.0
            calls = []

            def logged(s, x):
                calls.append((s, list(x)))
                return fun(s, x)

            out = [list(part) for part in step(logged, t, y, fun(t, y), h)]
            runs.append(repr((out, calls)))
        assert runs[0] == runs[1]


# ---------------------------------------------------------------- monodromy


def test_turning_point_inverts_the_profile():
    rho_t = equatorial_turning_point(0.2)
    V = build_builtin_model()
    assert V.value(rho_t, 0.0) == pytest.approx(0.2, abs=1e-10)
    with pytest.raises(ValueError):
        equatorial_turning_point(0.0)
    with pytest.raises(ValueError):
        equatorial_turning_point(critical_energy(V) + 0.01)


def test_turning_point_is_a_root_to_rounding():
    rng = random.Random(11)
    potentials = [build_builtin_model()] + [jittered_builtin(rng) for _ in range(3)]
    for V in potentials:
        assert critical_energy(V) > 0.5
        for E in (1e-3, 0.05, 0.2, 0.5):
            rho_t = equatorial_turning_point(E, V)
            assert abs(V.value(rho_t, 0.0) - E) <= 1e-14
            # the inner branch: the profile still rises at rho_t
            assert V.derivative(1, 0).value(rho_t, 0.0) > 0.0


def test_turning_point_of_a_confining_well():
    V = parse_potential("0.5*rho^2 + 0.1*rho^4")
    assert critical_energy(V) == math.inf
    rho_t = equatorial_turning_point(0.2, V)
    want = math.sqrt((math.sqrt(0.25 + 4.0 * 0.1 * 0.2) - 0.5) / (2.0 * 0.1))
    assert rho_t == pytest.approx(want, abs=1e-15)
    assert abs(V.value(rho_t, 0.0) - 0.2) <= 1e-15


def test_monodromy_is_symplectic():
    result = central_orbit_monodromy(0.2)
    assert abs(result.determinant - 1.0) < 1e-10
    assert abs(np.linalg.det(result.half_matrix) - 1.0) < 1e-10


def test_monodromy_trace_regression():
    # frozen from a tolerance-convergence study (stable to ten digits
    # across integrator tolerances 1e-8 .. 1e-13)
    result = central_orbit_monodromy(0.2)
    assert result.trace == pytest.approx(-1.981560010994, abs=1e-6)
    assert result.stable


def test_low_energy_orbit_is_barely_rotating():
    # as E -> 0 the transverse frequency vanishes and Tr M -> 2
    result = central_orbit_monodromy(1e-3)
    assert 1.9 < result.trace < 2.0


def test_period_matches_turning_point_quadrature():
    result = central_orbit_monodromy(0.2)
    V = build_builtin_model()
    rho_t = equatorial_turning_point(0.2)
    T, _ = quad(
        lambda r: 1.0 / math.sqrt(2.0 * (0.2 - V.value(r, 0.0))),
        -rho_t,
        rho_t,
        limit=200,
    )
    assert result.period == pytest.approx(2.0 * T, abs=1e-6)


@pytest.mark.parametrize("jittered", [False, True])
def test_quarter_period_equals_the_half_period_oracle(jittered):
    V = jittered_builtin(random.Random(11)) if jittered else build_builtin_model()
    tol = dynamics.DEFAULT_TOL
    for E in (1e-3, 0.0973, 0.188, 0.3688, 0.5):
        got = central_orbit_monodromy(E, potential=V)
        period, half, nfev = half_period_monodromy(
            V,
            equatorial_turning_point(E, V),
            rtol=tol * dynamics._RTOL_FACTOR,
            atol=tol * dynamics._ATOL_FACTOR,
        )
        assert np.abs(got.half_matrix - half).max() <= 1e-9
        assert abs(np.trace(got.half_matrix) - np.trace(half)) <= 1e-9
        assert abs(got.trace - np.trace(half @ half)) <= 1e-9
        assert abs(got.period - period) <= 1e-9
        assert got.n_rhs <= 0.6 * nfev


def test_full_monodromy_is_half_matrix_squared():
    result = central_orbit_monodromy(0.15)
    assert np.allclose(result.matrix, result.half_matrix @ result.half_matrix)


# ------------------------------------------------------------- bifurcations


def test_one_third_bifurcation_energy():
    E = numerical_bifurcation_energy(3, 1)
    assert E == pytest.approx(0.097278663, abs=5e-6)


def test_one_half_bifurcation_energy():
    E = numerical_bifurcation_energy(2, 1)
    assert E == pytest.approx(0.188025815, abs=5e-6)


def test_stability_transition_energy():
    # the 1:1 case is the chaos threshold: Tr(M_half) first reaches -2 here
    E = numerical_bifurcation_energy(1, 1)
    assert E == pytest.approx(0.368815193, abs=5e-6)
    below = central_orbit_monodromy(E - 1e-3)
    above = central_orbit_monodromy(E + 1e-3)
    assert below.stable
    assert not above.stable


def test_bifurcation_energies_are_ordered():
    energies = [numerical_bifurcation_energy(m, 1) for m in (4, 3, 2, 1)]
    assert energies == sorted(energies)

def test_scan_solves_the_barrier_once_per_potential(monkeypatch):
    # every integration finds its turning point; the barrier energy that
    # bounds it is solved once per potential
    roots_calls, energies = [], []
    roots, monodromy = model.equatorial_roots, dynamics.central_orbit_monodromy

    def roots_spy(spec):
        roots_calls.append(spec)
        return roots(spec)

    def monodromy_spy(E, *args, **kwargs):
        energies.append(E)
        return monodromy(E, *args, **kwargs)

    monkeypatch.setattr(model, "equatorial_roots", roots_spy)
    monkeypatch.setattr(dynamics, "equatorial_roots", roots_spy)
    monkeypatch.setattr(dynamics, "central_orbit_monodromy", monodromy_spy)
    jittered = jittered_builtin(random.Random(11))
    for potential, barrier_solves in ((None, 1), (jittered, 1), (jittered, 0)):
        roots_calls.clear()
        energies.clear()
        numerical_bifurcation_energy(3, 1, potential=potential)
        assert len(roots_calls) == len(energies) + barrier_solves



def test_exact_hit_at_either_scan_end_is_returned(monkeypatch):
    # prefilled traces stand in for the integrations, which must not run
    def no_integration(*_args, **_kwargs):
        raise AssertionError("the scan integrated")

    monkeypatch.setattr(dynamics, "central_orbit_monodromy", no_integration)
    lo, hi = 1e-3, 0.55
    grid = [float(E) for E in np.linspace(lo, hi, 34)]
    target = 2.0 * math.cos(math.pi)  # the 1:1 case, exactly -2
    falling = {E: 1.9 - 0.1 * k for k, E in enumerate(grid)}
    falling[grid[-1]] = target
    assert numerical_bifurcation_energy(1, 1, traces=falling) == hi
    rising = {E: target - 0.1 * k for k, E in enumerate(grid)}
    assert numerical_bifurcation_energy(1, 1, traces=rising) == lo


def test_unreachable_rotation_number_raises(monkeypatch):
    monkeypatch.setattr(dynamics, "_BIFURCATION_BRACKET", (1e-3, 0.3))
    with pytest.raises(NoBifurcationInRange):
        numerical_bifurcation_energy(1, 2, tol=1e-9)
