"""Tests for remainder norms, optimal-order scans, and bifurcation solves."""

import random
import re
import warnings

import numpy as np
import pytest

from magbottle.analysis import (
    DEFAULT_DELTA_E_GRID,
    RemainderProfile,
    _aggregate_slice,
    _norm_scales,
    _solve_resonance,
    _truncated,
    bifurcation_energy,
    chaos_threshold_convergence,
    optimal_order_scan,
)
from magbottle.errors import (
    DegenerateFitWarning,
    FlatMinimumWarning,
    MultipleRootsWarning,
    NoRootError,
    RangeError,
)
from magbottle.cli import SERIES_TRANSVERSE_CAP, _series_state
from magbottle.model import (
    Resonance,
    build_builtin_model,
    complexify_nonresonant,
    critical_energy,
)
from magbottle.normform import (
    equatorial_energy_series,
    extract_omega2_squared,
    normalize,
)

from conftest import jittered_builtin
from oracles import scalar_grid_resonance

# ------------------------------------------------------------- remainder norm


def test_norm_preconditions(nonres_profile):
    with pytest.raises(RangeError):
        nonres_profile.norm(0, 20, 0.2, 1e-3)  # r = 0 is never captured
    with pytest.raises(RangeError):
        nonres_profile.norm(5, 21, 0.2, 1e-3)  # beyond the captured cap
    with pytest.raises(RangeError):
        nonres_profile.norm(5, 5, 0.2, 1e-3)  # needs r < N
    with pytest.raises(RangeError):
        nonres_profile.norm(5, 20, 0.2, 0.3)  # delta_E must stay below E


def test_norm_zero_delta_e_limit(nonres_profile):
    # only the z-independent remainder content survives delta_E -> 0
    floor = nonres_profile.norm(5, 20, 0.2, 0.0)
    assert 0.0 < floor < nonres_profile.norm(5, 20, 0.2, 1e-3)


def test_norm_monotone_in_N(nonres_profile):
    for r in (3, 8):
        values = [nonres_profile.norm(r, N, 0.2, 1e-3) for N in (10, 15, 20)]
        assert values[0] <= values[1] <= values[2]


def test_norm_matches_direct_state_evaluation(nonres_profile, nf5):
    # one slice, built from the state normalized exactly to r = 5
    slices = {5: _aggregate_slice(nf5.hamiltonian, 6, 6)}
    via_state = RemainderProfile(*_norm_scales(nf5), 6, slices)
    via_profile = nonres_profile.norm(5, 6, 0.2, 1e-3)
    assert via_state.norm(5, 6, 0.2, 1e-3) == pytest.approx(via_profile, rel=1e-12)


def _binned_by_dict(poly, lo, hi):
    """(s, d1, k2, d2, weight) of ``_aggregate_slice``, term by term: each
    |c| adds to its cell in storage order, and the cells come sorted."""
    cells = {}
    for k1, l1, k2, l2, s, c in zip(*(a.tolist() for a in poly.term_arrays())):
        if lo <= s <= hi:
            cell = (s, (k1 + l1) // 2, k2, (k2 + l2) // 2)
            cells[cell] = cells.get(cell, 0.0) + abs(c)
    order = sorted(cells)
    columns = [np.array([cell[i] for cell in order], dtype=np.int64) for i in range(4)]
    return (*columns, np.array([cells[cell] for cell in order], dtype=np.float64))


@pytest.mark.parametrize("state", ["nf8", "res21_nf8"])
def test_aggregate_slice_equals_a_dict_reference_bitwise(state, request):
    ham = request.getfixturevalue(state).hamiltonian
    for lo, hi in ((ham.trunc_order, ham.trunc_order), (3, ham.trunc_order), (0, 99)):
        got = _aggregate_slice(ham, lo, hi)
        want = _binned_by_dict(ham, lo, hi)
        assert got[0].size > 0
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)
    # an empty order range: empty arrays of the same dtypes, and a zero norm
    empty = _aggregate_slice(ham, ham.trunc_order + 1, ham.trunc_order + 3)
    assert [a.size for a in empty] == [0] * 5
    assert [a.dtype for a in empty] == [np.dtype(np.int64)] * 4 + [np.dtype(np.float64)]
    profile = RemainderProfile(1.0, lambda action: 1.0, 20, {1: empty})
    assert profile.norm(1, 20, 0.2, 1e-3, beta=0.5) == 0.0


def test_truncation_convergence_at_optimal_order(nonres_profile):
    # near the optimum the N-sum has converged; away from it the tail shows
    assert nonres_profile.norm(8, 20, 0.2, 1e-3) == pytest.approx(
        2.117e-7, rel=1e-3
    )
    assert nonres_profile.norm(5, 20, 0.2, 1e-3) == pytest.approx(
        1.482e-6, rel=1e-3
    )
    assert nonres_profile.norm(13, 20, 0.2, 1e-3) == pytest.approx(
        9.619e-6, rel=1e-3
    )


# --------------------------------------------------------- optimal-order scan


@pytest.fixture(scope="module")
def nonres_scan(nonres_profile):
    return optimal_order_scan(nonres_profile, E=0.2)


def test_scan_optimal_orders_decrease(nonres_scan):
    _table, fit = nonres_scan
    dEs = sorted(fit.r_opt)
    orders = [fit.r_opt[dE] for dE in dEs]
    assert all(a >= b for a, b in zip(orders, orders[1:]))
    assert orders[0] == 14 and fit.r_opt[1e-2] == 5 and fit.r_opt[1e-1] == 2
    # every minimum over the default grid is interior to the captured range
    assert all(1 < r < 19 for dE, r in fit.r_opt.items() if dE <= 1e-2)


def test_scan_fitted_laws(nonres_scan):
    _table, fit = nonres_scan
    assert fit.alpha == pytest.approx(0.1227, abs=2e-3)
    assert fit.d == pytest.approx(0.1021, abs=2e-3)
    assert fit.alpha_rms < 0.2 and fit.d_rms < 0.2


def test_scan_optimal_norm_anchors(nonres_scan):
    _table, fit = nonres_scan
    smallest = min(fit.optimal_norms)  # 10**-5.0 sits one ulp below 1e-5
    assert fit.optimal_norms[smallest] == pytest.approx(2.003e-11, rel=1e-3)
    assert fit.optimal_norms[1e-3] == pytest.approx(2.117e-7, rel=1e-3)
    assert fit.optimal_norms[1e-2] == pytest.approx(1.771e-5, rel=1e-3)


def test_scan_table_covers_grid(nonres_scan):
    table, _fit = nonres_scan
    dEs = {row[0] for row in table.rows}
    assert dEs == {float(dE) for dE in DEFAULT_DELTA_E_GRID}
    curve = table.curve(1e-3)
    assert set(curve) == set(range(1, 20))


def test_unbracketed_minimum_warns(nonres_profile):
    # one delta_E is also too few to fit the scaling laws
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        optimal_order_scan(nonres_profile, E=0.2, delta_E_grid=(1e-9,))
    categories = {w.category for w in caught}
    assert FlatMinimumWarning in categories
    degenerate = [str(w.message) for w in caught if w.category is DegenerateFitWarning]
    assert len(degenerate) == 1
    assert re.match(r"1 delta_E value\(s\) at or below 0.001", degenerate[0])


@pytest.mark.parametrize("grid", [(1e-2, 1e-1), (1e-4, 1e-2)])
def test_scan_with_fewer_than_two_fit_points_skips_the_fit(nonres_profile, grid):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        table, fit = optimal_order_scan(nonres_profile, E=0.2, delta_E_grid=grid)
    assert fit is None
    assert {dE for dE, _r, _N, _v in table.rows} == set(grid)
    categories = {w.category for w in caught}
    assert DegenerateFitWarning in categories
    assert not any(issubclass(c, np.exceptions.RankWarning) for c in categories)


# ------------------------------------------------------- resonance location


def test_bifurcation_energies_on_series(nf8):
    b21 = bifurcation_energy(nf8, 2, 1)
    assert b21.I1_star == pytest.approx(0.1956046211087181, rel=1e-9)
    assert b21.omega1 == pytest.approx(0.9203326012836401, rel=1e-9)
    assert b21.omega2 == pytest.approx(0.46016630064182007, rel=1e-9)
    assert b21.energy == pytest.approx(0.18803599929065473, rel=1e-9)
    assert b21.omega1 == pytest.approx(2.0 * b21.omega2, rel=1e-12)
    b31 = bifurcation_energy(nf8, 3, 1)
    assert b31.energy == pytest.approx(0.09727868405668116, rel=1e-9)
    assert b31.omega1 == pytest.approx(3.0 * b31.omega2, rel=1e-12)


def test_bifurcation_ordering(nf8):
    energies = [bifurcation_energy(nf8, m1, 1).energy for m1 in (4, 3, 2)]
    e_11 = chaos_threshold_convergence(nf8, [8])[0][1]
    assert energies[0] < energies[1] < energies[2] < e_11


def test_no_resonance_raises(nf8):
    with pytest.raises(NoRootError):
        bifurcation_energy(nf8, 1, 5)


def test_multiple_roots_warns():
    # omega1(I) = 1 - I + 1.2 I^2 crosses 0.9 twice; the solver must return
    # the smaller root and say so
    energy = {1: 1.0, 2: -0.5, 3: 0.4}
    omega2 = {0: 0.81}
    with pytest.warns(MultipleRootsWarning):
        result = _solve_resonance(energy, omega2, 1, 1, e_crit=10.0)
    assert result.I1_star == pytest.approx(0.1158, abs=1e-3)


def test_negative_omega2_squared_raises_no_root_error():
    # omega2^2 = I - 3 I^2 turns negative at I = 1/3, below the ceiling
    with pytest.raises(NoRootError, match="omega2") as info:
        _solve_resonance({1: 1.0, 2: -0.1}, {1: 1.0, 2: -3.0}, 2, 1, 1.0)
    value, action = map(
        float, re.search(r"= (\S+) < 0 at I1 = (\S+) ", str(info.value)).groups()
    )
    assert 1.0 / 3.0 < action < 1.0 / 3.0 + 0.01
    assert value == pytest.approx(action - 3.0 * action**2, abs=1e-6)


@pytest.mark.parametrize("jittered", [False, True])
def test_array_grid_equals_the_scalar_loop(jittered):
    # the chaos table r = 10..15 and the 3:1 and 2:1 locators, as the
    # chaos-threshold and bifurcation commands solve them
    spec = jittered_builtin(random.Random(3)) if jittered else build_builtin_model()
    e_crit = critical_energy(spec)
    cases = []
    deep = _series_state(spec, 15)
    e_series = equatorial_energy_series(deep)
    w_series = extract_omega2_squared(deep)
    for r in range(10, 16):
        cases.append((_truncated(e_series, r + 1), _truncated(w_series, r), 1, 1))
    locator = _series_state(spec, 8)
    for m1, m2 in ((3, 1), (2, 1)):
        cases.append(
            (equatorial_energy_series(locator), extract_omega2_squared(locator), m1, m2)
        )
    for energy, omega2, m1, m2 in cases:
        got = _solve_resonance(energy, omega2, m1, m2, e_crit)
        want = Resonance(
            *scalar_grid_resonance(energy, omega2, m1, m2, e_crit)
        )
        assert got == want


@pytest.mark.parametrize("jittered", [False, True])
def test_locator_resonance_does_not_depend_on_the_truncation_past_its_order(
    jittered,
):
    # the series readers take only orders <= r, so the locator truncates at
    # its order r; one order more must give the same resonance bit for bit
    spec = jittered_builtin(random.Random(3)) if jittered else build_builtin_model()
    r = 8
    tight = _series_state(spec, r)
    assert tight.r_trunc == r
    wide = normalize(
        complexify_nonresonant(spec), r, r + 1, transverse_cap=SERIES_TRANSVERSE_CAP
    )
    for m1, m2 in ((2, 1), (3, 1)):
        got = bifurcation_energy(tight, m1, m2)
        want = bifurcation_energy(wide, m1, m2)
        # repr is exact for a float and tells -0.0 from 0.0
        assert repr(got) == repr(want)


def test_chaos_threshold_convergence_rows(nf8):
    rows = chaos_threshold_convergence(nf8, (4, 6, 8), reference_energy=0.36688)
    energies = [energy for _r, energy, _err in rows]
    assert energies[0] > energies[1] > energies[2] > 0.36
    for r, energy, error in rows:
        assert error == pytest.approx(energy - 0.36688)
    with pytest.raises(RangeError):
        chaos_threshold_convergence(nf8, [9])
    plain = chaos_threshold_convergence(nf8, [8])
    assert plain[0][2] is None
