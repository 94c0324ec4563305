"""Tests for the integral back-transform and the section level machinery."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import ndimage

from magbottle.analysis import bifurcation_energy
from magbottle import invariants
from magbottle.dynamics import integrate, section_seed_state
from magbottle.errors import ModeError, NonRealIntegralError, SeedOutsideCZVError
from magbottle.invariants import (
    FormalIntegral,
    GridSpec,
    back_transform,
    level_set_components,
    section_levels,
)
from magbottle.model import Resonance, prepare_resonant
from magbottle.normform import normalize
from magbottle.polyalg import (
    CanonicalPolynomial,
    lie_transform,
    substitute_pairs,
    to_records,
)

from conftest import truncated_view
from oracles import (
    coefficient_distance,
    pair_map_polynomials,
    per_term_compose,
    per_term_section_field,
)

#: window bounding the 2:1 island chain at E = 0.2 (chain spans
#: |z| <= 0.26, |p_z| <= 0.14; the series' trust region ends around
#: |p_z| ~ 0.16 where spurious far branches of the level set appear)
CHAIN_WINDOW = GridSpec(-0.3, 0.3, -0.155, 0.155, 401, 401)


def islands_and_rings(level_set):
    components = level_set_components(level_set)
    islands = sum(1 for c in components if not c.encircles_center)
    rings = sum(1 for c in components if c.encircles_center)
    return islands, rings


# -------------------------------------------------------------- back transform


def test_back_transform_r0_is_harmonic_action(prep):
    state = normalize(prep, r_max=0, r_trunc=1)
    phi = back_transform(state)
    assert phi.resonance is None
    assert phi.order == 0
    rng = np.random.default_rng(7)
    for rho, z, prho, pz in rng.uniform(-0.4, 0.4, size=(20, 4)):
        want = 0.5 * (rho**2 + prho**2)
        assert phi.evaluate(rho, z, prho, pz) == pytest.approx(want, abs=1e-14)


def test_integral_terms_pair_even(nf5):
    # reflection symmetries of the potential survive the pullback: every
    # term has even total degree in (rho, p_rho) and in (z, p_z)
    records = to_records(back_transform(nf5).poly)
    assert records
    for rec in records:
        assert (rec["k1"] + rec["l1"]) % 2 == 0
        assert (rec["k2"] + rec["l2"]) % 2 == 0
        assert rec["im"] == 0.0


def relative_variation(state, orders, E, z0, pz0, T=400.0):
    traj = integrate(section_seed_state(z0, pz0, E), T, n_samples=2000)
    rho, z, prho, pz = traj.states.T
    out = {}
    for r in orders:
        phi = back_transform(truncated_view(state, r))
        vals = phi.evaluate(rho, z, prho, pz)
        out[r] = float((vals.max() - vals.min()) / abs(vals.mean()))
    return out


def test_nonresonant_conservation_improves_with_order(nf8):
    var = relative_variation(nf8, (1, 3, 5), E=0.1, z0=0.0, pz0=0.1)
    assert var[1] > var[3] > var[5]
    assert var[1] == pytest.approx(5.1836e-3, rel=5e-2)
    assert var[3] == pytest.approx(3.8348e-4, rel=5e-2)
    assert var[5] == pytest.approx(2.3458e-4, rel=5e-2)


def test_resonant_conservation_improves_with_order(res21_nf8):
    # at E = 0.2 the seed sits in the 2:1 zone; the resonant integral keeps
    # improving by orders of magnitude where the nonresonant one saturates
    var = relative_variation(res21_nf8, (1, 3, 5), E=0.2, z0=0.0, pz0=0.05)
    assert var[1] > var[3] > var[5]
    assert var[1] == pytest.approx(4.0384e-3, rel=5e-2)
    assert var[3] == pytest.approx(9.3095e-5, rel=5e-2)
    assert var[5] == pytest.approx(2.6177e-6, rel=5e-2)


@pytest.mark.parametrize(
    "resonant, r", [(False, 5), (True, 6)], ids=["nonres", "res21"]
)
def test_integral_does_not_depend_on_the_truncation_past_its_order(
    prep, res21_prep, resonant, r
):
    # generator chi_s reads only orders <= s, and the pullback reads only
    # the generators, so truncating the normalization at r loses nothing
    prepared = res21_prep if resonant else prep
    tight = back_transform(normalize(prepared, r_max=r, r_trunc=r)).poly
    wide = back_transform(normalize(prepared, r_max=r, r_trunc=r + 2)).poly
    *keys, coeffs = tight.term_arrays()
    *wide_keys, wide_coeffs = wide.term_arrays()
    assert tight.nterms > 200
    assert all(np.array_equal(a, b) for a, b in zip(keys, wide_keys))
    assert coeffs.dtype == wide_coeffs.dtype
    assert coeffs.tobytes() == wide_coeffs.tobytes()


@pytest.mark.parametrize("resonant", [False, True], ids=["nonres-r5", "res21-r6"])
def test_pullback_matches_the_generic_bracket_chain(
    nf5, res21_nf8, monkeypatch, resonant
):
    # the reference forms both products of every pair, as lie_transform
    # does without complex_pairs
    state = truncated_view(res21_nf8, 6) if resonant else nf5
    got = back_transform(state).poly
    calls = []

    def generic(f, chi, inverse, complex_pairs):
        calls.append(complex_pairs)
        return lie_transform(f, chi, inverse=inverse, complex_pairs=())

    monkeypatch.setattr(invariants, "lie_transform", generic)
    want = back_transform(state).poly
    assert calls == [state.prepared.complex_pairs] * state.r
    assert calls[0] == ((0, 1) if resonant else (0,))
    *keys, _ = got.term_arrays()
    *want_keys, _ = want.term_arrays()
    assert all(np.array_equal(a, b) for a, b in zip(keys, want_keys))
    # a bound fixed from float64: 1e-15 of the largest coefficient
    assert coefficient_distance(got, want) <= 1e-15 * want.max_abs()


def test_back_transform_rejects_capped_state(prep):
    capped = normalize(prep, r_max=3, r_trunc=4, transverse_cap=2)
    with pytest.raises(ModeError, match="transverse_cap=2"):
        back_transform(capped)


def test_substitute_pairs_matches_per_term_oracle_on_resonant_pullback(
    res21_nf8, monkeypatch
):
    # the 2:1 pullback at r = 6 maps both pairs; the table expansion forms
    # its products in another order than the per-term reference
    calls = []

    def recording(f, maps):
        calls.append((f, maps))
        return substitute_pairs(f, maps)

    monkeypatch.setattr(invariants, "substitute_pairs", recording)
    back_transform(truncated_view(res21_nf8, 6))
    ((f, maps),) = calls
    assert f.nterms > 1000 and all(m is not None for m in maps)
    got = substitute_pairs(f, maps)
    want = per_term_compose(
        f, pair_map_polynomials(maps, f.trunc_order, f.degree_cap)
    )
    assert want.nterms > 1000
    assert coefficient_distance(got, want) <= 1e-15 * want.max_abs()


def test_corrupted_generator_is_detected(nf5):
    bad_chi = CanonicalPolynomial.from_terms(
        list(nf5.generators[0].term_items()) + [((2, 0, 0, 0), 0.3, 1)],
        trunc_order=nf5.generators[0].trunc_order,
        degree_cap=nf5.generators[0].degree_cap,
    )
    broken = dataclasses.replace(
        nf5, generators=[bad_chi] + nf5.generators[1:]
    )
    with pytest.raises(NonRealIntegralError):
        back_transform(broken)


# ------------------------------------------------------------- section levels


def test_section_field_validity_and_evenness(nf5):
    phi = back_transform(nf5)
    grid = GridSpec(-0.4, 0.4, -0.5, 0.5, 81, 81)
    level = section_levels(phi, 0.1, [(0.0, 0.05)], grid=grid)[0]
    # |p_z| <= sqrt(2E) ~ 0.447 on the section, so the grid corners fall out
    assert not level.valid.all()
    assert np.isnan(level.values[~level.valid]).all()
    assert np.isfinite(level.values[level.valid]).all()
    # the field inherits p_z -> -p_z symmetry (grid is symmetric)
    flipped = level.values[:, ::-1]
    both = level.valid & level.valid[:, ::-1]
    assert np.allclose(level.values[both], flipped[both], atol=1e-12)


@pytest.mark.parametrize(
    "which, E, grid",
    [
        ("nf5", 0.1, GridSpec(-0.4, 0.4, -0.5, 0.5, 81, 81)),
        ("res21_nf8", 0.2, GridSpec(-0.6, 0.6, -0.7, 0.7, 73, 91)),
    ],
)
def test_section_field_matches_per_term_oracle(which, E, grid, builtin, request):
    # the per-m matrix products and Horner's rule in G reorder the sums of
    # the term-by-term field, so the two agree to rounding only
    state = request.getfixturevalue(which)
    if which == "res21_nf8":
        state = truncated_view(state, 6)
    phi = back_transform(state)
    z, pz = grid.axes()
    got, got_valid = invariants._section_field(phi, E, z, pz, builtin)
    want, want_valid = per_term_section_field(phi, E, z, pz, builtin)
    assert got.shape == (grid.n_z, grid.n_pz)
    assert (got_valid == want_valid).all()
    assert not want_valid.all()
    assert np.isnan(got[~got_valid]).all()
    scale = np.abs(want[want_valid]).max()
    assert np.abs(got - want)[want_valid].max() <= 1e-12 * scale


def _integral(terms):
    poly = CanonicalPolynomial.from_terms(terms, trunc_order=2)
    return FormalIntegral(poly=poly, order=1)


@pytest.mark.parametrize("terms", [[], [((2, 0, 1, 1), 1.5, 0)]])
def test_section_field_without_rho_free_terms_is_zero(terms, builtin):
    grid = GridSpec(-0.4, 0.4, -0.5, 0.5, 21, 23)
    values, valid = invariants._section_field(
        _integral(terms), 0.1, *grid.axes(), builtin
    )
    assert 0 < valid.sum() < valid.size
    assert (values[valid] == 0.0).all()
    assert np.isnan(values[~valid]).all()


def test_section_field_rejects_odd_p_rho_powers(builtin):
    odd = _integral([((0, 2, 0, 0), 1.0, 0), ((0, 1, 1, 0), 0.5, 1)])
    with pytest.raises(ValueError, match="odd p_rho"):
        section_levels(odd, 0.1, [(0.0, 0.05)], potential=builtin)


def test_section_levels_share_one_field(nf5):
    phi = back_transform(nf5)
    levels = section_levels(phi, 0.1, [(0.0, 0.05), (0.1, 0.0)])
    assert levels[0].values is levels[1].values
    assert levels[0].level != levels[1].level


def test_seed_outside_czv_rejected(nf5):
    phi = back_transform(nf5)
    with pytest.raises(SeedOutsideCZVError):
        section_levels(phi, 0.1, [(0.0, 0.5)])


def test_grid_from_energy_covers_section():
    grid = GridSpec.from_energy(0.2, n=101)
    z, pz = grid.axes()
    assert z.shape == (101,) and pz.shape == (101,)
    assert pz.max() >= math.sqrt(2.0 * 0.2)
    assert grid.pz_max == -grid.pz_min and grid.z_max == -grid.z_min


# ------------------------------------------------------------- island counting


def test_island_counts_contrast_2to1(res21_nf8, nf8):
    phi_res = back_transform(res21_nf8)
    phi_non = back_transform(nf8)
    for seed in [(0.2, 0.0), (0.0, 0.11)]:
        res_level = section_levels(phi_res, 0.2, [seed], grid=CHAIN_WINDOW)[0]
        assert islands_and_rings(res_level) == (4, 0)
        non_level = section_levels(phi_non, 0.2, [seed], grid=CHAIN_WINDOW)[0]
        assert islands_and_rings(non_level) == (0, 1)


@pytest.fixture(scope="module")
def res31_nf8(builtin, nf8):
    prepared = prepare_resonant(builtin, bifurcation_energy(nf8, 3, 1))
    return normalize(prepared, r_max=8, r_trunc=10)


def test_island_counts_3to1(res31_nf8):
    phi = back_transform(res31_nf8)
    window = GridSpec(-0.45, 0.45, -0.18, 0.18, 601, 601)
    for seed in [(0.0, 0.138), (0.0, 0.142)]:
        level = section_levels(phi, 0.115, [seed], grid=window)[0]
        islands, _rings = islands_and_rings(level)
        assert islands == 6


def _label_masks():
    rng = np.random.default_rng(11)
    corner = np.zeros((6, 6), dtype=bool)
    corner[:2, :2] = corner[2:4, 2:4] = corner[4, 0] = corner[5, 5] = True
    masks = {
        "empty": np.zeros((5, 7), dtype=bool),
        "full": np.ones((6, 4), dtype=bool),
        "strip": np.ones((1, 9), dtype=bool),
        "broken_strip": np.array([[1, 0, 1, 1, 0, 0, 1]], dtype=bool),
        "column": np.array([[1], [1], [0], [1]], dtype=bool),
        "corner_touch": corner,
        "anti_diagonal": np.eye(5, dtype=bool)[::-1],
        "checkerboard": np.add.outer(np.arange(7), np.arange(5)) % 2 == 0,
    }
    for shape in ((1, 17), (17, 1), (23, 31)):
        for density in (0.1, 0.3, 0.5, 0.7):
            masks[f"random_{shape[0]}x{shape[1]}_{density}"] = rng.random(shape) < density
    return masks


LABEL_MASKS = _label_masks()


@pytest.mark.parametrize("name", sorted(LABEL_MASKS))
def test_label8_numbers_components_as_ndimage(name):
    mask = LABEL_MASKS[name]
    labels, n = ndimage.label(mask, structure=np.ones((3, 3), dtype=bool))
    got = invariants._label8(mask)
    assert len(got) == n
    for lab, (rows, cols) in enumerate(got, start=1):
        want_rows, want_cols = np.nonzero(labels == lab)
        for a, b in ((rows, want_rows), (cols, want_cols)):
            assert a.dtype == b.dtype and np.array_equal(a, b)


# ------------------------------------------------------- resonant preparation


def test_resonant_detuning_quadratic(builtin):
    omega1, omega2 = 0.93, 0.465
    resonance = Resonance(2, 1, 0.25, omega1=omega1, omega2=omega2, energy=0.23)
    prepared = prepare_resonant(builtin, resonance)
    detune = {
        tuple(key): complex(c)
        for key, c, bk in prepared.poly.term_items()
        if bk == 1 and sum(key) == 2
    }
    omega10 = prepared.omega10
    assert detune == {
        (1, 1, 0, 0): pytest.approx(-1j * (omega1 - omega10)),
        (0, 0, 2, 0): pytest.approx(-omega2 / 4.0),
        (0, 0, 1, 1): pytest.approx(-1j * omega2 / 2.0),
        (0, 0, 0, 2): pytest.approx(omega2 / 4.0),
    }
