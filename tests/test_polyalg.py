"""Tests for the sparse graded polynomial algebra."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from magbottle import polyalg
from magbottle.errors import NonNilpotentGenerator
from magbottle.polyalg import (
    PRUNE_TOL,
    CanonicalPolynomial as CP,
    conjugate,
    evaluate,
    lie_transform,
    poisson_bracket,
    substitute_pairs,
    to_records,
)

from oracles import (
    coefficient_distance,
    concatenated_sum,
    four_product_bracket,
    from_records,
    sorted_product,
    sympy_bracket,
    term_conjugate,
)

TOL = 1e-11


def make(terms, trunc=30, cap=None):
    return CP.from_terms(terms, trunc_order=trunc, degree_cap=cap)


def ungraded_dict(poly):
    """Collapse bk orders: {(k1,l1,k2,l2): coeff}."""
    out = {}
    for key, c, _bk in poly.term_items():
        out[tuple(key)] = out.get(tuple(key), 0.0) + c
    return out


# ----------------------------------------------------------------- structure


def test_from_terms_merges_duplicates_and_prunes():
    p = make(
        [
            ((1, 0, 0, 0), 1.0, 0),
            ((1, 0, 0, 0), 2.0, 0),
            ((0, 1, 0, 0), 1e-15, 0),
        ]
    )
    assert p.nterms == 1
    assert p.coefficient(1, 0, 0, 0) == pytest.approx(3.0)


def test_same_exponents_different_bk_are_distinct_terms():
    p = make([((1, 1, 0, 0), 1.0, 0), ((1, 1, 0, 0), -0.25, 1)])
    assert p.nterms == 2
    assert p.coefficient(1, 1, 0, 0, bk=0) == 1.0
    assert p.coefficient(1, 1, 0, 0, bk=1) == -0.25
    assert p.coefficient(1, 1, 0, 0) == pytest.approx(0.75)


def test_exponent_validation():
    # the message names the first bad exponent of the first bad term, else its bk
    for terms, message in (
        ([((-1, 0, 0, 0), 1.0, 0)], "exponent -1 outside"),
        ([((200, 0, 0, 0), 1.0, 0)], "exponent 200 outside"),
        ([((0, 0, 0, 0), 1.0, -1)], "negative book-keeping order -1"),
        ([((0, 0, 0, 0), 1.0, -2), ((0, 130, -1, 0), 1.0, 0)], "order -2"),
        ([((0, 0, 0, 0), 1.0, 0), ((0, 130, -1, 0), 1.0, -3)], "exponent 130 outside"),
        # a bk past the key's top bits would wrap into a negative key
        ([((1, 0, 0, 0), 1.0, 2), ((0, 0, 0, 0), 1.0, 1 << 23)], "8388608 does not"),
    ):
        with pytest.raises(ValueError, match=message):
            make(terms)


def test_from_terms_reads_a_one_shot_generator_as_its_list():
    terms = [
        ((k % 7, 2, k // 7, k % 3), complex(k + 1, -0.5 * k), k % 4) for k in range(40)
    ]
    listed = make(terms)
    streamed = make(t for t in terms)
    assert np.array_equal(streamed._keys, listed._keys)
    assert np.array_equal(streamed._coeffs, listed._coeffs)
    # the array packing gives the keys that packing each term alone gives
    one_by_one = sorted(polyalg._pack(*key, bk) for key, _, bk in terms)
    assert listed._keys.tolist() == one_by_one
    assert make(t for t in ()).nterms == 0


def test_default_degree_cap_past_the_packing_raises():
    # order-s terms have degree 2s + 2, so the default cap of trunc_order
    # 127 is 256; clamping it would drop every term of order 127 unseen
    assert CP.zero(polyalg.MAX_TRUNC_ORDER).degree_cap == 254
    with pytest.raises(ValueError, match="headroom"):
        CP.zero(polyalg.MAX_TRUNC_ORDER + 1)
    assert CP.zero(polyalg.MAX_TRUNC_ORDER + 1, degree_cap=254).degree_cap == 254


def test_trunc_discards_on_build_and_multiply():
    p = make([((1, 0, 0, 0), 1.0, 3)], trunc=2)
    assert p.nterms == 0
    a = make([((1, 0, 0, 0), 1.0, 1)], trunc=2)
    prod = a * a  # bk 2, kept
    assert prod.nterms == 1 and prod.min_bk() == 2
    assert (prod * a).nterms == 0  # bk 3, dropped


def test_degree_cap_discards():
    a = make([((2, 2, 0, 0), 1.0, 0)], trunc=10, cap=6)
    b = make([((2, 0, 2, 0), 1.0, 0)], trunc=10, cap=6)
    assert (a * b).nterms == 0
    assert (a * make([((0, 1, 0, 0), 1.0, 0)], trunc=10, cap=6)).nterms == 1


def test_transverse_cap_discards_on_build_and_multiply():
    p = CP.from_terms(
        [((1, 1, 0, 0), 1.0, 0), ((1, 0, 2, 0), 2.0, 0), ((0, 0, 2, 2), 3.0, 0)],
        trunc_order=10,
        transverse_cap=2,
    )
    assert p.transverse_cap == 2
    assert p.as_dict() == {(1, 1, 0, 0, 0): 1.0, (1, 0, 2, 0, 0): 2.0}
    # k2 + l2 = 4 on the product: dropped, and the cap wins over no cap
    q2sq = make([((0, 0, 2, 0), 1.0, 0)], trunc=10)
    assert q2sq.transverse_cap is None
    prod = p * q2sq
    assert prod.transverse_cap == 2
    assert prod.as_dict() == {(1, 1, 2, 0, 0): 1.0}
    assert (q2sq + p).transverse_cap == 2
    # unary operations and views keep the cap
    for derived in (-p, p.scale(2.0), p.scale(0.0), p.derivative(0),
                    p.restrict_bk(0, 0), p.copy(transverse_cap=2)):
        assert derived.transverse_cap == 2
    assert p.copy().transverse_cap is None


def test_transverse_cap_is_exact_on_even_transverse_degrees():
    # with every k2 + l2 even, a bracket never lowers the transverse degree,
    # so bracketing the capped factors gives the low part of the full bracket
    rng = np.random.default_rng(3)

    def random_poly():
        terms = []
        for _ in range(16):
            k1, l1 = (int(e) for e in rng.integers(0, 4, size=2))
            t = int(rng.choice([0, 2, 4]))
            k2 = int(rng.integers(0, t + 1))
            terms.append(((k1, l1, k2, t - k2), complex(rng.normal(), rng.normal()),
                          int(rng.integers(0, 3))))
        return make(terms, trunc=6)

    for _ in range(5):
        f, g = random_poly(), random_poly()
        full = poisson_bracket(f, g).as_dict()
        for cap in (0, 2):
            capped = poisson_bracket(
                f.copy(transverse_cap=cap), g.copy(transverse_cap=cap)
            )
            assert capped.transverse_cap == cap
            assert capped.as_dict() == {
                k: c for k, c in full.items() if k[2] + k[3] <= cap
            }


def test_packed_key_carry_is_dropped():
    # q1^254 * q1^127 has true degree 381 above the cap; packed naively its
    # k1 field carries into l1 and it reads as q1^125 p1, degree 126
    a = make([((127, 0, 0, 0), 1.0, 0)], cap=254)
    a254 = a * a
    assert a254.as_dict() == {(254, 0, 0, 0, 0): 1.0}
    b = make([((127, 0, 0, 0), 1.0, 0), ((0, 0, 0, 0), 1.0, 0)], cap=254)
    assert (a254 * b).as_dict() == {(254, 0, 0, 0, 0): 1.0}
    assert (b * a254).as_dict() == {(254, 0, 0, 0, 0): 1.0}


#: one exponent up to 254 (reachable only through products) plus a small one
_WIDE_MONOMIAL = st.tuples(
    st.integers(0, 3), st.integers(0, 254), st.integers(0, 3), st.integers(0, 8)
)


def _wide_poly(specs, cap):
    """Sum of monomials built as products of two fitting halves."""
    out = make([], cap=cap)
    for i, (big_var, big, small_var, small) in enumerate(specs):
        exps = [0, 0, 0, 0]
        exps[big_var] += big
        exps[small_var] += small
        if sum(exps) > cap:
            continue
        half = [e // 2 for e in exps]
        rest = [e - h for e, h in zip(exps, half)]
        monomial = make([(half, 1.0 + i, 0)], cap=cap) * make([(rest, 1.0, 0)], cap=cap)
        out = out + monomial
    return out


@settings(max_examples=60, deadline=None)
@given(
    st.lists(_WIDE_MONOMIAL, min_size=1, max_size=4),
    st.lists(_WIDE_MONOMIAL, min_size=1, max_size=4),
    st.integers(128, 254),
)
def test_multiply_never_carries_between_fields(fa, fb, cap):
    # the product holds exactly the pairs of true degree <= cap, at their
    # true exponents, even where two 8-bit fields sum past 255
    f, g = _wide_poly(fa, cap), _wide_poly(fb, cap)
    want = {}
    for ka, ca, _ in f.term_items():
        for kb, cb, _ in g.term_items():
            key = (*(x + y for x, y in zip(ka, kb)), 0)
            if sum(key) <= cap:
                want[key] = want.get(key, 0.0) + ca * cb
    assert (f * g).as_dict() == want


#: (terms drawn per factor, largest exponent) of each operand shape: "small"
#: has no output order with enough raw products for the code reduction,
#: "dense" has a compact code box, "sparse" a box too large for its raw
#: products
_PRODUCT_SHAPES = {"small": (30, 4), "dense": (260, 4), "sparse": (220, 40)}

#: products of these collide exactly (x and -x), round (0.1, 1/3), and land
#: at the prune threshold (1e-7 squared)
_PRODUCT_COEFFS = (1.0, -1.0, 0.1, -0.1, 1 / 3, -1 / 3, 2.5, 1e-7)


def _random_factor(rng, n, top, n_groups, bounds, theta=None):
    """``n`` drawn terms of mixed degree over ``n_groups`` bk groups; with
    ``theta``, each coefficient is i^(theta + l1 + l2) r with r real."""
    exps = rng.integers(0, top + 1, size=(n, 4))
    pool = np.array(_PRODUCT_COEFFS)
    if theta is None:
        coeffs = rng.choice(pool, n) + 1j * rng.choice(pool, n) * rng.integers(0, 2, n)
    else:
        phases = polyalg._IPOW[(theta + exps[:, 1] + exps[:, 3]) & 3]
        coeffs = phases * rng.choice(pool, n)
    bks = rng.integers(0, n_groups, n)
    return CP.from_terms(
        [(tuple(e), c, bk) for e, c, bk in zip(exps, coeffs, bks)], *bounds
    )


def _dense_taken(f, g):
    """``f * g`` and, per output order that reached the dense reduction,
    whether it was summed there (True) or sorted (False)."""
    taken = []
    dense_order = polyalg._dense_order

    def spy(*args):
        terms = dense_order(*args)
        taken.append(terms is not None)
        return terms

    with mock.patch.object(polyalg, "_dense_order", spy):
        return f * g, taken


def _assert_bitwise_equal(got, want):
    assert (got.trunc_order, got.degree_cap, got.transverse_cap) == (
        want.trunc_order, want.degree_cap, want.transverse_cap
    )
    assert got._keys.tolist() == want._keys.tolist()
    assert got._coeffs.view(np.int64).tolist() == want._coeffs.view(np.int64).tolist()


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(_PRODUCT_SHAPES)),
    st.integers(0, 2**32 - 1),
    st.integers(1, 4),
    st.floats(0.0, 1.0),
    st.sampled_from([None, 0, 2, 4]),
)
@example("dense", 1, 1, 0.5, None)
@example("dense", 3, 3, 0.0, 4)
@example("sparse", 3, 2, 0.5, None)
@example("small", 4, 3, 0.5, 2)
def test_multiply_equals_sorted_reference(shape, seed, n_groups, cap_share, tcap):
    # every output order, whichever way it is reduced, holds the same keys
    # and the same coefficient bits as one sort-and-merge of all raw products
    n, top = _PRODUCT_SHAPES[shape]
    rng = np.random.default_rng(seed)
    trunc = n_groups - 1 + int(rng.integers(0, n_groups))
    # a cap between the factor degree and the product degree cuts products
    cap = min(4 * top + int(cap_share * 4 * top), 254)
    # the transverse cap filters f itself; g keeps every transverse degree
    f = _random_factor(rng, n, top, n_groups, (trunc, cap, tcap))
    g = _random_factor(rng, n * 4 // 5, top, n_groups, (trunc, cap, None))
    got, taken = _dense_taken(f, g)
    if shape == "dense":
        assert all(taken)
    else:
        assert not any(taken)
    _assert_bitwise_equal(got, sorted_product(f, g))


@pytest.mark.parametrize("shape", ["dense", "sparse"])
def test_large_orders_reach_the_code_reduction(shape):
    # both shapes have orders with enough raw products; only the compact
    # box is summed in code cells, the sparse one sorts
    n, top = _PRODUCT_SHAPES[shape]
    rng = np.random.default_rng(3)
    bounds = (3, 4 * top, None)
    f = _random_factor(rng, n, top, 2, bounds)
    g = _random_factor(rng, n * 4 // 5, top, 2, bounds)
    got, taken = _dense_taken(f, g)
    assert len(taken) == 3
    assert all(taken) if shape == "dense" else not any(taken)
    _assert_bitwise_equal(got, sorted_product(f, g))


def test_multiply_drops_sums_that_cancel_to_zero():
    # integer coefficients sum exactly, so many cells of the dense product
    # cancel to exactly zero; the product holds every other cell
    rng = np.random.default_rng(5)
    bounds = (2, 20, None)

    def factor(n):
        exps = rng.integers(0, 6, size=(n, 4))
        signs = rng.choice([-1.0, 1.0], n)
        return CP.from_terms([(tuple(e), c, 0) for e, c in zip(exps, signs)], *bounds)

    f, g = factor(260), factor(200)
    got, taken = _dense_taken(f, g)
    assert taken and all(taken)
    _assert_bitwise_equal(got, sorted_product(f, g))
    want = {}
    for ka, ca, _ in f.term_items():
        for kb, cb, _ in g.term_items():
            key = (*(x + y for x, y in zip(ka, kb)), 0)
            want[key] = want.get(key, 0.0) + ca * cb
    want = {k: c for k, c in want.items() if sum(k) <= bounds[1]}
    assert sum(c == 0 for c in want.values()) > 0
    assert got.as_dict() == {k: c for k, c in want.items() if c != 0}


def test_dense_product_carries_partial_sums_across_batches(monkeypatch):
    # with a tiny buffer every order is reduced in many batches, each one
    # carrying the previous sums first, and the bits still match one pass
    rng = np.random.default_rng(11)
    bounds = (4, 16, None)
    f = _random_factor(rng, 260, 4, 3, bounds)
    g = _random_factor(rng, 200, 4, 3, bounds)
    want = sorted_product(f, g)
    monkeypatch.setattr(polyalg, "_FLUSH_LIMIT", 700)
    monkeypatch.setattr(polyalg, "_DENSE_BOX_PER_RAW", 10**3)
    got, taken = _dense_taken(f, g)
    assert taken and all(taken)
    _assert_bitwise_equal(got, want)


def test_sorted_product_keeps_small_partial_sums_across_flushes(monkeypatch):
    # q1 p1 at bk 1 first gets 1e-7 * 1e-7 (f bk 0 times g bk 1), at the
    # prune threshold, and then 1 * 1 (f bk 1 times g bk 0); a buffer flush
    # between the two must carry the first, as one merge would
    f = make([((1, 0, 0, 0), 1e-7, 0), ((1, 0, 0, 0), 1.0, 1)], trunc=1)
    g = make(
        [((0, 1, 0, 0), 1.0, 0), ((0, 1, 0, 0), 1e-7, 1)]
        + [(key, 1.0, 1) for key in ((0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 2, 0))],
        trunc=1,
    )
    want = sorted_product(f, g)
    assert want.coefficient(1, 1, 0, 0, bk=1) == 1e-7 * 1e-7 + 1.0
    monkeypatch.setattr(polyalg, "_FLUSH_LIMIT", 3)
    _assert_bitwise_equal(f * g, want)


def _reduced_dtypes(f, g):
    """``f * g`` and the dtype of the sums of every reduction it made."""
    dtypes = []
    reduce = polyalg._Reducer._reduce

    def spy(self):
        reduce(self)
        dtypes.append(self.sums.dtype)

    with mock.patch.object(polyalg._Reducer, "_reduce", spy):
        return f * g, dtypes


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["dense", "sparse"]),
    st.integers(0, 2**32 - 1),
    st.integers(1, 3),
    st.sampled_from([0, 1]),
    st.sampled_from([0, 1]),
    st.sampled_from([None, 700]),
)
@example("dense", 1, 2, 0, 1, 700)
@example("sparse", 2, 2, 1, 1, 700)
@example("dense", 3, 1, 1, 0, None)
def test_lattice_product_equals_sorted_reference(
    shape, seed, n_groups, theta_f, theta_g, flush
):
    # two factors on the phase lattice are summed in float64 and turned
    # back; every bit matches the complex sort-and-merge, also when a small
    # buffer carries the sums across many reductions
    n, top = _PRODUCT_SHAPES[shape]
    rng = np.random.default_rng(seed)
    bounds = (n_groups, 4 * top, None)
    f = _random_factor(rng, n, top, n_groups, bounds, theta_f)
    g = _random_factor(rng, n * 4 // 5, top, n_groups, bounds, theta_g)
    assert polyalg._lattice(f)[0] == theta_f
    assert polyalg._lattice(g)[0] == theta_g
    want = sorted_product(f, g)
    with mock.patch.multiple(
        polyalg,
        _FLUSH_LIMIT=flush or polyalg._FLUSH_LIMIT,
        _DENSE_BOX_PER_RAW=10**3 if flush else polyalg._DENSE_BOX_PER_RAW,
    ):
        got, dtypes = _reduced_dtypes(f, g)
    assert dtypes and all(d == np.float64 for d in dtypes)
    if flush:
        assert len(dtypes) > 10
    _assert_bitwise_equal(got, want)


def test_off_lattice_factor_takes_the_complex_path():
    # one coefficient off both axes puts its factor off the lattice
    rng = np.random.default_rng(8)
    bounds = (2, 16, None)
    f = _random_factor(rng, 260, 4, 2, bounds, 0)
    g = _random_factor(rng, 200, 4, 2, bounds, 1)
    f = f + make([((1, 0, 0, 0), 0.5 + 0.25j, 0)], trunc=2, cap=16)
    assert polyalg._lattice(f) is None
    assert polyalg._lattice(g) is not None
    for a, b in ((f, g), (g, f)):
        got, dtypes = _reduced_dtypes(a, b)
        assert dtypes and all(d == np.complex128 for d in dtypes)
        _assert_bitwise_equal(got, sorted_product(a, b))


def test_small_lattice_product_takes_the_complex_path():
    # below the size rule a product is summed in complex, lattice or not
    rng = np.random.default_rng(9)
    bounds = (2, 16, None)
    f = _random_factor(rng, 40, 4, 2, bounds, 0)
    g = _random_factor(rng, 30, 4, 2, bounds, 1)
    assert f.nterms * g.nterms < polyalg._DENSE_MIN_RAW
    got, dtypes = _reduced_dtypes(f, g)
    assert dtypes and all(d == np.complex128 for d in dtypes)
    _assert_bitwise_equal(got, sorted_product(f, g))


def test_multiply_bk_is_additive():
    a = make([((1, 0, 0, 0), 2.0, 1)])
    b = make([((0, 0, 1, 0), 3.0, 2)])
    ((key, c, bk),) = list((a * b).term_items())
    assert tuple(key) == (1, 0, 1, 0)
    assert c == 6.0
    assert bk == 3


def test_prune_threshold_after_subtraction():
    a = make([((1, 1, 0, 0), 1.0, 0)])
    b = make([((1, 1, 0, 0), 1.0 - 5e-15, 0)])
    assert (a - b).nterms == 0
    assert PRUNE_TOL == 1e-14


_ADD_COEFFS = (1.0, -1.0, 0.5, 1.0 / 3.0, -2.5, 1e-14, 6e-15, 2.0**-40)

_ADD_BOUNDS = st.tuples(
    st.integers(2, 5), st.sampled_from([None, 5, 8]), st.sampled_from([None, 0, 2, 4])
)


def _add_operand(rng, bounds):
    """Up to 24 drawn terms over bk orders 0-5, some with a zero imaginary
    part (which negation turns into -0.0)."""
    n = int(rng.integers(0, 25))
    exps = rng.integers(0, 4, size=(n, 4))
    pool = np.array(_ADD_COEFFS)
    coeffs = rng.choice(pool, n) + 1j * rng.choice(pool, n) * rng.integers(0, 2, n)
    bks = rng.integers(0, 6, n)
    return CP.from_terms(
        [(tuple(e), c, bk) for e, c, bk in zip(exps, coeffs, bks)], *bounds
    )


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["free", "negated", "cancel", "split"]),
    _ADD_BOUNDS,
    _ADD_BOUNDS,
)
@example(0, "negated", (5, None, None), (5, None, None))
@example(1, "cancel", (5, None, None), (3, 6, 2))
@example(2, "split", (5, None, 2), (5, None, 2))
@example(3, "free", (2, None, None), (5, 5, None))
def test_add_equals_concatenated_reference(seed, relation, f_bounds, g_bounds):
    # merging the two sorted key runs keeps the keys, bounds and coefficient
    # bits of one sort-and-merge of both operands, in either order
    rng = np.random.default_rng(seed)
    f = _add_operand(rng, f_bounds)
    if relation == "free":
        g = _add_operand(rng, g_bounds)
    elif relation == "negated":
        g = -_add_operand(rng, g_bounds)
    elif relation == "cancel":
        g = -f.copy(*g_bounds)
    else:
        # disjoint bk ranges, as normalize reassembles a Hamiltonian
        lo = int(rng.integers(0, 6))
        f, g = f.restrict_bk(0, lo - 1), f.restrict_bk(lo, 5)
    for a, b in ((f, g), (g, f)):
        _assert_bitwise_equal(a + b, concatenated_sum(a, b))
    if relation == "cancel":
        assert (f + g).nterms == 0


def test_derivative():
    p = make([((2, 0, 1, 3), 1.5, 1)])
    d = p.derivative(3)
    ((key, c, bk),) = list(d.term_items())
    assert tuple(key) == (2, 0, 1, 2) and c == 4.5 and bk == 1
    assert p.derivative(1).nterms == 0


# ------------------------------------------------------------------ brackets


def test_bracket_matches_symbolic_differentiation():
    f = {(2, 1, 0, 0): 1.0 + 0.5j, (0, 0, 2, 1): -0.75, (1, 1, 1, 1): 2.0j}
    g = {(1, 0, 1, 2): 0.5, (0, 2, 0, 0): 1.0 - 1.0j, (1, 1, 0, 0): 3.0}
    expected = sympy_bracket(f, g)
    got = ungraded_dict(
        poisson_bracket(
            make([(k, c, 0) for k, c in f.items()]),
            make([(k, c, 0) for k, c in g.items()]),
        )
    )
    keys = set(expected) | set(got)
    for key in keys:
        assert got.get(key, 0.0) == pytest.approx(expected.get(key, 0.0), abs=1e-12)


def test_bracket_quadratic_part_action():
    # {i w q1 p1 + p2^2/2, m} = i(l1-k1) w m - k2 (shift k2->k2-1, l2->l2+1)
    w = 1.37
    z0 = make([((1, 1, 0, 0), 1j * w, 0), ((0, 0, 0, 2), 0.5, 0)])
    for k1, l1, k2, l2 in ((2, 1, 3, 1), (0, 4, 2, 0), (1, 1, 0, 2), (3, 0, 1, 1)):
        m = make([((k1, l1, k2, l2), 1.0, 1)])
        got = ungraded_dict(poisson_bracket(z0, m))
        expected = {}
        if l1 != k1:
            expected[(k1, l1, k2, l2)] = 1j * (l1 - k1) * w
        if k2 > 0:
            expected[(k1, l1, k2 - 1, l2 + 1)] = -float(k2)
        assert set(got) == set(expected)
        for key in expected:
            assert got[key] == pytest.approx(expected[key], abs=1e-13)


coeff_st = st.sampled_from(
    [1.0, -1.0, 0.5, -0.25, 1.0j, -0.5j, 1.0 + 1.0j, 2.0 - 0.5j]
)
key_st = st.tuples(
    st.integers(0, 2), st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)
)
poly_st = st.lists(st.tuples(key_st, coeff_st), min_size=0, max_size=4).map(
    lambda ts: make([(k, c, 0) for k, c in ts], trunc=99)
)


@settings(max_examples=60, deadline=None)
@given(poly_st, poly_st)
def test_bracket_antisymmetry(f, g):
    assert coefficient_distance(poisson_bracket(f, g), -poisson_bracket(g, f)) < TOL


@settings(max_examples=60, deadline=None)
@given(poly_st, poly_st, poly_st)
def test_bracket_jacobi(f, g, h):
    total = (
        poisson_bracket(f, poisson_bracket(g, h))
        + poisson_bracket(g, poisson_bracket(h, f))
        + poisson_bracket(h, poisson_bracket(f, g))
    )
    assert total.max_abs() < TOL


@settings(max_examples=60, deadline=None)
@given(poly_st, poly_st, poly_st)
def test_bracket_leibniz(f, g, h):
    lhs = poisson_bracket(f, g * h)
    rhs = poisson_bracket(f, g) * h + g * poisson_bracket(f, h)
    assert coefficient_distance(lhs, rhs) < TOL


@settings(max_examples=60, deadline=None)
@given(poly_st, poly_st, poly_st)
def test_bracket_bilinearity(f, g, h):
    lhs = poisson_bracket(f + g.scale(2.5), h)
    rhs = poisson_bracket(f, h) + poisson_bracket(g, h).scale(2.5)
    assert coefficient_distance(lhs, rhs) < TOL


# ------------------------------------------------------ brackets of real polys


def _real_poly(rng, n, pairs, bounds):
    """f + f* of ``n`` drawn terms of mixed degree over bk groups 0-2: a
    real function on the complex ``pairs``."""
    f = _random_factor(rng, n, 3, 3, bounds)
    return f + conjugate(f, pairs)


def _is_self_conjugate(poly, pairs):
    other = conjugate(poly, pairs)
    return np.array_equal(other._keys, poly._keys) and np.array_equal(
        other._coeffs, poly._coeffs
    )


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([(0,), (0, 1)]),
    st.sampled_from([(10, 12), (60, 120)]),
    st.sampled_from([8, 10, 12]),
    st.sampled_from([None, 2, 4]),
)
@example(7, (0, 1), (60, 120), 12, None)
@example(8, (0,), (60, 120), 10, 2)
def test_real_bracket_matches_four_product_bracket(seed, pairs, sizes, cap, tcap):
    # the complex pairs form one product each and add its conjugate; the
    # result agrees with both products to rounding, and it is exactly real
    # when every pair is complex (a real pair sums two rounded products)
    rng = np.random.default_rng(seed)
    bounds = (3, cap, tcap)
    f = _real_poly(rng, sizes[0], pairs, bounds)
    g = _real_poly(rng, sizes[1], pairs, bounds)
    assert _is_self_conjugate(f, pairs) and _is_self_conjugate(g, pairs)
    generic = poisson_bracket(f, g)
    _assert_bitwise_equal(generic, four_product_bracket(f, g))
    real = poisson_bracket(f, g, pairs)
    assert (real.trunc_order, real.degree_cap, real.transverse_cap) == (
        generic.trunc_order, generic.degree_cap, generic.transverse_cap
    )
    scale = max(1.0, generic.max_abs())
    assert coefficient_distance(real, generic) <= 1e-13 * scale
    if pairs == (0, 1):
        assert _is_self_conjugate(real, pairs)
    else:
        assert coefficient_distance(real, conjugate(real, pairs)) <= 1e-13 * scale


@pytest.mark.parametrize("pairs", [(), (0,), (1,), (0, 1)])
def test_conjugate_swaps_pairs_and_turns_phases(pairs):
    rng = np.random.default_rng(4)
    f = _random_factor(rng, 40, 5, 3, (4, 18, 8))
    got = conjugate(f, pairs)
    assert (got.trunc_order, got.degree_cap, got.transverse_cap) == (4, 18, 8)
    assert got._keys.tolist() == sorted(got._keys.tolist())
    assert got.as_dict() == term_conjugate(f, pairs)
    twice = conjugate(got, pairs)
    assert np.array_equal(twice._keys, f._keys)
    assert np.array_equal(twice._coeffs, f._coeffs)


# ------------------------------------------------------------- Lie transform


chi_st = st.lists(st.tuples(key_st, coeff_st), min_size=1, max_size=3).map(
    lambda ts: make([(k, c, 1) for k, c in ts], trunc=8)
)
graded_poly_st = st.lists(
    st.tuples(key_st, coeff_st, st.integers(0, 2)), min_size=0, max_size=4
).map(lambda ts: make([(k, c, bk) for k, c, bk in ts], trunc=8))


@settings(max_examples=40, deadline=None)
@given(graded_poly_st, chi_st)
def test_lie_transform_roundtrip(f, chi):
    # rounding residue scales with the forward image, which unit-size random
    # generators can pump well past |f| itself
    fwd = lie_transform(f, chi)
    back = lie_transform(fwd, chi, inverse=True)
    assert coefficient_distance(back, f) < TOL * max(1.0, fwd.max_abs())


def test_lie_transform_canonicity():
    # transformed coordinate pairs keep {q1', p1'} = 1, {q1', q2'} = 0
    chi = make(
        [((2, 1, 0, 1), 0.3, 1), ((1, 0, 2, 0), -0.2j, 1), ((0, 2, 1, 1), 0.15, 2)],
        trunc=7,
    )
    coords = [
        make([((1, 0, 0, 0), 1.0, 0)], trunc=7),
        make([((0, 1, 0, 0), 1.0, 0)], trunc=7),
        make([((0, 0, 1, 0), 1.0, 0)], trunc=7),
        make([((0, 0, 0, 1), 1.0, 0)], trunc=7),
    ]
    new = [lie_transform(c, chi) for c in coords]
    pairs = {(0, 1): 1.0, (2, 3): 1.0, (0, 2): 0.0, (0, 3): 0.0, (1, 3): 0.0}
    for (i, j), expected in pairs.items():
        br = poisson_bracket(new[i], new[j])
        const = br.coefficient(0, 0, 0, 0)
        assert const == pytest.approx(expected, abs=TOL)
        assert (br - make([((0, 0, 0, 0), expected, 0)], trunc=7)).max_abs() < TOL


def test_lie_transform_rejects_bk0_generator():
    chi = make([((1, 1, 0, 0), 1.0, 0)])
    f = make([((1, 0, 0, 0), 1.0, 0)])
    with pytest.raises(NonNilpotentGenerator):
        lie_transform(f, chi)


def test_lie_transform_identity_for_zero_generator():
    f = make([((1, 2, 3, 0), 2.0, 1)])
    out = lie_transform(f, CP.zero(f.trunc_order))
    assert coefficient_distance(out, f) == 0.0


# ---------------------------------------------- substitute_pairs / evaluate


def test_substitute_pairs_matches_pointwise_evaluation():
    rng = np.random.default_rng(7)
    f = make([
        ((2, 0, 1, 0), 1.5, 0), ((0, 1, 0, 2), -2.0j, 1), ((1, 1, 1, 1), 0.3, 2),
        ((3, 2, 0, 4), 0.7 - 0.1j, 2), ((0, 0, 0, 0), 0.25, 0),
    ])
    maps = ((0.6, 0.5j), (-0.3, 1.1)), ((2.0, -0.4j), (0.25j, 1.0))
    fs = substitute_pairs(f, maps)
    for _ in range(5):
        x1, y1, x2, y2 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        inner = [
            u * x + v * y
            for matrix, x, y in zip(maps, (x1, x2), (y1, y2))
            for u, v in matrix
        ]
        assert evaluate(fs, x1, y1, x2, y2) == pytest.approx(
            evaluate(f, *inner), rel=1e-12
        )


def test_substitute_pairs_keeps_unmapped_pair_exponents():
    # pair 1 has no map: every term keeps its (k2, l2) and its bk, and its
    # pair-0 degree is all that the map of pair 0 may redistribute
    f = make([((1, 2, 3, 0), 1.0, 2), ((0, 1, 0, 4), 0.5j, 1), ((2, 0, 0, 0), 2.0, 0)])
    fs = substitute_pairs(f, [((1.0, 2.0), (0.5j, -1.0)), None])
    seen = {(k.k1 + k.l1, k.k2, k.l2, bk) for k, _c, bk in fs.term_items()}
    assert seen == {(3, 3, 0, 2), (1, 0, 4, 1), (2, 0, 0, 0)}
    assert substitute_pairs(f, [None, None]).as_dict() == f.as_dict()


def test_substitute_pairs_prunes_final_sums_only():
    # x1 gets 1e-7 * 1e-7, at the prune threshold, from q1 and 1.0 from p1;
    # y2 gets 1e-7 * 6e-8 from q2 and from p2, each below the threshold but
    # not their sum
    f = make([
        ((1, 0, 0, 0), 1e-7, 0), ((0, 1, 0, 0), 1.0, 0),
        ((0, 0, 1, 0), 1e-7, 0), ((0, 0, 0, 1), 1e-7, 0),
    ])
    fs = substitute_pairs(f, [((1e-7, 0.0), (1.0, 0.0)), ((0.0, 6e-8), (0.0, 6e-8))])
    assert fs.as_dict() == {
        (1, 0, 0, 0, 0): 1e-7 * 1e-7 + 1.0,
        (0, 0, 0, 1, 0): 1e-7 * 6e-8 + 1e-7 * 6e-8,
    }


def test_evaluate_broadcasts():
    f = make([((1, 0, 1, 0), 2.0, 0), ((0, 0, 0, 0), 1.0, 0)])
    z = np.linspace(0.0, 1.0, 7)
    vals = evaluate(f, z, 0.0, 3.0, 0.0)
    assert vals.shape == (7,)
    assert vals[-1] == pytest.approx(7.0)
    assert evaluate(f, 0.5, 0.0, 3.0, 0.0) == pytest.approx(4.0)


# -------------------------------------------------------------- serialization


def test_records_roundtrip_and_ordering():
    f = make(
        [
            ((0, 1, 0, 0), 1.0 - 2.0j, 1),
            ((1, 0, 0, 0), 0.5, 0),
            ((0, 0, 2, 0), 3.0, 2),
            ((0, 0, 2, 0), 1.0, 1),
        ],
        trunc=9,
    )
    records = to_records(f)
    keys = [(r["k1"], r["l1"], r["k2"], r["l2"], r["bk"]) for r in records]
    assert keys == sorted(keys)
    g = from_records(records, trunc_order=9)
    assert coefficient_distance(f, g) == 0.0


def test_multiply_is_deterministic():
    a = make([((1, 0, 1, 0), 1.0 + 1e-9j, 1), ((0, 1, 0, 1), -0.5, 2)], trunc=12)
    b = make([((2, 1, 0, 0), 0.7, 1), ((0, 0, 1, 1), 1.1j, 3)], trunc=12)
    p1 = (a * b).as_dict()
    p2 = (a * b).as_dict()
    assert p1 == p2  # bitwise identical


def test_restrict_bk_partition():
    f = make([((1, 1, 0, 0), 1.0, 0), ((2, 2, 0, 0), 2.0, 1), ((0, 0, 4, 2), 3.0, 2)])
    low = f.restrict_bk(0, 1)
    high = f.bk_part(2)
    assert low.nterms == 2 and high.nterms == 1
    assert coefficient_distance(low + high, f) == 0.0
