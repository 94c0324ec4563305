"""Sparse graded polynomial algebra over the canonical variables (q1, p1, q2, p2).

Polynomials are stored as parallel numpy arrays: an int64 key packs the four
exponents and the book-keeping order (k1 | l1<<10 | k2<<20 | l2<<30 | bk<<40),
and a complex128 array holds the coefficients. Keys are kept strictly
increasing, which makes book-keeping groups contiguous (the bk field occupies
the high bits) and every operation deterministic.

The layout is private to this module. ``_pack`` is the only writer of whole
keys, on scalars and arrays alike, and ``_exponents`` the only reader of all
four exponents; a few kernels below shift or mask single fields in place.
Other modules read exponents through :meth:`CanonicalPolynomial.term_arrays`
and build polynomials through :meth:`CanonicalPolynomial.from_terms`, so a
wider packing changes this module alone.

Grading and truncation
----------------------
Each term carries a book-keeping order ``bk``; the numerical value of the
book-keeping parameter is always 1, so ``bk`` only drives truncation. Products
add the orders of their factors, and any term whose order exceeds
``trunc_order`` (or whose polynomial degree exceeds ``degree_cap``) is
discarded. Coefficients with magnitude at or below :data:`PRUNE_TOL` are
dropped after every arithmetic operation.

An optional ``transverse_cap`` also discards every term whose transverse
degree k2 + l2, its degree in the pair (q2, p2), exceeds the cap; ``None``
keeps every transverse degree. The cap is exact for outputs that read only
transverse degrees up to it, provided no term of higher transverse degree
can feed one of lower degree. That holds in the normalization of the
magnetic-bottle models: every term has even transverse degree, a bracket
with an even-degree factor never lowers it, and the homological solvers
act within one transverse degree. Binary operations keep the smaller of the
two caps of each kind.

Products
--------
Every term of a product adds its raw products in one fixed order: f groups
by ascending book-keeping order, g groups likewise, then row by row. A raw
product is an outer sum of the factors' keys or codes and an outer product
of their coefficients, and one reducer sums them all: it forms the entries
of each row block once, reduces whenever more than ``_FLUSH_LIMIT`` are
pending, and carries the partial sums, unpruned, into the next reduction as
its first entries. A term is pruned on its final sum only, so no result
depends on the limit. ``np.bincount`` adds each cell's entries in input
order, the very sums that sorting and merging the same entries gives; it
finds the occupied cells in one of two ways.

An output order s with at least ``_DENSE_MIN_RAW`` raw products whose code
box is compact is summed in code cells. Each monomial of order s gets the
mixed-radix code ``k1 + R1 (l1 + R2 (k2 + R3 (deg - dmin)))``, where deg is
the total degree, dmin the least degree order s can reach, and each radix is
one more than the largest sum of its field over the group pairs of order s.
No field sum reaches its radix, so the code of a product is the sum of the
codes of its factors, and a ``bincount`` of the codes finds the occupied
cells. Only those are decoded, pruned, capped and sorted. An order takes
this path when its code box holds at most ``_DENSE_BOX_PER_RAW`` cells per
raw product.

Every other order is summed over packed keys, and ``np.unique`` finds the
occupied cells; this costs more per raw product and less per order. A
packed field of a raw product is at most 2 * 254 = 508, below the field's
1024, so adding two keys never carries into a neighbouring field.

The Poisson bracket follows the convention

    {f, g} = sum_j (df/dq_j dg/dp_j - df/dp_j dg/dq_j),

and Lie transforms ``exp(+-L_chi) f`` with ``L_chi f = {f, chi}`` terminate
because a valid generator has minimum book-keeping order >= 1.

Brackets of real polynomials
----------------------------
The models complexify (rho, p_rho), and in resonant mode (z, p_z) too, so
that on the reality submanifold conj(q_j) = i p_j and conj(p_j) = i q_j on
each complex pair. The conjugate f* (:func:`conjugate`) swaps the q_j and
p_j exponents of those pairs and maps each coefficient c to i^n conj(c),
where n is the term's degree in them; a real function is its own
conjugate. Conjugation is multiplicative and (df/dq_j)* = -i d(f*)/dp_j,
so for real f and g

    df/dp_j dg/dq_j = -(df/dq_j dg/dp_j)*,

and the bracket term of a complex pair is P_j + P_j* with P_j = df/dq_j
dg/dp_j: one product instead of two. The phases i^n are exact, so each
P_j + P_j* is its own conjugate bit for bit, and a bracket of two exactly
real polynomials over complex pairs only is exactly real. The pieces are
added pair by pair in the order of the generic bracket, P_0 + P_0* then
the (q2, p2) piece: a sum of the two P_j conjugated once adds the same
terms in another order, and that moves a coefficient of the 3:1 normal
form (r=8, trunc 10) by 1.7e-10, past the rounding that the benchmark's
reference check allows. The normalization and the back-transform both
bracket this way. On a generator that is not real the identity still
forces a real result, which would hide the defect, so the back-transform
first checks each generator against its conjugate.

Phase lattice
-------------
A polynomial is on the phase lattice when every coefficient is
i^(theta + l1 + l2) r with r real, theta 0 or 1 for the whole polynomial,
and l1, l2 the term's p1 and p2 exponents; the normalization keeps its
Hamiltonians at theta 0 and its generators at theta 1 (see
:func:`~magbottle.normform.normalize`). A product of two such factors is
summed in float64 and turned back at the end. That is exact: a complex
product of two numbers on the axes is the real product with the phases
added, bit for bit, since every other partial product is a zero; and all
entries of a reducer cell share its key, hence its phase, so the cell's
complex sum is its real sum turned by that phase, with the off-axis part
+0.0 as the complex sums give it (adding +0.0 after the turn clears a -0.0
there). Only a cell that cancels to exactly zero may differ, in the sign of
its zero, and it is pruned either way. A factor off the lattice, a NaN or
an infinity among them, is multiplied in complex. The check and the turns
cost O(nterms), so a product takes this path only when the term counts of
its factors multiply to at least ``_DENSE_MIN_RAW``.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import NonNilpotentGenerator

__all__ = [
    "PRUNE_TOL",
    "MAX_TRUNC_ORDER",
    "ExponentKey",
    "CanonicalPolynomial",
    "conjugate",
    "poisson_bracket",
    "lie_transform",
    "substitute_pairs",
    "evaluate",
    "to_records",
]

#: absolute magnitude at or below which coefficients are dropped
PRUNE_TOL = 1e-14

_BK_SHIFT = 40
_FIELD = 0x3FF
_SHIFTS = (0, 10, 20, 30)
#: largest exponent of an input term; ``degree_cap`` is at most twice this,
#: so a field of a raw product, the sum of two fields, is at most 2 * 254 and
#: never fills its 10 bits
_MAX_EXPONENT = 127

#: largest ``trunc_order`` whose default ``degree_cap``, 2 * trunc_order + 2,
#: fits the packing
MAX_TRUNC_ORDER = _MAX_EXPONENT - 1

# raw product buffers are flushed once they reach this many entries
_FLUSH_LIMIT = 1 << 23

# which output orders are summed in code cells instead of sorted (see
# "Products" above); set from timings of the benchmark's workloads
_DENSE_MIN_RAW = 4096
_DENSE_BOX_PER_RAW = 8

# i^n for n mod 4; each product with one of them is exact
_IPOW = np.array([1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j])


class ExponentKey(NamedTuple):
    """Exponents (k1, l1, k2, l2) of a monomial q1^k1 p1^l1 q2^k2 p2^l2."""

    k1: int
    l1: int
    k2: int
    l2: int


def _pack(k1, l1, k2, l2, bk):
    """The key of exponents (k1, l1, k2, l2) at book-keeping order ``bk``;
    scalars give an int, integer arrays an array of keys."""
    return (
        k1 << _SHIFTS[0]
        | l1 << _SHIFTS[1]
        | k2 << _SHIFTS[2]
        | l2 << _SHIFTS[3]
        | bk << _BK_SHIFT
    )


def _exponents(keys):
    """Return the four exponent arrays of packed ``keys``."""
    return tuple((keys >> s) & _FIELD for s in _SHIFTS)


def _degrees(keys):
    k1, l1, k2, l2 = _exponents(keys)
    return k1 + l1 + k2 + l2


def _bk_orders(keys):
    return keys >> _BK_SHIFT


def _transverse_degrees(keys):
    return ((keys >> _SHIFTS[2]) & _FIELD) + ((keys >> _SHIFTS[3]) & _FIELD)


def _canonicalize(keys, coeffs, trunc_order, degree_cap, transverse_cap=None):
    """Sort, merge duplicates, and prune. Returns new (keys, coeffs)."""
    if transverse_cap is not None and keys.size:
        # dropping before the sort is exact: each key is kept or not on its own
        keep = _transverse_degrees(keys) <= transverse_cap
        if not keep.all():
            keys, coeffs = keys[keep], coeffs[keep]
    if keys.size == 0:
        return keys.astype(np.int64), coeffs.astype(np.complex128)
    uniq, inverse = np.unique(keys, return_inverse=True)
    re = np.bincount(inverse, weights=coeffs.real, minlength=uniq.size)
    im = np.bincount(inverse, weights=coeffs.imag, minlength=uniq.size)
    merged = re + 1j * im
    keep = _bk_orders(uniq) <= trunc_order
    keep &= _degrees(uniq) <= degree_cap
    keep &= np.abs(merged) > PRUNE_TOL
    return uniq[keep], merged[keep]


class CanonicalPolynomial:
    """A truncated polynomial with per-term book-keeping orders.

    Instances are immutable from the outside; all arithmetic returns new
    objects. Construct with :meth:`from_terms` or :meth:`zero`.

    Parameters
    ----------
    keys, coeffs : ndarray
        Packed int64 keys (strictly increasing) and complex coefficients.
    trunc_order : int
        Maximum book-keeping order retained by any operation.
    degree_cap : int, optional
        Hard cap, at most 254, on the polynomial degree of retained terms.
        Defaults to ``2*trunc_order + 2``, the degree reached by the
        non-resonant grading.
    transverse_cap : int, optional
        Cap on the transverse degree k2 + l2 of retained terms. Defaults to
        None, no cap.
    """

    __slots__ = ("_keys", "_coeffs", "trunc_order", "degree_cap", "transverse_cap")

    def __init__(
        self,
        keys,
        coeffs,
        trunc_order,
        degree_cap=None,
        transverse_cap=None,
        _canonical=False,
    ):
        if degree_cap is None:
            degree_cap = 2 * trunc_order + 2
        if degree_cap > 2 * _MAX_EXPONENT:
            raise ValueError(f"degree_cap {degree_cap} exceeds packing headroom")
        if transverse_cap is not None and transverse_cap < 0:
            raise ValueError(f"negative transverse_cap {transverse_cap}")
        keys = np.asarray(keys, dtype=np.int64)
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        if not _canonical:
            keys, coeffs = _canonicalize(
                keys, coeffs, trunc_order, degree_cap, transverse_cap
            )
        self._keys = keys
        self._coeffs = coeffs
        self.trunc_order = int(trunc_order)
        self.degree_cap = int(degree_cap)
        self.transverse_cap = None if transverse_cap is None else int(transverse_cap)

    # ------------------------------------------------------------------ build

    @classmethod
    def zero(cls, trunc_order, degree_cap=None, transverse_cap=None):
        return cls(
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.complex128),
            trunc_order,
            degree_cap,
            transverse_cap,
            _canonical=True,
        )

    @classmethod
    def from_terms(cls, terms, trunc_order, degree_cap=None, transverse_cap=None):
        """Build from an iterable of ``((k1, l1, k2, l2), coeff, bk)`` triples."""
        terms = list(terms)
        exps = np.array([key for key, _, _ in terms], dtype=np.int64).reshape(-1, 4)
        bk = np.array([s for _, _, s in terms], dtype=np.int64)
        coeffs = np.array([complex(c) for _, c, _ in terms], dtype=np.complex128)
        bad_exps = (exps < 0) | (exps > _MAX_EXPONENT)
        # bk fills the key's bits above _BK_SHIFT; a larger one would wrap
        bad = bad_exps.any(axis=1) | (bk >> (63 - _BK_SHIFT) != 0)
        if bad.any():
            # the first bad term names its first bad exponent, else its bk
            i = int(np.argmax(bad))
            if bad_exps[i].any():
                e = exps[i, np.argmax(bad_exps[i])]
                raise ValueError(f"exponent {e} outside [0, {_MAX_EXPONENT}]")
            if bk[i] < 0:
                raise ValueError(f"negative book-keeping order {bk[i]}")
            raise ValueError(f"book-keeping order {bk[i]} does not fit the key")
        return cls(
            _pack(*exps.T, bk), coeffs, trunc_order, degree_cap, transverse_cap
        )

    def copy(self, trunc_order=None, degree_cap=None, transverse_cap=None):
        """Return a copy, re-truncated under new bounds.

        ``trunc_order`` defaults to the current one; ``degree_cap`` and
        ``transverse_cap`` default as in the constructor.
        """
        t = self.trunc_order if trunc_order is None else trunc_order
        return CanonicalPolynomial(
            self._keys.copy(), self._coeffs.copy(), t, degree_cap, transverse_cap
        )

    # ------------------------------------------------------------------ views

    @property
    def nterms(self):
        return int(self._keys.size)

    def term_items(self):
        """Yield ``(ExponentKey, coeff, bk)`` sorted lexicographically by
        (k1, l1, k2, l2, bk)."""
        arrays = self.term_arrays(lexicographic=True)
        k1, l1, k2, l2, bk, coeffs = (a.tolist() for a in arrays)
        for key, c, s in zip(zip(k1, l1, k2, l2), coeffs, bk):
            yield ExponentKey(*key), c, s

    def term_arrays(self, lexicographic=False):
        """Return ``(k1, l1, k2, l2, bk, coeffs)``, one array entry per term,
        in storage order (ascending bk), or with ``lexicographic`` sorted by
        (k1, l1, k2, l2, bk), the order of :meth:`term_items` and
        :func:`to_records`."""
        arrays = (*_exponents(self._keys), _bk_orders(self._keys), self._coeffs)
        if not lexicographic:
            return arrays
        # lexsort's last key is its primary one: (bk, l2, k2, l1, k1)
        order = np.lexsort(arrays[4::-1])
        return tuple(a[order] for a in arrays)

    def as_dict(self):
        """Return ``{(k1, l1, k2, l2, bk): coeff}``."""
        return {(*key, bk): c for key, c, bk in self.term_items()}

    def coefficient(self, k1, l1, k2, l2, bk=None):
        """Coefficient of a monomial; sums over bk orders when ``bk`` is None."""
        if bk is not None:
            idx = np.searchsorted(self._keys, _pack(k1, l1, k2, l2, bk))
            if idx < self.nterms and self._keys[idx] == _pack(k1, l1, k2, l2, bk):
                return complex(self._coeffs[idx])
            return 0.0 + 0.0j
        base = _pack(k1, l1, k2, l2, 0)
        mask = (self._keys & ((1 << _BK_SHIFT) - 1)) == base
        return complex(self._coeffs[mask].sum()) if mask.any() else 0.0 + 0.0j

    def min_bk(self):
        """Smallest book-keeping order present (None when empty)."""
        return int(self._keys[0] >> _BK_SHIFT) if self.nterms else None

    def max_abs(self):
        """Largest coefficient magnitude (0.0 when empty)."""
        return float(np.abs(self._coeffs).max()) if self.nterms else 0.0

    def _same_bounds(self, keys, coeffs):
        """A polynomial of already canonical terms under this one's bounds."""
        return CanonicalPolynomial(
            keys,
            coeffs,
            self.trunc_order,
            self.degree_cap,
            self.transverse_cap,
            _canonical=True,
        )

    def _bk_slices(self, coeffs=None):
        """Yield ``(s, keys, coeffs)`` per book-keeping group, ascending;
        ``coeffs``, one entry per term, replaces the coefficients."""
        if self.nterms == 0:
            return
        if coeffs is None:
            coeffs = self._coeffs
        bk = _bk_orders(self._keys)
        # the keys are sorted with bk in the top bits, so each order is a run
        bounds = np.flatnonzero(np.concatenate([[True], bk[1:] != bk[:-1], [True]]))
        for i0, i1 in zip(bounds[:-1], bounds[1:]):
            yield int(bk[i0]), self._keys[i0:i1], coeffs[i0:i1]

    def bk_part(self, s):
        """The sub-polynomial at book-keeping order ``s``."""
        return self.restrict_bk(s, s)

    def restrict_bk(self, lo, hi):
        """The sub-polynomial with book-keeping orders in ``[lo, hi]``."""
        bk = _bk_orders(self._keys)
        i0 = np.searchsorted(bk, lo)
        i1 = np.searchsorted(bk, hi + 1)
        return self._same_bounds(self._keys[i0:i1], self._coeffs[i0:i1])

    # ------------------------------------------------------------- arithmetic

    def _binary_bounds(self, other):
        """(trunc_order, degree_cap, transverse_cap) of a binary result."""
        a, b = self.transverse_cap, other.transverse_cap
        return (
            min(self.trunc_order, other.trunc_order),
            min(self.degree_cap, other.degree_cap),
            a if b is None else b if a is None else min(a, b),
        )

    def _within(self, trunc_order, degree_cap, transverse_cap):
        """(keys, coeffs) of the terms that tighter bounds keep.

        The terms already lie within this polynomial's own bounds, so only
        a tighter bound is checked.
        """
        keys = self._keys
        masks = []
        if trunc_order < self.trunc_order:
            masks.append(_bk_orders(keys) <= trunc_order)
        if degree_cap < self.degree_cap:
            masks.append(_degrees(keys) <= degree_cap)
        if transverse_cap is not None and (
            self.transverse_cap is None or transverse_cap < self.transverse_cap
        ):
            masks.append(_transverse_degrees(keys) <= transverse_cap)
        if not masks:
            return keys, self._coeffs
        keep = np.logical_and.reduce(masks)
        return keys[keep], self._coeffs[keep]

    def __add__(self, other):
        """Sum under the tighter bounds of the two; each shared term adds the
        coefficient of ``other`` to that of ``self``.

        Both key arrays are sorted, so a stable sort of their concatenation
        only merges two runs. Every sum starts from +0.0 and is pruned, as
        a sort-and-merge of the concatenated terms would do.
        """
        if not isinstance(other, CanonicalPolynomial):
            return NotImplemented
        bounds = self._binary_bounds(other)
        (fk, fc), (gk, gc) = self._within(*bounds), other._within(*bounds)
        keys, coeffs = np.concatenate([fk, gk]), np.concatenate([fc, gc])
        if fk.size and gk.size:
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            starts = np.flatnonzero(np.concatenate([[True], keys[1:] != keys[:-1]]))
            keys = keys[starts]
            coeffs = np.add.reduceat(coeffs[order], starts)
        coeffs = coeffs + 0.0
        keep = np.abs(coeffs) > PRUNE_TOL
        if not keep.all():
            keys, coeffs = keys[keep], coeffs[keep]
        return CanonicalPolynomial(keys, coeffs, *bounds, _canonical=True)

    def __sub__(self, other):
        if not isinstance(other, CanonicalPolynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self._same_bounds(self._keys.copy(), -self._coeffs)

    def scale(self, factor):
        """Multiply all coefficients by a scalar."""
        factor = complex(factor)
        if factor == 0:
            return self._same_bounds(self._keys[:0], self._coeffs[:0])
        return self._same_bounds(self._keys.copy(), self._coeffs * factor)._pruned()

    def real_part(self):
        """The real parts of the coefficients, pruned, under the same bounds."""
        return self._same_bounds(self._keys, self._coeffs.real)._pruned()

    def _pruned(self):
        keep = np.abs(self._coeffs) > PRUNE_TOL
        if keep.all():
            return self
        return self._same_bounds(self._keys[keep], self._coeffs[keep])

    def __mul__(self, other):
        if isinstance(other, CanonicalPolynomial):
            return _multiply(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def derivative(self, var):
        """Partial derivative with respect to variable index ``var``.

        Variables are indexed (0, 1, 2, 3) = (q1, p1, q2, p2).
        """
        shift = _SHIFTS[var]
        exps = (self._keys >> shift) & _FIELD
        mask = exps > 0
        keys = self._keys[mask] - (1 << shift)
        coeffs = self._coeffs[mask] * exps[mask]
        # decrementing one fixed field preserves strict key ordering
        return self._same_bounds(keys, coeffs)

    def __repr__(self):
        return (
            f"CanonicalPolynomial(nterms={self.nterms}, "
            f"trunc_order={self.trunc_order}, degree_cap={self.degree_cap}, "
            f"transverse_cap={self.transverse_cap})"
        )


class _Code(NamedTuple):
    """Code exponents of a group: (k1, l1, k2, degree) per term stacked in
    ``exps``, their maxima in ``top``, and the smallest degree."""

    exps: np.ndarray
    top: tuple
    dmin: int


class _Group:
    """One book-keeping group of a factor; its ``code`` is computed on first
    use."""

    def __init__(self, keys, coeffs):
        self.keys = keys
        self.coeffs = coeffs

    @cached_property
    def code(self):
        k1, l1, k2, l2 = _exponents(self.keys)
        exps = np.stack([k1, l1, k2, k1 + l1 + k2 + l2])
        return _Code(exps, tuple(exps.max(axis=1).tolist()), int(exps[3].min()))


class _Reducer:
    """Sums raw products into cells, in batches (see "Products" above).

    Each pushed block is ``(col, row, col_coeffs, row_coeffs)``: its raw
    entries are the outer sum of the codes and the outer product of the
    coefficients, column by row. With ``compact`` the codes lie in a small
    box and ``bincount`` finds the occupied cells; otherwise they are packed
    keys and ``np.unique`` finds them.
    """

    # no cells to start with; ``_reduce`` replaces these and never writes them
    cells = np.empty(0, dtype=np.int64)
    sums = np.empty(0, dtype=np.complex128)

    def __init__(self, compact=False):
        self.compact = compact
        self.batch, self.pending = [], 0

    def push(self, col, row, col_coeffs, row_coeffs):
        # blocks of a quarter of the limit bound how far a batch overshoots it
        step = max(1, _FLUSH_LIMIT // (4 * max(row.size, 1)))
        for i0 in range(0, col.size, step):
            block = (col[i0 : i0 + step], row, col_coeffs[i0 : i0 + step], row_coeffs)
            self.batch.append(block)
            self.pending += block[0].size * row.size
            if self.pending > _FLUSH_LIMIT:
                self._reduce()

    def _reduce(self):
        """Sum the batch into the cells, the carried sums first; ``pending``
        counts both, so it sizes the buffers. The sums take the dtype of the
        pushed coefficients, float64 or complex128."""
        n = self.cells.size
        codes = np.empty(self.pending, dtype=np.int64)
        coeffs = np.empty(self.pending, dtype=self.batch[0][2].dtype)
        if n:
            codes[:n], coeffs[:n] = self.cells, self.sums
        for col, row, xcol, xrow in self.batch:
            # broadcasting forms each product as the sort-and-merge reference
            # does; ufunc.outer takes another loop, rounded differently
            shape = (col.size, row.size)
            size = col.size * row.size
            np.add(col[:, None], row, out=codes[n : n + size].reshape(shape))
            np.multiply(
                xcol[:, None], xrow[None, :], out=coeffs[n : n + size].reshape(shape)
            )
            n += size
        # one weighted bincount per real component
        parts = (coeffs.real, coeffs.imag) if coeffs.dtype.kind == "c" else (coeffs,)
        if self.compact:
            self.cells = np.flatnonzero(np.bincount(codes) != 0)
            sums = [np.bincount(codes, weights=w)[self.cells] for w in parts]
        else:
            self.cells, index = np.unique(codes, return_inverse=True)
            sums = [np.bincount(index, weights=w) for w in parts]
        self.sums = sums[0] if len(sums) == 1 else sums[0] + 1j * sums[1]
        self.batch, self.pending = [], self.cells.size

    def result(self):
        """The occupied cells and their sums, unpruned."""
        if self.batch:
            self._reduce()
        return self.cells, self.sums


def _packed_terms(reducer, bounds):
    """The merged (keys, coeffs) of a packed-key reducer that ``bounds``
    keep, sorted and pruned; :func:`_multiply` pushes no key past the
    truncation."""
    keys, coeffs = reducer.result()
    _, cap, transverse_cap = bounds
    keep = np.abs(coeffs) > PRUNE_TOL
    keep &= _degrees(keys) <= cap
    if transverse_cap is not None:
        keep &= _transverse_degrees(keys) <= transverse_cap
    return keys[keep], coeffs[keep]


def _dense_order(s, pairs, raw, bounds):
    """The terms of book-keeping order ``s`` of a product, summed unsorted.

    ``pairs`` lists the (f group, g group) pairs whose orders add to ``s``,
    in ascending f order, and ``raw`` counts their products. Returns the
    merged, pruned and capped (keys, coeffs) in no particular order, or None
    when the code box holds too many cells per raw product.
    """
    _, cap, transverse_cap = bounds
    top = [max(a.code.top[i] + b.code.top[i] for a, b in pairs) for i in range(4)]
    dmin = min(a.code.dmin + b.code.dmin for a, b in pairs)
    r1, r2, r3 = top[0] + 1, top[1] + 1, top[2] + 1
    stride = r1 * r2 * r3
    box = stride * (top[3] - dmin + 1)
    if box > _DENSE_BOX_PER_RAW * min(raw, _FLUSH_LIMIT):
        return None
    # each field sum stays below its radix, so codes add without carries
    weights = np.array([1, r1, r1 * r2, stride], dtype=np.int64)
    reducer = _Reducer(compact=True)
    for a, b in pairs:
        reducer.push(
            weights @ a.code.exps,
            weights @ b.code.exps - stride * dmin,
            a.coeffs,
            b.coeffs,
        )
    cells, merged = reducer.result()
    keep = np.abs(merged) > PRUNE_TOL
    cells, merged = cells[keep], merged[keep]
    k1, rest = cells % r1, cells // r1
    l1, rest = rest % r2, rest // r2
    k2, deg = rest % r3, rest // r3 + dmin
    l2 = deg - k1 - l1 - k2
    keep = deg <= cap
    if transverse_cap is not None:
        keep &= k2 + l2 <= transverse_cap
    return _pack(k1[keep], l1[keep], k2[keep], l2[keep], s), merged[keep]


def _p_degrees(keys):
    """l1 + l2 of packed ``keys``, the power of i in a lattice phase."""
    return ((keys >> _SHIFTS[1]) & _FIELD) + ((keys >> _SHIFTS[3]) & _FIELD)


def _lattice(f):
    """``(theta, r)`` with every coefficient of ``f`` equal to
    i^(theta + l1 + l2) r, r real and theta 0 or 1, or None when ``f`` is off
    the phase lattice (see "Phase lattice" above)."""
    rotated = _IPOW[-_p_degrees(f._keys) & 3] * f._coeffs
    # a NaN or an infinity rotates to NaN in both parts and is off the lattice
    if not rotated.imag.any():
        return 0, rotated.real
    if not rotated.real.any():
        return 1, rotated.imag
    return None


def _multiply(f, g):
    """Product of two polynomials with book-keeping truncation."""
    bounds = f._binary_bounds(g)
    if f.nterms == 0 or g.nterms == 0:
        return CanonicalPolynomial.zero(*bounds)
    # a large product of two lattice factors is summed in float64
    theta, fc, gc = None, f._coeffs, g._coeffs
    if f.nterms * g.nterms >= _DENSE_MIN_RAW:
        lf = _lattice(f)
        lg = lf and _lattice(g)
        if lg:
            theta, fc, gc = lf[0] + lg[0], lf[1], lg[1]
    g_groups = [(s2, _Group(k, c)) for s2, k, c in g._bk_slices(gc)]
    by_order = {}
    for s1, k, c in f._bk_slices(fc):
        a = _Group(k, c)
        for s2, b in g_groups:
            if s1 + s2 > bounds[0]:
                break
            by_order.setdefault(s1 + s2, []).append((a, b))
    # each output order lists its pairs in ascending f order, the order in
    # which the reducers add each term's raw products
    packed = _Reducer()
    key_blocks, coeff_blocks = [], []
    for s in sorted(by_order):
        pairs = by_order[s]
        raw = sum(a.keys.size * b.keys.size for a, b in pairs)
        terms = None
        if raw >= _DENSE_MIN_RAW:
            terms = _dense_order(s, pairs, raw, bounds)
        if terms is None:
            for a, b in pairs:
                packed.push(a.keys, b.keys, a.coeffs, b.coeffs)
        else:
            key_blocks.append(terms[0])
            coeff_blocks.append(terms[1])
    keys, coeffs = _packed_terms(packed, bounds)
    if key_blocks:
        keys = np.concatenate([keys, *key_blocks])
        order = np.argsort(keys)
        keys, coeffs = keys[order], np.concatenate([coeffs, *coeff_blocks])[order]
    if theta is not None:
        # turn the real sums back; + 0.0 makes the off-axis zero +0.0
        coeffs = _IPOW[(theta + _p_degrees(keys)) & 3] * coeffs + 0.0
    return CanonicalPolynomial(keys, coeffs, *bounds, _canonical=True)


def conjugate(f, pairs):
    """The conjugate f* of ``f`` on the complexified ``pairs``.

    ``pairs`` holds pair indices: 0 for (q1, p1), 1 for (q2, p2). Each term
    c q_j^k p_j^l ... becomes i^n conj(c) q_j^l p_j^k ..., where n sums
    k + l over ``pairs``; other pairs keep their exponents. A real
    function written in those pairs' complex variables is its own
    conjugate (see "Brackets of real polynomials" above). The swap keeps
    every degree and book-keeping order, and |c| is unchanged, so the
    result keeps the bounds of ``f`` and needs no pruning.
    """
    keys = f._keys
    if keys.size == 0:
        return f
    swapped = keys.copy()
    n = np.zeros(keys.size, dtype=np.int64)
    for j in pairs:
        lo, hi = _SHIFTS[2 * j], _SHIFTS[2 * j + 1]
        k, l = (keys >> lo) & _FIELD, (keys >> hi) & _FIELD
        swapped &= ~((_FIELD << lo) | (_FIELD << hi))
        swapped |= l << lo | k << hi
        n += k + l
    coeffs = _IPOW[n & 3] * np.conj(f._coeffs)
    order = np.argsort(swapped)
    return f._same_bounds(swapped[order], coeffs[order])


def poisson_bracket(f, g, complex_pairs=()):
    """Poisson bracket {f, g} over both degrees of freedom.

    The book-keeping order of each resulting term is the sum of the factor
    orders; terms beyond the common truncation are discarded.

    ``complex_pairs`` names pairs (0 for (q1, p1), 1 for (q2, p2)) written
    in complex variables on which ``f`` and ``g`` are both real. Each such
    pair forms one product and takes the other as its conjugate (see
    "Brackets of real polynomials" above); the default forms both products
    of every pair.
    """
    out = None
    for j, (iq, ip) in enumerate(((0, 1), (2, 3))):
        product = _multiply(f.derivative(iq), g.derivative(ip))
        if j in complex_pairs:
            piece = product + conjugate(product, complex_pairs)
        else:
            piece = product - _multiply(f.derivative(ip), g.derivative(iq))
        out = piece if out is None else out + piece
    return out


def lie_transform(f, chi, inverse=False, complex_pairs=()):
    """Apply ``exp(L_chi)`` (or its inverse) to ``f``.

    ``exp(L_chi) f = sum_k (1/k!) L_chi^k f`` with ``L_chi f = {f, chi}``. The
    series terminates under truncation because every term of ``chi`` must
    carry book-keeping order >= 1. Every bracket passes ``complex_pairs``
    to :func:`poisson_bracket`, so ``f`` and ``chi`` must be real on them.

    Raises
    ------
    NonNilpotentGenerator
        If ``chi`` contains book-keeping order 0 terms.
    """
    if chi.nterms and chi.min_bk() < 1:
        raise NonNilpotentGenerator(
            f"generator has minimum book-keeping order {chi.min_bk()}"
        )
    sign = -1.0 if inverse else 1.0
    out = f
    term = f
    k = 1
    while term.nterms:
        term = poisson_bracket(term, chi, complex_pairs).scale(sign / k)
        if term.nterms == 0:
            break
        out = out + term
        k += 1
    return out


def _pair_table(matrix, n_max):
    """T[n, k, i], the coefficient of x^i y^(n-i) in (a x + b y)^k (c x + d y)^(n-k).

    Each binomial row is the one before it convolved with the map's row, as
    repeated products form it; closed-form binomial terms round worse.
    """
    (a, b), (c, d) = np.asarray(matrix, dtype=np.complex128)
    one = np.ones(1, dtype=np.complex128)
    q_rows, p_rows = [one], [one]
    for _ in range(n_max):
        q_rows.append(np.convolve(q_rows[-1], [b, a]))
        p_rows.append(np.convolve(p_rows[-1], [d, c]))
    table = np.zeros((n_max + 1,) * 3, dtype=np.complex128)
    for n in range(n_max + 1):
        for k in range(n + 1):
            table[n, k, : n + 1] = np.convolve(q_rows[k], p_rows[n - k])
    return table


def substitute_pairs(f, maps):
    """Substitute a linear map for the variables of each pair of ``f``.

    ``maps[j]`` is None, leaving pair j (0 for (q1, p1), 1 for (q2, p2)) as
    it is, or a matrix ((a, b), (c, d)) that puts q_j = a x_j + b y_j and
    p_j = c x_j + d y_j, with x_j and y_j in the slots of q_j and p_j. Each
    term keeps its degree in every pair and its book-keeping order, so the
    result keeps the bounds of ``f``. Every term expands at once, to a row
    of the pair's table per mapped pair; the sums are pruned at the end.
    """
    keys, coeffs = f._keys, f._coeffs
    if keys.size == 0:
        return f
    for j, matrix in enumerate(maps):
        if matrix is None:
            continue
        lo, hi = _SHIFTS[2 * j], _SHIFTS[2 * j + 1]
        k = (keys >> lo) & _FIELD
        n = k + ((keys >> hi) & _FIELD)
        table = _pair_table(matrix, int(n.max()))
        term = np.repeat(np.arange(keys.size), n + 1)
        i = np.arange(term.size) - (np.cumsum(n + 1) - (n + 1))[term]
        k, n = k[term], n[term]
        rest = keys[term] & ~((_FIELD << lo) | (_FIELD << hi))
        keys, coeffs = rest | i << lo | (n - i) << hi, coeffs[term] * table[n, k, i]
    return CanonicalPolynomial(
        keys, coeffs, f.trunc_order, f.degree_cap, f.transverse_cap
    )


def evaluate(f, q1, p1, q2, p2):
    """Evaluate ``f`` at numeric points with the book-keeping parameter at 1.

    Arguments broadcast; scalars in, scalar out.
    """
    vals = [np.asarray(v, dtype=np.complex128) for v in (q1, p1, q2, p2)]
    shape = np.broadcast_shapes(*(v.shape for v in vals))
    out = np.zeros(shape, dtype=np.complex128)
    if f.nterms == 0:
        return complex(out) if shape == () else out
    exps = _exponents(f._keys)
    caches = [{}, {}, {}, {}]

    def power(var, n):
        cache = caches[var]
        if n not in cache:
            cache[n] = vals[var] ** n if n > 1 else (vals[var] if n == 1 else None)
        return cache[n]

    for i in range(f.nterms):
        term = np.full(shape, f._coeffs[i])
        for var in range(4):
            e = int(exps[var][i])
            if e:
                term = term * power(var, e)
        out += term
    return complex(out) if shape == () else out


def to_records(f):
    """Serialize to a list of dicts sorted lexicographically by
    (k1, l1, k2, l2, bk)."""
    records = []
    for key, c, bk in f.term_items():
        records.append(
            {
                "k1": key.k1,
                "l1": key.l1,
                "k2": key.k2,
                "l2": key.l2,
                "re": float(c.real),
                "im": float(c.imag),
                "bk": bk,
            }
        )
    return records

