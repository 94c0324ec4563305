"""Sparse graded polynomial algebra over the canonical variables (q1, p1, q2, p2).

Polynomials are stored as parallel numpy arrays: an int64 key packs the four
exponents and the book-keeping order (k1 | l1<<8 | k2<<16 | l2<<24 | bk<<32),
and a complex128 array holds the coefficients. Keys are kept strictly
increasing, which makes book-keeping groups contiguous (the bk field occupies
the high bits) and every operation deterministic.

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

A product adds the 8-bit exponent fields of its factors. When the degrees of
the two factors sum past 255 a field could carry into its neighbour, so such
products first drop every pair of terms whose true degree exceeds
``degree_cap``; the pairs that are kept fit their fields.

The Poisson bracket follows the convention

    {f, g} = sum_j (df/dq_j dg/dp_j - df/dp_j dg/dq_j),

and Lie transforms ``exp(+-L_chi) f`` with ``L_chi f = {f, chi}`` terminate
because a valid generator has minimum book-keeping order >= 1.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import NonNilpotentGenerator

__all__ = [
    "PRUNE_TOL",
    "ExponentKey",
    "CanonicalPolynomial",
    "poisson_bracket",
    "lie_transform",
    "compose",
    "evaluate",
    "to_records",
    "from_records",
    "coefficient_distance",
]

#: absolute magnitude at or below which coefficients are dropped
PRUNE_TOL = 1e-14

_BK_SHIFT = 32
_FIELD = 0xFF
_SHIFTS = (0, 8, 16, 24)
#: exponent fields are 8-bit; keep one bit of headroom for products
_MAX_EXPONENT = 127

# raw product buffers are flushed once they reach this many entries
_FLUSH_LIMIT = 1 << 23


class ExponentKey(NamedTuple):
    """Exponents (k1, l1, k2, l2) of a monomial q1^k1 p1^l1 q2^k2 p2^l2."""

    k1: int
    l1: int
    k2: int
    l2: int


def _pack(k1, l1, k2, l2, bk):
    return (
        int(k1)
        | int(l1) << 8
        | int(k2) << 16
        | int(l2) << 24
        | int(bk) << _BK_SHIFT
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
    keep = np.abs(merged) > PRUNE_TOL
    keep &= _bk_orders(uniq) <= trunc_order
    keep &= _degrees(uniq) <= degree_cap
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
        Hard cap on the polynomial degree of retained terms. Defaults to
        ``2*trunc_order + 2``, the degree reached by the non-resonant grading.
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
            degree_cap = min(2 * trunc_order + 2, 2 * _MAX_EXPONENT)
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
        keys = []
        coeffs = []
        for key, coeff, bk in terms:
            k1, l1, k2, l2 = key
            for e in (k1, l1, k2, l2):
                if not 0 <= int(e) <= _MAX_EXPONENT:
                    raise ValueError(f"exponent {e} outside [0, {_MAX_EXPONENT}]")
            if bk < 0:
                raise ValueError(f"negative book-keeping order {bk}")
            keys.append(_pack(k1, l1, k2, l2, bk))
            coeffs.append(complex(coeff))
        return cls(
            np.array(keys, dtype=np.int64),
            np.array(coeffs, dtype=np.complex128),
            trunc_order,
            degree_cap,
            transverse_cap,
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
        if self.nterms == 0:
            return
        k1, l1, k2, l2 = _exponents(self._keys)
        bk = _bk_orders(self._keys)
        order = np.lexsort((bk, l2, k2, l1, k1))
        for i in order:
            yield (
                ExponentKey(int(k1[i]), int(l1[i]), int(k2[i]), int(l2[i])),
                complex(self._coeffs[i]),
                int(bk[i]),
            )

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

    def max_bk(self):
        return int(self._keys[-1] >> _BK_SHIFT) if self.nterms else None

    def degree(self):
        """Largest polynomial degree present (0 when empty)."""
        return int(_degrees(self._keys).max()) if self.nterms else 0

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

    def _bk_slices(self):
        """Yield ``(s, keys, coeffs)`` per book-keeping group, ascending."""
        if self.nterms == 0:
            return
        bk = _bk_orders(self._keys)
        orders = np.unique(bk)
        bounds = np.searchsorted(bk, orders)
        bounds = np.append(bounds, bk.size)
        for i, s in enumerate(orders):
            sl = slice(bounds[i], bounds[i + 1])
            yield int(s), self._keys[sl], self._coeffs[sl]

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

    def __add__(self, other):
        if not isinstance(other, CanonicalPolynomial):
            return NotImplemented
        return CanonicalPolynomial(
            np.concatenate([self._keys, other._keys]),
            np.concatenate([self._coeffs, other._coeffs]),
            *self._binary_bounds(other),
        )

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


class _Accumulator:
    """Collects raw (key, coeff) blocks and canonicalizes incrementally."""

    def __init__(self, trunc_order, degree_cap, transverse_cap):
        self.trunc = trunc_order
        self.cap = degree_cap
        self.transverse_cap = transverse_cap
        self.key_blocks = []
        self.coeff_blocks = []
        self.pending = 0

    def push(self, keys, coeffs):
        self.key_blocks.append(keys)
        self.coeff_blocks.append(coeffs)
        self.pending += keys.size
        if self.pending > _FLUSH_LIMIT:
            self._flush()

    def _flush(self):
        if not self.key_blocks:
            self.key_blocks = [np.empty(0, dtype=np.int64)]
            self.coeff_blocks = [np.empty(0, dtype=np.complex128)]
            return
        keys = np.concatenate(self.key_blocks)
        coeffs = np.concatenate(self.coeff_blocks)
        keys, coeffs = _canonicalize(
            keys, coeffs, self.trunc, self.cap, self.transverse_cap
        )
        self.key_blocks = [keys]
        self.coeff_blocks = [coeffs]
        self.pending = keys.size

    def result(self):
        self._flush()
        return CanonicalPolynomial(
            self.key_blocks[0],
            self.coeff_blocks[0],
            self.trunc,
            self.cap,
            self.transverse_cap,
            _canonical=True,
        )


def _multiply(f, g):
    """Product of two polynomials with book-keeping truncation."""
    bounds = f._binary_bounds(g)
    trunc, cap = bounds[:2]
    if f.nterms == 0 or g.nterms == 0:
        return CanonicalPolynomial.zero(*bounds)
    acc = _Accumulator(*bounds)
    # past 255 a field sum could carry into its neighbour; pairs of true
    # degree <= cap <= 254 cannot, so those are the only ones packed (the
    # degree caps bound the degrees and spare the scan in the common case)
    guard = (
        f.degree_cap + g.degree_cap > _FIELD and f.degree() + g.degree() > _FIELD
    )
    g_groups = list(g._bk_slices())
    for s1, k1, c1 in f._bk_slices():
        for s2, k2, c2 in g_groups:
            if s1 + s2 > trunc:
                break
            n1, n2 = k1.size, k2.size
            if guard:
                d2 = _degrees(k2)
            # chunk the outer sum so temporaries stay bounded
            step = max(1, _FLUSH_LIMIT // (4 * max(n2, 1)))
            for i0 in range(0, n1, step):
                i1 = min(i0 + step, n1)
                kk = k1[i0:i1, None] + k2[None, :]
                cc = c1[i0:i1, None] * c2[None, :]
                if guard:
                    fits = _degrees(k1[i0:i1])[:, None] + d2[None, :] <= cap
                    acc.push(kk[fits], cc[fits])
                else:
                    acc.push(kk.ravel(), cc.ravel())
    return acc.result()


def poisson_bracket(f, g):
    """Poisson bracket {f, g} over both degrees of freedom.

    The book-keeping order of each resulting term is the sum of the factor
    orders; terms beyond the common truncation are discarded.
    """
    out = None
    for iq, ip in ((0, 1), (2, 3)):
        piece = _multiply(f.derivative(iq), g.derivative(ip)) - _multiply(
            f.derivative(ip), g.derivative(iq)
        )
        out = piece if out is None else out + piece
    return out


def lie_transform(f, chi, inverse=False):
    """Apply ``exp(L_chi)`` (or its inverse) to ``f``.

    ``exp(L_chi) f = sum_k (1/k!) L_chi^k f`` with ``L_chi f = {f, chi}``. The
    series terminates under truncation because every term of ``chi`` must
    carry book-keeping order >= 1.

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
        term = poisson_bracket(term, chi).scale(sign / k)
        if term.nterms == 0:
            break
        out = out + term
        k += 1
    return out


def compose(f, subs):
    """Substitute polynomials for the four variables of ``f``.

    Parameters
    ----------
    f : CanonicalPolynomial
    subs : sequence of 4 CanonicalPolynomial
        Replacements for (q1, p1, q2, p2). Each must carry book-keeping
        order 0 only; composed terms inherit the order of the term of ``f``
        they came from.
    """
    for g in subs:
        if g.nterms and g.max_bk() != 0:
            raise ValueError("substitution polynomials must have bk order 0")
    if f.nterms == 0:
        return f
    one = f._same_bounds(np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.complex128))
    pow_cache = [{0: one}, {0: one}, {0: one}, {0: one}]

    def power(var, n):
        cache = pow_cache[var]
        if n not in cache:
            cache[n] = _multiply(power(var, n - 1), subs[var])
        return cache[n]

    # q1^k1 p1^l1 q2^k2 p2^l2 is built left to right, and terms of f share
    # their leading exponents, so each prefix (k1,), (k1, l1), ... is formed
    # once per call
    prefix_cache = {}

    def prefix(exps):
        if exps not in prefix_cache:
            if len(exps) == 1:
                p = power(0, exps[0])
            else:
                p = prefix(exps[:-1])
                e = exps[-1]
                if e:
                    p = _multiply(p, power(len(exps) - 1, e))
            prefix_cache[exps] = p
        return prefix_cache[exps]

    acc = _Accumulator(f.trunc_order, f.degree_cap, f.transverse_cap)
    k1, l1, k2, l2 = _exponents(f._keys)
    bk = _bk_orders(f._keys)
    for i in range(f.nterms):
        p = prefix((int(k1[i]), int(l1[i]), int(k2[i]), int(l2[i])))
        if p.nterms == 0:
            continue
        acc.push(p._keys + (int(bk[i]) << _BK_SHIFT), p._coeffs * f._coeffs[i])
    return acc.result()


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


def from_records(records, trunc_order, degree_cap=None):
    """Inverse of :func:`to_records`."""
    terms = [
        ((r["k1"], r["l1"], r["k2"], r["l2"]), r["re"] + 1j * r["im"], r["bk"])
        for r in records
    ]
    return CanonicalPolynomial.from_terms(terms, trunc_order, degree_cap)


def coefficient_distance(f, g):
    """Max absolute coefficient difference over the union of term keys."""
    d = f.as_dict()
    for key, c in g.as_dict().items():
        d[key] = d.get(key, 0.0) - c
    return max((abs(v) for v in d.values()), default=0.0)
