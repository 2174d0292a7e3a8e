"""Small numerical helpers with reproducibility guarantees.

Every sum across edges (error signals arriving from several parents,
tie-group sums) and every scalar sum (divergence norms, the energy,
``sum_reduce``, dot products) is correctly rounded: it is the float
nearest the exact sum of its terms, whatever their order.  That makes
every such sum independent of traversal order, which is what lets the
test suite demand *exact* equality of results before and after graph
transformations that only re-route edges.

Two algorithms compute these sums, and a correctly rounded sum is
unique, so both give the same bits.

- A sum of :data:`_FSUM_BELOW` terms or more first takes one certified
  extraction pass (Rump, Ogita & Oishi 2008, "Accurate floating-point
  summation part I: faithful rounding", SIAM J. Sci. Comput. 31(1),
  section 3, *ExtractVector*).  With sigma = 2**(e + M), where every
  |term| < 2**e and a block holds fewer than 2**M terms,
  q = (sigma + p) - sigma and p - q split each term without error, and
  a block's q sum is exact in any order.  NumPy sums each block's q and
  p - q; ``math.fsum`` rounds the block sums once to r.  The p - q sums
  carry a rounding error of at most gamma(B - 1) * n * 2**-53 * sigma
  over n terms in blocks of B, and r is returned only where the block
  sums moved by that bound either way still round to r: rounding is
  monotone, so the exact sum rounds to r.
- Every other sum (a shorter one, among them every component of
  :func:`fsum_arrays`, and one the pass cannot certify: an inf or a
  nan, a term too large for sigma, an overflow, or a sum too near a
  rounding boundary) is ``math.fsum``'s (Shewchuk 1997, "Adaptive precision
  floating-point arithmetic and fast robust geometric predicates",
  Discrete Comput. Geom. 18).

``math.fsum``'s partials can overflow although the exact sum does not.
There, as a last resort, Python integers add the terms in units of
2**-1074 and round once, so an exact sum raises ``OverflowError`` only
when the exact sum itself is beyond the float range.
"""

from __future__ import annotations

import math
import numbers
from typing import Sequence

import numpy as np

from .errors import NonFiniteSum

Array = np.ndarray

_FSUM_BELOW = 2048  # shorter sums go to math.fsum, which is faster there
_SPLIT = 8192       # B: terms per extraction block, two B-sized buffers
_SPLIT_BITS = 14    # M: B < 2**M keeps a block's q sum exact
_ULP = 1 << 1074    # every double is an integer multiple of 2**-1074
_OVERFLOW = "intermediate overflow in fsum"  # math.fsum's own message


def is_integer(value) -> bool:
    """An int, but not a bool: bool is an int subclass, but True is not
    a count, an id or a step."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_finite_real(value) -> bool:
    """A finite real number: a real scalar or a 0-d real array, but not a
    bool, a str, a complex or an int beyond the float range."""
    real = (value.shape == () and value.dtype.kind in "iuf"
            if isinstance(value, np.ndarray) else
            isinstance(value, numbers.Real) and not isinstance(value, bool))
    try:
        return real and math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def as_f64(value) -> Array:
    """Coerce a value to a float64 ndarray (0-d for scalars)."""
    return np.asarray(value, dtype=np.float64)


def all_finite(a: Array) -> bool:
    """Whether every component of the float64 array ``a`` is finite."""
    if a.ndim == 0:
        return math.isfinite(a)
    # A finite a.a shows every component finite in one BLAS call; only a
    # product that overflowed needs the componentwise test.
    return math.isfinite(np.vdot(a, a)) or bool(np.isfinite(a).all())


def _squares(values: Array) -> Array:
    """Elementwise squares; one that overflows is inf, as in Python."""
    with np.errstate(over="ignore"):
        return values * values


def _extracted_sum(values: Array, square: bool) -> float | None:
    """The correctly rounded sum of a flat float64 array (or of its
    squares) by one certified extraction pass, or None where the pass
    cannot vouch for it: an inf or a nan, a largest term of 2**1009 or
    more, an overflow in ``math.fsum``, or a sum too near a rounding
    boundary.  Two ``_SPLIT``-sized buffers hold a block at a time.
    """
    top = max(float(values.max(initial=0.0)), -float(values.min(initial=0.0)))
    mu = top * top if square else top  # the largest term; inf if it overflows
    if not mu:
        return 0.0
    if not math.isfinite(mu):
        return None
    exponent = math.frexp(mu)[1] + _SPLIT_BITS  # mu < 2**(exponent - M)
    if exponent > 1023:
        return None
    sigma = math.ldexp(1.0, exponent)
    size = min(_SPLIT, values.size)
    high, low = np.empty(size), np.empty(size)
    parts = []
    for start in range(0, values.size, _SPLIT):
        block = values[start:start + _SPLIT]
        q, p = high[:block.size], low[:block.size]
        if square:
            block = np.multiply(block, block, out=p)
        np.add(block, sigma, out=q)
        q -= sigma
        np.subtract(block, q, out=p)
        parts += (float(q.sum()), float(p.sum()))
    # gamma(B - 1) < B * 2**-53 and |p - q| <= 2**-53 * sigma.  Every term
    # and rounding error is a multiple of 2**-1074, so a bound that
    # underflows there still bounds the error.
    bound = math.ldexp(values.size * _SPLIT, exponent - 106)
    try:
        total = math.fsum(parts)
        if math.fsum(parts + [bound]) == total == math.fsum(parts + [-bound]):
            return total
    except OverflowError:
        pass
    return None


def _fsum(terms: Array) -> float:
    """``math.fsum`` of a flat float64 array; where its partials overflow
    although every term is finite, the exact sum decides: each term is
    an integer number of units 2**-1074, and Python integers add them
    and round once."""
    listed = terms.tolist()
    try:
        return math.fsum(listed)
    except OverflowError:
        if not np.isfinite(terms).all():
            raise
    total = 0
    for term in listed:
        n, d = term.as_integer_ratio()  # d = 2**k with k <= 1074
        total += n << (1075 - d.bit_length())  # n * 2**(1074 - k)
    try:
        return total / _ULP  # int true division rounds correctly
    except OverflowError:
        raise OverflowError(_OVERFLOW) from None


def _exact_sum(values: Array, square: bool = False) -> float:
    """``math.fsum`` of a flat float64 array, or of its squares, by bits.

    A sum of ``_FSUM_BELOW`` terms or more takes :func:`_extracted_sum`
    where that certifies its result; every other sum is :func:`_fsum`'s.

    Raises ``OverflowError`` (with ``math.fsum``'s message) only when
    the exact sum is beyond the float range.  A sum with an inf or a nan
    among its terms is ``math.fsum``'s: inf stays inf, and inf - inf
    raises ``ValueError``.
    """
    if values.size >= _FSUM_BELOW:
        certified = _extracted_sum(values, square)
        if certified is not None:
            return certified
    return _fsum(_squares(values) if square else values)


def exact_sum(values: Array | Sequence[float]) -> float:
    """The correctly rounded sum of all entries: ``math.fsum``'s bits.

    Finite entries raise ``OverflowError`` only when the exact sum is
    beyond the float range, so the outcome never depends on their
    order; an inf or a nan among them gives ``math.fsum``'s outcome.
    """
    return _exact_sum(as_f64(values).ravel())


def ieee_sum(values: Array | Sequence[float]) -> float:
    """:func:`exact_sum` with IEEE's outcome where that raises: ±inf
    where the sum is beyond the float range, which is its correctly
    rounded value, and nan for inf - inf, as an array addition gives.
    """
    flat = as_f64(values).ravel()
    try:
        try:
            return _exact_sum(flat)
        except OverflowError:
            # Scaling by 2**-64 is exact but for underflow, which cannot
            # flip the sign of a sum this large, and brings it in range.
            total = _exact_sum(np.ldexp(flat, -64))
    except ValueError:  # inf - inf among the entries
        return math.nan
    return math.copysign(math.inf, total) if math.isfinite(total) else total


def sum_of_squares(values: Array | Sequence[float]) -> float:
    """The correctly rounded sum of the squared entries.

    IEEE multiplication gives each square the bits of the Python float
    product.  A sum beyond the float range is inf, as one overflowing
    square already gives; with a nan among the entries it is nan.
    """
    flat = as_f64(values).ravel()
    try:
        return _exact_sum(flat, square=True)
    except OverflowError:
        return math.nan if np.isnan(flat).any() else math.inf


def fsum_arrays(terms: Sequence[Array]) -> Array:
    """Elementwise, order-independent sum of equally shaped arrays.

    Each output component is the correctly rounded sum of the
    corresponding input components (computed by :func:`exact_sum`), so
    the result does not depend on the order of ``terms``.

    One or two terms take one array addition, which is already correctly
    rounded; ``+ 0.0`` turns a -0.0 sum into 0.0 as ``math.fsum`` does.
    More terms, and a non-finite two-term result, take ``math.fsum``
    once per column of one list of columns; a correctly rounded sum has
    one value, so these are :func:`exact_sum`'s bits.  Only where that
    raises does the per-component loop of :func:`exact_sum` run, where
    an exact sum beyond the float range and inf - inf raise
    :class:`NonFiniteSum`.
    """
    if not terms:
        raise ValueError("fsum_arrays needs at least one term")
    first = as_f64(terms[0])
    if len(terms) == 1:  # a 0-d term adds as a float, cheaper than a ufunc
        return first + 0.0 if first.ndim else as_f64(float(first) + 0.0)
    if len(terms) == 2:
        second = as_f64(terms[1])
        if first.shape == second.shape:
            out = as_f64((first + second) + 0.0)
            if np.isfinite(out).all():
                return out
    flat = np.stack([as_f64(t) for t in terms]).reshape(len(terms), -1)
    try:
        try:
            out = np.array([math.fsum(column) for column in flat.T.tolist()])
        except (OverflowError, ValueError):
            out = np.array([_exact_sum(column) for column in flat.T])
    except (OverflowError, ValueError) as exc:
        raise NonFiniteSum(f"exact sum failed: {exc}") from None
    return out.reshape(first.shape)


def l2_norm(values: Array | Sequence[float]) -> float:
    """Euclidean norm with an order-independent sum of squares
    (:func:`sum_of_squares`); inf when that sum is beyond the float
    range."""
    return math.sqrt(sum_of_squares(values))
