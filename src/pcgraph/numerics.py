"""Small numerical helpers with reproducibility guarantees.

Every sum across edges (error signals arriving from several parents,
tie-group sums) and every scalar sum (divergence norms, the energy,
``sum_reduce``, dot products) is correctly rounded: it is the float
nearest the exact sum of its terms, whatever their order.  That makes
every such sum independent of traversal order, which is what lets the
test suite demand *exact* equality of results before and after graph
transformations that only re-route edges.

Two algorithms compute these sums.  ``math.fsum`` (Shewchuk's
partials) sums short inputs, among them every component of
:func:`fsum_arrays`.  A scalar sum of :data:`_FSUM_BELOW` terms or more
goes through a small superaccumulator (Neal 2015, "Fast exact summation
using small and large superaccumulators"): each double is an integer
mantissa times a power of two, NumPy sums the mantissas' halves per
exponent exactly, a block at a time, and Python integers combine the
per-exponent sums and round once.  A correctly rounded sum is unique,
so both give the same bits.  They differ only where ``math.fsum``'s
partials overflow although the exact sum does not; there the exact sum
decides, so an exact sum raises ``OverflowError`` only when the exact
sum itself is beyond the float range.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import NonFiniteSum

Array = np.ndarray

_FSUM_BELOW = 2048  # shorter sums go to math.fsum, which is faster there
_BLOCK = 4096       # terms per superaccumulator pass: bounds its buffers
_RUN = 1 << 26      # terms whose per-exponent float64 sums stay exact
_HALF = (1 << 26) - 1
_ULP = 1 << 1074    # every double is an integer multiple of 2**-1074
_OVERFLOW = "intermediate overflow in fsum"  # math.fsum's own message


def is_integer(value) -> bool:
    """An int, but not a bool: bool is an int subclass, but True is not
    a count, an id or a step."""
    return isinstance(value, int) and not isinstance(value, bool)


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


def _grown(total: Array, part: Array) -> Array:
    """``total + part`` for per-bucket sums of different lengths."""
    if total.size < part.size:
        part[:total.size] += total
        return part
    total[:part.size] += part
    return total


def _superaccumulate(values: Array, square: bool) -> int | None:
    """The exact sum of at most ``_RUN`` float64 values (or of their
    squares) in units of 2**-1074, or None if one is inf or nan.

    The top 12 bits of a double (sign and biased exponent e) are its
    bucket; its 52 stored mantissa bits split into two 26-bit halves,
    and for e > 0 the implicit bit is counted.  ``np.bincount`` sums
    each half per bucket in float64, exactly: no sum reaches 2**53.
    A block at a time goes through at most three block-sized buffers,
    so no temporary grows with the input.
    """
    size = min(_BLOCK, values.size)
    squares = np.empty(size) if square else None
    keys = np.empty(size, dtype=np.uint64)
    halves = np.empty(size, dtype=np.uint64)
    counts = np.zeros(0, dtype=np.int64)
    low = np.zeros(0)
    high = np.zeros(0)
    for start in range(0, values.size, _BLOCK):
        block = values[start:start + _BLOCK]
        n = block.size
        if square:
            with np.errstate(over="ignore"):
                block = np.multiply(block, block, out=squares[:n])
        bits = block.view(np.uint64)
        key = np.right_shift(bits, 52, out=keys[:n]).view(np.int64)
        half = halves[:n]
        counts = _grown(counts, np.bincount(key))
        np.bitwise_and(bits, _HALF, out=half)
        low = _grown(low, np.bincount(key, half))
        np.right_shift(bits, 26, out=half)
        np.bitwise_and(half, _HALF, out=half)
        high = _grown(high, np.bincount(key, half))
    if counts[0x7FF::0x800].any():  # biased exponent 2047: inf or nan
        return None
    total = 0
    nonzero = np.flatnonzero(counts)
    for key, count, lo, hi in zip(nonzero.tolist(), counts[nonzero].tolist(),
                                  low[nonzero].tolist(),
                                  high[nonzero].tolist()):
        exponent = key & 0x7FF
        part = (int(hi) << 26) + int(lo)
        if exponent:  # a normal number: implicit bit, scaled by 2**(e-1)
            part = (part + (count << 52)) << (exponent - 1)
        total += -part if key >> 11 else part
    return total


def _exact_sum(values: Array, square: bool = False) -> float:
    """``math.fsum`` of a flat float64 array, or of its squares, by bits.

    Raises ``OverflowError`` (with ``math.fsum``'s message) only when
    the exact sum is beyond the float range.  A sum with an inf or a nan
    among its terms is ``math.fsum``'s: inf stays inf, and inf - inf
    raises ``ValueError``.
    """
    if values.size < _FSUM_BELOW:
        terms = _squares(values) if square else values
        try:
            return math.fsum(terms.tolist())
        except OverflowError:
            if not np.isfinite(terms).all():
                raise
            # math.fsum's partials overflowed: let the exact sum decide
    total = 0
    for start in range(0, values.size, _RUN):
        part = _superaccumulate(values[start:start + _RUN], square)
        if part is None:
            return math.fsum((_squares(values) if square else values).tolist())
        total += part
    try:
        return total / _ULP  # int true division rounds correctly
    except OverflowError:
        raise OverflowError(_OVERFLOW) from None


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
    A non-finite two-term result falls back to the per-component loop,
    where an exact sum beyond the float range and inf - inf raise
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
    stacked = np.stack([as_f64(t) for t in terms])
    try:
        if stacked.ndim == 1:  # 0-d inputs
            return as_f64(_exact_sum(stacked))
        flat = stacked.reshape(len(terms), -1)
        out = np.empty(flat.shape[1], dtype=np.float64)
        for i in range(flat.shape[1]):
            out[i] = _exact_sum(flat[:, i])
    except (OverflowError, ValueError) as exc:
        raise NonFiniteSum(f"exact sum failed: {exc}") from None
    return out.reshape(first.shape)


def l2_norm(values: Array | Sequence[float]) -> float:
    """Euclidean norm with an order-independent sum of squares
    (:func:`sum_of_squares`); inf when that sum is beyond the float
    range."""
    return math.sqrt(sum_of_squares(values))
