"""Small numerical helpers with reproducibility guarantees.

Cross-edge accumulations (error signals arriving from several parents,
tie-group sums, divergence norms) all go through ``math.fsum``, which
returns the correctly rounded sum of its inputs regardless of their
order.  That makes every such sum independent of traversal order, which
is what lets the test suite demand *exact* equality of results before
and after graph transformations that only re-route edges.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Sequence

import numpy as np

from .errors import NonFiniteSum

Array = np.ndarray

_BLOCK = 4096  # squares converted to Python floats at a time by l2_norm


def as_f64(value) -> Array:
    """Coerce a value to a float64 ndarray (0-d for scalars)."""
    return np.asarray(value, dtype=np.float64)


def fsum_arrays(terms: Sequence[Array]) -> Array:
    """Elementwise, order-independent sum of equally shaped arrays.

    Each output component is the correctly rounded sum of the
    corresponding input components (computed via ``math.fsum``), so the
    result does not depend on the order of ``terms``.

    One or two terms take one array addition, which is already correctly
    rounded; ``+ 0.0`` turns a -0.0 sum into 0.0 as ``math.fsum`` does.
    A non-finite two-term result falls back to the per-component loop,
    where overflow and inf - inf raise :class:`NonFiniteSum`.
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
            return np.asarray(math.fsum(stacked), dtype=np.float64)
        flat = stacked.reshape(len(terms), -1)
        out = np.empty(flat.shape[1], dtype=np.float64)
        for i in range(flat.shape[1]):
            out[i] = math.fsum(flat[:, i])
    except (OverflowError, ValueError) as exc:
        raise NonFiniteSum(f"exact sum failed: {exc}") from None
    return out.reshape(first.shape)


def l2_norm(values: Array | Sequence[float]) -> float:
    """Euclidean norm with an order-independent sum of squares.

    The values are squared in one vector pass.  IEEE multiplication gives
    each square the bits of the Python float product, and a square that
    overflows is inf there too.
    """
    flat = as_f64(values).ravel()
    with np.errstate(over="ignore"):
        squares = flat * flat
    # fsum reads the squares as Python floats a block at a time, so no
    # list of them all is ever held.
    blocks = (squares[i:i + _BLOCK].tolist()
              for i in range(0, squares.size, _BLOCK))
    return math.sqrt(math.fsum(chain.from_iterable(blocks)))


def angle_degrees(a: Array, b: Array) -> float:
    """Angle between two flat vectors, in degrees."""
    a = as_f64(a).ravel()
    b = as_f64(b).ravel()
    na = l2_norm(a)
    nb = l2_norm(b)
    if na == 0.0 or nb == 0.0:
        raise ValueError("angle undefined for zero vectors")
    cos = math.fsum((a * b).tolist()) / (na * nb)
    return math.degrees(math.acos(max(-1.0, min(1.0, cos))))
