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
from typing import Iterable, Sequence

import numpy as np

Array = np.ndarray


def as_f64(value) -> Array:
    """Coerce a value to a float64 ndarray (0-d for scalars)."""
    return np.asarray(value, dtype=np.float64)


def fsum_arrays(terms: Sequence[Array]) -> Array:
    """Elementwise, order-independent sum of equally shaped arrays.

    Each output component is the correctly rounded sum of the
    corresponding input components (computed via ``math.fsum``), so the
    result does not depend on the order of ``terms``.

    Two terms take one array addition: a single IEEE addition is already
    correctly rounded, and ``+ 0.0`` turns a -0.0 sum into 0.0 as
    ``math.fsum`` does.  A non-finite result falls back to the
    per-component loop, so overflow and inf - inf raise as they do there.
    """
    if not terms:
        raise ValueError("fsum_arrays needs at least one term")
    first = as_f64(terms[0])
    if len(terms) == 1:
        return first.copy()
    if len(terms) == 2:
        second = as_f64(terms[1])
        if first.shape == second.shape:
            out = as_f64((first + second) + 0.0)
            if np.isfinite(out).all():
                return out
    stacked = np.stack([as_f64(t) for t in terms])
    if stacked.ndim == 1:  # 0-d inputs
        return np.asarray(math.fsum(stacked), dtype=np.float64)
    flat = stacked.reshape(len(terms), -1)
    out = np.empty(flat.shape[1], dtype=np.float64)
    for i in range(flat.shape[1]):
        out[i] = math.fsum(flat[:, i])
    return out.reshape(first.shape)


def l2_norm(values: Iterable[float]) -> float:
    """Euclidean norm with an order-independent sum of squares."""
    return math.sqrt(math.fsum(v * v for v in values))


def angle_degrees(a: Array, b: Array) -> float:
    """Angle between two flat vectors, in degrees."""
    a = as_f64(a).ravel()
    b = as_f64(b).ravel()
    na = l2_norm(a.tolist())
    nb = l2_norm(b.tolist())
    if na == 0.0 or nb == 0.0:
        raise ValueError("angle undefined for zero vectors")
    cos = math.fsum((a * b).tolist()) / (na * nb)
    return math.degrees(math.acos(max(-1.0, min(1.0, cos))))
