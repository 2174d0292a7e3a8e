"""Per-algorithm update reports and the divergence metric between them.

An :class:`UpdateReport` carries one training step's parameter deltas in
the graph's canonical parameter order (tie groups first, then free
trainable leaves), which is what makes reports from different algorithms
directly comparable as vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .autodiff import collect_updates
from .errors import ShapeMismatch
from .graph import Graph, ParamKey, VertexId
from .numerics import Array, l2_norm


@dataclass(frozen=True)
class UpdateReport:
    """One algorithm's weight deltas for one training step."""

    algorithm: str
    updates: dict[ParamKey, Array]

    def flat(self) -> np.ndarray:
        """All deltas concatenated in canonical order."""
        parts = [np.asarray(v, dtype=np.float64).ravel()
                 for v in self.updates.values()]
        if not parts:
            return np.zeros(0)
        return np.concatenate(parts)


def make_report(g: Graph, algorithm: str,
                per_leaf: Mapping[VertexId, Array]) -> UpdateReport:
    """Fold per-leaf deltas into a canonical report (tie groups summed)."""
    return UpdateReport(algorithm, collect_updates(g, per_leaf))


def divergence(a: UpdateReport | Mapping[ParamKey, Array],
               b: UpdateReport | Mapping[ParamKey, Array]) -> float:
    """Euclidean distance between two full update vectors.

    Zero iff the updates are identical.  Requires the same parameter
    keys in the same order with matching shapes.  Accepts either
    reports or bare ``{key: delta}`` mappings.
    """
    ua = a.updates if isinstance(a, UpdateReport) else a
    ub = b.updates if isinstance(b, UpdateReport) else b
    if list(ua.keys()) != list(ub.keys()):
        raise ShapeMismatch(
            f"parameter keys differ: {list(ua)} vs {list(ub)}")
    diffs: list[Array] = []
    for key in ua:
        va = np.asarray(ua[key], dtype=np.float64)
        vb = np.asarray(ub[key], dtype=np.float64)
        if va.shape != vb.shape:
            raise ShapeMismatch(
                f"shape mismatch at {key}: {va.shape} vs {vb.shape}")
        diffs.append((va - vb).ravel())
    return l2_norm(np.concatenate(diffs) if diffs else diffs)
