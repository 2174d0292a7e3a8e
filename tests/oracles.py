"""Oracles that only the tests call.

Each recomputes, from scratch and by a route of its own, something the
package's results must satisfy.
"""

import math

import numpy as np

from pcgraph.autodiff import arriving, pull_onto
from pcgraph.graph import Graph, level_structure
from pcgraph.numerics import Array, as_f64, exact_sum, fsum_arrays, l2_norm
from pcgraph.pc import ZilTrace


def check_wavefront_recursion(trace: ZilTrace, g: Graph) -> bool:
    """Verify the one-step error recursion at each vertex's settling time.

    At t = level(j) the error of vertex j must equal gamma times the
    pulled-back errors of its parents read one step earlier, because
    that is the only step at which the wavefront crosses the edge.
    Checked against a from-scratch recomputation out of the trace, to
    an absolute 1e-9.
    """
    structure = level_structure(g)
    gamma = trace.schedule.gamma
    for t in range(1, len(trace.snapshots)):
        prev, now = trace.snapshots[t - 1], trace.snapshots[t]
        settling = [j for j in structure.members(t) if not g.vertices[j].is_leaf]
        pulls = pull_onto(g, settling, {**prev.params, **prev.x}, prev.eps)
        for jid in settling:
            expected = gamma * fsum_arrays(arriving(g, jid, pulls))
            if not np.allclose(as_f64(now.eps[jid]), expected, atol=1e-9, rtol=0.0):
                return False
    return True


def angle_degrees(a: Array, b: Array) -> float:
    """Angle between two flat vectors, in degrees."""
    a = as_f64(a).ravel()
    b = as_f64(b).ravel()
    na = l2_norm(a)
    nb = l2_norm(b)
    if na == 0.0 or nb == 0.0:
        raise ValueError("angle undefined for zero vectors")
    cos = exact_sum(a * b) / (na * nb)
    return math.degrees(math.acos(max(-1.0, min(1.0, cos))))
