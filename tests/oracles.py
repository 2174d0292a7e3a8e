"""Oracles that only the tests call.

Each recomputes, from scratch and by a route of its own, something the
package's results must satisfy.
"""

import math

import numpy as np

from pcgraph.autodiff import arriving, pull_onto, sweep_plan
from pcgraph.functions import KINDS, ElemFn, FnKind
from pcgraph.graph import Graph, VertexId, level_structure
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


def holomorphic_forward(fn: ElemFn, ins: list[Array]) -> Array:
    """``fn`` on complex inputs: the kind's own rule, except for the two
    whose rule does not extend to complex values as the real function
    does.  ``convolve1d``'s ``np.correlate`` conjugates its kernel, so
    here the signal is convolved with the reversed kernel;
    ``sum_reduce``'s ``ieee_sum`` drops the imaginary part, so here
    ``np.sum`` adds."""
    if fn.kind is FnKind.CONVOLVE1D:
        kernel, signal = ins
        return np.convolve(signal, kernel[::-1], mode="valid")
    if fn.kind is FnKind.SUM_REDUCE:
        return np.sum(ins[0])
    return KINDS[fn.kind].forward(fn, ins)


def pinned_forward(g: Graph, params: dict[VertexId, Array],
                   pinned: dict[VertexId, Array]) -> dict[VertexId, Array]:
    """Every vertex's forward value with the vertices in ``pinned`` held
    at the given values: a forward pass over ``sweep_plan(g).forward``
    that evaluates each other vertex by its function, so a finite
    difference can bump one internal value and see the output move."""
    mu: dict[VertexId, Array] = {}
    for vid, fn, kids in sweep_plan(g).forward:
        if vid in pinned:
            mu[vid] = as_f64(pinned[vid])
        elif fn is None:
            mu[vid] = as_f64(params[vid])
        else:
            mu[vid] = fn([mu[c] for c in kids])
    return mu


def complex_step_jvp(fn: ElemFn, ins: list[Array], directions: list[Array],
                     h: float = 1e-200) -> Array:
    """J v: the derivative of ``fn`` at ``ins`` along ``directions``
    (one per input) by the complex step, Im f(x + i h v) / h.  No
    difference of nearby values is taken, so for a tiny ``h`` it is
    exact to within the rounding of f itself (Squire & Trapp 1998;
    Martins, Sturdza & Alonso 2003), independently of any ``vjp``
    rule."""
    z = [x + 1j * h * v for x, v in zip(ins, directions)]
    return np.imag(holomorphic_forward(fn, z)) / h


def complex_step_energy(g: Graph, params: dict[VertexId, Array], y: float,
                        directions: dict[VertexId, Array],
                        h: float = 1e-200) -> float:
    """The derivative of E = (mu_out - y)^2 / 2 along ``directions`` (one
    per trainable leaf) by the complex step: a complex forward pass over
    ``sweep_plan(g).forward`` with :func:`holomorphic_forward` at every
    vertex and each leaf at its value + i h d, then Im E / h.  It never
    calls ``forward``, so no input check sees a complex value."""
    mu: dict[VertexId, Array] = {}
    for vid, fn, kids in sweep_plan(g).forward:
        if fn is None:
            mu[vid] = as_f64(params[vid]) + 1j * h * directions.get(vid, 0.0)
        else:
            mu[vid] = holomorphic_forward(fn, [mu[c] for c in kids])
    diff = mu[g.output] - y
    return float(np.imag(0.5 * diff * diff)) / h
