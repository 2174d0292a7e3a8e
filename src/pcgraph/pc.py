"""Predictive-coding state and dynamics on a computational graph.

Every internal (non-leaf) vertex i carries a value node x_i alongside
the prediction mu_i its children produce and the error eps_i = x_i - mu_i.
Leaves have no state of their own: their value *is* the parameter, their
error is identically zero.  Inference relaxes the value nodes by
gradient descent on the energy

    F = 1/2 * sum_internal eps_i^2

with the output value node optionally clamped to a target.  Training
(inference learning, IL) runs T inference steps and then updates each
leaf from its parents' settled errors.

Conventions pinned here and relied on everywhere else:

* eps = x - mu (so a clamped target above the prediction gives a
  positive output error);
* inference steps are synchronous: all deltas are computed from the
  time-t state and applied together, which is what makes "no signal yet"
  regions stay exactly zero;
* a clamped output never moves; mu and eps are recomputed after every
  application; t increments by one per step.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Literal, Mapping

import numpy as np

from .autodiff import arriving, evaluate, forward, pull_back
from .errors import GraphError
from .graph import Graph, VertexId
from .numerics import Array, as_f64, fsum_arrays
from .report import UpdateReport, make_report

InitMode = Literal["zero_error", "free"]


@dataclass(frozen=True)
class PCState:
    """Value nodes, predictions, and errors of all internal vertices at time t."""

    x: dict[VertexId, Array]
    mu: dict[VertexId, Array]
    eps: dict[VertexId, Array]
    t: int
    params: dict[VertexId, Array]
    clamp: float | None


@dataclass(frozen=True)
class EnergyValue:
    """Total squared prediction error, F = 1/2 sum eps^2."""

    F: float


def node_value(state: PCState, g: Graph, vid: VertexId) -> Array:
    """Current value a vertex presents to its parents (x, or zeta for leaves)."""
    if g.vertices[vid].is_leaf:
        return state.params[vid]
    return state.x[vid]


def _predictions(g: Graph, x: Mapping[VertexId, Array],
                 params: Mapping[VertexId, Array]) -> dict[VertexId, Array]:
    values = {**params, **x}
    return {vid: evaluate(g, vid, values) for vid in g.internal_ids}


def _with_values(g: Graph, x: dict[VertexId, Array],
                 params: dict[VertexId, Array], t: int,
                 clamp: float | None) -> PCState:
    """Assemble a consistent state: mu and eps recomputed from x."""
    mu = _predictions(g, x, params)
    eps = {vid: x[vid] - mu[vid] for vid in x}
    return PCState(x=x, mu=mu, eps=eps, t=t, params=params, clamp=clamp)


def init_state(g: Graph, params: Mapping[VertexId, Array],
               y: float | None = None,
               mode: InitMode = "zero_error") -> PCState:
    """Fresh state at t=0.

    ``zero_error`` runs a forward pass and sets every internal value
    node to its own prediction (so all errors start exactly zero), then
    clamps the output to ``y`` if given.  ``free`` starts all value
    nodes at zero.
    """
    if y is not None and not math.isfinite(float(y)):
        raise GraphError(f"target y must be finite, got {y!r}")
    if g.vertices[g.output].is_leaf:
        raise GraphError("predictive-coding state needs a non-leaf output")
    if mode == "zero_error":
        trace = forward(g, params)
        x = {vid: trace.mu[vid].copy() for vid in g.internal_ids}
    elif mode == "free":
        trace = forward(g, params)  # shapes only
        x = {vid: np.zeros_like(trace.mu[vid]) for vid in g.internal_ids}
    else:
        raise GraphError(f"unknown init mode {mode!r}")
    zeta = {vid: as_f64(params[vid]).copy() for vid in g.leaves}  # checked by forward
    if y is not None:
        if trace.mu[g.output].shape != ():
            raise GraphError("clamping needs a scalar output vertex")
        x[g.output] = as_f64(float(y))
    clamp = float(y) if y is not None else None
    if mode == "free":
        return _with_values(g, x, zeta, 0, clamp)
    # Every prediction reads only children's values, which are the forward
    # values (the clamped output is nobody's child): mu is the forward pass.
    mu = {vid: trace.mu[vid] for vid in g.internal_ids}
    eps = {vid: x[vid] - mu[vid] for vid in x}
    return PCState(x=x, mu=mu, eps=eps, t=0, params=zeta, clamp=clamp)


def relax(x: Array, eps: Array, terms: list[Array], gamma: float) -> Array:
    """The value-node rule: x + gamma * (-eps + sum of the arriving ``terms``)."""
    return x + gamma * fsum_arrays([-eps, *terms])


def inference_step(state: PCState, g: Graph, gamma: float) -> PCState:
    """One synchronous relaxation step of all unclamped value nodes.

    delta_x_i = gamma * (-eps_i + sum_{j in parents(i)} eps_j * dmu_j/dx_i),
    every term read from the time-t state; the clamped output stays put.
    """
    if gamma <= 0:
        raise GraphError("inference step size must be positive")
    values = {**state.params, **state.x}  # node_value of every vertex
    pulls = {jid: pull_back(g, jid, values, state.eps[jid])
             for jid in g.internal_ids if g.vertices[jid].children}
    new_x: dict[VertexId, Array] = {}
    for vid in state.x:
        if state.clamp is not None and vid == g.output:
            new_x[vid] = state.x[vid]
            continue
        new_x[vid] = relax(state.x[vid], state.eps[vid],
                           arriving(g, vid, pulls), gamma)
    return _with_values(g, new_x, state.params, state.t + 1, state.clamp)


def energy(state: PCState) -> EnergyValue:
    """Exact (order-independent) total squared error."""
    squares: list[float] = []
    for e in state.eps.values():
        squares.extend((np.asarray(e, dtype=np.float64).ravel() ** 2).tolist())
    return EnergyValue(F=0.5 * math.fsum(squares))


def extract_updates(state: PCState, g: Graph, lr: float,
                    only: set[VertexId] | None = None) -> dict[VertexId, Array]:
    """Leaf deltas read from the current state's errors.

    delta_zeta_i = lr * sum_{j in parents(i)} eps_j * dmu_j/dzeta_i.
    ``only`` restricts the extraction to a subset of trainable leaves
    (the level schedule uses this); default is all trainable leaves.
    """
    wanted = set(g.trainable_leaves()) if only is None else set(only)
    values = {**state.params, **state.x}  # node_value of every vertex
    pulls = {jid: pull_back(g, jid, values, state.eps[jid])
             for jid in g.internal_ids
             if any(c in wanted for c in g.vertices[jid].children)}
    out: dict[VertexId, Array] = {}
    for vid in wanted:
        if not g.parents[vid]:
            raise GraphError(f"leaf {vid} has no parents to read errors from")
        out[vid] = lr * fsum_arrays(arriving(g, vid, pulls))
    return out


def il_train_step(g: Graph, params: Mapping[VertexId, Array], y: float,
                  lr: float = 0.01, gamma: float = 0.1, T: int = 20,
                  settle_tol: float | None = None) -> UpdateReport:
    """Plain inference learning: relax for T steps, then update all leaves.

    With ``settle_tol`` set, relaxation stops early once no value node
    moved by more than the tolerance (max-norm) in a step; ``T`` then
    acts as the step budget.
    """
    if T < 1:
        raise GraphError("inference learning needs at least one step")
    start = time.perf_counter()
    state = init_state(g, params, y, "zero_error")
    steps = 0
    for _ in range(T):
        nxt = inference_step(state, g, gamma)
        steps += 1
        if settle_tol is not None:
            moved = max(
                (float(np.max(np.abs(nxt.x[v] - state.x[v]))) for v in state.x),
                default=0.0)
            state = nxt
            if moved < settle_tol:
                break
        else:
            state = nxt
    per_leaf = extract_updates(state, g, lr)
    return make_report(g, "il", per_leaf,
                       wall_time=time.perf_counter() - start, steps=steps)
