"""Predictive-coding state and dynamics on a computational graph.

Every internal (non-leaf) vertex i carries a value node x_i alongside
the prediction mu_i its children produce and the error eps_i = x_i - mu_i.
Leaves have no state of their own: their value *is* the parameter, their
error is identically zero.  Inference relaxes the value nodes by
gradient descent on the energy

    F = 1/2 * sum_internal eps_i^2

with the output value node clamped to a target.  Training
runs a :class:`ZilSchedule`, which names the step at which each
trainable leaf reads its parents' errors, through one runner,
:func:`run_schedule`.  Inference learning (IL) reads every leaf after
T steps; Z-IL (:mod:`.zil`) reads each at its level's step.  The
runner picks the engine: the step engine, :func:`relax_schedule`, or,
where every leaf is read at level(leaf) - 1 on a levelled graph, one
reverse sweep, :func:`_wavefront`, that gives the same bytes.

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
import numbers
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .autodiff import (arriving, evaluate, forward, pull_back, pull_onto,
                       reverse_sweep)
from .errors import GraphError, NotLevelled
from .graph import Graph, VertexId, level_structure
from .numerics import (Array, as_f64, fsum_arrays, is_integer,
                       sum_of_squares)
from .report import UpdateReport, make_report


@dataclass(frozen=True)
class PCState:
    """Value nodes, predictions, and errors of all internal vertices at time t."""

    x: dict[VertexId, Array]
    mu: dict[VertexId, Array]
    eps: dict[VertexId, Array]
    t: int
    params: dict[VertexId, Array]


@dataclass(frozen=True)
class ZilSchedule:
    """When each trainable leaf reads its parents' errors, relaxing at
    step size ``gamma``.

    ``steps`` is the number of states the schedule visits, one past its
    last read; with no reads it is one, so step 0 still pulls back every
    vertex, as backprop does.
    """

    gamma: float
    update_times: dict[VertexId, int]
    steps: int = field(init=False, compare=False)
    _due: dict[int, tuple[VertexId, ...]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        for v, when in self.update_times.items():
            if not is_integer(when) or when < 0:
                raise GraphError(f"read time of leaf {v} must be an "
                                 f"integer >= 0, got {when!r}")
        due: dict[int, list[VertexId]] = {}
        for v in sorted(self.update_times):
            due.setdefault(self.update_times[v], []).append(v)
        object.__setattr__(self, "steps",
                           max(self.update_times.values(), default=0) + 1)
        object.__setattr__(self, "_due",
                           {t: tuple(vs) for t, vs in due.items()})

    def leaves_at(self, t: int) -> tuple[VertexId, ...]:
        return self._due.get(t, ())


def _predictions(g: Graph, x: Mapping[VertexId, Array],
                 params: Mapping[VertexId, Array]) -> dict[VertexId, Array]:
    values = {**params, **x}
    return {vid: evaluate(g, vid, values) for vid in g.internal_ids}


def _with_values(g: Graph, x: dict[VertexId, Array],
                 params: dict[VertexId, Array], t: int) -> PCState:
    """Assemble a consistent state: mu and eps recomputed from x."""
    mu = _predictions(g, x, params)
    eps = {vid: x[vid] - mu[vid] for vid in x}
    return PCState(x=x, mu=mu, eps=eps, t=t, params=params)


def init_state(g: Graph, params: Mapping[VertexId, Array],
               y: float) -> PCState:
    """Fresh state at t=0: the zero-error start with the output clamped.

    A forward pass sets every internal value node to its own prediction,
    so all errors start exactly zero, then the output is clamped to
    ``y``; its error is the target miss.
    """
    if not math.isfinite(float(y)):
        raise GraphError(f"target y must be finite, got {y!r}")
    if g.vertices[g.output].is_leaf:
        raise GraphError("predictive-coding state needs a non-leaf output")
    trace = forward(g, params)
    if trace.mu[g.output].shape != ():
        raise GraphError("clamping needs a scalar output vertex")
    x = {vid: trace.mu[vid].copy() for vid in g.internal_ids}
    x[g.output] = as_f64(float(y))
    zeta = {vid: trace.mu[vid] for vid in g.leaves}  # not copied: never written
    # Every prediction reads only children's values, which are the forward
    # values (the clamped output is nobody's child): mu is the forward pass.
    mu = {vid: trace.mu[vid] for vid in g.internal_ids}
    eps = {vid: x[vid] - mu[vid] for vid in x}
    return PCState(x=x, mu=mu, eps=eps, t=0, params=zeta)


def relax(x: Array, eps: Array, terms: list[Array], gamma: float) -> Array:
    """The value-node rule: x + gamma * (-eps + sum of the arriving ``terms``)."""
    return x + gamma * fsum_arrays([-eps, *terms])


def inference_step(state: PCState, g: Graph, gamma: float) -> PCState:
    """One synchronous relaxation step of every value node but the output.

    delta_x_i = gamma * (-eps_i + sum_{j in parents(i)} eps_j * dmu_j/dx_i),
    every term read from the time-t state; the clamped output stays put.
    Each vertex is pulled back onto its internal children only: the
    leaves read their errors in :func:`extract_updates`.
    """
    _check_gamma(gamma)
    values = {**state.params, **state.x}  # what every vertex presents
    pulls = {jid: pull_back(g, jid, values, state.eps[jid],
                            g.internal_slots[jid])
             for jid in g.internal_ids if g.vertices[jid].children}
    new_x: dict[VertexId, Array] = {}
    for vid in state.x:
        if vid == g.output:
            new_x[vid] = state.x[vid]
            continue
        new_x[vid] = relax(state.x[vid], state.eps[vid],
                           arriving(g, vid, pulls), gamma)
    return _with_values(g, new_x, state.params, state.t + 1)


def energy(state: PCState) -> float:
    """Exact (order-independent) total squared error, F = 1/2 sum eps^2;
    inf when the sum is beyond the float range."""
    flat = [as_f64(e).ravel() for e in state.eps.values()]
    return 0.5 * sum_of_squares(np.concatenate(flat) if flat else flat)


def extract_updates(state: PCState, g: Graph, lr: float,
                    only: set[VertexId]) -> dict[VertexId, Array]:
    """Deltas of the trainable leaves ``only``, read from the state's errors.

    delta_zeta_i = lr * sum_{j in parents(i)} eps_j * dmu_j/dzeta_i.
    Each parent of a wanted leaf is pulled back once, onto the slots
    that hold wanted leaves.
    """
    for vid in only:
        if not g.parents[vid]:
            raise GraphError(f"leaf {vid} has no parents to read errors from")
    values = {**state.params, **state.x}  # what every vertex presents
    pulls = pull_onto(g, only, values, state.eps)
    return {vid: lr * fsum_arrays(arriving(g, vid, pulls)) for vid in only}


def relax_schedule(g: Graph, state: PCState, lr: float,
                   schedule: ZilSchedule,
                   cone: tuple[tuple[VertexId, ...], ...] | None,
                   record_trace: bool
                   ) -> tuple[dict[VertexId, Array], tuple[PCState, ...]]:
    """Relax from ``state`` step by step and read each leaf when it is due.

    Step t reads the leaves due at t (:func:`extract_updates`), then
    applies the rule of :func:`inference_step` (its pulls,
    :func:`relax`, then mu and eps from the new values); the last step
    only reads.  The rule is a pure function, so a quantity whose inputs
    kept their bytes since the step before keeps its bytes and is not
    recomputed.  Only value nodes are compared, by bytes: a prediction
    is recomputed when a child's value moved, an error when its x moved
    or its mu was recomputed, a pull when its vertex's error was
    recomputed, and a value node when its x moved, its error was
    recomputed or a parent was pulled.  Step 0 pulls every vertex back,
    as backprop does, even in a one-step run, so it raises where
    backprop raises.

    With ``cone`` given, the vertices in ``cone[t]`` leave the region
    after step t's pulls; the caller vouches that no later step reads
    them.  ``snapshots[t]`` holds the region at step t when
    ``record_trace`` is set; an array that was not recomputed is shared
    with the snapshot before, not copied.
    """
    x, mu, eps = dict(state.x), dict(state.mu), dict(state.eps)
    values = {**state.params, **x}  # what every vertex presents
    pulls: dict[VertexId, tuple[Array | None, ...]] = {}
    changed = set(x)  # vertices whose eps was recomputed; step 0: all
    per_leaf: dict[VertexId, Array] = {}
    snapshots: list[PCState] = []
    for t in range(schedule.steps):
        due = schedule.leaves_at(t)
        if record_trace or due:
            now = PCState(x=dict(x), mu=dict(mu), eps=dict(eps), t=t,
                          params=state.params)
            if record_trace:
                snapshots.append(now)
            if due:
                per_leaf.update(extract_updates(now, g, lr, only=set(due)))
        last = t == schedule.steps - 1
        if last and t > 0:
            break
        pulled = sorted(p for p in changed if g.vertices[p].children)
        for p in pulled:
            pulls[p] = pull_back(g, p, values, eps[p], g.internal_slots[p])
        if last:  # a one-step run pulls only for backprop's domain checks
            break
        if cone is not None:
            for region in (x, mu, eps):
                for v in cone[t]:
                    region.pop(v, None)
        stale = changed | {g.vertices[p].children[s]
                           for p in pulled for s in g.internal_slots[p]}
        moved = set()
        for v in sorted(stale):
            if v in x and v != g.output:
                new = relax(x[v], eps[v], arriving(g, v, pulls),
                            schedule.gamma)
                # Bytes, not values: a -0.0 that becomes 0.0 is a change.
                if new.tobytes() != x[v].tobytes():
                    x[v] = values[v] = new
                    moved.add(v)
        evaluated = sorted({p for v in moved for p, _slot in g.parents[v]
                            if p in x})
        for v in evaluated:
            mu[v] = evaluate(g, v, values)
        changed = moved.union(evaluated)
        for v in changed:
            eps[v] = x[v] - mu[v]
    return per_leaf, tuple(snapshots)


@dataclass(frozen=True)
class ZilTrace:
    """Per-step state snapshots plus the recorded per-leaf updates.

    ``snapshots[t]`` is the state each step's updates were read from
    (before that step's relaxation was applied).  It holds the step's
    region only: the internal vertices at level >= t when every leaf is
    read at level(leaf) - 1 on a levelled graph, else every internal
    vertex.  Arrays that did not change are shared between snapshots.
    """

    snapshots: tuple[PCState, ...]
    updates: dict[VertexId, Array]
    schedule: ZilSchedule


def run_schedule(g: Graph, params: Mapping[VertexId, Array], y: float,
                 lr: float, schedule: ZilSchedule, label: str, *,
                 shift: float = 0.0, record_trace: bool = False
                 ) -> tuple[UpdateReport, ZilTrace]:
    """Run a schedule from the zero-error start, every value node but
    the clamped output ``shift`` off it, and report its reads.

    The schedule runs on the wavefront engine (:func:`_wavefront`) when
    every leaf is read at level(leaf) - 1 on a levelled graph, with no
    shift and no trace; else on the step engine, which then keeps only
    the light cone: at step t, the internal vertices at level >= t.  A
    vertex at level k is updated from levels k - 1, k and k + 1 of the
    step before, so the region is closed under the rule, and it holds
    everything the reads and the checks of :mod:`.zil` use.  A schedule
    is checked against the graph first (:func:`_check_schedule`).
    """
    state = init_state(g, params, y)
    _check_schedule(g, schedule)
    at_levels = _reads_at_levels(g, schedule)
    if at_levels and shift == 0.0 and not record_trace:
        per_leaf = _wavefront(g, state, lr, schedule.gamma)
        snapshots: tuple[PCState, ...] = ()
    else:
        if shift != 0.0:
            state = _perturb(state, g, shift)
        cone = level_structure(g).buckets if at_levels else None
        per_leaf, snapshots = relax_schedule(g, state, lr, schedule, cone,
                                             record_trace)
    report = make_report(g, label, per_leaf)
    return report, ZilTrace(snapshots, per_leaf, schedule)


def _check_gamma(gamma: float) -> None:
    if not (math.isfinite(gamma) and gamma > 0):
        raise GraphError(
            f"inference step size must be finite and positive, got {gamma!r}")


def _check_schedule(g: Graph, schedule: ZilSchedule) -> None:
    """Raise :class:`GraphError` unless the schedule reads exactly the
    trainable leaves and relaxes at a finite positive step size (its
    read times were checked when it was built)."""
    wanted = set(g.trainable_leaves())
    if set(schedule.update_times) != wanted:
        raise GraphError(
            f"schedule must read exactly the trainable leaves "
            f"{sorted(wanted)}, got {sorted(schedule.update_times)}")
    _check_gamma(schedule.gamma)


def _reads_at_levels(g: Graph, schedule: ZilSchedule) -> bool:
    """Whether the graph is levelled and every leaf is read at level(leaf) - 1."""
    try:
        levels = level_structure(g).levels
    except NotLevelled:
        return False
    return all(when == levels[v] - 1
               for v, when in schedule.update_times.items())


def _wavefront(g: Graph, state: PCState, lr: float,
               gamma: float) -> dict[VertexId, Array]:
    """One reverse sweep whose internal vertices settle by the Z-IL rule.

    By the quiet window (see :func:`zil.check_quiet_window`) a vertex
    at level k still holds x0 when the wavefront reaches it at step
    k - 1, and so does everything below it; so the error it settles to
    is relax(x0, eps0, arriving, gamma) - mu(x0 of its children), and a
    leaf reads its arriving pulls.  A value node presents x0 + 0.0, as
    a relaxation step leaves a quiet node; where the step engine reads a
    raw x0 (at t = 0) the two differ at most in the sign of a zero, and
    the ``+ 0.0`` of every leaf sum removes that.
    """
    values = {**state.params, **{v: x + 0.0 for v, x in state.x.items()}}

    def settle(vid: VertexId, terms: list[Array]) -> Array:
        return (relax(values[vid], state.eps[vid], terms, gamma)
                - evaluate(g, vid, values))

    signal = reverse_sweep(g, values, state.eps[g.output], settle)
    return {v: lr * signal[v] for v in g.trainable_leaves()}


def _perturb(state: PCState, g: Graph, amount: float) -> PCState:
    """Shift every internal value node but the clamped output by ``amount``."""
    new_x = {vid: val if vid == g.output else val + amount
             for vid, val in state.x.items()}
    return _with_values(g, new_x, state.params, state.t)


def il_train_step(g: Graph, params: Mapping[VertexId, Array], y: float,
                  lr: float = 0.01, gamma: float = 0.1,
                  T: int = 20) -> UpdateReport:
    """Plain inference learning: relax for T steps, then update all leaves.

    A schedule that reads every trainable leaf at step T, run by
    :func:`run_schedule`; a T that is not an integer fails its check
    of the read times.
    """
    if isinstance(T, numbers.Real) and T < 1:
        raise GraphError("inference learning needs at least one step")
    schedule = ZilSchedule(gamma, {v: T for v in g.trainable_leaves()})
    report, _trace = run_schedule(g, params, y, lr, schedule, "il")
    return report
