"""Predictive-coding state and dynamics on a computational graph.

Every internal (non-leaf) vertex i carries a value node x_i alongside
the prediction mu_i its children produce and the error eps_i = x_i - mu_i.
Leaves have no state of their own: their value *is* the parameter, their
error is identically zero.  Inference relaxes the value nodes by
gradient descent on the energy

    F = 1/2 * sum_internal eps_i^2

with the output value node clamped to a target.  Training runs a
:class:`ZilSchedule`, which names the step at which each trainable
leaf reads its parents' errors, through one runner, :func:`run_schedule`,
from one forward pass.  Inference learning (IL) reads every leaf after
T steps; Z-IL (:mod:`.zil`) reads each at its level's step.  The
runner picks the engine: the wavefront engine, :func:`_wavefront`, one
reverse sweep at backprop's cost, where it is exact as written; else
the step engine, :func:`relax_schedule`, which relaxes every value
node at once in flat float64 buffers and keeps the per-vertex rule's
bytes, NaN bits and exceptions.

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
from itertools import accumulate
from typing import Mapping

import numpy as np

from .autodiff import (_leaf_sum, _read_only, arriving, check_real,
                       evaluate, forward, pull_back, pull_onto,
                       reverse_sweep, scalar_output)
from .errors import DomainError, GraphError, NonFiniteSum, NotLevelled
from .functions import KINDS
from .graph import GROUP_MIN, Graph, VertexId, level_structure, step_structure
from .numerics import (Array, all_finite, as_f64, fsum_arrays,
                       is_finite_real, is_integer, sum_of_squares)
from .report import UpdateReport, make_report


# When the step engine runs a group in one call (measured on levelled
# rnn(T,4,8) for T = 4..13 and on the zoo-desk models, in process): a
# group call costs about three vertex calls, so it runs only where three
# or more members are due; laying a group out in a run costs about ten
# to fifteen, which a run with fewer than 16 steps left does not repay,
# so such a run lays out no group (traced Z-IL and the ablations on
# small graphs take 3-11 steps).
_MIN_DUE = 3
_LAYOUT_STEPS = 16
_NEG_ZERO = np.float64(-0.0).view(np.int64)  # -0.0's bits


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
        if not (isinstance(self.update_times, Mapping)
                and all(map(is_integer, self.update_times))):
            raise GraphError(f"read times must map integer leaf ids to "
                             f"steps, got {self.update_times!r}")
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


def _with_values(g: Graph, x: dict[VertexId, Array],
                 params: dict[VertexId, Array], t: int) -> PCState:
    """Assemble a consistent state: mu and eps recomputed from x."""
    values = {**params, **x}
    mu = {vid: evaluate(g, vid, values) for vid in g.internal_ids}
    eps = {vid: x[vid] - mu[vid] for vid in x}
    return PCState(x=x, mu=mu, eps=eps, t=t, params=params)


def _start(g: Graph, params: Mapping[VertexId, Array],
           y: float) -> dict[VertexId, Array]:
    """The forward values every run starts from, once the target, the
    output and (in the forward pass) the params are checked."""
    check_real(y, "target y")
    if g.vertices[g.output].is_leaf:
        raise GraphError("predictive-coding state needs a non-leaf output")
    mu = forward(g, params).mu
    scalar_output(g, mu)
    return mu


def init_state(g: Graph, params: Mapping[VertexId, Array],
               y: float) -> PCState:
    """Fresh state at t=0: the zero-error start with the output clamped.

    A forward pass sets every internal value node to its own prediction,
    so all errors start exactly zero, then the output is clamped to
    ``y``; its error is the target miss.
    """
    return _state(g, _start(g, params, y), y)


def _state(g: Graph, mu0: dict[VertexId, Array], y: float) -> PCState:
    """The state of :func:`init_state` built from the forward values
    ``mu0``."""
    x = {vid: mu0[vid].copy() for vid in g.internal_ids}
    x[g.output] = as_f64(float(y))
    zeta = {vid: mu0[vid] for vid in g.leaves}  # not copied: never written
    # Every prediction reads only children's values, which are the forward
    # values (the clamped output is nobody's child): mu is the forward pass.
    mu = {vid: mu0[vid] for vid in g.internal_ids}
    eps = {vid: x[vid] - mu[vid] for vid in x}
    return PCState(x=x, mu=mu, eps=eps, t=0, params=zeta)


def relax(x: Array, eps: Array, terms: list[Array], gamma: float) -> Array:
    """The value-node rule: x + gamma * (-eps + sum of the arriving ``terms``).

    The sum is correctly rounded (:func:`fsum_arrays`).  With one term
    it is one subtraction, ``(term - eps) + 0.0``: it rounds as
    ``-eps + term`` does and gives the same signs of zero.  Where that
    is not finite, the exact sum decides, as with several terms.
    """
    if len(terms) == 1:
        step = (terms[0] - eps) + 0.0
        if all_finite(step):  # 1.0 * step has step's bytes, NaNs included
            return x + step if gamma == 1.0 else x + gamma * step
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
    that hold wanted leaves; a delta of rank 1 or more is scaled by
    ``lr`` in place, in the array of its sum (:func:`_scaled`).
    """
    for vid in only:
        if not g.parents[vid]:
            raise GraphError(f"leaf {vid} has no parents to read errors from")
    values = {**state.params, **state.x}  # what every vertex presents
    pulls = pull_onto(g, only, values, state.eps)
    return {vid: _scaled(lr, _leaf_sum(arriving(g, vid, pulls)))
            for vid in only}


def _scaled(lr: float, signal: Array) -> Array:
    """``lr * signal``, written into ``signal`` where it has rank 1 or
    more: the caller keeps no unscaled signal."""
    return np.multiply(signal, lr, out=signal) if signal.ndim else lr * signal


class _Group:
    """Members of one group of :func:`step_structure` that share their
    value shapes in a run, and where their values live in the buffers.

    Members are ordered by the step at which they leave the region, the
    last to leave first, so ``members[:live]`` is the region's part.
    Per slot, ``ins`` holds whether the input is an internal vertex's
    and either the index of each member's input in X or its leaf's
    value; ``out`` holds the index of each member in MU and EPS, and
    ``onto[s]`` that of its pull onto slot s in PULL.  Each is laid out
    as the batch takes it (flat or stacked), so its first ``cut[j]``
    rows belong to the first j members.
    """

    def __init__(self, g: Graph, members: list[VertexId], live: int,
                 state: PCState, span: dict[VertexId, slice],
                 several: dict[tuple[VertexId, int], slice],
                 positions: Array):
        first = g.vertices[members[0]]
        self.fn, self.batch = first.fn, KINDS[first.fn.kind].batch
        self.slots = g.internal_slots[members[0]]
        self.members, self.live = members, live
        stack = self.batch.stack

        def laid(parts: list[slice], shape: tuple[int, ...]) -> Array:
            flat = np.concatenate([positions[p] for p in parts])
            return flat.reshape(len(members), *shape) if stack else flat

        kids = [g.vertices[m].children for m in members]
        self.ins: list[tuple[bool, Array]] = []
        for s, c in enumerate(first.children):
            if g.vertices[c].is_leaf:
                leaf = [state.params[k[s]] for k in kids]
                self.ins.append((False, np.stack(leaf) if stack else
                                 np.concatenate([np.ravel(v) for v in leaf])))
            else:
                self.ins.append((True, laid([span[k[s]] for k in kids],
                                            state.x[c].shape)))
        self.out = laid([span[m] for m in members], state.x[members[0]].shape)
        self.onto = {s: laid([several.get((m, s), span[k[s]])
                              for m, k in zip(members, kids)],
                             state.x[first.children[s]].shape)
                     for s in self.slots}
        self.cut = list(range(len(members) + 1)) if stack else \
            [0, *accumulate(state.x[m].size for m in members)]

    def _inputs(self, X: Array, c: int) -> list[Array]:
        return [X[at[:c]] if internal else at[:c]
                for internal, at in self.ins]

    def predict(self, X: Array, MU: Array) -> bool:
        """Write the region members' predictions; False, writing none,
        where one is not finite."""
        c = self.cut[self.live]
        mu = self.batch.forward(self.fn, self._inputs(X, c))
        if not all_finite(mu):
            return False
        MU[self.out[:c]] = mu
        return True

    def pull(self, X: Array, EPS: Array, PULL: Array) -> bool:
        """Write the region members' pulls onto their internal slots;
        False, writing none, where one is not finite."""
        c = self.cut[self.live]
        back = self.batch.vjp(self.fn, self._inputs(X, c), EPS[self.out[:c]],
                              self.slots)
        if not all(all_finite(back[s]) for s in self.slots):
            return False
        for s in self.slots:
            PULL[self.onto[s][:c]] = back[s]
        return True


def _split(g: Graph, members: frozenset[VertexId], state: PCState,
           region: Mapping[VertexId, Array], span: dict[VertexId, slice],
           several: dict[tuple[VertexId, int], slice],
           cone: tuple[tuple[VertexId, ...], ...] | None,
           positions: Array) -> list[_Group]:
    """One group of :func:`step_structure` as the run's groups: split by
    value shape (a stacked batch needs one shape per input; 0-d values
    only where the batch holds for them), parts of :data:`GROUP_MIN`
    or more members kept, members ordered by the step at which ``cone``
    takes them out of the ``region``, last first."""
    batch = KINDS[g.vertices[min(members)].fn.kind].batch
    parts: dict[tuple, list[VertexId]] = {}
    for m in sorted(members):
        if not batch.scalars and state.x[m].ndim == 0:
            continue
        key = tuple(np.shape(state.params[c]) if c in state.params
                    else state.x[c].shape
                    for c in g.vertices[m].children) if batch.stack else ()
        parts.setdefault(key, []).append(m)
    gone = {} if cone is None else {v: t for t, vs in enumerate(cone)
                                     for v in vs if v in members}
    out = []
    for part in parts.values():
        if len(part) >= GROUP_MIN:
            part.sort(key=lambda m: -gone.get(m, math.inf))
            live = sum(m in region for m in part)
            out.append(_Group(g, part, live, state, span, several,
                              positions))
    return out


def relax_schedule(g: Graph, state: PCState, lr: float,
                   schedule: ZilSchedule,
                   cone: tuple[tuple[VertexId, ...], ...] | None,
                   record_trace: bool
                   ) -> tuple[dict[VertexId, Array], tuple[PCState, ...]]:
    """Relax from ``state`` step by step and read each leaf when it is due.

    Step t reads the leaves due at t (:func:`extract_updates`), then
    applies the rule of :func:`inference_step` (its pulls,
    :func:`relax`, then mu and eps from the new values); the last step
    only reads.  Step 0 pulls every vertex back, as backprop does, even
    in a one-step run, so it raises where backprop raises; a later step
    pulls only vertices with an internal child, because nothing reads
    a pull onto a leaf.

    The x, mu and eps of every internal vertex live in three flat
    float64 buffers, in the order of :func:`step_structure` (one-term
    vertices, then several-term ones, then the output), and a fourth
    holds the pulls: the one arriving at each one-term vertex, where
    its x sits, then one per edge into a several-term vertex.  The
    per-vertex values are reshaped views of them.  A step is a few
    whole-buffer operations: ``(pull - eps) + 0.0``, ``x + gamma *
    step``, the output and the vertices outside the region held at
    their x, a byte compare of old and new x per vertex (so a -0.0 that
    becomes 0.0 is a move), and eps = x - mu.  The rule is a pure
    function, so only what a move reaches is recomputed: a prediction
    when a child's value moved, a pull when its vertex's eps may have
    changed, and the exact sum of a several-term vertex when its eps or
    a parent's pull may have.  Where a step is not finite,
    :func:`relax` runs per vertex in ascending id, so it raises where
    and as the rule does.  There a 0-d x that started as a NumPy
    scalar, or has moved (the rule returns one), is passed as a scalar,
    because between two NaN operands a scalar ``+`` keeps another NaN
    than an array one does.

    After step 0, predictions and pulls run per group where that pays:
    where three or more members of a group (:func:`_split`) are due,
    one batch call (:class:`functions.Batch`) on rows gathered from the
    buffers computes and writes every member still in the region.  A
    member that was not due gets the bytes it holds, because the rule
    is pure; one that has left the region keeps what it last held, as
    it does when vertices run one by one, so the buffers hold the same
    bytes either way.  Where a batch result is not finite, the due
    members run per vertex; where a batch call raises a
    ``DomainError``, the whole phase reruns per vertex in ascending id,
    so the same vertex raises with the same message.  A group is laid
    out on its first call, and only while 16 or more steps remain.

    With ``cone`` given, the vertices in ``cone[t]`` leave the region
    after step t's pulls; the caller vouches that no later step reads
    them.  ``snapshots[t]`` holds the region at step t when
    ``record_trace`` is set.  Snapshot 0 holds the start state's own
    arrays; a later one copies the values recomputed since the one
    before and shares every other array with it, so no snapshot holds
    a view of a buffer.
    """
    plan = step_structure(g)
    order = (*plan.single, *plan.several, g.output)
    sizes = [state.x[v].size for v in order]
    span = {v: slice(end - size, end)
            for v, size, end in zip(order, sizes, accumulate(sizes))}
    X, MU, EPS = (np.concatenate([part[v] for v in order], axis=None)
                  for part in (state.x, state.mu, state.eps))
    n_single, n_relaxed = sum(sizes[:len(plan.single)]), span[g.output].start
    # Where each pull lands: onto a one-term vertex where its x sits,
    # onto a several-term vertex at its own place per edge after those.
    several: dict[tuple[VertexId, int], slice] = {}
    end = n_single
    for v in plan.several:
        for edge in g.parents[v]:
            several[edge] = slice(end, end + state.x[v].size)
            end += state.x[v].size
    PULL = np.zeros(end)
    IN, STEP, NEW = PULL[:n_single], np.zeros(n_relaxed), np.empty(n_relaxed)
    XR = X[:n_relaxed]  # the output is never relaxed
    in_step, in_eps = STEP[:n_single], EPS[:n_single]
    old_bits, new_bits = XR.view(np.int64), NEW.view(np.int64)
    differs = np.empty(n_relaxed, dtype=bool)

    def view(buf: Array, v: VertexId) -> Array:
        return buf[span[v]].reshape(state.x[v].shape)

    x = {v: view(X, v) for v in state.x}  # the region, popped by the cone
    mu = {v: view(MU, v) for v in state.x}
    eps = {v: view(EPS, v) for v in state.x}
    values = {**state.params, **x}  # what every vertex presents
    into = {g.parents[v][0]: view(PULL, v) for v in plan.single}  # by edge
    for (p, s), where in several.items():
        into[p, s] = PULL[where].reshape(
            state.x[g.vertices[p].children[s]].shape)
    slots = g.internal_slots
    sums = {v: view(STEP, v) for v in plan.several}
    relaxed = [v for v, size in zip(order[:-1], sizes) if size]
    heads = np.array([span[v].start for v in relaxed], dtype=np.intp)
    relaxed = np.array(relaxed, dtype=np.intp)
    frozen = np.zeros(n_relaxed, dtype=bool)  # left the region
    grouped = frozenset().union(*plan.groups)
    lays = bool(grouped) and schedule.steps > _LAYOUT_STEPS  # may batch
    made: dict[frozenset[VertexId], list[_Group]] = {}  # on first use
    # The 0-d values the rule would hold as NumPy scalars: those that
    # start as one and those that moved (relax returns a scalar).
    scalars = {v for v, val in state.x.items() if isinstance(val, np.generic)}
    shown = (dict(state.x), dict(state.mu), dict(state.eps)) \
        if record_trace else ()

    def batched(due: list[VertexId], call) -> list[VertexId]:
        """``call`` each group with enough ``due`` members; the due
        vertices left to run per vertex, ascending."""
        if len(grouped.intersection(due)) < _MIN_DUE:
            return due
        done: set[VertexId] = set()
        try:
            for members in plan.groups:
                if len(members.intersection(due)) < _MIN_DUE:
                    continue
                if members not in made:
                    if schedule.steps - t < _LAYOUT_STEPS:
                        continue
                    made[members] = _split(g, members, state, x, span,
                                           several, cone,
                                           np.arange(max(X.size, PULL.size)))
                for grp in made[members]:
                    hit = set(grp.members[:grp.live]).intersection(due)
                    if len(hit) >= _MIN_DUE and call(grp):
                        done |= hit
        except DomainError:
            return due
        return [v for v in due if v not in done] if done else due

    changed = set(x)  # vertices whose eps was recomputed; step 0: all
    per_leaf: dict[VertexId, Array] = {}
    snapshots: list[PCState] = []
    for t in range(schedule.steps):
        due = schedule.leaves_at(t)
        if record_trace:
            snapshots.append(PCState(x=dict(shown[0]), mu=dict(shown[1]),
                                     eps=dict(shown[2]), t=t,
                                     params=state.params))
        if due:  # untraced, the reads take the live views and keep none
            now = snapshots[-1] if record_trace else PCState(
                x=x, mu=mu, eps=eps, t=t, params=state.params)
            per_leaf.update(extract_updates(now, g, lr, only=set(due)))
        last = t == schedule.steps - 1
        if last and t > 0:
            break
        if t == 0:  # every vertex, one by one: a layout pays only later
            pulled = todo = sorted(p for p in changed
                                   if g.vertices[p].children)
        else:
            pulled = sorted(p for p in changed if slots[p])
            todo = batched(pulled, lambda grp: grp.pull(X, EPS, PULL)) \
                if lays else pulled
        for p in todo:
            back = pull_back(g, p, values, eps[p], slots[p])
            for s in slots[p]:
                into[p, s][...] = back[s]
        if last:  # a one-step run pulls only for backprop's domain checks
            break
        if cone is not None:
            for v in cone[t]:
                for region in (x, mu, eps, *shown):
                    region.pop(v, None)
                if v in span and v != g.output:
                    frozen[span[v]] = True
            for grps in made.values():
                for grp in grps:
                    while grp.live and grp.members[grp.live - 1] not in x:
                        grp.live -= 1
        np.subtract(IN, in_eps, out=in_step)
        np.add(in_step, 0.0, out=in_step)
        try:
            if plan.several:
                stale = changed.intersection(plan.several).union(
                    *(plan.several_children[p] for p in pulled))
                for v in sorted(stale.intersection(x)):
                    sums[v][...] = fsum_arrays(
                        [-eps[v], *(into[edge] for edge in g.parents[v])])
        except NonFiniteSum:
            finite = False
        else:
            finite = all_finite(STEP)
        if finite:
            np.multiply(STEP, schedule.gamma, out=NEW)
            np.add(XR, NEW, out=NEW)
        else:
            np.copyto(NEW, XR)
            stale = changed.union(*({g.vertices[p].children[s]
                                     for s in slots[p]} for p in pulled))
            for v in sorted(stale.intersection(x).difference([g.output])):
                view(NEW, v)[...] = relax(x[v][()] if v in scalars else x[v],
                                          eps[v], [into[edge] for edge
                                                   in g.parents[v]],
                                          schedule.gamma)
        if cone is not None:
            np.copyto(NEW, XR, where=frozen)
        # Bytes, not values: a -0.0 that becomes 0.0 is a move.
        np.not_equal(new_bits, old_bits, out=differs)
        moved = (relaxed[np.logical_or.reduceat(differs, heads)].tolist()
                 if np.count_nonzero(differs) else [])
        np.copyto(XR, NEW)
        scalars.update(moved)
        evaluated = sorted({p for v in moved for p, _slot in g.parents[v]
                            if p in mu})
        for v in batched(evaluated, lambda grp: grp.predict(X, MU)) \
                if lays else evaluated:
            mu[v][...] = evaluate(g, v, values)
        np.subtract(X, MU, out=EPS)
        changed = set(moved).union(evaluated)
        for live, region, fresh in zip((x, mu, eps), shown,
                                       (moved, evaluated, changed)):
            for v in fresh:
                region[v] = live[v].copy()
    return per_leaf, tuple(snapshots)


@dataclass(frozen=True)
class ZilTrace:
    """Per-step state snapshots plus the recorded per-leaf updates.

    ``snapshots[t]`` is the state each step's updates were read from
    (before that step's relaxation was applied).  It holds the step's
    region only: the internal vertices at level >= t when every leaf is
    read at level(leaf) - 1 on a levelled graph, else every internal
    vertex.  Arrays that did not change are shared between snapshots.
    ``updates`` holds the per-leaf deltas; each of rank 1 or more is
    read-only and is the very array of its free leaf's entry in the
    run's report.
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

    One forward pass, after the checks of :func:`init_state`, comes
    before the schedule's check.  The wavefront engine takes the run
    where it is exact as written: every leaf read at level(leaf) - 1 on
    a levelled graph, no shift, no trace, and no -0.0, inf or nan among
    the internal forward values.  Else the step engine runs from the
    state of :func:`init_state`; where every leaf is read at
    level(leaf) - 1 it keeps only the light cone, at step t the internal
    vertices at level >= t, which is closed under the rule (level k is
    updated from levels k - 1, k and k + 1) and holds all that the reads
    and the checks of :mod:`.zil` use.  The trace and the report share
    each free leaf's delta, read-only (see :class:`ZilTrace`).
    """
    check_real(lr, "learning rate lr")
    at_levels = _reads_at_levels(g, schedule)
    mu = _start(g, params, y)
    _check_schedule(g, schedule)
    if at_levels and shift == 0.0 and not record_trace and _plain(
            np.concatenate([mu[v] for v in g.internal_ids], axis=None)):
        per_leaf = _wavefront(g, mu, y, lr, schedule.gamma)
        snapshots: tuple[PCState, ...] = ()
    else:
        state = _state(g, mu, y)
        if shift != 0.0:
            state = _perturb(state, g, shift)
        cone = level_structure(g).buckets if at_levels else None
        per_leaf, snapshots = relax_schedule(g, state, lr, schedule, cone,
                                             record_trace)
    _read_only(per_leaf)
    report = make_report(g, label, per_leaf)
    _read_only(report.updates)
    return report, ZilTrace(snapshots, per_leaf, schedule)


def _check_gamma(gamma: float) -> None:
    if not (is_finite_real(gamma) and gamma > 0):
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
    return all(levels.get(v) == when + 1  # unchecked: v may be anything
               for v, when in schedule.update_times.items())


def _wavefront(g: Graph, mu: dict[VertexId, Array], y: float, lr: float,
               gamma: float) -> dict[VertexId, Array]:
    """One reverse sweep from the forward values ``mu`` in which every
    internal vertex settles by the Z-IL rule.

    By the quiet window (see :func:`zil.check_quiet_window`) a vertex
    at level k, and everything below it, still holds x0 = mu0 when the
    wavefront reaches it at step k - 1; so it settles to relax(x0, eps0,
    arriving, gamma) - mu(x0 of its children), and a leaf reads its
    arriving pulls.  The caller vouches that no internal mu0 holds a
    -0.0, an inf or a nan (:func:`_plain`): there the step engine's
    quiet x0 + 0.0 has x0's bytes, eps0 is +0.0 and mu of the children
    is mu0, so nothing is evaluated again.
    """
    zeros: dict[tuple[int, ...], Array] = {}  # eps0 = +0.0, by shape

    def settle(vid: VertexId, terms: list[Array]) -> Array:
        x = mu[vid]
        if (eps := zeros.get(x.shape)) is None:
            eps = zeros[x.shape] = np.zeros(x.shape)
        return relax(x, eps, terms, gamma) - x

    signal = reverse_sweep(g, mu, as_f64(float(y)) - mu[g.output], settle)
    return {v: _scaled(lr, signal[v]) for v in g.trainable_leaves()}


def _plain(a: Array) -> bool:
    """Whether ``a + 0.0`` has the bytes of ``a`` and ``a - a`` is +0.0:
    whether ``a`` holds no -0.0 and no inf or nan."""
    return all_finite(a) and not (a.view(np.int64) == _NEG_ZERO).any()


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
