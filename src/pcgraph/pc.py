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
from typing import Mapping, NamedTuple

import numpy as np

from .autodiff import (_leaf_sum, _read_only, arriving, check_real,
                       evaluate, forward, pull_back, pull_onto,
                       reverse_sweep, scalar_output)
from .errors import DomainError, GraphError, NonFiniteSum, NotLevelled
from .functions import KINDS, Batch, ElemFn
from .graph import Graph, VertexId, level_structure
from .numerics import (Array, all_finite, as_f64, fsum_arrays,
                       is_finite_real, is_integer, sum_of_squares)
from .report import UpdateReport, make_report


# Fewest vertices that the step engine runs as one group, and fewest
# due members for which it calls one.  A group call costs about what
# three vertex calls cost (measured on levelled rnn(T,4,8) for T = 4..13
# and on the zoo-desk models, in process), so it runs only where three
# or more members are due, and a group of fewer than four saves nothing.
GROUP_MIN = 4
_MIN_DUE = 3
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


class _Group(NamedTuple):
    """Internal vertices that one batch call (:class:`functions.Batch`)
    runs, and where their values live in the buffers of a step plan.

    The members share a function of a kind with a batch form, the
    pattern of internal and leaf children (at least one internal) and,
    for a stacked batch, their children's value shapes; a 0-d member
    only where the batch holds for it.  They are ordered by level,
    highest first (by id on a graph that is not levelled), so the light
    cone takes them out of the region from the end: a run keeps how
    many are still in it, ``live``, and calls a group on
    ``members[:live]``.  ``ins[s]`` holds the index of each member's
    input in slot s in X, ``out`` that of each member in MU and EPS,
    and ``onto[i]`` that of its pull onto ``slots[i]`` in PULL.  Each
    index array is laid out as the batch takes it (flat or stacked) and
    is read-only; its first ``cut[j]`` rows belong to the first j
    members.
    """

    fn: ElemFn
    batch: Batch
    members: tuple[VertexId, ...]
    slots: tuple[int, ...]
    ins: tuple[Array, ...]
    out: Array
    onto: tuple[Array, ...]
    cut: tuple[int, ...]

    def predict(self, live: int, X: Array, MU: Array) -> bool:
        """Write the first ``live`` members' predictions; False, writing
        none, where one is not finite."""
        c = self.cut[live]
        mu = self.batch.forward(self.fn, [X[at[:c]] for at in self.ins])
        if not all_finite(mu):
            return False
        MU[self.out[:c]] = mu
        return True

    def pull(self, live: int, X: Array, EPS: Array, PULL: Array) -> bool:
        """Write the first ``live`` members' pulls onto their internal
        slots; False, writing none, where one is not finite."""
        c = self.cut[live]
        back = self.batch.vjp(self.fn, [X[at[:c]] for at in self.ins],
                              EPS[self.out[:c]], self.slots)
        if not all(all_finite(back[s]) for s in self.slots):
            return False
        for s, onto in zip(self.slots, self.onto):
            PULL[onto[:c]] = back[s]
        return True


class _StepPlan(NamedTuple):
    """Where the step engine keeps the values of a graph whose vertex v
    holds values of shape ``shapes[v]`` (:func:`_step_plan`).

    X, MU and EPS hold the internal vertices in ``order``: those with
    one arriving term (one (parent, slot) entry in ``g.parents``), then
    those with more (``several``), each ascending, then the output;
    ``span[v]`` is v's part, and the first ``n_relaxed`` components are
    those of the relaxed vertices, all but the output's.  X then holds
    the leaves in ``fed``, which feed a group, so that a group gathers
    all its inputs from X.  PULL, of ``n_pull`` components, holds the
    pull arriving at each one-term vertex where its x sits, in its
    first ``n_single``, then one per edge into a several-term vertex;
    ``lands`` holds each edge into an internal vertex with its part of
    PULL and its pull's shape.  ``several_children[p]`` holds p's
    distinct internal children in ``several``.  ``relaxed`` holds the
    relaxed vertices whose value has a component, and ``heads`` where
    in X each starts; both are read-only.  ``groups`` are the
    :class:`_Group` plans of :data:`GROUP_MIN` or more members, and
    ``grouped`` their members.
    """

    shapes: tuple[tuple[int, ...], ...]
    order: tuple[VertexId, ...]
    fed: tuple[VertexId, ...]
    span: dict[VertexId, slice]
    n_single: int
    n_relaxed: int
    n_pull: int
    lands: tuple[tuple[tuple[VertexId, int], slice, tuple[int, ...]], ...]
    several: tuple[VertexId, ...]
    several_children: tuple[tuple[VertexId, ...], ...]
    relaxed: Array
    heads: Array
    groups: tuple[_Group, ...]
    grouped: frozenset[VertexId]


def _index(positions) -> Array:
    """``positions`` as a read-only index array."""
    index = np.array(positions, dtype=np.intp)
    index.flags.writeable = False
    return index


def _step_plan(g: Graph, shapes: tuple[tuple[int, ...], ...]) -> _StepPlan:
    """The step engine's plan for ``g`` with vertex v's value of shape
    ``shapes[v]``; kept on the graph until a run with other shapes
    replaces it."""
    if g._steps is not None and g._steps.shapes == shapes:
        return g._steps
    vs, slots = g.vertices, g.internal_slots
    try:
        levels = level_structure(g).levels
    except NotLevelled:
        levels = {}
    classes: dict[tuple, list[VertexId]] = {}
    for vid in sorted(g.internal_ids, key=lambda v: -levels.get(v, 0)):
        fn, kids = vs[vid].fn, vs[vid].children
        batch = KINDS[fn.kind].batch
        if slots[vid] and batch is not None and (batch.scalars
                                                 or shapes[vid] != ()):
            classes.setdefault((fn, tuple(vs[c].is_leaf for c in kids),
                                tuple(shapes[c] for c in kids)
                                if batch.stack else ()), []).append(vid)
    kept = [members for members in classes.values()
            if len(members) >= GROUP_MIN]
    single = [v for v in g.internal_ids if len(g.parents[v]) == 1]
    several = tuple(v for v in g.internal_ids if len(g.parents[v]) > 1)
    order = (*single, *several, g.output)
    fed = tuple(sorted({c for members in kept for m in members
                        for c in vs[m].children if vs[c].is_leaf}))
    sizes = [math.prod(shapes[v]) for v in (*order, *fed)]
    span = {v: slice(end - size, end)
            for v, size, end in zip((*order, *fed), sizes, accumulate(sizes))}
    lands = [(g.parents[v][0], span[v], shapes[v]) for v in single]
    end = n_single = span[order[len(single)]].start
    for v in several:
        size = span[v].stop - span[v].start
        for edge in g.parents[v]:
            lands.append((edge, slice(end, end + size), shapes[v]))
            end += size
    at = {edge: where for edge, where, _shape in lands}
    positions = np.arange(max(sum(sizes), end))

    def group(members: list[VertexId]) -> _Group:
        first = vs[members[0]]
        batch = KINDS[first.fn.kind].batch

        def laid(parts: list[slice], shape: tuple[int, ...]) -> Array:
            index = _index(np.concatenate([positions[p] for p in parts]))
            return index.reshape(len(members), *shape) if batch.stack \
                else index

        return _Group(
            first.fn, batch, tuple(members), slots[members[0]],
            tuple(laid([span[vs[m].children[s]] for m in members], shapes[c])
                  for s, c in enumerate(first.children)),
            laid([span[m] for m in members], shapes[members[0]]),
            tuple(laid([at[m, s] for m in members],
                       shapes[first.children[s]])
                  for s in slots[members[0]]),
            tuple(range(len(members) + 1)) if batch.stack else
            (0, *accumulate(math.prod(shapes[m]) for m in members)))

    many = set(several)
    relaxed = [v for v, size in zip(order[:-1], sizes) if size]
    groups = tuple(map(group, kept))
    g._steps = _StepPlan(
        shapes, order, fed, span, n_single, span[g.output].start, end,
        tuple(lands), several,
        tuple(tuple({v.children[s] for s in slots[v.id]} & many)
              for v in vs),
        _index(relaxed), _index([span[v].start for v in relaxed]),
        groups, frozenset().union(*(grp.members for grp in groups)))
    return g._steps


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
    float64 buffers, and a fourth holds the arriving pulls, laid out by
    the graph's step plan for the run's value shapes (:func:`_step_plan`,
    built on a graph's first run and reused while the shapes hold); the
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

    Predictions and pulls run per group of the plan where that pays:
    where three or more members of a group are due, one batch call
    (:class:`functions.Batch`) on rows gathered from the buffers
    computes and writes every member still in the region.  A member
    that was not due gets the bytes it holds, because the rule is pure;
    one that has left the region keeps what it last held, as it does
    when vertices run one by one, so the buffers hold the same bytes
    either way.  Where a batch result is not finite, the due members
    run per vertex; where a batch call raises a ``DomainError``, the
    whole phase reruns per vertex in ascending id, so the same vertex
    raises with the same message.

    With ``cone`` given, the vertices in ``cone[t]`` leave the region
    after step t's pulls; the caller vouches that no later step reads
    them.  ``snapshots[t]`` holds the region at step t when
    ``record_trace`` is set.  Snapshot 0 holds the start state's own
    arrays; a later one copies the values recomputed since the one
    before and shares every other array with it, so no snapshot holds
    a view of a buffer.
    """
    values = {**state.params, **state.x}  # what every vertex presents
    plan = _step_plan(g, tuple(values[v].shape for v in range(len(g))))
    span, shapes, several = plan.span, plan.shapes, plan.several
    X = np.concatenate([values[v] for v in (*plan.order, *plan.fed)],
                       axis=None)
    MU, EPS = (np.concatenate([part[v] for v in plan.order], axis=None)
               for part in (state.mu, state.eps))
    XI = X[:MU.size]  # the internal vertices' part
    n_single, n_relaxed = plan.n_single, plan.n_relaxed
    PULL = np.zeros(plan.n_pull)
    IN, STEP, NEW = PULL[:n_single], np.zeros(n_relaxed), np.empty(n_relaxed)
    XR = X[:n_relaxed]  # the output is never relaxed
    in_step, in_eps = STEP[:n_single], EPS[:n_single]
    old_bits, new_bits = XR.view(np.int64), NEW.view(np.int64)
    differs = np.empty(n_relaxed, dtype=bool)

    def view(buf: Array, v: VertexId) -> Array:
        return buf[span[v]].reshape(shapes[v])

    x = {v: view(X, v) for v in state.x}  # the region, popped by the cone
    mu = {v: view(MU, v) for v in state.x}
    eps = {v: view(EPS, v) for v in state.x}
    values.update(x)
    into = {edge: PULL[where].reshape(shape)
            for edge, where, shape in plan.lands}
    slots = g.internal_slots
    sums = {v: view(STEP, v) for v in several}
    frozen = np.zeros(n_relaxed, dtype=bool)  # left the region
    in_region = [len(grp.members) for grp in plan.groups]  # see _Group
    # The 0-d values the rule would hold as NumPy scalars: those that
    # start as one and those that moved (relax returns a scalar).
    scalars = {v for v, val in state.x.items() if isinstance(val, np.generic)}
    shown = (dict(state.x), dict(state.mu), dict(state.eps)) \
        if record_trace else ()

    def batched(due: list[VertexId], call) -> list[VertexId]:
        """``call`` each group with enough ``due`` members; the due
        vertices left to run per vertex, ascending."""
        if len(plan.grouped.intersection(due)) < _MIN_DUE:
            return due
        done: set[VertexId] = set()
        try:
            for grp, n in zip(plan.groups, in_region):
                hit = set(grp.members[:n]).intersection(due)
                if len(hit) >= _MIN_DUE and call(grp, n):
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
        pulled = sorted(p for p in changed
                        if slots[p] or not t and g.vertices[p].children)
        for p in batched(pulled, lambda grp, n: grp.pull(n, X, EPS, PULL)):
            back = pull_back(g, p, values, eps[p], slots[p])
            for s in slots[p]:
                into[p, s][...] = back[s]
        if last:  # a one-step run pulls only for backprop's domain checks
            break
        if cone is not None:
            for v in cone[t]:
                if v in x and v != g.output:
                    frozen[span[v]] = True
                for region in (x, mu, eps, *shown):
                    region.pop(v, None)
            for i, grp in enumerate(plan.groups):
                while in_region[i] and grp.members[in_region[i] - 1] not in x:
                    in_region[i] -= 1
        np.subtract(IN, in_eps, out=in_step)
        np.add(in_step, 0.0, out=in_step)
        try:
            if several:
                stale = changed.intersection(several).union(
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
        moved = (plan.relaxed[np.logical_or.reduceat(differs, plan.heads)]
                 .tolist() if np.count_nonzero(differs) else [])
        np.copyto(XR, NEW)
        scalars.update(moved)
        evaluated = sorted({p for v in moved for p, _slot in g.parents[v]
                            if p in mu})
        for v in batched(evaluated, lambda grp, n: grp.predict(n, X, MU)):
            mu[v][...] = evaluate(g, v, values)
        np.subtract(XI, MU, out=EPS)
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
