"""Zero-divergence inference learning: level-scheduled predictive coding.

Plain inference learning approximates reverse-mode gradients.  Three
extra conditions make it *exact*:

1. zero-error initialization (every value node starts at its own
   prediction, so the only nonzero error is at the clamped output);
2. integration step gamma = 1 (errors propagate without attenuation);
3. each leaf is updated at the single step at which its parents' errors
   have just settled, before relaxation carries them further.

Under synchronous updates the error wavefront descends exactly one
level per inference step, so a leaf whose parents sit at level k-1 must
be read at step t = k-1, counting the initial clamped state as t = 0.
Updates are computed from the pre-step state of that iteration, and
parameters are never mutated mid-schedule.

Two schedule variants:

* ``level_structured`` — requires a levelled graph; update time is
  level(leaf) - 1.  Exact on every levelled graph.
* ``layer_indexed`` — the original chain-network schedule; update time
  is the minimum distance of the leaf's parent from the output.  Exact
  on levelled graphs (where minimum distance *is* the level) and
  generally wrong on graphs with unequal path lengths, which is the
  failure the leveller repairs.

Two engines run a schedule, chosen from the run's inputs:

* the wavefront engine, when the graph is levelled, the start is
  zero-error, no trace is recorded, and every leaf is read at
  level(leaf) - 1 (``level_structured``, ``layer_indexed`` on a
  levelled graph, the ``gamma_half`` ablation).  Step t pulls back
  only through level t, so a run costs about one reverse pass;
* the dense engine otherwise (traced runs, unlevelled graphs, the
  ``no_level_schedule`` and ``nonzero_init_error`` ablations).  It
  relaxes every value node at every step and is the oracle the
  wavefront engine matches byte for byte.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Literal, Mapping

import numpy as np

from .autodiff import arriving, evaluate, pull_back
from .errors import BadGamma, GraphError, NotLevelled
from .graph import Graph, LevelStructure, VertexId, level_structure, min_distances
from .numerics import Array, as_f64, fsum_arrays
from .pc import PCState, _with_values, extract_updates, inference_step, init_state
from .report import UpdateReport, make_report

Variant = Literal["level_structured", "layer_indexed"]


@dataclass(frozen=True)
class ZilSchedule:
    """When each trainable leaf reads its parents' errors."""

    variant: str
    gamma: float
    steps: int
    update_times: dict[VertexId, int]
    _due: dict[int, tuple[VertexId, ...]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        due: dict[int, list[VertexId]] = {}
        for v in sorted(self.update_times):
            due.setdefault(self.update_times[v], []).append(v)
        object.__setattr__(self, "_due",
                           {t: tuple(vs) for t, vs in due.items()})

    def leaves_at(self, t: int) -> tuple[VertexId, ...]:
        return self._due.get(t, ())


@dataclass(frozen=True)
class ZilTrace:
    """Per-step state snapshots plus the recorded per-leaf updates.

    ``snapshots[t]`` is the state each step's updates were read from
    (before that step's relaxation was applied).
    """

    snapshots: tuple[PCState, ...]
    updates: dict[VertexId, Array]
    schedule: ZilSchedule


def make_schedule(g: Graph, variant: Variant, gamma: float = 1.0, *,
                  allow_bad_gamma: bool = False) -> ZilSchedule:
    """Build the update schedule for a graph.

    ``level_structured`` raises :class:`NotLevelled` on graphs with
    ambiguous path lengths; ``layer_indexed`` runs on anything.  Any
    gamma other than 1 is rejected unless the ablation flag is set.
    """
    if gamma != 1.0 and not allow_bad_gamma:
        raise BadGamma(gamma)
    trainable = g.trainable_leaves()
    if not trainable:
        raise GraphError("no trainable leaves to schedule")
    if variant == "level_structured":
        structure = level_structure(g)
        times = {v: structure.levels[v] - 1 for v in trainable}
    elif variant == "layer_indexed":
        dist = min_distances(g)
        times = {v: min(dist[p] for p, _slot in g.parents[v])
                 for v in trainable}
    else:
        raise GraphError(f"unknown schedule variant {variant!r}")
    steps = max(times.values()) + 1
    return ZilSchedule(variant=variant, gamma=gamma, steps=steps,
                       update_times=times)


def _run_schedule(g: Graph, params: Mapping[VertexId, Array], y: float,
                  lr: float, schedule: ZilSchedule, *,
                  init_perturbation: float = 0.0,
                  record_trace: bool = True) -> tuple[dict[VertexId, Array], ZilTrace, float]:
    """Run a schedule on the wavefront engine when its inputs allow, else dense.

    The wavefront engine needs a levelled graph, a zero-error start, no
    recorded trace, and every leaf read at level(leaf) - 1; both engines
    give the same bytes there.
    """
    start = time.perf_counter()
    structure = None
    if init_perturbation == 0.0 and not record_trace:
        structure = _wavefront_levels(g, schedule)
    if structure is not None:
        per_leaf = _wavefront(g, structure, params, y, lr, schedule)
        snapshots: tuple[PCState, ...] = ()
    else:
        per_leaf, snapshots = _dense(g, params, y, lr, schedule,
                                     init_perturbation, record_trace)
    trace = ZilTrace(snapshots=snapshots, updates=dict(per_leaf),
                     schedule=schedule)
    return per_leaf, trace, time.perf_counter() - start


def _wavefront_levels(g: Graph, schedule: ZilSchedule) -> LevelStructure | None:
    """The graph's levels if every leaf is read at level(leaf) - 1, else None."""
    try:
        structure = level_structure(g)
    except NotLevelled:
        return None
    if all(when == structure.levels[v] - 1
           for v, when in schedule.update_times.items()):
        return structure
    return None


def _dense(g: Graph, params: Mapping[VertexId, Array], y: float, lr: float,
           schedule: ZilSchedule, init_perturbation: float,
           record_trace: bool) -> tuple[dict[VertexId, Array], tuple[PCState, ...]]:
    """Relax every value node at every step (the oracle engine)."""
    state = init_state(g, params, y, "zero_error")
    if init_perturbation != 0.0:
        state = _perturb(state, g, init_perturbation)
    per_leaf: dict[VertexId, Array] = {}
    snapshots: list[PCState] = []
    for t in range(schedule.steps):
        if record_trace:
            snapshots.append(state)
        due = schedule.leaves_at(t)
        if due:
            per_leaf.update(extract_updates(state, g, lr, only=set(due)))
        if t < schedule.steps - 1:
            state = inference_step(state, g, schedule.gamma)
    return per_leaf, tuple(snapshots)


def _wavefront(g: Graph, structure: LevelStructure,
               params: Mapping[VertexId, Array], y: float, lr: float,
               schedule: ZilSchedule) -> dict[VertexId, Array]:
    """Step t pulls back only through the internal vertices at level t.

    By the quiet window (see :func:`check_quiet_window`) every vertex
    below level t still holds its initial value and zero error at step
    t, so the level-t errors left by step t-1 are all the step needs.
    One pull set serves the leaves due at t and advances level t+1.
    The arithmetic is the dense step's: a quiet value node presents
    x0 at t = 0 and x0 + 0.0 afterwards (the dense step adds +0.0 to
    it), and a vertex reached by the wavefront takes
    x + gamma * fsum([-eps0, *arriving]) with eps = x - mu.
    """
    state = init_state(g, params, y, "zero_error")
    values = {**state.params, **state.x}  # what each vertex presents at t
    eps = {g.output: state.eps[g.output]}  # errors of the level-t vertices
    per_leaf: dict[VertexId, Array] = {}
    for t in range(schedule.steps):
        pulls = {j: pull_back(g, j, values, e) for j, e in eps.items()}
        for vid in schedule.leaves_at(t):
            per_leaf[vid] = lr * fsum_arrays(arriving(g, vid, pulls))
        if t == schedule.steps - 1:
            break
        front = [v for v in structure.members(t + 1) if g.vertices[v].children]
        new_x = {v: values[v] + schedule.gamma * fsum_arrays(
                     [-state.eps[v], *arriving(g, v, pulls)]) for v in front}
        if t == 0:
            values = {**state.params,
                      **{v: x + 0.0 for v, x in state.x.items()}}
        eps = {v: new_x[v] - evaluate(g, v, values) for v in front}
    return per_leaf


def _perturb(state: PCState, g: Graph, amount: float) -> PCState:
    """Shift every unclamped internal value node by a constant offset."""
    new_x = {}
    for vid, val in state.x.items():
        if state.clamp is not None and vid == g.output:
            new_x[vid] = val
        else:
            new_x[vid] = val + amount
    return _with_values(g, new_x, state.params, state.t, state.clamp)


def zil_train_step(g: Graph, params: Mapping[VertexId, Array], y: float,
                   lr: float = 0.01, variant: Variant = "level_structured",
                   *, gamma: float = 1.0, allow_bad_gamma: bool = False,
                   record_trace: bool = True) -> tuple[UpdateReport, ZilTrace]:
    """One scheduled training step; returns the report and the full trace.

    With ``variant="level_structured"`` on a levelled graph this
    reproduces the reverse-pass updates exactly (up to float64
    accumulation order, which the canonical sums remove).
    """
    schedule = make_schedule(g, variant, gamma, allow_bad_gamma=allow_bad_gamma)
    per_leaf, trace, elapsed = _run_schedule(
        g, params, y, lr, schedule, record_trace=record_trace)
    report = make_report(g, f"zil/{variant}", per_leaf,
                         wall_time=elapsed, steps=schedule.steps)
    return report, trace


Ablation = Literal["no_level_schedule", "nonzero_init_error", "gamma_half"]

ABLATIONS: tuple[str, ...] = ("no_level_schedule", "nonzero_init_error",
                              "gamma_half")


def zil_ablate(g: Graph, params: Mapping[VertexId, Array], y: float,
               lr: float = 0.01, which: Ablation = "gamma_half",
               *, perturbation: float = 0.1) -> UpdateReport:
    """Deliberately violate one exactness condition and report the updates.

    ``no_level_schedule`` reads every leaf at the final step;
    ``nonzero_init_error`` starts the value nodes off their predictions;
    ``gamma_half`` attenuates the error propagation.  Each one breaks
    the equivalence on any multi-level graph.
    """
    base = make_schedule(g, "level_structured")
    if which == "no_level_schedule":
        last = base.steps - 1
        schedule = ZilSchedule(variant="ablate/no_level_schedule",
                               gamma=1.0, steps=base.steps,
                               update_times={v: last for v in base.update_times})
        per_leaf, _trace, elapsed = _run_schedule(
            g, params, y, lr, schedule, record_trace=False)
    elif which == "nonzero_init_error":
        per_leaf, _trace, elapsed = _run_schedule(
            g, params, y, lr, base, init_perturbation=perturbation,
            record_trace=False)
    elif which == "gamma_half":
        schedule = make_schedule(g, "level_structured", gamma=0.5,
                                 allow_bad_gamma=True)
        per_leaf, _trace, elapsed = _run_schedule(
            g, params, y, lr, schedule, record_trace=False)
    else:
        raise GraphError(f"unknown ablation {which!r}")
    return make_report(g, f"zil/{which}", per_leaf,
                       wall_time=elapsed, steps=base.steps)


# -- instrumentation ------------------------------------------------------

def check_quiet_window(trace: ZilTrace, g: Graph) -> tuple[bool, list[tuple]]:
    """Verify that no error signal runs ahead of the level wavefront.

    For every internal vertex i and every recorded step t < level(i),
    the error must be exactly zero and the value node must still carry
    its initial value.  Returns (ok, violations) with each violation as
    (vertex, t, field, value).
    """
    structure = level_structure(g)
    violations: list[tuple] = []
    if not trace.snapshots:
        return True, violations
    first = trace.snapshots[0]
    for vid in g.internal_ids:
        lvl = structure.levels[vid]
        for t, snap in enumerate(trace.snapshots):
            if t >= lvl:
                break
            if not np.all(snap.eps[vid] == 0.0):
                violations.append((vid, t, "eps",
                                   float(np.max(np.abs(snap.eps[vid])))))
            if not np.array_equal(snap.x[vid], first.x[vid]):
                violations.append((vid, t, "x",
                                   float(np.max(np.abs(snap.x[vid] - first.x[vid])))))
    return not violations, violations


def check_wavefront_recursion(trace: ZilTrace, g: Graph, *, tol: float = 1e-9) -> bool:
    """Verify the one-step error recursion at each vertex's settling time.

    At t = level(j) the error of vertex j must equal gamma times the
    pulled-back errors of its parents read one step earlier, because
    that is the only step at which the wavefront crosses the edge.
    Checked against a from-scratch recomputation out of the trace.
    """
    structure = level_structure(g)
    gamma = trace.schedule.gamma
    for t in range(1, len(trace.snapshots)):
        prev, now = trace.snapshots[t - 1], trace.snapshots[t]
        settling = [j for j in structure.members(t) if not g.vertices[j].is_leaf]
        values = {**prev.params, **prev.x}
        pulls = {p: pull_back(g, p, values, prev.eps[p])
                 for p in {p for j in settling for p, _slot in g.parents[j]}}
        for jid in settling:
            expected = gamma * fsum_arrays(arriving(g, jid, pulls))
            if not np.allclose(as_f64(now.eps[jid]), expected, atol=tol, rtol=0.0):
                return False
    return True
