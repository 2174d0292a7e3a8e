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

Two engines run a schedule, chosen from the run's inputs.  The
wavefront engine is one reverse sweep (:func:`autodiff.reverse_sweep`,
the walk backprop takes) in which a value node settles to the error
relax(x0, eps0, arriving, gamma) - mu where backprop sums.  It runs
when the graph is levelled, the start is zero-error, no trace is
recorded and every leaf is read at level(leaf) - 1.  The dense engine
relaxes every value node at every step; it runs the rest (traced runs,
unlevelled graphs, ``no_level_schedule``, ``nonzero_init_error``) and
is the oracle the sweep matches byte for byte.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Literal, Mapping

import numpy as np

from .autodiff import arriving, evaluate, pull_back, reverse_sweep
from .errors import BadGamma, GraphError, NotLevelled
from .graph import Graph, VertexId, level_structure, min_distances
from .numerics import Array, as_f64, fsum_arrays
from .pc import (PCState, _with_values, extract_updates, inference_step,
                 init_state, relax)
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
    """Run a schedule on the wavefront engine when its inputs allow, else dense."""
    start = time.perf_counter()
    if (init_perturbation == 0.0 and not record_trace
            and _reads_at_levels(g, schedule)):
        per_leaf = _wavefront(g, params, y, lr, schedule.gamma)
        snapshots: tuple[PCState, ...] = ()
    else:
        per_leaf, snapshots = _dense(g, params, y, lr, schedule,
                                     init_perturbation, record_trace)
    trace = ZilTrace(snapshots=snapshots, updates=dict(per_leaf),
                     schedule=schedule)
    return per_leaf, trace, time.perf_counter() - start


def _reads_at_levels(g: Graph, schedule: ZilSchedule) -> bool:
    """Whether the graph is levelled and every leaf is read at level(leaf) - 1."""
    try:
        levels = level_structure(g).levels
    except NotLevelled:
        return False
    return all(when == levels[v] - 1
               for v, when in schedule.update_times.items())


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


def _wavefront(g: Graph, params: Mapping[VertexId, Array], y: float,
               lr: float, gamma: float) -> dict[VertexId, Array]:
    """One reverse sweep whose internal vertices settle by the Z-IL rule.

    By the quiet window (see :func:`check_quiet_window`) a vertex at
    level k still holds x0 when the wavefront reaches it at step k - 1,
    and so does everything below it; so the error it settles to is
    relax(x0, eps0, arriving, gamma) - mu(x0 of its children), and a
    leaf reads its arriving pulls.  A value node presents x0 + 0.0, as
    the dense step leaves a quiet node; where the dense engine reads a
    raw x0 (at t = 0) the two differ at most in the sign of a zero, and
    the ``+ 0.0`` of every leaf sum removes that.
    """
    state = init_state(g, params, y, "zero_error")
    values = {**state.params, **{v: x + 0.0 for v, x in state.x.items()}}

    def settle(vid: VertexId, terms: list[Array]) -> Array:
        return (relax(values[vid], state.eps[vid], terms, gamma)
                - evaluate(g, vid, values))

    signal = reverse_sweep(g, values, state.eps[g.output], settle)
    return {v: lr * signal[v] for v in g.trainable_leaves()}


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
    schedule = base = make_schedule(g, "level_structured")
    if which == "no_level_schedule":
        last = base.steps - 1
        schedule = ZilSchedule(variant="ablate/no_level_schedule",
                               gamma=1.0, steps=base.steps,
                               update_times={v: last for v in base.update_times})
    elif which == "gamma_half":
        schedule = make_schedule(g, "level_structured", gamma=0.5,
                                 allow_bad_gamma=True)
    elif which != "nonzero_init_error":
        raise GraphError(f"unknown ablation {which!r}")
    shift = perturbation if which == "nonzero_init_error" else 0.0
    per_leaf, _trace, elapsed = _run_schedule(
        g, params, y, lr, schedule, init_perturbation=shift, record_trace=False)
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
