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

Every schedule runs through :func:`pc.run_schedule`, which picks the
engine; a traced run's snapshots hold the light cone when every leaf
is read at level(leaf) - 1 on a levelled graph.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Literal, Mapping

import numpy as np

from .errors import GraphError
from .graph import Graph, VertexId, level_structure, path_length_sets
from .numerics import Array
from .pc import ZilSchedule, ZilTrace, run_schedule
from .report import UpdateReport

Variant = Literal["level_structured", "layer_indexed"]


def make_schedule(g: Graph, variant: Variant) -> ZilSchedule:
    """Build the update schedule for a graph, at gamma = 1.

    ``level_structured`` raises :class:`NotLevelled` on graphs with
    ambiguous path lengths; ``layer_indexed`` runs on anything.
    """
    trainable = g.trainable_leaves()
    if not trainable:
        raise GraphError("no trainable leaves to schedule")
    if variant == "level_structured":
        structure = level_structure(g)
        times = {v: structure.levels[v] - 1 for v in trainable}
    elif variant == "layer_indexed":
        # a leaf's least root-path length is one past its parents' least
        lengths = path_length_sets(g)
        times = {v: min(lengths[v]) - 1 for v in trainable}
    else:
        raise GraphError(f"unknown schedule variant {variant!r}")
    return ZilSchedule(gamma=1.0, update_times=times)


def zil_train_step(g: Graph, params: Mapping[VertexId, Array], y: float,
                   lr: float = 0.01, variant: Variant = "level_structured",
                   *, record_trace: bool = True) -> tuple[UpdateReport, ZilTrace]:
    """One scheduled training step; returns the report and the trace.

    With ``variant="level_structured"`` on a levelled graph this
    reproduces the reverse-pass updates exactly (up to float64
    accumulation order, which the canonical sums remove).
    """
    return run_schedule(g, params, y, lr, make_schedule(g, variant),
                        f"zil/{variant}", record_trace=record_trace)


Ablation = Literal["no_level_schedule", "nonzero_init_error", "gamma_half"]

ABLATIONS: tuple[str, ...] = ("no_level_schedule", "nonzero_init_error",
                              "gamma_half")
PERTURBATION = 0.1  # the nonzero_init_error offset of every value node


def zil_ablate(g: Graph, params: Mapping[VertexId, Array], y: float,
               lr: float = 0.01,
               which: Ablation = "gamma_half") -> UpdateReport:
    """Deliberately violate one exactness condition and report the updates.

    ``no_level_schedule`` reads every leaf at the final step;
    ``nonzero_init_error`` starts the value nodes ``PERTURBATION`` off
    their predictions;
    ``gamma_half`` attenuates the error propagation.  Each one breaks
    the equivalence on any multi-level graph.
    """
    schedule = base = make_schedule(g, "level_structured")
    if which == "no_level_schedule":
        last = base.steps - 1
        schedule = replace(base, update_times={v: last for v in base.update_times})
    elif which == "gamma_half":
        schedule = replace(base, gamma=0.5)
    elif which != "nonzero_init_error":
        raise GraphError(f"unknown ablation {which!r}")
    shift = PERTURBATION if which == "nonzero_init_error" else 0.0
    report, _trace = run_schedule(g, params, y, lr, schedule, f"zil/{which}",
                                  shift=shift)
    return report


# -- instrumentation ------------------------------------------------------

def check_quiet_window(trace: ZilTrace, g: Graph) -> tuple[bool, list[tuple]]:
    """Verify that no error signal runs ahead of the level wavefront.

    For every internal vertex i and every recorded step t < level(i),
    the error must be exactly zero and the value node must still carry
    its initial value.  Returns (ok, violations) with each violation as
    (vertex, t, field, value).  Snapshots share the arrays that were
    not recomputed, so each error array is tested once per vertex.
    """
    structure = level_structure(g)
    violations: list[tuple] = []
    if not trace.snapshots:
        return True, violations
    first = trace.snapshots[0]
    for vid in g.internal_ids:
        loudest: dict[int, float | None] = {}  # id(eps) -> max |eps| if nonzero
        for t, snap in enumerate(trace.snapshots[:structure.levels[vid]]):
            eps = snap.eps[vid]
            if id(eps) not in loudest:
                loudest[id(eps)] = (float(np.max(np.abs(eps)))
                                    if eps.any() else None)
            if loudest[id(eps)] is not None:
                violations.append((vid, t, "eps", loudest[id(eps)]))
            if (snap.x[vid] is not first.x[vid]
                    and not np.array_equal(snap.x[vid], first.x[vid])):
                violations.append((vid, t, "x",
                                   float(np.max(np.abs(snap.x[vid] - first.x[vid])))))
    return not violations, violations
