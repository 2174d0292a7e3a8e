"""Workloads, the four timed operations, and the gate on their results.

A workload is a fixed set of model instances.  One operation runs one
algorithm over every instance of the set (a sweep) through pcgraph's
public API, looked up on the package module at call time so that a
tracer can rebind it.  The gate measures Z-IL's distance from BP with
the benchmark's own arithmetic, and judges verdict rows against the
expectations written here rather than pcgraph's family tables.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

LR = 0.01
GAMMA_IL = 0.1
T_IL = 100
ACTIVATION = "tanh"
TARGET_OFFSET = 0.5
TOL_ZERO = 1e-9
TOL_POSITIVE = 1e-6
ABLATIONS = ("no_level_schedule", "nonzero_init_error", "gamma_half")
OPS = ("bp", "zil", "il", "verdict")

# Per ablation (in ABLATIONS order), the divergence from BP its row
# must exceed; None means no expectation.  With trainable leaves on
# more than one level every ablation diverges visibly.  The convolution's
# kernel taps all sit on one level, where an ablation may not diverge.
VISIBLE = (TOL_POSITIVE, TOL_POSITIVE, TOL_POSITIVE)
ANY = (None, None, None)
# At width 256 the second tanh layer can saturate, leaving the lower
# weights' gradients near 1e-8; halving gamma then changes the update
# by less than TOL_POSITIVE (24 of seeds 0-299), but never by zero.
WIDE = (TOL_POSITIVE, TOL_POSITIVE, 0.0)

# Per workload: (family, dims, raw_exact, ablation floors).  raw_exact
# says whether layer-indexed Z-IL on the graph as built must match BP
# (levelled families) or must visibly miss it (skip and gating blocks).
WORKLOADS = {
    # The default suite's seven desk-scale models: per-call overhead
    # dominates, and residual/attention need the leveller.
    "zoo-desk": (
        ("mlp", (4, 8, 1), True, VISIBLE),
        ("mlp", (4, 8, 8, 1), True, VISIBLE),
        ("mlp", (3, 6, 6, 4, 1), True, VISIBLE),
        ("conv1d", (6, 2), True, ANY),
        ("rnn", (3, 3, 4), True, VISIBLE),
        ("residual", (4, 4, 1), False, VISIBLE),
        ("attention", (4, 4), False, VISIBLE),
    ),
    # 41 levels of tied recurrent weights (seq_len, in, hidden): the
    # dense O(levels * |V|) schedule and traced snapshots dominate.
    "deep-rnn": (("rnn", (13, 4, 8), True, VISIBLE),),
    # 7 levels but ~82k weights: array kernels dominate.
    "wide-mlp": (("mlp", (64, 256, 256, 1), True, WIDE),),
}


@dataclass(frozen=True)
class Instance:
    label: str
    raw_exact: bool
    ablation_floors: tuple[float | None, ...]
    g: object
    lg: object
    params: dict
    y: float
    bp_flat: np.ndarray  # BP updates on the levelled graph, canonical order
    vertices: int
    levelled_vertices: int
    levels: int


def flat(updates) -> np.ndarray:
    """An update mapping (parameter key -> delta) as one vector."""
    return np.concatenate([np.ravel(np.asarray(v, dtype=np.float64))
                           for v in updates.values()])


def build_instances(pg, workload: str, seed: int) -> list[Instance]:
    out = []
    for family, dims, raw_exact, floors in WORKLOADS[workload]:
        g, params = pg.build_model(pg.ModelSpec(family, dims, ACTIVATION, seed))
        lg, report = pg.level(g)
        y = pg.forward(lg, params).output_value(lg) + TARGET_OFFSET
        bp = pg.backprop(lg, params, y, LR)
        out.append(Instance(
            label=f"{family}{'x'.join(map(str, dims))}", raw_exact=raw_exact,
            ablation_floors=floors,
            g=g, lg=lg, params=params, y=y, bp_flat=flat(bp.updates),
            vertices=len(g), levelled_vertices=len(lg),
            levels=report.structure.max_level))
    return out


# -- operations (the timed region) ----------------------------------------

def op_bp(pg, instances):
    return [pg.backprop(i.lg, i.params, i.y, LR).updates for i in instances]


def op_zil(pg, instances):
    return [pg.zil_train_step(i.lg, i.params, i.y, LR, "level_structured",
                              record_trace=False)[0].updates
            for i in instances]


def op_il(pg, instances):
    return [pg.il_train_step(i.lg, i.params, i.y, LR, GAMMA_IL, T_IL).updates
            for i in instances]


@dataclass(frozen=True)
class Verdict:
    rows: tuple[tuple[str, float, bool], ...]  # (row, divergence, ok)
    updates: tuple[dict, ...]
    trace: object  # the levelled Z-IL trace
    inserted: int


def op_verdict(pg, instances):
    """What the equivalence and ablation suites do per (model, seed)."""
    out = []
    for i in instances:
        rows = []
        bp = pg.make_report(i.g, "bp", pg.backprop(i.g, i.params, i.y, LR).per_leaf)
        raw, _ = pg.zil_train_step(i.g, i.params, i.y, LR, "layer_indexed",
                                   record_trace=False)
        div = pg.divergence(bp, raw)
        rows.append(("layer_indexed", div,
                     div <= TOL_ZERO if i.raw_exact else div > TOL_POSITIVE))
        lg, level_report = pg.level(i.g)
        lbp = pg.make_report(lg, "bp", pg.backprop(lg, i.params, i.y, LR).per_leaf)
        lzil, trace = pg.zil_train_step(lg, i.params, i.y, LR, "level_structured")
        quiet, _violations = pg.check_quiet_window(trace, lg)
        div = pg.divergence(lbp, lzil)
        rows.append(("level_structured+levelled", div, div <= TOL_ZERO and quiet))
        reports = [bp, raw, lbp, lzil]
        for which, floor in zip(ABLATIONS, i.ablation_floors):
            ablated = pg.zil_ablate(lg, i.params, i.y, LR, which)
            div = pg.divergence(lbp, ablated)
            rows.append((which, div, floor is None or div > floor))
            reports.append(ablated)
        out.append(Verdict(tuple(rows), tuple(r.updates for r in reports),
                           trace, level_report.inserted))
    return out


RUN = {"bp": op_bp, "zil": op_zil, "il": op_il, "verdict": op_verdict}


# -- the gate (outside the timed region) ----------------------------------

def vectors(op: str, result) -> list[np.ndarray]:
    """Every update vector an operation produced, in a fixed order."""
    if op == "verdict":
        return [flat(u) for v in result for u in v.updates]
    return [flat(u) for u in result]


def digest(op: str, result) -> str:
    h = hashlib.sha256()
    for vec in vectors(op, result):
        h.update(vec.tobytes())
    return h.hexdigest()


def gate(op: str, result, instances) -> list[str]:
    """Reasons the result is wrong; empty when it passes."""
    problems = []
    if op == "verdict":
        for inst, verdict in zip(instances, result):
            problems += [f"{inst.label} {row}: divergence {div:.3e}"
                         for row, div, ok in verdict.rows if not ok]
        return problems
    for inst, vec in zip(instances, vectors(op, result)):
        if vec.shape != inst.bp_flat.shape or not np.all(np.isfinite(vec)):
            problems.append(f"{inst.label}: malformed or non-finite updates")
        elif op == "zil":
            gap = float(np.linalg.norm(vec - inst.bp_flat))
            if gap > TOL_ZERO:
                problems.append(f"{inst.label}: Z-IL is {gap:.3e} from BP")
    return problems


def active_share(verdicts) -> tuple[int, int]:
    """(vertex-steps with nonzero error, vertex-steps relaxed) over the
    levelled Z-IL traces of a verdict."""
    active = total = 0
    for v in verdicts:
        for snap in v.trace.snapshots:
            total += len(snap.eps)
            active += sum(1 for e in snap.eps.values() if np.any(e != 0.0))
    return active, total
