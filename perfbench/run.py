"""pcgraph benchmark: update time and time-to-verdict per workload.

Run from the repository root:

    python3 perfbench/run.py --workload deep-rnn --seed 0 --seconds 38 --trace 0

A single-process, single-threaded closed loop with one caller: BLAS is
pinned to one thread and each operation starts when the previous one
returned.  ``--trace 0`` times the four operations (see ops.py) for
``--seconds`` and reports the end-to-end metrics; ``--trace 1`` runs an
untraced pass and two traced passes and reports per-layer metrics.
Every operation's result goes through the gate in ops.py; with the
default seed its update digest must also equal the one in
digests.json.  Human-readable lines come first; the last line of
standard output is one JSON object.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import importlib
import json
import math
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import ops
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 0
SETUPS = 5          # set-ups per run; setup_s is their median
SLICE_S = 0.02      # a cheap operation repeats until its turn used this long
TRACE_SHARE = 0.25  # share of --seconds the untraced pass of a traced run gets


def fresh_import():
    """Import pcgraph from this checkout's sources, discarding any
    previously imported copy, so each set-up pays the import."""
    for name in [m for m in sys.modules
                 if m == "pcgraph" or m.startswith("pcgraph.")]:
        del sys.modules[name]
    pg = importlib.import_module("pcgraph")
    if Path(pg.__file__).resolve().parent != SRC / "pcgraph":
        raise SystemExit(f"error: imported pcgraph from {pg.__file__}, "
                         f"not from {SRC}")
    return pg


def setup(workload: str, seed: int):
    """Import, build and level the instances, then warm up every operation."""
    pg = fresh_import()
    instances = ops.build_instances(pg, workload, seed)
    for op in ops.OPS:
        timed(op, pg, instances)  # failures are counted in the timed loop
    return pg, instances


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """(q, value): the highest percentile up to 90 with at least ten
    samples above it (never below the median), by nearest rank."""
    ordered = sorted(samples)
    n = len(ordered)
    q = max(0.5, min(0.9, 1.0 - 10.0 / n))
    return q, max(ordered[math.ceil(q * n) - 1], statistics.median(ordered))


class Checker:
    """Applies the gate and, for the default seed, the stored digests."""

    def __init__(self, workload: str, seed: int, instances):
        self.instances = instances
        self.expected = {}
        if seed == DEFAULT_SEED:
            self.expected = json.loads(DIGESTS.read_text())[workload]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, op: str, result, reference: str | None = None):
        """Gate one operation's result; compare its digest with
        `reference` if given, else with the stored one for the seed."""
        if isinstance(result, Exception):
            digest, problems = None, [f"{op} raised {result!r}"]
        else:
            digest = ops.digest(op, result)
            problems = ops.gate(op, result, self.instances)
            expected = reference or self.expected.get(op)
            if expected is not None and digest != expected:
                problems.append(f"{op} digest {digest[:12]} differs from "
                                f"{expected[:12]}")
        self.attempted += 1
        if problems:
            self.fail(problems, 1)
        return digest

    def fail(self, problems: list[str], operations: int) -> None:
        self.failed += operations
        self.problems.extend(problems)


def timed(op: str, pg, instances):
    """(result, seconds) of one operation; an exception is its result."""
    start = time.perf_counter()
    try:
        result = ops.RUN[op](pg, instances)
    except Exception as exc:  # a failed operation is counted, not fatal
        result = exc
    return result, time.perf_counter() - start


def timed_rounds(pg, instances, checker, until: float):
    """Round-robin over the operations until the deadline.

    Each round runs every operation at least once and repeats a cheap
    one until its turn used SLICE_S.  Returns the samples per operation.
    """
    samples = {op: [] for op in ops.OPS}
    clock = time.perf_counter
    while not samples["bp"] or clock() < until:
        for op in ops.OPS:
            turn_end = clock() + SLICE_S
            while True:
                result, seconds = timed(op, pg, instances)
                samples[op].append(seconds)
                checker.check(op, result)
                if clock() >= turn_end:
                    break
    return samples


def provenance(pg, args, instances) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "code_version": pg.code_version(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
        "workload": args.workload,
        "seed": args.seed,
        "graphs": [{"model": i.label, "vertices": i.vertices,
                    "levelled_vertices": i.levelled_vertices,
                    "levels": i.levels,
                    "trainable_components": int(i.bp_flat.size)}
                   for i in instances],
    }


def end_to_end(args, pg, instances, checker, setup_times):
    gc.collect()
    samples = timed_rounds(pg, instances, checker,
                           time.perf_counter() + args.seconds)
    metrics = {"setup_s": (statistics.median(setup_times), "s")}
    # The medians are printed but not gated: see NOTES.md, "Noise".
    medians = {}
    for op, values in samples.items():
        stem = "verdict" if op == "verdict" else f"{op}_update"
        q, tail = tail_percentile(values)
        medians[op] = statistics.median(values)
        metrics[f"{stem}_p90_s"] = (tail, "s")
        print(f"# {op}: n={len(values)}, p90 column is p{round(q * 100)}")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = (peak_kb / 1024.0, "MB")
    printed = {
        **{("verdict" if op == "verdict" else f"{op}_update") + "_p50_s":
           (median, "s") for op, median in medians.items()},
        "failed_share": (checker.failed / checker.attempted, "ratio"),
        "zil_over_bp": (medians["zil"] / medians["bp"], "ratio"),
        "il_over_zil": (medians["il"] / medians["zil"], "ratio"),
    }
    for name, (value, unit) in {**metrics, **printed}.items():
        print(f"{name:18s} {value:.6g} {unit}")
    return metrics


# Per-layer metric -> (operation it is averaged over, span, statistic).
# Each layer metric is per operation of the first end-to-end metric it
# should move; graph.level_structure is per verdict because BP never
# calls it, and models.build_model is per build of the workload.
LAYER_STATS = {
    "numerics.fsum_arrays.self_s": ("zil", "numerics.fsum_arrays", "self_s"),
    "numerics.fsum_arrays.calls": ("zil", "numerics.fsum_arrays", "calls"),
    "numerics.fsum_arrays.components":
        ("zil", "numerics.fsum_arrays.components", "count"),
    "functions.ElemFn.call.self_s": ("zil", "functions.ElemFn.call", "self_s"),
    "functions.ElemFn.call.calls": ("zil", "functions.ElemFn.call", "calls"),
    "functions.ElemFn.vjp.self_s": ("zil", "functions.ElemFn.vjp", "self_s"),
    "functions.ElemFn.vjp.calls": ("zil", "functions.ElemFn.vjp", "calls"),
    "pc.init_state.self_s": ("zil", "pc.init_state", "self_s"),
    "pc.inference_step.self_s": ("zil", "pc.inference_step", "self_s"),
    "pc.inference_step.calls": ("zil", "pc.inference_step", "calls"),
    "pc.extract_updates.self_s": ("zil", "pc.extract_updates", "self_s"),
    "pc.extract_updates.calls": ("zil", "pc.extract_updates", "calls"),
    "zil.make_schedule.self_s": ("verdict", "zil.make_schedule", "self_s"),
    "zil.make_schedule.calls": ("verdict", "zil.make_schedule", "calls"),
    "zil.check_quiet_window.self_s":
        ("verdict", "zil.check_quiet_window", "self_s"),
    "zil.snapshots": ("verdict", "zil.snapshots", "count"),
    "graph.topological_sort.self_s": ("bp", "graph.topological_sort", "self_s"),
    "graph.topological_sort.calls": ("bp", "graph.topological_sort", "calls"),
    "graph.level_structure.self_s":
        ("verdict", "graph.level_structure", "self_s"),
    "graph.level_structure.calls": ("verdict", "graph.level_structure", "calls"),
    "graph.param_keys.calls": ("bp", "graph.param_keys", "calls"),
    "graph.check_params.self_s": ("bp", "graph.check_params", "self_s"),
    "autodiff.forward.self_s": ("bp", "autodiff.forward", "self_s"),
    "autodiff.forward.calls": ("bp", "autodiff.forward", "calls"),
    "autodiff.backprop.self_s": ("bp", "autodiff.backprop", "self_s"),
    "autodiff.collect_updates.self_s":
        ("bp", "autodiff.collect_updates", "self_s"),
    "leveller.level.self_s": ("verdict", "leveller.level", "self_s"),
    "leveller.level.calls": ("verdict", "leveller.level", "calls"),
    "leveller.inserted": ("verdict", "leveller.inserted", "count"),
    "models.build_model.self_s": ("build", "models.build_model", "self_s"),
    "report.make_report.self_s": ("verdict", "report.make_report", "self_s"),
    "report.divergence.self_s": ("verdict", "report.divergence", "self_s"),
}


class LayerTotals:
    """Traced wall time, self time, calls and counts summed per
    operation kind."""

    def __init__(self):
        self.ops: dict[str, int] = {}
        self.wall: dict[str, float] = {}
        self.stats: dict[str, dict[str, dict[str, float]]] = {}

    def add(self, op: str, wall: float, self_s, calls, counts) -> None:
        self.ops[op] = self.ops.get(op, 0) + 1
        self.wall[op] = self.wall.get(op, 0.0) + wall
        bucket = self.stats.setdefault(
            op, {"self_s": {}, "calls": {}, "count": {}})
        for kind, values in (("self_s", self_s), ("calls", calls),
                             ("count", counts)):
            for name, value in values.items():
                bucket[kind][name] = bucket[kind].get(name, 0) + value

    def per_op(self, op: str, kind: str, name: str) -> float:
        return self.stats[op][kind].get(name, 0) / self.ops[op]

    def exact_counts(self) -> dict:
        """Everything that must repeat exactly between traced passes."""
        return {op: (self.ops[op], bucket["calls"], bucket["count"])
                for op, bucket in self.stats.items()}


def traced_pass(pg, args, instances, checker, rounds: int, untraced_digests):
    """One build and `rounds` rounds of every operation, under the tracer."""
    totals = LayerTotals()
    with Tracer() as tracer:
        start = time.perf_counter()
        ops.build_instances(pg, args.workload, args.seed)
        totals.add("build", time.perf_counter() - start, *tracer.fold(),
                   tracer.take_counts())
        for _ in range(rounds):
            for op in ops.OPS:
                result, wall = timed(op, pg, instances)
                self_s, calls = tracer.fold()
                counts = tracer.take_counts()
                digest = checker.check(op, result, untraced_digests[op])
                if op == "verdict" and digest is not None:
                    active, total = ops.active_share(result)
                    counts["zil.snapshots"] = sum(
                        len(v.trace.snapshots) for v in result)
                    counts["zil.active_vertex_steps"] = active
                    counts["zil.vertex_steps"] = total
                    counts["leveller.inserted"] = sum(v.inserted for v in result)
                totals.add(op, wall, self_s, calls, counts)
    return totals


def ratio(a: float, b: float) -> float:
    """a / b, or 0 when a failing program left b at 0."""
    return a / b if b else 0.0


def per_layer(args, pg, instances, checker):
    """Untraced pass, then two traced passes of as many rounds."""
    clock = time.perf_counter
    untraced_wall = 0.0
    untraced_digests = {}
    rounds = 0
    until = clock() + TRACE_SHARE * args.seconds
    while rounds < 1 or clock() < until:
        for op in ops.OPS:
            result, seconds = timed(op, pg, instances)
            untraced_wall += seconds
            untraced_digests.setdefault(op, checker.check(op, result))
        rounds += 1
    first = traced_pass(pg, args, instances, checker, rounds, untraced_digests)
    second = traced_pass(pg, args, instances, checker, rounds, untraced_digests)
    if first.exact_counts() != second.exact_counts():
        checker.fail(["counts differ between two traced passes"],
                     rounds * len(ops.OPS))

    metrics = {}
    for name, (op, span, kind) in LAYER_STATS.items():
        metrics[name] = (first.per_op(op, kind, span),
                         "s" if kind == "self_s" else "count")
    vjp = "functions.ElemFn.vjp"
    metrics["zil.vjp_calls_over_bp"] = (ratio(
        first.per_op("zil", "calls", vjp), first.per_op("bp", "calls", vjp)),
        "ratio")
    metrics["zil.active_share"] = (ratio(
        first.per_op("verdict", "count", "zil.active_vertex_steps"),
        first.per_op("verdict", "count", "zil.vertex_steps")), "ratio")
    traced_wall = sum(first.wall[op] for op in ops.OPS)
    metrics["trace.overhead"] = (traced_wall / untraced_wall, "ratio")

    for op in (*ops.OPS, "build"):
        wall = first.wall[op] / first.ops[op]
        print(f"# {op}: traced {wall:.6g} s per operation; self time:")
        ranked = sorted(first.stats[op]["self_s"].items(), key=lambda kv: -kv[1])
        for span, total in ranked[:6]:
            share = total / first.wall[op]
            print(f"#   {span:28s} {share:6.1%}  "
                  f"{first.per_op(op, 'calls', span):g} calls")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:.6g} {unit}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(ops.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pcgraph" / "__init__.py").is_file():
        print(f"error: no pcgraph sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setup_times = []
    for _ in range(SETUPS if args.trace == 0 else 1):
        start = time.perf_counter()
        pg, instances = setup(args.workload, args.seed)
        setup_times.append(time.perf_counter() - start)
    print("# provenance " + json.dumps(provenance(pg, args, instances)))

    checker = Checker(args.workload, args.seed, instances)
    if args.trace:
        metrics = per_layer(args, pg, instances, checker)
    else:
        metrics = end_to_end(args, pg, instances, checker, setup_times)
    for problem in dict.fromkeys(checker.problems):
        print(f"# FAILED {problem}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
