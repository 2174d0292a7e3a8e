"""Command-line entry point.

Subcommands::

    pcgraph build       assemble a zoo model and write its graph JSON
    pcgraph export-dot  render a graph JSON file as Graphviz DOT
    pcgraph level       insert identity vertices until the graph is levelled
    pcgraph grad-check  analytic vs central-difference gradients (CSV)
    pcgraph equiv       scheduled-update vs reverse-pass divergence suite
    pcgraph ablate      exactness-condition ablation suite
    pcgraph bench       wall-time comparison of the three algorithms

Exit codes: 0 success, 1 criterion failure (an expected-exact row
diverged, an expected-divergent row did not, or a gradient check missed
tolerance), 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import harness, serial
from .autodiff import gradient_rows
from .errors import GraphError
from .leveller import level
from .models import FAMILIES, ModelSpec, build_model


# Subcommand -> (help, suite run on the experiment config).
SUITES = {
    "equiv": ("divergence suite across the model zoo",
              harness.run_equivalence_suite),
    "ablate": ("necessity of each exactness condition",
               harness.run_ablation_suite),
    "bench": ("wall-time comparison", harness.run_benchmark),
}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON experiment config")
    p.add_argument("--seed", type=int, help="single seed overriding the config sweep")
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--tolerance", type=float,
                   help="override the zero-divergence tolerance")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcgraph",
        description="Computational-graph learning engine: reverse-mode "
                    "gradients, predictive-coding inference learning, and "
                    "level-scheduled exact updates.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="emit a zoo model as graph JSON")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--dims", type=int, nargs="*", default=None)
    p.add_argument("--activation", default="identity")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output path (default: stdout)")

    p = sub.add_parser("export-dot", help="render graph JSON as DOT")
    p.add_argument("--graph", required=True)
    p.add_argument("--out", help="output path (default: stdout)")

    p = sub.add_parser("level", help="insert identities until levelled")
    p.add_argument("--graph", required=True)
    p.add_argument("--out", help="levelled graph JSON (default: stdout)")
    p.add_argument("--report", help="write the insertion report JSON here")
    p.add_argument("--dot", help="also write DOT of the levelled graph here")

    p = sub.add_parser("grad-check",
                       help="analytic vs finite-difference gradients")
    p.add_argument("--graph", required=True)
    p.add_argument("--y", type=float, default=0.0, help="loss target")
    p.add_argument("--h", type=float, default=1e-6, help="difference step")
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--tolerance", type=float, default=1e-6)

    for name, (help_text, _suite) in SUITES.items():
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        if name == "bench":
            p.add_argument("--repetitions", type=int)
    return parser


def _config_from(args) -> harness.ExperimentConfig:
    cfg = (harness.ExperimentConfig.from_json(args.config)
           if args.config else harness.ExperimentConfig())
    updates = {}
    if args.seed is not None:
        updates["seeds"] = (args.seed,)
    if args.tolerance is not None:
        updates["tolerance_zero"] = args.tolerance
    if getattr(args, "repetitions", None) is not None:
        updates["repetitions"] = args.repetitions
    if updates:
        cfg = harness.ExperimentConfig.from_dict({**cfg.to_dict(), **updates})
    return cfg


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except GraphError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "build":
        spec = ModelSpec(args.family, tuple(args.dims or ()),
                         args.activation, args.seed)
        g, params = build_model(spec)
        _emit(json.dumps(serial.graph_to_dict(g, params), indent=2) + "\n",
              args.out)
        return 0

    if args.command == "export-dot":
        g, _params = serial.load_graph(args.graph)
        _emit(serial.to_dot(g), args.out)
        return 0

    if args.command == "level":
        g, params = serial.load_graph(args.graph)
        levelled, report = level(g)
        _emit(json.dumps(serial.graph_to_dict(levelled, params), indent=2) + "\n",
              args.out)
        if args.report:
            summary = {
                "inserted": report.inserted,
                "max_level": report.structure.max_level,
                "edge_paddings": {
                    f"{parent}:{slot}": pad
                    for (parent, slot), pad in sorted(report.edge_paddings.items())
                    if pad > 0},
            }
            with open(args.report, "w") as fh:
                json.dump(summary, fh, indent=2)
        if args.dot:
            with open(args.dot, "w") as fh:
                fh.write(serial.to_dot(levelled, title="levelled"))
        return 0

    if args.command == "grad-check":
        if not 0.0 <= args.tolerance < math.inf:
            raise GraphError("--tolerance must be a finite number >= 0")
        g, params = serial.load_graph(args.graph)
        if params is None:
            raise GraphError("graph file carries no params; re-export with values")
        rows = gradient_rows(g, params, args.y, args.h)
        _emit(harness.write_rows(rows, fmt=args.format), args.out)
        worst = float(np.max([r["rel_error"] for r in rows], initial=0.0))
        if not worst < args.tolerance:  # a NaN error fails too
            print(f"gradient check FAILED: max relative error {worst:.3e}",
                  file=sys.stderr)
            return 1
        return 0

    _help, suite = SUITES[args.command]
    rows, code = suite(_config_from(args))
    _emit(harness.write_rows(rows, fmt=args.format), args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
