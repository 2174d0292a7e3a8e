"""Experiment orchestration: equivalence/ablation suites, timing, persistence.

Every emitted row embeds the serialized configuration and a hash of the
package sources, so results are attributable to an exact code + config
state.  Runs are deterministic: a fixed config and seed produce
bit-identical result tables.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .autodiff import backprop
from .errors import GraphError
from .graph import Graph, VertexId
from .leveller import level
from .functions import ACTIVATION_NAMES
from .models import FAMILIES, LEVELLED_FAMILIES, ModelSpec, build_model, default_dims
from .numerics import Array, is_finite_real, is_integer
from .pc import il_train_step
from .report import divergence
from .zil import (ABLATIONS, check_quiet_window, make_schedule, zil_ablate,
                  zil_train_step)

SUITE_FAMILIES = ("mlp", "conv1d", "rnn", "residual", "attention")

# Architectures the default suite sweeps; widths stay desk-scale.
SUITE_DIMS: dict[str, tuple[tuple[int, ...], ...]] = {
    "mlp": ((4, 8, 1), (4, 8, 8, 1), (3, 6, 6, 4, 1)),
    "conv1d": ((6, 2),),
    "rnn": ((3, 3, 4),),
    "residual": ((4, 4, 1),),
    "attention": ((4, 4),),
}


@dataclass(frozen=True)
class ExperimentConfig:
    families: tuple[str, ...] = SUITE_FAMILIES
    seeds: tuple[int, ...] = tuple(range(20))
    activation: str = "tanh"
    lr: float = 0.01
    gamma_il: float = 0.1
    T_il: int = 100
    repetitions: int = 30
    warmup: int = 5
    tolerance_zero: float = 1e-9
    tolerance_positive: float = 1e-6
    target_offset: float = 0.5

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: Mapping) -> "ExperimentConfig":
        """Build a config from outside input, rejecting bad keys and types
        with :class:`GraphError`."""
        if not isinstance(d, Mapping):
            raise GraphError("config must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise GraphError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(d)
        for key in ("families", "seeds"):
            if key in kwargs:
                if not isinstance(kwargs[key], (list, tuple)):
                    raise GraphError(f"config {key!r} must be a list")
                kwargs[key] = tuple(kwargs[key])
        cfg = cls(**kwargs)
        _check_config(cfg)
        return cfg

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        try:
            return cls.from_dict(json.loads(Path(path).read_text()))
        except (OSError, json.JSONDecodeError) as exc:
            raise GraphError(f"cannot read config {path}: {exc}") from exc


def _check_config(cfg: ExperimentConfig) -> None:
    """Raise :class:`GraphError` naming the first field of a wrong type
    or out of range."""
    if not all(isinstance(f, str) and f in FAMILIES for f in cfg.families):
        raise GraphError(f"config 'families' must name families from {FAMILIES}")
    if not all(is_integer(s) and s >= 0 for s in cfg.seeds):
        raise GraphError("config 'seeds' must be integers >= 0")
    if not (isinstance(cfg.activation, str)
            and cfg.activation in ACTIVATION_NAMES):
        raise GraphError(f"config 'activation' must be one of {ACTIVATION_NAMES}")
    for name in ("lr", "gamma_il", "tolerance_zero", "tolerance_positive",
                 "target_offset"):
        if not is_finite_real(getattr(cfg, name)):
            raise GraphError(f"config {name!r} must be a finite number")
    for name in ("tolerance_zero", "tolerance_positive"):
        if getattr(cfg, name) < 0:
            raise GraphError(f"config {name!r} must be >= 0")
    for name, low in (("T_il", 1), ("repetitions", 1), ("warmup", 0)):
        value = getattr(cfg, name)
        if not is_integer(value) or value < low:
            raise GraphError(f"config {name!r} must be an integer >= {low}")


def code_version() -> str:
    """Short hash over the package sources, for result provenance."""
    pkg = Path(__file__).parent
    digest = hashlib.sha256()
    for path in sorted(pkg.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def _target_for(g: Graph, params: Mapping[VertexId, Array],
                offset: float) -> float:
    """A target a fixed offset away from the current output value, so the
    one-step error is the same scale across models and seeds."""
    from .autodiff import forward

    return forward(g, params).output_value(g) + offset


def _model_instances(cfg: ExperimentConfig):
    for family in cfg.families:
        for dims in SUITE_DIMS.get(family, (default_dims(family),)):
            label = f"{family}{'x'.join(str(d) for d in dims)}"
            yield family, dims, label


def _timed(thunk):
    """``thunk()`` and the wall time it took."""
    t0 = time.perf_counter()
    out = thunk()
    return out, time.perf_counter() - t0


def _suite(cfg: ExperimentConfig, rows_of) -> tuple[list[dict], int]:
    """One row per (variant, divergence, wall time, expected, ok) that
    ``rows_of(family, g, params)`` yields for each model and seed; exit
    code 1 if any row is not ok."""
    stamp = code_version()
    cfg_json = json.dumps(cfg.to_dict(), sort_keys=True)
    rows: list[dict] = []
    for family, dims, label in _model_instances(cfg):
        for seed in cfg.seeds:
            g, params = build_model(ModelSpec(family, dims, cfg.activation, seed))
            for variant, div, elapsed, expected, ok in rows_of(family, g, params):
                rows.append({
                    "model": label, "seed": seed, "variant": variant,
                    "divergence": div, "wall_time": elapsed,
                    "expected": expected, "ok": ok,
                    "code_hash": stamp, "config": cfg_json,
                })
    return rows, (0 if all(row["ok"] for row in rows) else 1)


def run_equivalence_suite(cfg: ExperimentConfig) -> tuple[list[dict], int]:
    """Reverse-pass vs scheduled-update divergence over the model zoo.

    Two blocks per model/seed: the plain layer-indexed schedule on the
    graph as built (exact only for levelled-by-construction families),
    and the level-structured schedule on the levelled transform (exact
    for everything).  Exit code 1 if any expected-exact row exceeds the
    zero tolerance, any expected-divergent row sits below the positive
    tolerance, or a wavefront (settled-error) violation is detected.
    """
    def rows_of(family, g, params):
        y = _target_for(g, params, cfg.target_offset)
        bp = backprop(g, params, y, cfg.lr)
        (zil_report, _), elapsed = _timed(lambda: zil_train_step(
            g, params, y, cfg.lr, "layer_indexed", record_trace=False))
        expect_zero = family in LEVELLED_FAMILIES
        div = divergence(bp.updates, zil_report)
        yield ("layer_indexed", div, elapsed,
               "zero" if expect_zero else "positive",
               div <= cfg.tolerance_zero if expect_zero
               else div > cfg.tolerance_positive)

        lg, _report = level(g)
        lbp = backprop(lg, params, y, cfg.lr)
        (lzil_report, trace), elapsed = _timed(lambda: zil_train_step(
            lg, params, y, cfg.lr, "level_structured"))
        settled_ok, _violations = check_quiet_window(trace, lg)
        div = divergence(lbp.updates, lzil_report)
        yield ("level_structured+levelled", div, elapsed, "zero",
               div <= cfg.tolerance_zero and settled_ok)
    return _suite(cfg, rows_of)


def run_ablation_suite(cfg: ExperimentConfig) -> tuple[list[dict], int]:
    """Each exactness condition, violated on purpose, must diverge.

    All models are levelled first so the level-structured baseline is
    exact and any divergence is attributable to the ablation alone.
    """
    def rows_of(family, g, params):
        lg, report = level(g)
        multi_level = len({report.structure.levels[v]
                           for v in lg.trainable_leaves()}) > 1
        y = _target_for(lg, params, cfg.target_offset)
        bp = backprop(lg, params, y, cfg.lr)
        for which in ABLATIONS:
            ab_report, elapsed = _timed(lambda: zil_ablate(
                lg, params, y, cfg.lr, which))
            div = divergence(bp.updates, ab_report)
            yield (which, div, elapsed, "positive" if multi_level else "any",
                   div > cfg.tolerance_positive if multi_level else True)
    return _suite(cfg, rows_of)


def run_benchmark(cfg: ExperimentConfig) -> tuple[list[dict], int]:
    """Median/mean wall time per weight update for the three algorithms.

    Same model, ``mlp(4, 8, 1)``, and inputs for all three; warm-up
    repetitions excluded; monotonic clock.  The expected ordering (inference learning much
    slower than the scheduled variant, scheduled variant within a small
    factor of the reverse pass) is reported and warned about, never
    failed: timing on shared hardware is advisory.
    """
    stamp = code_version()
    cfg_json = json.dumps(cfg.to_dict(), sort_keys=True)
    g, params = build_model(ModelSpec("mlp", (4, 8, 1), cfg.activation,
                                      cfg.seeds[0] if cfg.seeds else 0))
    lg, _ = level(g)
    y = _target_for(lg, params, cfg.target_offset)

    def time_bp():
        backprop(lg, params, y, cfg.lr)

    def time_il():
        il_train_step(lg, params, y, cfg.lr, cfg.gamma_il, cfg.T_il)

    def time_zil():
        zil_train_step(lg, params, y, cfg.lr, "level_structured",
                       record_trace=False)

    timings: dict[str, list[float]] = {}
    for name, fn in (("bp", time_bp), ("il", time_il), ("zil", time_zil)):
        for _ in range(cfg.warmup):
            fn()
        samples = []
        for _ in range(cfg.repetitions):
            t0 = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - t0)
        timings[name] = samples

    # Relaxations per update; a Z-IL schedule of n states relaxes n - 1 times.
    steps = {"bp": 1, "il": cfg.T_il,
             "zil": make_schedule(lg, "level_structured").steps - 1}
    rows = []
    for name, samples in timings.items():
        rows.append({
            "algorithm": name,
            "steps": steps[name],
            "median_s": statistics.median(samples),
            "mean_s": statistics.fmean(samples),
            "stdev_s": statistics.stdev(samples) if len(samples) > 1 else 0.0,
            "repetitions": cfg.repetitions,
            "code_hash": stamp, "config": cfg_json,
        })
    il_over_zil = (statistics.median(timings["il"])
                   / statistics.median(timings["zil"]))
    zil_over_bp = (statistics.median(timings["zil"])
                   / statistics.median(timings["bp"]))
    warned = il_over_zil < 5.0 or zil_over_bp > 3.0
    if warned:
        print(f"warning: timing ordering off target "
              f"(il/zil={il_over_zil:.1f}x, zil/bp={zil_over_bp:.1f}x)",
              file=sys.stderr)
    return rows, 0


def write_rows(rows: Sequence[Mapping], fmt: str = "csv") -> str:
    """Serialize result rows as CSV or JSON."""
    if fmt == "json":
        text = json.dumps(list(rows), indent=2, default=float) + "\n"
    elif fmt == "csv":
        if not rows:
            text = ""
        else:
            buf = io.StringIO()
            writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()),
                                    lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
            text = buf.getvalue()
    else:
        raise GraphError(f"unknown format {fmt!r}")
    return text
