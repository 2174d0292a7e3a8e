"""Acceptance gate: ten numbered criteria, one verdict line each.

Run ``pytest tests/test_acceptance.py`` and read the "acceptance
criteria" section at the bottom.  Every test records its verdict through
the ``criterion`` fixture before asserting, so the summary still shows a
FAIL line when an assertion trips.  Criterion 9 is advisory (timing on
shared hardware) and records WARN instead of failing.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from pcgraph import harness
from pcgraph.autodiff import backprop, forward, grad_check
from pcgraph.leveller import audit_paths, level
from pcgraph.models import ModelSpec, build_model, random_graph, untie
from pcgraph.numerics import angle_degrees, fsum_arrays
from pcgraph.pc import il_train_step
from pcgraph.report import divergence
from pcgraph.zil import check_quiet_window, zil_train_step

SEEDS = tuple(range(20))
LR = 0.01
ACTIVATION = "tanh"
OFFSET = 0.5

# single-root-path families: every leaf has one distance to the output
CHAIN_MODELS = (
    ("mlp", (4, 8, 1)),
    ("mlp", (4, 8, 8, 1)),
    ("mlp", (3, 6, 6, 4, 1)),
    ("conv1d", (6, 2)),
    ("rnn", (3, 3, 4)),
)
# families whose skip or gating edges create unequal root paths
MIXED_MODELS = (
    ("residual", (4, 4, 1)),
    ("attention", (4, 4)),
)
ALL_MODELS = CHAIN_MODELS + MIXED_MODELS


def _instance(family, dims, seed):
    g, params = build_model(ModelSpec(family, dims, ACTIVATION, seed))
    y = forward(g, params).output_value(g) + OFFSET
    return g, params, y


@pytest.fixture(scope="module")
def levelled_sweep():
    """Level-scheduled runs on levelled versions of every family, with
    traces kept so the silent-error window can be audited afterwards."""
    runs = []
    for family, dims in ALL_MODELS:
        for seed in SEEDS:
            g, params, y = _instance(family, dims, seed)
            lg, _ = level(g)
            bp = backprop(lg, params, y, lr=LR)
            rep, trace = zil_train_step(lg, params, y, lr=LR,
                                        variant="level_structured")
            ok, violations = check_quiet_window(trace, lg)
            runs.append({
                "name": f"{family}{dims}", "seed": seed,
                "divergence": divergence(bp.updates, rep),
                "quiet": ok, "violations": violations,
            })
    return runs


def test_criterion_1_exact_match_on_single_path_families(criterion):
    t0 = time.perf_counter()
    worst = 0.0
    for family, dims in CHAIN_MODELS:
        for seed in SEEDS:
            g, params, y = _instance(family, dims, seed)
            bp = backprop(g, params, y, lr=LR)
            rep, _ = zil_train_step(g, params, y, lr=LR,
                                    variant="layer_indexed",
                                    record_trace=False)
            worst = max(worst, divergence(bp.updates, rep))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 30.0
    criterion(1, "distance-scheduled updates equal reverse-pass updates "
                 "on single-path models", "PASS" if ok else "FAIL",
              f"max divergence {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-9
    assert elapsed < 30.0


def test_criterion_2_mismatch_on_unequal_path_families(criterion):
    smallest = float("inf")
    for family, dims in MIXED_MODELS:
        for seed in SEEDS:
            g, params, y = _instance(family, dims, seed)
            bp = backprop(g, params, y, lr=LR)
            rep, _ = zil_train_step(g, params, y, lr=LR,
                                    variant="layer_indexed",
                                    record_trace=False)
            smallest = min(smallest, divergence(bp.updates, rep))
    ok = smallest > 1e-6
    criterion(2, "distance scheduling visibly diverges once root paths "
                 "disagree", "PASS" if ok else "FAIL",
              f"min divergence {smallest:.2e}")
    assert smallest > 1e-6


def test_criterion_3_exact_match_after_levelling(criterion, levelled_sweep):
    worst = max(run["divergence"] for run in levelled_sweep)
    ok = worst <= 1e-9
    criterion(3, "level scheduling equals the reverse pass on levelled "
                 "versions of all families", "PASS" if ok else "FAIL",
              f"max divergence {worst:.2e} over {len(levelled_sweep)} runs")
    assert worst <= 1e-9


def test_criterion_4_each_exactness_condition_is_necessary(criterion):
    rows, code = harness.run_ablation_suite(harness.ExperimentConfig())
    # models whose leaves all share one level satisfy the schedule
    # trivially; the necessity claim is about the multi-level ones
    binding = [row for row in rows if row["expected"] == "positive"]
    smallest = min(row["divergence"] for row in binding)
    ok = code == 0 and binding and all(row["ok"] for row in binding)
    criterion(4, "dropping the schedule, the quiet start, or the unit "
                 "step each breaks exactness", "PASS" if ok else "FAIL",
              f"min divergence {smallest:.2e} over {len(binding)} "
              f"multi-level runs")
    assert ok


def test_criterion_5_levelling_preserves_behaviour(criterion):
    checked = 0
    for seed in range(100):
        g, params, y = random_graph(seed)
        before_out = forward(g, params).output_value(g)
        before = backprop(g, params, y, lr=LR).updates
        lg, _ = level(g)
        after_out = forward(lg, params).output_value(lg)
        after = backprop(lg, params, y, lr=LR).updates
        bitwise = (before_out == after_out
                   and list(before) == list(after)
                   and all(np.array_equal(before[k], after[k])
                           for k in before))
        single = all(len(s) == 1 for s in audit_paths(lg).values())
        lg2, rerun = level(lg)
        stable = lg2 is lg and rerun.inserted == 0
        if bitwise and single and stable:
            checked += 1
    ok = checked == 100
    criterion(5, "levelling is bit-neutral, audited exhaustively, and "
                 "idempotent", "PASS" if ok else "FAIL",
              f"{checked}/100 random graphs clean")
    assert checked == 100


def test_criterion_6_gradients_agree_with_finite_differences(criterion):
    worst = 0.0
    for family in ("mlp", "conv1d", "rnn", "residual", "attention",
                   "sqrtsquare", "skipchain"):
        for seed in (0, 1, 2):
            g, params, y = _instance(family, (), seed)
            worst = max(worst, grad_check(g, params, y))
    for seed in range(100):
        g, params, y = random_graph(seed)
        worst = max(worst, grad_check(g, params, y))
    ok = worst < 1e-6
    criterion(6, "analytic gradients match central differences",
              "PASS" if ok else "FAIL", f"max relative error {worst:.2e}")
    assert worst < 1e-6


def test_criterion_7_errors_stay_silent_until_their_level(criterion,
                                                          levelled_sweep):
    broken = [run for run in levelled_sweep if not run["quiet"]]
    total = sum(len(run["violations"]) for run in levelled_sweep)
    ok = not broken and total == 0
    criterion(7, "under level scheduling every error node is exactly zero "
                 "before its level's turn", "PASS" if ok else "FAIL",
              f"{total} violations over {len(levelled_sweep)} traced runs")
    assert ok, broken[:3]


def test_criterion_8_tied_update_equals_sum_of_untied_members(criterion):
    worst = 0.0
    for family, dims in (("conv1d", (6, 2)), ("rnn", (3, 3, 4))):
        for seed in SEEDS:
            g, params, y = _instance(family, dims, seed)
            tied = backprop(g, params, y, lr=LR).updates
            free = backprop(untie(g), params, y, lr=LR).updates
            for grp in g.tie_groups:
                member_sum = fsum_arrays(
                    [free[("leaf", m)] for m in sorted(grp.members)])
                gap = float(np.max(np.abs(
                    tied[("group", grp.group_id)] - member_sum)))
                worst = max(worst, gap)
    ok = worst <= 1e-12
    criterion(8, "a shared parameter's update is the sum over its clone "
                 "leaves", "PASS" if ok else "FAIL",
              f"max |group - sum| = {worst:.1e}")
    assert worst <= 1e-12


def test_criterion_9_timing_ordering_is_advisory(criterion, capsys):
    rows, code = harness.run_benchmark(harness.ExperimentConfig())
    medians = {row["algorithm"]: row["median_s"] for row in rows}
    il_over_zil = medians["il"] / medians["zil"]
    zil_over_bp = medians["zil"] / medians["bp"]
    on_target = il_over_zil >= 5.0 and zil_over_bp <= 3.0
    criterion(9, "wall-time ordering: relaxation slowest, scheduled in "
                 "between, reverse pass fastest",
              "PASS" if on_target else "WARN",
              f"il/zil={il_over_zil:.1f}x (want >=5), "
              f"zil/bp={zil_over_bp:.1f}x (want <=3)")
    # advisory: the benchmark must run and report, but shared-hardware
    # ratios never fail the gate
    assert code == 0
    assert medians["il"] > medians["zil"] > 0


def test_criterion_10_relaxation_updates_rotate_toward_gradient(criterion):
    horizons = (10, 50, 200, 1000)
    slack = 0.1  # equilibrium plateau jitter, degrees
    worst_final = 0.0
    worst_rise = 0.0
    least_drop = float("inf")
    for seed in SEEDS:
        g, params = build_model(ModelSpec("mlp", (4, 8, 1), "identity", seed))
        y = forward(g, params).output_value(g) + 0.02
        bp = backprop(g, params, y, lr=LR).updates
        target = np.concatenate([np.asarray(v).ravel() for v in bp.values()])
        angles = []
        for T in horizons:
            rep = il_train_step(g, params, y, lr=LR, gamma=0.05, T=T)
            angles.append(angle_degrees(rep.flat(), target))
        worst_final = max(worst_final, angles[-1])
        worst_rise = max(worst_rise, max(
            angles[i + 1] - angles[i] for i in range(len(angles) - 1)))
        least_drop = min(least_drop, angles[0] - angles[-1])
    ok = worst_final < 5.0 and worst_rise <= slack and least_drop > 10.0
    criterion(10, "longer relaxation turns the update toward the gradient",
              "PASS" if ok else "FAIL",
              f"final angle <= {worst_final:.2f} deg, max rise "
              f"{worst_rise:.3f} deg, min drop {least_drop:.1f} deg")
    assert worst_final < 5.0
    assert worst_rise <= slack
    assert least_drop > 10.0
