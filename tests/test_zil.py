"""Scheduled exact learning: schedules, worked traces, wavefront checks, ablations."""

import re
from dataclasses import replace

import numpy as np
import pytest

from pcgraph import functions as fns
from pcgraph import models
from pcgraph.autodiff import backprop
from pcgraph.errors import DomainError, GraphError, NotLevelled
from pcgraph.graph import GraphBuilder, level_structure
from pcgraph.leveller import level
from pcgraph.report import divergence
from pcgraph.zil import (
    ABLATIONS,
    ZilSchedule,
    ZilTrace,
    check_quiet_window,
    make_schedule,
    zil_ablate,
    zil_train_step,
)

from oracles import check_wavefront_recursion


def two_level_chain():
    """out = w2 * (w1 * x) with integer values: every step is exact."""
    b = GraphBuilder()
    w1 = b.leaf(name="w1")
    w2 = b.leaf(name="w2")
    x = b.leaf(trainable=False, name="x")
    h = b.vertex(fns.multiply(), [w1, x], name="h")
    out = b.vertex(fns.multiply(), [w2, h], name="out")
    g = b.build(out)
    params = {w1: np.asarray(3.0), w2: np.asarray(5.0), x: np.asarray(2.0)}
    return g, params, w1, w2


def skip_product():
    g, params = models.build_model(models.ModelSpec("skipchain"))
    return g, params


# -- schedules ------------------------------------------------------------

def test_chain_schedule_times():
    g, params, w1, w2 = two_level_chain()
    for variant in ("level_structured", "layer_indexed"):
        sched = make_schedule(g, variant)
        assert sched.update_times == {w2: 0, w1: 1}
        assert sched.steps == 2
        assert sched.leaves_at(0) == (w2,)
        assert sched.leaves_at(1) == (w1,)


def test_skip_product_layer_indexed_times():
    g, _params = skip_product()
    sched = make_schedule(g, "layer_indexed")
    # z1 and z3 sit under distance-1 parents, z2 under the distance-2 one
    assert sched.update_times == {1: 1, 2: 2, 3: 1}
    assert sched.steps == 3


def test_schedule_length_follows_its_read_times():
    assert ZilSchedule(1.0, {7: 3, 9: 1}).steps == 4
    assert ZilSchedule(1.0, {}).steps == 1


@pytest.mark.parametrize("when", ["a", None, 1.0, True, -1])
def test_a_read_time_that_is_no_step_is_a_graph_error(when):
    with pytest.raises(GraphError, match=f"leaf 1 must be an integer >= 0, "
                                         f"got {re.escape(repr(when))}"):
        ZilSchedule(1.0, {1: when, 2: 0})


@pytest.mark.parametrize("times", [None, [1, 2], {"a": 0}, {1: 0, "a": 0}])
def test_read_times_that_map_no_leaf_ids_are_a_graph_error(times):
    with pytest.raises(GraphError, match="must map integer leaf ids"):
        ZilSchedule(1.0, times)


def test_level_schedule_requires_levelled_graph():
    g, _params = skip_product()
    with pytest.raises(NotLevelled):
        make_schedule(g, "level_structured")


def test_schedule_needs_trainable_leaves():
    b = GraphBuilder()
    x = b.leaf(trainable=False)
    out = b.vertex(fns.square(), [x])
    g = b.build(out)
    with pytest.raises(GraphError, match="trainable"):
        make_schedule(g, "layer_indexed")


def test_unknown_variant_rejected():
    g, _params, _w1, _w2 = two_level_chain()
    with pytest.raises(GraphError):
        make_schedule(g, "sideways")


# -- worked exactness -----------------------------------------------------

def test_chain_updates_equal_reverse_pass_exactly():
    g, params, w1, w2 = two_level_chain()
    y = 31.0  # prediction is 30
    bp = backprop(g, params, y, lr=1.0)
    rep, trace = zil_train_step(g, params, y, lr=1.0)
    assert float(rep.updates[("leaf", w2)]) == 6.0
    assert float(rep.updates[("leaf", w1)]) == 10.0
    assert divergence(rep.updates, bp.updates) == 0.0
    # the hidden value node moved only after its information arrived
    assert float(trace.snapshots[0].x[3]) == 6.0
    assert float(trace.snapshots[1].x[3]) == 11.0


def test_variants_coincide_on_levelled_graphs():
    g, params = models.build_model(models.ModelSpec("mlp", (4, 8, 1), "tanh", 3))
    y = 0.9
    a, _ = zil_train_step(g, params, y, variant="level_structured")
    b, _ = zil_train_step(g, params, y, variant="layer_indexed")
    assert a.updates.keys() == b.updates.keys()
    for key in a.updates:
        assert np.array_equal(a.updates[key], b.updates[key])


def reference_skip_product_run(y, lr):
    """Independent simulation of the skip-product graph, written out as
    four scalar recurrences instead of graph machinery."""
    s = z1 = z2 = z3 = 1.0
    xg3, xg2, xg1 = s * z3, 1.0, 1.0  # zero-error start: every mu is 1
    xg2 = xg3 * z2
    xg1 = xg2 * z1
    xout = y  # clamped
    updates = {}
    for t in range(3):
        eg3 = xg3 - s * z3
        eg2 = xg2 - xg3 * z2
        eg1 = xg1 - xg2 * z1
        eout = xout - (xg1 + xg3)
        if t == 1:
            updates["z3"] = lr * (eg3 * s)
            updates["z1"] = lr * (eg1 * xg2)
        if t == 2:
            updates["z2"] = lr * (eg2 * xg3)
        if t < 2:  # synchronous relaxation, gamma = 1
            xg3, xg2, xg1 = (
                xg3 + (-eg3 + eg2 * z2 + eout * 1.0),
                xg2 + (-eg2 + eg1 * z1),
                xg1 + (-eg1 + eout * 1.0),
            )
    return updates


def test_skip_product_early_reads_are_wrong_by_a_known_amount():
    """On the unlevelled graph the min-distance schedule reads the shared
    factor's error after it was already relaxed further, and the result
    matches an independent hand simulation exactly."""
    g, params = skip_product()
    y, lr = 0.0, 0.1
    rep, _ = zil_train_step(g, params, y, lr=lr, variant="layer_indexed")
    ref = reference_skip_product_run(y, lr)
    assert float(rep.updates[("leaf", 1)]) == ref["z1"] == -0.2
    assert float(rep.updates[("leaf", 2)]) == ref["z2"] == -4.0
    assert float(rep.updates[("leaf", 3)]) == ref["z3"] == pytest.approx(-0.2)
    bp = backprop(g, params, y, lr=lr)
    assert divergence(rep.updates, bp.updates) == pytest.approx(
        3.8052595180880893, abs=1e-15)


def test_levelling_repairs_the_skip_product():
    g, params = skip_product()
    lg, _report = level(g)
    y, lr = 0.0, 0.1
    bp = backprop(lg, params, y, lr=lr)
    rep, trace = zil_train_step(lg, params, y, lr=lr)
    assert divergence(rep.updates, bp.updates) == 0.0
    assert float(rep.updates[("leaf", 3)]) == pytest.approx(-0.4)
    ok, violations = check_quiet_window(trace, lg)
    assert ok and not violations


def test_parameters_are_never_mutated():
    g, params = skip_product()
    before = {k: v.copy() for k, v in params.items()}
    zil_train_step(g, params, y=0.0, variant="layer_indexed")
    for k in params:
        assert np.array_equal(params[k], before[k])


def test_runs_are_deterministic():
    g, params = models.build_model(models.ModelSpec("rnn", (3, 3, 4), "tanh", 9))
    a, _ = zil_train_step(g, params, y=0.4)
    b, _ = zil_train_step(g, params, y=0.4)
    for key in a.updates:
        assert np.array_equal(a.updates[key], b.updates[key])


def test_trace_can_be_disabled():
    g, params, _w1, _w2 = two_level_chain()
    _rep, trace = zil_train_step(g, params, y=31.0, record_trace=False)
    assert trace.snapshots == ()
    assert check_quiet_window(trace, g) == (True, [])


def sqrt_of_zero_under_the_only_weight():
    """out = w * sqrt(x) with x = 0.0: one update time, so one step."""
    b = GraphBuilder()
    w = b.leaf()
    x = b.leaf(trainable=False)
    root = b.vertex(fns.sqrt(), [x])
    g = b.build(b.vertex(fns.multiply(), [w, root]))
    return g, {w: np.asarray(2.0), x: np.asarray(0.0)}, root


def test_untraced_run_raises_where_the_reverse_pass_raises():
    """The wavefront sweep pulls back through every internal vertex, as
    BP does, so a sqrt of a zero data input below the only trainable
    leaf stops both at the same vertex."""
    g, params, root = sqrt_of_zero_under_the_only_weight()
    with pytest.raises(DomainError) as bp_err:
        backprop(g, params, 1.0)
    with pytest.raises(DomainError) as zil_err:
        zil_train_step(g, params, 1.0, record_trace=False)
    assert bp_err.value.vertex == zil_err.value.vertex == root


def test_one_step_traced_run_raises_where_the_reverse_pass_raises():
    """A one-step run relaxes nothing, yet its step 0 still pulls back
    through every internal vertex, as BP does."""
    g, params, root = sqrt_of_zero_under_the_only_weight()
    assert make_schedule(g, "level_structured").steps == 1
    with pytest.raises(DomainError) as bp_err:
        backprop(g, params, 1.0)
    with pytest.raises(DomainError) as zil_err:
        zil_train_step(g, params, 1.0, record_trace=True)
    assert zil_err.value.vertex == bp_err.value.vertex == root


def test_traced_run_raises_at_a_sqrt_of_zero_below_every_weight():
    """With two levels of weights the step engine relaxes once, and that
    step pulls back through every internal vertex, as BP does."""
    b = GraphBuilder()
    w2, w1 = b.leaf(), b.leaf()
    x = b.leaf(trainable=False)
    root = b.vertex(fns.sqrt(), [x])
    g = b.build(b.vertex(fns.multiply(), [w2, b.vertex(fns.multiply(), [w1, root])]))
    params = {w2: np.asarray(2.0), w1: np.asarray(3.0), x: np.asarray(0.0)}
    with pytest.raises(DomainError) as err:
        zil_train_step(g, params, 1.0, record_trace=True)
    assert err.value.vertex == root


def test_tied_rnn_matches_reverse_pass():
    g, params = models.build_model(models.ModelSpec("rnn", (3, 3, 4), "tanh", 11))
    y = 0.25
    bp = backprop(g, params, y)
    rep, _ = zil_train_step(g, params, y, variant="layer_indexed",
                            record_trace=False)
    assert divergence(rep.updates, bp.updates) < 1e-12


# -- wavefront invariants -------------------------------------------------

def test_wavefront_stays_exactly_zero_ahead_of_its_level():
    g, params = models.build_model(models.ModelSpec("mlp", (3, 6, 6, 4, 1),
                                                    "tanh", 5))
    _rep, trace = zil_train_step(g, params, y=0.35)
    ok, violations = check_quiet_window(trace, g)
    assert ok and not violations


def test_wavefront_checker_detects_corruption():
    g, params, _w1, _w2 = two_level_chain()
    _rep, trace = zil_train_step(g, params, y=31.0)
    snap = trace.snapshots[0]
    hidden = 3  # the mid-chain vertex, level 1
    bad_eps = dict(snap.eps)
    bad_eps[hidden] = np.asarray(0.5)
    tampered = ZilTrace(
        snapshots=(replace(snap, eps=bad_eps),) + trace.snapshots[1:],
        updates=trace.updates, schedule=trace.schedule)
    ok, violations = check_quiet_window(tampered, g)
    assert not ok
    assert any(v[0] == hidden and v[1] == 0 and v[2] == "eps"
               for v in violations)


@pytest.mark.parametrize("value, violated", [(np.nan, True), (-0.0, False)])
def test_quiet_window_reads_a_nan_error_as_a_violation_and_minus_zero_as_quiet(
        value, violated):
    g, params, _w1, _w2 = two_level_chain()
    _rep, trace = zil_train_step(g, params, y=31.0)
    snap = trace.snapshots[0]
    hidden = 3  # the mid-chain vertex, level 1
    tampered = ZilTrace(
        snapshots=(replace(snap, eps={**snap.eps, hidden: np.asarray(value)}),)
        + trace.snapshots[1:],
        updates=trace.updates, schedule=trace.schedule)
    ok, violations = check_quiet_window(tampered, g)
    assert ok is not violated
    assert [v[:3] for v in violations] == ([(hidden, 0, "eps")] if violated else [])


def three_level_chain():
    """out = w3 * (w2 * (w1 * x)); returns the graph, params and the
    level-2 vertex w1 * x."""
    b = GraphBuilder()
    w1, w2, w3 = b.leaf(), b.leaf(), b.leaf()
    x = b.leaf(trainable=False)
    low = b.vertex(fns.multiply(), [w1, x])
    g = b.build(b.vertex(fns.multiply(),
                         [w3, b.vertex(fns.multiply(), [w2, low])]))
    params = {w1: np.asarray(3.0), w2: np.asarray(5.0), w3: np.asarray(7.0),
              x: np.asarray(2.0)}
    return g, params, low


def with_value_node(trace, vid, steps, x, eps=None):
    """``trace`` with ``vid``'s value node (and error) replaced by ``x``
    (and ``eps``) in the snapshots of ``steps``."""
    snaps = tuple(
        replace(s, x={**s.x, vid: x},
                eps=s.eps if eps is None else {**s.eps, vid: eps})
        if t in steps else s
        for t, s in enumerate(trace.snapshots))
    return ZilTrace(snaps, trace.updates, trace.schedule)


def test_quiet_window_reads_a_value_node_moved_ahead_of_its_level():
    g, params, low = three_level_chain()
    _rep, trace = zil_train_step(g, params, y=250.0)
    assert level_structure(g).levels[low] == 2
    x0 = trace.snapshots[0].x[low]
    assert trace.snapshots[1].x[low] is x0
    assert check_quiet_window(with_value_node(trace, low, {1}, x0.copy()), g) \
        == (True, [])
    assert check_quiet_window(with_value_node(trace, low, {1}, x0 + 1.0), g) \
        == (False, [(low, 1, "x", 1.0)])


def test_quiet_window_reads_a_shared_nan_value_node_by_its_error():
    g, params, low = three_level_chain()
    _rep, trace = zil_train_step(g, params, y=250.0)
    nan = np.asarray(np.nan)
    ok, violations = check_quiet_window(
        with_value_node(trace, low, {0, 1}, nan, nan), g)
    assert not ok
    assert [v[:3] for v in violations] == [(low, 0, "eps"), (low, 1, "eps")]


def test_quiet_window_reports_a_shared_error_array_at_every_step():
    """One nonzero error array shared by two snapshots is tested once but
    still reported once per step."""
    g, params, low = three_level_chain()
    _rep, trace = zil_train_step(g, params, y=250.0)
    x0 = trace.snapshots[0].x[low]
    loud = np.asarray(0.5)
    ok, violations = check_quiet_window(
        with_value_node(trace, low, {0, 1}, x0, loud), g)
    assert not ok
    assert violations == [(low, 0, "eps", 0.5), (low, 1, "eps", 0.5)]


def test_one_step_error_recursion_at_settling_time():
    for family in ("mlp", "conv1d", "rnn"):
        g, params = models.build_model(models.ModelSpec(family, (), "tanh", 8))
        _rep, trace = zil_train_step(g, params, y=0.6)
        assert check_wavefront_recursion(trace, g), family


def test_error_recursion_check_catches_a_tampered_settled_error():
    g, params = models.build_model(models.ModelSpec("mlp", (3, 4, 1), "tanh", 2))
    _rep, trace = zil_train_step(g, params, y=0.6)
    structure = level_structure(g)
    t = 2
    vid = next(v for v in structure.members(t) if not g.vertices[v].is_leaf)
    snap = trace.snapshots[t]
    bad_eps = dict(snap.eps)
    bad_eps[vid] = snap.eps[vid] + 1e-3
    tampered = ZilTrace(
        snapshots=trace.snapshots[:t] + (replace(snap, eps=bad_eps),)
        + trace.snapshots[t + 1:],
        updates=trace.updates, schedule=trace.schedule)
    assert check_wavefront_recursion(trace, g)
    assert not check_wavefront_recursion(tampered, g)


# -- ablations ------------------------------------------------------------

def test_each_ablation_breaks_exactness_on_a_multi_level_graph():
    g, params = skip_product()
    lg, _report = level(g)
    y, lr = 0.0, 0.1
    bp = backprop(lg, params, y, lr=lr)
    for which in ABLATIONS:
        rep = zil_ablate(lg, params, y, lr=lr, which=which)
        assert divergence(rep.updates, bp.updates) > 1e-6, which


def test_ablations_are_harmless_on_a_depth_one_graph():
    """With a single update time and no relaxation step taken, none of
    the exactness conditions can bite."""
    b = GraphBuilder()
    w = b.leaf()
    x = b.leaf(trainable=False)
    out = b.vertex(fns.multiply(), [w, x])
    g = b.build(out)
    params = {w: np.asarray(1.5), x: np.asarray(-2.0)}
    y = 1.0
    bp = backprop(g, params, y)
    for which in ABLATIONS:
        rep = zil_ablate(g, params, y, which=which)
        assert divergence(rep.updates, bp.updates) == 0.0, which


def test_unknown_ablation_rejected():
    g, params, _w1, _w2 = two_level_chain()
    with pytest.raises(GraphError):
        zil_ablate(g, params, y=31.0, which="coffee_break")
