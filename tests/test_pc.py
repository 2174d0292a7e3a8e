"""Relaxation dynamics: initialization, energy descent, equilibria, updates."""

import math

import numpy as np
import pytest
import scipy.optimize

from pcgraph import functions as fns
from pcgraph import models
from pcgraph.autodiff import arriving, backprop, forward, pull_back
from pcgraph.errors import DomainError, GraphError
from pcgraph.graph import GraphBuilder
from pcgraph.leveller import level
from pcgraph.numerics import fsum_arrays
from pcgraph.pc import (
    PCState,
    ZilSchedule,
    _with_values,
    energy,
    extract_updates,
    il_train_step,
    inference_step,
    init_state,
    relax,
    run_schedule,
)
from pcgraph.report import divergence, make_report
from pcgraph.zil import zil_ablate, zil_train_step


def fig_one():
    g, params = models.build_model(models.ModelSpec("sqrtsquare"))
    return g, params


# -- initialization -------------------------------------------------------

def test_zero_error_init_zeroes_everything_but_the_clamp():
    g, params = fig_one()
    state = init_state(g, params, y=4.0)
    for vid in g.internal_ids:
        if vid == g.output:
            continue
        assert float(state.eps[vid]) == 0.0
    # mu_out = 9, clamp = 4: output error is the full target miss
    assert float(state.eps[g.output]) == -5.0
    assert energy(state) == 12.5


def test_energy_beyond_the_float_range_is_inf():
    eps = {1: np.array([1.3e154, 1.3e154]), 2: np.asarray(-0.5)}
    state = PCState(x=eps, mu=eps, eps=eps, t=0, params={})
    assert energy(state) == math.inf
    eps[1] = np.array([3.0, 4.0])
    assert energy(state) == 12.625


def test_init_rejects_leaf_output():
    b = GraphBuilder()
    z = b.leaf()
    out = b.vertex(fns.square(), [z])
    g = b.build(out)
    # rebuild with the leaf as output is impossible (leaf output graph)
    b2 = GraphBuilder()
    lone = b2.leaf()
    with pytest.raises(GraphError):
        init_state(b2.build(lone), {lone: np.asarray(1.0)}, y=1.0)


@pytest.mark.parametrize("y", [
    float("inf"), float("nan"),
    pytest.param("1.0", id="str"), pytest.param(None, id="None"),
    pytest.param([1.0], id="list"), pytest.param(np.ones(1), id="1-d"),
    pytest.param(10**400, id="huge-int"), pytest.param(True, id="bool"),
    pytest.param(1 + 0j, id="complex"),
])
def test_init_rejects_a_non_finite_target(y):
    """So does every run, given the value as its learning rate or as
    its step size."""
    g, params = fig_one()
    lg, _report = level(g)
    reads = {v: 1 for v in g.trainable_leaves()}
    for run in (lambda: init_state(g, params, y=y),
                lambda: il_train_step(g, params, 4.0, lr=y),
                lambda: il_train_step(g, params, 4.0, gamma=y),
                lambda: run_schedule(g, params, 4.0, 0.01,
                                     ZilSchedule(y, reads), "il"),
                lambda: zil_train_step(lg, params, 4.0, lr=y),
                lambda: zil_ablate(lg, params, 4.0, lr=y)):
        with pytest.raises(GraphError, match="finite"):
            run()


# -- dynamics -------------------------------------------------------------

def test_perfect_prediction_is_a_bitwise_fixed_point():
    g, params = fig_one()
    y = forward(g, params).output_value(g)
    state = init_state(g, params, y=y)
    assert energy(state) == 0.0
    nxt = inference_step(state, g, gamma=1.0)
    for vid in g.internal_ids:
        assert np.array_equal(nxt.x[vid], state.x[vid])


def test_clamped_output_never_moves():
    g, params = fig_one()
    state = init_state(g, params, y=4.0)
    for _ in range(25):
        state = inference_step(state, g, gamma=0.02)
        assert float(state.x[g.output]) == 4.0
    assert state.t == 25


def test_energy_descends_under_small_steps():
    # gamma must sit below 2/curvature; the squared-output miniature has
    # curvature ~40 near these targets, hence the conservative step
    for family, dims in (("sqrtsquare", ()), ("mlp", (4, 8, 1)), ("residual", (4, 4, 1))):
        g, params = models.build_model(models.ModelSpec(family, dims, "tanh", 2))
        y = forward(g, params).output_value(g) + 0.5
        state = init_state(g, params, y=y)
        last = energy(state)
        for _ in range(60):
            state = inference_step(state, g, gamma=0.02)
            now = energy(state)
            assert now <= last + 1e-12, family
            last = now


def test_clamped_equilibrium_matches_constrained_minimum():
    """Relaxation energy converges to the true minimum of F given the clamp.

    For the nested-root miniature, F depends on just two free value
    nodes, so a general-purpose optimizer provides an independent
    estimate of the constrained minimum.
    """
    g, params = fig_one()
    y = 4.0
    z1 = float(params[0])
    z2 = float(params[1])

    def objective(v):
        xs, xa = v
        return 0.5 * ((xs - np.sqrt(z1)) ** 2
                      + (xa - (xs + z2)) ** 2
                      + (y - xa ** 2) ** 2)

    best = scipy.optimize.minimize(objective, x0=[2.0, 3.0], method="BFGS")
    assert best.success

    state = init_state(g, params, y=y)
    last = energy(state)
    for _ in range(4000):
        state = inference_step(state, g, gamma=0.1)
        now = energy(state)
        assert now <= last + 1e-12
        last = now
    assert last == pytest.approx(best.fun, abs=1e-9)
    assert last > 0.1  # the clamp is genuinely unattainable here


def test_inference_step_rejects_nonpositive_gamma():
    g, params = fig_one()
    state = init_state(g, params, y=4.0)
    with pytest.raises(GraphError):
        inference_step(state, g, gamma=0.0)


@pytest.mark.parametrize("gamma", (0.0, -0.1))
def test_il_rejects_nonpositive_gamma(gamma):
    g, params = fig_one()
    with pytest.raises(GraphError):
        il_train_step(g, params, y=4.0, gamma=gamma, T=3)


def test_il_needs_at_least_one_step():
    g, params = fig_one()
    with pytest.raises(GraphError, match="at least one step"):
        il_train_step(g, params, y=4.0, gamma=0.1, T=0)


@pytest.mark.parametrize("T", ["2", None])
def test_il_step_count_of_the_wrong_type_is_a_graph_error(T):
    g, params = models.build_model(models.ModelSpec("mlp", (3, 4, 1)))
    with pytest.raises(GraphError, match=f"got {T!r}"):
        il_train_step(g, params, 0.5, 0.01, 0.1, T)


def test_clamping_needs_a_scalar_output():
    b = GraphBuilder()
    z = b.leaf()
    g = b.build(b.vertex(fns.square(), [z]))
    params = {z: np.array([1.0, 2.0])}
    with pytest.raises(GraphError, match="scalar output"):
        init_state(g, params, y=1.0)


def test_dynamics_are_deterministic():
    g, params = models.build_model(models.ModelSpec("rnn", (3, 3, 4), "tanh", 6))
    y = forward(g, params).output_value(g) + 0.5

    def run():
        state = init_state(g, params, y=y)
        for _ in range(20):
            state = inference_step(state, g, gamma=0.1)
        return state

    a, b = run(), run()
    for vid in g.internal_ids:
        assert np.array_equal(a.x[vid], b.x[vid])
        assert np.array_equal(a.eps[vid], b.eps[vid])


# -- updates --------------------------------------------------------------

def test_single_transform_update_equals_reverse_pass():
    """With one prediction step between leaves and output, one relaxation
    step at gamma=1 reproduces the reverse-pass deltas exactly."""
    b = GraphBuilder()
    w = b.leaf(name="w")
    x = b.leaf(trainable=False, name="x")
    out = b.vertex(fns.sum_reduce(), [b.vertex(fns.matvec(), [w, x])])
    g = b.build(out)
    params = {w: np.array([[0.3, -0.2]]), x: np.array([1.5, 2.0])}
    y = forward(g, params).output_value(g) + 1.0

    il = il_train_step(g, params, y, lr=0.05, gamma=1.0, T=1)
    bp = backprop(g, params, y, lr=0.05)
    assert divergence(il.updates, bp.updates) == 0.0


def test_extract_updates_only_subset():
    g, params = models.build_model(models.ModelSpec("mlp", (4, 8, 1), "tanh", 0))
    y = forward(g, params).output_value(g) + 0.5
    state = init_state(g, params, y=y)
    state = inference_step(state, g, gamma=1.0)
    some = g.trainable_leaves()[:1]
    partial = extract_updates(state, g, lr=0.01, only=set(some))
    assert set(partial) == set(some)


# -- pulls onto the slots that are read -----------------------------------

def _all_slots_pulled(state, g):
    values = {**state.params, **state.x}
    return {j: pull_back(g, j, values, state.eps[j])
            for j in g.internal_ids if g.vertices[j].children}


def _all_slot_step(state, g, gamma):
    """``inference_step`` as written before it asked for internal slots only."""
    pulls = _all_slots_pulled(state, g)
    new_x = {vid: x if vid == g.output
             else relax(x, state.eps[vid], arriving(g, vid, pulls), gamma)
             for vid, x in state.x.items()}
    return _with_values(g, new_x, state.params, state.t + 1)


def _all_slot_updates(state, g, lr, wanted):
    pulls = _all_slots_pulled(state, g)
    return {vid: lr * fsum_arrays(arriving(g, vid, pulls)) for vid in wanted}


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("gamma", (0.1, 1.0))
@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("family", models.FAMILIES)
def test_relaxation_and_updates_match_an_all_slot_reference(family, seed, gamma):
    g, params = models.build_model(models.ModelSpec(family, (), "tanh", seed))
    y = forward(g, params).output_value(g) + 0.5
    state = ref = init_state(g, params, y=y)
    for _ in range(4):
        state, ref = inference_step(state, g, gamma), _all_slot_step(ref, g, gamma)
        for field in ("x", "mu", "eps"):
            got, want = getattr(state, field), getattr(ref, field)
            assert all(_same_bytes(got[v], want[v]) for v in want), field
    leaves = g.trainable_leaves()
    for wanted in (leaves, leaves[::2]):
        got = extract_updates(state, g, 0.01, only=set(wanted))
        want = _all_slot_updates(ref, g, 0.01, wanted)
        assert set(got) == set(wanted)
        assert all(_same_bytes(got[v], want[v]) for v in wanted)
    il = il_train_step(g, params, y, lr=0.01, gamma=gamma, T=4)
    want = make_report(g, "il", _all_slot_updates(ref, g, 0.01, leaves))
    assert list(il.updates) == list(want.updates)
    assert all(_same_bytes(il.updates[k], want.updates[k]) for k in want.updates)


def test_relaxation_pulls_no_weight_outer_products(monkeypatch):
    """A relaxation step moves value nodes only; the weights' matvec pulls
    (outer products) are made once, when the leaves read their errors."""
    g, params = models.build_model(models.ModelSpec("mlp", (4, 8, 8, 1), "tanh", 0))
    rule = fns.KINDS[fns.FnKind.MATVEC]
    weight_pulls = []

    def counting(fn, ins, u, want):
        back = rule.vjp(fn, ins, u, want)
        if back[0] is not None:
            weight_pulls.append(ins[0].shape)
        return back

    monkeypatch.setitem(fns.KINDS, fns.FnKind.MATVEC, rule._replace(vjp=counting))
    y = forward(g, params).output_value(g) + 0.5
    inference_step(init_state(g, params, y=y), g, gamma=0.1)
    assert weight_pulls == []
    il_train_step(g, params, y, lr=0.01, gamma=0.1, T=5)
    weights = {g.vertices[v].children[0] for v in g.internal_ids
               if g.vertices[v].fn.kind is fns.FnKind.MATVEC}
    assert len(weights) == 3 and weights <= set(g.trainable_leaves())
    assert sorted(weight_pulls) == sorted(params[w].shape for w in weights)


def test_il_raises_at_a_sqrt_of_zero_below_every_weight():
    """A relaxation step still pulls back through every internal vertex,
    so the sqrt of a zero data input stops IL where it stops BP."""
    b = GraphBuilder()
    w2, w1 = b.leaf(), b.leaf()
    x = b.leaf(trainable=False)
    root = b.vertex(fns.sqrt(), [x])
    g = b.build(b.vertex(fns.multiply(), [w2, b.vertex(fns.multiply(), [w1, root])]))
    params = {w2: np.asarray(2.0), w1: np.asarray(3.0), x: np.asarray(0.0)}
    with pytest.raises(DomainError) as err:
        il_train_step(g, params, 1.0, gamma=0.1, T=3)
    assert err.value.vertex == root


def test_il_train_step_report_fields():
    g, params = fig_one()
    rep = il_train_step(g, params, y=4.0, lr=0.1, gamma=0.1, T=30)
    assert rep.algorithm == "il"
    assert set(rep.updates) == {("leaf", 0), ("leaf", 1)}


def test_il_updates_descend_the_loss():
    g, params = models.build_model(models.ModelSpec("mlp", (4, 8, 1), "tanh", 3))
    y = forward(g, params).output_value(g) + 0.5
    rep = il_train_step(g, params, y, lr=0.05, gamma=0.1, T=200)
    stepped = dict(params)
    for (kind, ident), delta in rep.updates.items():
        assert kind == "leaf"  # this miniature has no tie groups
        stepped[ident] = stepped[ident] + delta
    before = 0.5 * (forward(g, params).output_value(g) - y) ** 2
    after = 0.5 * (forward(g, stepped).output_value(g) - y) ** 2
    assert after < before
