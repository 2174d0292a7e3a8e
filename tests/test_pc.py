"""Relaxation dynamics: initialization, energy descent, equilibria, updates."""

import numpy as np
import pytest
import scipy.optimize

from pcgraph import functions as fns
from pcgraph import models
from pcgraph.autodiff import backprop, forward
from pcgraph.errors import GraphError
from pcgraph.graph import GraphBuilder
from pcgraph.pc import (
    energy,
    extract_updates,
    il_train_step,
    inference_step,
    init_state,
    node_value,
)
from pcgraph.report import divergence


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
    assert energy(state).F == 12.5


def test_zero_error_init_without_clamp_has_no_error_at_all():
    g, params = fig_one()
    state = init_state(g, params)
    assert state.clamp is None
    assert energy(state).F == 0.0


def test_free_init_starts_value_nodes_at_zero():
    g, params = fig_one()
    state = init_state(g, params, y=4.0, mode="free")
    for vid in g.internal_ids:
        if vid != g.output:
            assert np.all(state.x[vid] == 0.0)
    assert float(state.x[g.output]) == 4.0


def test_init_rejects_leaf_output():
    b = GraphBuilder()
    z = b.leaf()
    out = b.vertex(fns.square(), [z])
    g = b.build(out)
    # rebuild with the leaf as output is impossible (leaf output graph)
    b2 = GraphBuilder()
    lone = b2.leaf()
    with pytest.raises(GraphError):
        init_state(b2.build(lone), {lone: np.asarray(1.0)})


def test_init_rejects_unknown_mode():
    g, params = fig_one()
    with pytest.raises(GraphError):
        init_state(g, params, y=4.0, mode="warm")


@pytest.mark.parametrize("y", [float("inf"), float("nan")])
def test_init_rejects_a_non_finite_target(y):
    g, params = fig_one()
    with pytest.raises(GraphError, match="finite"):
        init_state(g, params, y=y)


def test_node_value_reads_leaves_from_params():
    g, params = fig_one()
    state = init_state(g, params, y=4.0)
    leaf = g.leaves[0]
    assert np.array_equal(node_value(state, g, leaf), params[leaf])


# -- dynamics -------------------------------------------------------------

def test_perfect_prediction_is_a_bitwise_fixed_point():
    g, params = fig_one()
    y = forward(g, params).output_value(g)
    state = init_state(g, params, y=y)
    assert energy(state).F == 0.0
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
        last = energy(state).F
        for _ in range(60):
            state = inference_step(state, g, gamma=0.02)
            now = energy(state).F
            assert now <= last + 1e-12, family
            last = now


def test_unclamped_relaxation_recovers_forward_values():
    """Free-running value nodes settle on the feedforward sweep."""
    g, params = models.build_model(models.ModelSpec("mlp", (3, 4, 1), "tanh", 4))
    state = init_state(g, params, mode="free")
    for _ in range(600):
        state = inference_step(state, g, gamma=0.2)
    trace = forward(g, params)
    assert energy(state).F < 1e-12
    for vid in g.internal_ids:
        assert np.allclose(state.x[vid], trace.mu[vid], atol=1e-6)


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
    last = energy(state).F
    for _ in range(4000):
        state = inference_step(state, g, gamma=0.1)
        now = energy(state).F
        assert now <= last + 1e-12
        last = now
    assert last == pytest.approx(best.fun, abs=1e-9)
    assert last > 0.1  # the clamp is genuinely unattainable here


def test_inference_step_rejects_nonpositive_gamma():
    g, params = fig_one()
    state = init_state(g, params, y=4.0)
    with pytest.raises(GraphError):
        inference_step(state, g, gamma=0.0)


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


def test_il_train_step_report_fields():
    g, params = fig_one()
    rep = il_train_step(g, params, y=4.0, lr=0.1, gamma=0.1, T=30)
    assert rep.algorithm == "il"
    assert rep.steps == 30
    assert rep.wall_time > 0.0
    assert set(rep.updates) == {("leaf", 0), ("leaf", 1)}


def test_il_settle_tolerance_stops_early():
    g, params = fig_one()
    rep = il_train_step(g, params, y=4.0, lr=0.1, gamma=0.1, T=5000,
                        settle_tol=1e-10)
    assert rep.steps < 5000


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
