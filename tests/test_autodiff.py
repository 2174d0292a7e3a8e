"""Reverse-pass engine: worked values, oracles, and exactness invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pcgraph import functions as fns
from pcgraph import models
from pcgraph.autodiff import (
    backprop,
    collect_updates,
    forward,
    grad_check,
    gradient_rows,
    loss_value,
    reverse_sweep,
)
from pcgraph.errors import DomainError, GraphError, ShapeMismatch
from pcgraph.graph import GraphBuilder
from pcgraph.leveller import level
from pcgraph.numerics import fsum_arrays


def nested_root_graph():
    """out = (sqrt(z1) + z2)^2 with z1=4, z2=1: a fully hand-checkable case."""
    g, params = models.build_model(models.ModelSpec("sqrtsquare"))
    return g, params


# -- forward --------------------------------------------------------------

def test_forward_worked_example():
    g, params = nested_root_graph()
    trace = forward(g, params)
    assert trace.output_value(g) == 9.0  # (sqrt(4) + 1)^2


def test_forward_requires_all_leaf_values():
    g, params = nested_root_graph()
    missing = dict(params)
    missing.pop(next(iter(missing)))
    with pytest.raises(GraphError, match="missing"):
        forward(g, missing)


def test_forward_overrides_pin_vertices():
    g, params = nested_root_graph()
    trace = forward(g, params)
    inner = [v for v in g.internal_ids if v != g.output]
    pick = inner[0]
    forced = forward(g, params, overrides={pick: trace.mu[pick]})
    assert forced.mu == trace.mu  # pinning to the natural value changes nothing


def test_domain_error_carries_vertex_id():
    g, params = nested_root_graph()
    bad = dict(params)
    leaf_under_sqrt = min(g.leaves)
    bad[leaf_under_sqrt] = np.asarray(-1.0)
    with pytest.raises(DomainError) as exc:
        forward(g, bad)
    assert exc.value.vertex is not None


# -- reverse: worked values -----------------------------------------------

def test_backprop_worked_example():
    # E = 1/2 (9 - 4)^2; dE/dz1 = 5 * 2*3/(2*2) = 7.5, dE/dz2 = 5 * 6 = 30
    g, params = nested_root_graph()
    rep = backprop(g, params, y=4.0, lr=1.0)
    assert float(rep.delta[g.output]) == 5.0
    assert rep.loss == 12.5
    z1, z2 = sorted(g.leaves)
    assert float(rep.per_leaf[z1]) == pytest.approx(-7.5, abs=1e-12)
    assert float(rep.per_leaf[z2]) == pytest.approx(-30.0, abs=1e-12)


def test_backprop_scales_with_learning_rate():
    g, params = nested_root_graph()
    one = backprop(g, params, y=4.0, lr=1.0)
    tenth = backprop(g, params, y=4.0, lr=0.1)
    for leaf in one.per_leaf:
        assert float(tenth.per_leaf[leaf]) == pytest.approx(
            0.1 * float(one.per_leaf[leaf]), rel=1e-15)


def test_perfect_prediction_gives_zero_updates():
    g, params = nested_root_graph()
    y = forward(g, params).output_value(g)
    rep = backprop(g, params, y=y, lr=1.0)
    assert rep.loss == 0.0
    for v in rep.per_leaf.values():
        assert np.all(v == 0.0)


def test_shared_subexpression_accumulates_both_paths():
    # out = z*z via two slots of one multiply: dE/dz = delta * 2z
    b = GraphBuilder()
    z = b.leaf()
    out = b.vertex(fns.multiply(), [z, z])
    g = b.build(out)
    rep = backprop(g, {z: np.asarray(3.0)}, y=0.0, lr=1.0)
    assert float(rep.delta[z]) == 9.0 * 2.0 * 3.0


@pytest.mark.parametrize("y", [
    float("inf"), float("-inf"), float("nan"),
    pytest.param("1.0", id="str"), pytest.param(None, id="None"),
    pytest.param([1.0], id="list"), pytest.param(np.ones(1), id="1-d"),
    pytest.param(10**400, id="huge-int"), pytest.param(True, id="bool"),
    pytest.param(1 + 0j, id="complex"),
])
def test_backprop_rejects_a_non_finite_target(y):
    """And the same value as its learning rate."""
    g, params = nested_root_graph()
    with pytest.raises(GraphError, match="finite"):
        backprop(g, params, y=y)
    with pytest.raises(GraphError, match="finite"):
        backprop(g, params, y=4.0, lr=y)


@pytest.mark.parametrize("y", [4, np.float32(4.0), np.asarray(4.0),
                               np.asarray(4, dtype=np.int8)])
def test_backprop_takes_any_finite_real_target(y):
    g, params = nested_root_graph()
    want = backprop(g, params, y=4.0).updates
    got = backprop(g, params, y=y).updates
    assert [(k, d.tobytes()) for k, d in got.items()] == \
        [(k, d.tobytes()) for k, d in want.items()]


def test_backprop_rejects_a_non_finite_param():
    g, params = nested_root_graph()
    bad = {**params, min(g.leaves): np.asarray(np.inf)}
    with pytest.raises(GraphError, match="non-finite"):
        backprop(g, bad, y=4.0)


def test_reverse_sweep_settles_internal_vertices_and_sums_at_leaves():
    g, params = models.build_model(models.ModelSpec("skipchain"))
    trace = forward(g, params)
    settled = []

    def settle(vid, terms):
        settled.append(vid)
        return fsum_arrays(terms)

    seed = trace.mu[g.output] - 1.0
    signal = reverse_sweep(g, trace.mu, seed, settle)
    assert sorted(settled) == [v for v in g.internal_ids if v != g.output]
    rep = backprop(g, params, y=1.0)
    assert list(signal) == list(rep.delta)
    for vid, delta in rep.delta.items():
        assert signal[vid].tobytes() == delta.tobytes()


def test_non_scalar_output_rejected():
    b = GraphBuilder()
    z = b.leaf()
    out = b.vertex(fns.identity(), [z])
    g = b.build(out)
    with pytest.raises(ShapeMismatch, match="scalar"):
        backprop(g, {z: np.array([1.0, 2.0])}, y=0.0)


def test_frozen_leaves_get_no_update():
    g, params = models.build_model(models.ModelSpec("mlp", (4, 8, 1), "tanh", 0))
    rep = backprop(g, params, y=1.0)
    frozen = [v for v in g.leaves if not g.vertices[v].trainable]
    assert frozen  # the data input
    for v in frozen:
        assert v not in rep.per_leaf


# -- reverse vs independent oracles ---------------------------------------

def test_error_signal_matches_finite_difference_on_internal_vertex():
    """dE/dmu_i via overrides: bump one internal value, difference the loss."""
    g, params = models.build_model(models.ModelSpec("mlp", (3, 5, 1), "tanh", 1))
    y = 0.7
    rep = backprop(g, params, y=y, lr=1.0)
    trace = forward(g, params)
    h = 1e-6
    for vid in g.internal_ids:
        base = trace.mu[vid]
        for idx in np.ndindex(base.shape if base.shape else (1,)):
            i = idx if base.shape else ()
            up, down = base.copy(), base.copy()
            if base.shape:
                up[i] += h
                down[i] -= h
            else:
                up = up + h
                down = down - h
            e_up = loss_value(forward(g, params, overrides={vid: up}).mu[g.output], y)
            e_down = loss_value(forward(g, params, overrides={vid: down}).mu[g.output], y)
            numeric = (e_up - e_down) / (2 * h)
            analytic = float(rep.delta[vid][i]) if base.shape else float(rep.delta[vid])
            assert analytic == pytest.approx(numeric, abs=1e-5)


def test_gradient_rows_report_shape():
    g, params = nested_root_graph()
    rows = gradient_rows(g, params, y=4.0)
    assert len(rows) == 2  # one scalar component per free leaf
    for row in rows:
        assert set(row) == {"param", "component", "analytic", "numeric", "rel_error"}
        assert row["rel_error"] < 1e-6


def test_grad_check_zoo_families():
    for family in models.FAMILIES:
        act = "identity" if family in ("sqrtsquare", "skipchain") else "tanh"
        g, params = models.build_model(models.ModelSpec(family, (), act, 5))
        y = forward(g, params).output_value(g) + 0.3
        assert grad_check(g, params, y) < 1e-6, family


def test_grad_check_rejects_bad_step():
    g, params = nested_root_graph()
    for h in (0.0, True, "a", None):
        with pytest.raises(GraphError, match="finite-difference step"):
            gradient_rows(g, params, y=4.0, h=h)


# -- exactness invariants -------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(st.integers(0, 400))
def test_identity_insertion_never_changes_updates(seed):
    """Levelling only re-routes edges; every update bit must survive."""
    g, params, y = models.random_graph(seed)
    lg, _report = level(g)
    a = backprop(g, params, float(y)).updates
    b = backprop(lg, params, float(y)).updates
    assert list(a) == list(b)
    for key in a:
        assert np.array_equal(a[key], b[key])


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 19))
def test_tie_group_update_is_sum_of_untied_members(seed):
    g, params = models.build_model(models.ModelSpec("conv1d", (6, 2), "tanh", seed))
    y = forward(g, params).output_value(g) + 0.5
    tied = backprop(g, params, y).updates
    untied_rep = backprop(models.untie(g), params, y)
    for grp in g.tie_groups:
        member_sum = fsum_arrays([untied_rep.per_leaf[m]
                                  for m in sorted(grp.members)])
        assert np.array_equal(tied[("group", grp.group_id)], member_sum)


def test_collect_updates_orders_groups_before_free_leaves():
    g, params = models.build_model(models.ModelSpec("rnn", (3, 3, 4), "tanh", 0))
    rep = backprop(g, params, y=0.2)
    kinds = [k for k, _ in rep.updates]
    assert kinds == sorted(kinds, key=lambda k: 0 if k == "group" else 1)
