"""Reverse-pass engine: worked values, oracles, and exactness invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pcgraph import functions as fns
from pcgraph import models
from pcgraph.autodiff import (
    _leaf_sum,
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
from pcgraph.pc import il_train_step
from pcgraph.zil import ABLATIONS, zil_ablate, zil_train_step

from oracles import complex_step_energy, pinned_forward


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
    """dE/dmu_i: pin one internal value a step either side of its
    forward value (:func:`oracles.pinned_forward`), difference the loss."""
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
            e_up = loss_value(pinned_forward(g, params, {vid: up})[g.output], y)
            e_down = loss_value(pinned_forward(g, params, {vid: down})[g.output], y)
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


# -- ownership of the deltas a run hands out --------------------------------

def test_one_pull_takes_its_plus_zero_in_place():
    pull = np.array([-0.0, 1.5, -2.0])
    out = _leaf_sum([pull])
    assert out is pull
    assert out.tobytes() == np.array([0.0, 1.5, -2.0]).tobytes()
    scalar = np.float64(-0.0)  # a 0-d pull keeps fsum_arrays' own path
    assert _leaf_sum([scalar]).tobytes() == np.float64(0.0).tobytes()


def _returned_deltas(run, g, params, y):
    """The delta mappings ``run`` hands out, and whether each free
    leaf's report entry is the very array of the per-leaf mapping."""
    if run == "bp":
        rep = backprop(g, params, y, 0.1)
        return rep.per_leaf, rep.updates, [rep.per_leaf, rep.updates]
    if run in ("zil", "zil-traced"):
        rep, trace = zil_train_step(g, params, y, 0.1,
                                    record_trace=run == "zil-traced")
        return trace.updates, rep.updates, [trace.updates, rep.updates]
    rep = (il_train_step(g, params, y, 0.1, 0.1, 5) if run == "il"
           else zil_ablate(g, params, y, 0.1, run))
    return None, rep.updates, [rep.updates]


@pytest.mark.parametrize("run", ["bp", "zil", "zil-traced", "il", *ABLATIONS])
@pytest.mark.parametrize("family, dims", [("mlp", (4, 8, 1)),
                                          ("rnn", (3, 3, 4))])
def test_returned_deltas_are_read_only(run, family, dims):
    """A run's per-leaf deltas and its report share each free leaf's
    array, so each is read-only: a write into one would change the
    other."""
    g, params = models.build_model(models.ModelSpec(family, dims, "tanh", 0))
    lg, _report = level(g)
    per_leaf, updates, returned = _returned_deltas(run, lg, params, 0.5)
    if per_leaf is not None:
        for (kind, ident), delta in updates.items():
            if kind == "leaf" and delta.ndim:
                assert delta is per_leaf[ident]
    arrays = [a for deltas in returned for a in deltas.values() if a.ndim]
    assert arrays
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0.0


@pytest.mark.parametrize("family", models.FAMILIES)
@pytest.mark.parametrize("activation", ["tanh", "identity", "logistic"])
def test_bp_gradient_is_the_whole_graph_complex_step(family, activation):
    """<dE/dtheta, d> from BP's per-leaf deltas at lr = 1 against the
    complex step of E along a random d per trainable leaf.  BP and Z-IL
    share every vjp rule; this oracle shares none.  Both sides may differ
    only by rounding, bounded relative to the sum of the terms'
    magnitudes (at most 2.9e-16 over these cases, on attention)."""
    for seed in range(5):
        g, params = models.build_model(
            models.ModelSpec(family, (), activation, seed))
        y = forward(g, params).output_value(g) + 0.5
        rng = np.random.default_rng(seed)
        per_leaf = backprop(g, params, y, 1.0).per_leaf
        d = {v: rng.standard_normal(np.shape(params[v])) for v in per_leaf}
        terms = np.concatenate([np.ravel(-per_leaf[v] * d[v]) for v in d])
        gap = abs(math.fsum(terms) - complex_step_energy(g, params, y, d))
        assert gap <= 1e-13 * np.sum(np.abs(terms)), (family, seed, gap)
