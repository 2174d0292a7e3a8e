"""Model zoo: every family builds, validates, and differentiates cleanly."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pcgraph import models
from pcgraph.autodiff import backprop, forward, grad_check
from pcgraph.errors import BadSpec
from pcgraph.functions import FnKind
from pcgraph.graph import level_structure, path_length_sets
from pcgraph.leveller import level
from pcgraph.report import divergence
from pcgraph.zil import zil_train_step


def test_every_family_builds_and_evaluates():
    for family in models.FAMILIES:
        act = "identity" if family in ("sqrtsquare", "skipchain") else "tanh"
        g, params = models.build_model(models.ModelSpec(family, (), act, 0))
        value = forward(g, params).output_value(g)
        assert np.isfinite(value), family


def test_spec_validation():
    with pytest.raises(BadSpec):
        models.ModelSpec("perceptron")
    with pytest.raises(BadSpec):
        models.ModelSpec("mlp", (4, 0, 1))
    with pytest.raises(BadSpec):
        models.ModelSpec("mlp", (4, 8, 1), "softplus")
    with pytest.raises(BadSpec, match="seed"):
        models.ModelSpec("mlp", (4, 8, 1), "tanh", -1)
    for dims in ((4.5, 2), ("a", 2), (True, 1), 4, None, "48"):
        with pytest.raises(BadSpec, match="dims"):
            models.ModelSpec("mlp", dims)
    for seed in ("0", 1.5):
        with pytest.raises(BadSpec, match="seed"):
            models.ModelSpec("mlp", (4, 8, 1), "tanh", seed)
    with pytest.raises(BadSpec):
        models.build_model(models.ModelSpec("mlp", (4,)))
    with pytest.raises(BadSpec):
        models.build_model(models.ModelSpec("conv1d", (2, 6)))  # kernel > signal


def test_default_dims_cover_all_families():
    for family in models.FAMILIES:
        dims = models.default_dims(family)
        g, params = models.build_model(models.ModelSpec(family, dims, "identity", 1))
        assert len(g) > 0


def test_same_seed_reproduces_parameters():
    a = models.build_model(models.ModelSpec("mlp", (4, 8, 1), "tanh", 7))[1]
    b = models.build_model(models.ModelSpec("mlp", (4, 8, 1), "tanh", 7))[1]
    assert a.keys() == b.keys()
    for k in a:
        assert np.array_equal(a[k], b[k])
    c = models.build_model(models.ModelSpec("mlp", (4, 8, 1), "tanh", 8))[1]
    assert any(not np.array_equal(a[k], c[k]) for k in a)


def test_chain_families_are_levelled_as_built():
    for family in models.LEVELLED_FAMILIES:
        g, _params = models.build_model(models.ModelSpec(family, (), "tanh", 0))
        level_structure(g)  # raises if not


def test_branching_families_are_not_levelled():
    for family in ("residual", "attention", "skipchain"):
        g, _params = models.build_model(models.ModelSpec(family, (), "identity", 0))
        sets = path_length_sets(g)
        assert any(len(s) > 1 for s in sets.values()), family


def test_mlp_layer_count_scales_with_dims():
    g2, _ = models.build_model(models.ModelSpec("mlp", (4, 8, 1), "tanh", 0))
    g3, _ = models.build_model(models.ModelSpec("mlp", (4, 8, 8, 1), "tanh", 0))
    # each extra layer adds one weight leaf, one matvec, one activation
    assert len(g3) == len(g2) + 3


def test_conv_ties_one_group_per_kernel_entry():
    g, params = models.build_model(models.ModelSpec("conv1d", (6, 2), "tanh", 0))
    assert len(g.tie_groups) == 2
    n_pos = 6 - 2 + 1
    for grp in g.tie_groups:
        assert len(grp.members) == n_pos
        first = params[grp.members[0]]
        for m in grp.members:
            assert np.array_equal(params[m], first)
        assert np.array_equal(grp.shared_value, first)


@pytest.mark.parametrize("length, ksize", [(1, 1), (5, 1), (5, 5)])
def test_conv1d_with_a_one_tap_or_a_full_length_kernel(length, ksize):
    """A one-tap kernel makes each position its product, with no sum; a
    kernel as long as the input leaves one position, which is the sum
    below the output.  Levelled Z-IL gives BP's updates within
    criterion 4's bound, and the same bytes traced or not."""
    for seed in range(3):
        g, params = models.build_model(
            models.ModelSpec("conv1d", (length, ksize), "tanh", seed))
        n_pos = length - ksize + 1
        assert [len(grp.members) for grp in g.tie_groups] == [n_pos] * ksize
        adds = sum(g.vertices[v].fn.kind is FnKind.ADD for v in g.internal_ids)
        assert adds == n_pos * (ksize > 1) + (n_pos > 1)
        lg, _report = level(g)
        y = forward(lg, params).output_value(lg) + 0.5
        bp = backprop(lg, params, y, lr=0.01)
        zil, _trace = zil_train_step(lg, params, y, 0.01, record_trace=False)
        traced, _trace = zil_train_step(lg, params, y, 0.01, record_trace=True)
        assert divergence(bp.updates, zil) <= 1e-9
        assert [(k, d.tobytes()) for k, d in zil.updates.items()] == \
            [(k, d.tobytes()) for k, d in traced.updates.items()]


def test_rnn_shares_both_transition_matrices():
    g, params = models.build_model(models.ModelSpec("rnn", (4, 3, 5), "tanh", 0))
    ids = [grp.group_id for grp in g.tie_groups]
    assert ids == ["theta_x", "theta_h"]
    for grp in g.tie_groups:
        assert len(grp.members) == 4  # one per unrolled step


def test_untie_promotes_members_to_free_leaves():
    g, _params = models.build_model(models.ModelSpec("conv1d", (6, 2), "tanh", 0))
    ug = models.untie(g)
    assert not ug.tie_groups
    assert len(ug) == len(g)
    assert len(ug.trainable_leaves()) == len(g.trainable_leaves())
    # untying a graph without ties is the identity
    g1, _ = models.build_model(models.ModelSpec("sqrtsquare"))
    assert models.untie(g1) is g1


def test_gated_block_has_trainable_weight_under_ambiguous_paths():
    """The exactness failure needs unequal path lengths above a trainable
    parameter, not just above the data input."""
    g, _params = models.build_model(models.ModelSpec("attention", (4, 4), "tanh", 0))
    sets = path_length_sets(g)
    found = False
    for w in g.trainable_leaves():
        parents = [p for p, _slot in g.parents[w]]
        if any(len(sets[p]) > 1 for p in parents):
            found = True
    assert found


def test_worked_toy_values():
    g1, p1 = models.build_model(models.ModelSpec("sqrtsquare"))
    assert forward(g1, p1).output_value(g1) == 9.0
    g3, p3 = models.build_model(models.ModelSpec("skipchain"))
    assert forward(g3, p3).output_value(g3) == 2.0
    rep = backprop(g3, p3, y=0.0, lr=0.1)
    assert float(rep.updates[("leaf", 1)]) == pytest.approx(-0.2)
    assert float(rep.updates[("leaf", 3)]) == pytest.approx(-0.4)


def test_families_grad_check():
    for family in models.FAMILIES:
        act = "identity" if family in ("sqrtsquare", "skipchain") else "logistic"
        g, params = models.build_model(models.ModelSpec(family, (), act, 2))
        y = forward(g, params).output_value(g) + 0.4
        assert grad_check(g, params, y) < 1e-6, family


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 1000))
def test_random_graphs_are_valid_and_runnable(seed):
    g, params, y = models.random_graph(seed)
    assert g.trainable_leaves()
    assert forward(g, params).mu[g.output].shape == ()
    rep = backprop(g, params, float(y))
    assert all(np.isfinite(v) for v in
               (float(x) for x in rep.per_leaf.values()))


def test_random_graph_is_reproducible():
    a = models.random_graph(42)
    b = models.random_graph(42)
    assert len(a[0]) == len(b[0])
    assert a[2] == b[2]
    for k in a[1]:
        assert np.array_equal(a[1][k], b[1][k])


def test_levelling_every_family_preserves_gradients():
    for family in models.FAMILIES:
        act = "identity" if family in ("sqrtsquare", "skipchain") else "tanh"
        g, params = models.build_model(models.ModelSpec(family, (), act, 4))
        y = forward(g, params).output_value(g) + 0.5
        lg, _report = level(g)
        a = backprop(g, params, y).updates
        b = backprop(lg, params, y).updates
        for key in a:
            assert np.array_equal(a[key], b[key]), (family, key)
