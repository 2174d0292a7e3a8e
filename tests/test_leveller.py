"""Identity-padding transform: postconditions, neutrality, idempotence."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pcgraph import functions as fns
from pcgraph import models
from pcgraph.autodiff import backprop, forward
from pcgraph.errors import TooLarge
from pcgraph.functions import FnKind
from pcgraph.graph import level_structure, path_length_sets
from pcgraph.leveller import audit_paths, level
from pcgraph.zil import zil_train_step


def skip_product_graph():
    """The four-leaf product chain whose top factor also feeds the output."""
    g, params = models.build_model(models.ModelSpec("skipchain"))
    return g, params


def test_skip_product_needs_exactly_two_identities():
    g, _params = skip_product_graph()
    before = audit_paths(g)
    multi = {v: s for v, s in before.items() if len(s) > 1}
    assert multi  # the shared factor and everything below it
    lg, report = level(g)
    assert report.inserted == 2
    assert report.structure.max_level == 4
    after = audit_paths(lg)
    assert all(len(s) == 1 for s in after.values())


def test_padding_recorded_per_edge():
    g, _params = skip_product_graph()
    _lg, report = level(g)
    assert sum(report.edge_paddings.values()) == report.inserted
    assert max(report.edge_paddings.values()) == 2  # the short skip edge


def test_original_ids_preserved_and_fresh_ids_appended():
    g, _params = skip_product_graph()
    lg, report = level(g)
    n = len(g.vertices)
    assert len(lg.vertices) == n + report.inserted
    for vid in range(n):
        old, new = g.vertices[vid], lg.vertices[vid]
        assert old.is_leaf == new.is_leaf
        assert old.tie_group == new.tie_group
        if not old.is_leaf:
            assert new.fn.kind == old.fn.kind
    for vid in range(n, len(lg.vertices)):
        v = lg.vertices[vid]
        assert v.fn.kind is FnKind.IDENTITY
        assert not v.is_leaf
        assert v.tie_group is None


def test_levelled_graph_has_consistent_edge_levels():
    g, _params = skip_product_graph()
    lg, _report = level(g)
    s = level_structure(lg)
    for v in lg.vertices:
        if not v.is_leaf:
            for c in v.children:
                assert s.levels[c] == s.levels[v.id] + 1


def test_levelling_is_idempotent_and_lazy():
    g, _params = skip_product_graph()
    lg, first = level(g)
    lg2, second = level(lg)
    assert second.inserted == 0
    assert lg2 is lg  # nothing to do: the same object comes back


def test_already_levelled_families_untouched():
    for family in models.LEVELLED_FAMILIES:
        g, _params = models.build_model(models.ModelSpec(family, (), "tanh", 0))
        lg, report = level(g)
        assert report.inserted == 0, family
        assert lg is g


def test_forward_value_is_bit_identical():
    g, params = skip_product_graph()
    lg, _report = level(g)
    assert forward(g, params).output_value(g) == forward(lg, params).output_value(lg)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 600))
def test_neutrality_on_random_graphs(seed):
    """Forward values and reverse-pass updates survive levelling bit-for-bit."""
    g, params, y = models.random_graph(seed)
    lg, report = level(g)
    assert forward(g, params).output_value(g) == forward(lg, params).output_value(lg)
    a = backprop(g, params, float(y)).updates
    b = backprop(lg, params, float(y)).updates
    assert list(a) == list(b)
    for key in a:
        assert np.array_equal(a[key], b[key])
    # audit the postcondition with the exhaustive walk
    assert all(len(s) == 1 for s in audit_paths(lg).values())
    # and the DP agrees
    assert audit_paths(lg) == path_length_sets(lg)


def test_audit_walk_handles_deep_graphs():
    # 400 unrolled steps: far deeper than the interpreter's recursion limit
    g, _params = models.build_model(models.ModelSpec("rnn", (400, 2, 2)))
    lg, _report = level(g)
    assert audit_paths(lg) == path_length_sets(lg)


def test_audit_walk_budget():
    g, _params = skip_product_graph()
    with pytest.raises(TooLarge):
        audit_paths(g, limit=3)


def test_residual_and_gated_models_become_levelled():
    for family, dims in (("residual", (4, 4, 1)), ("attention", (4, 4))):
        g, _params = models.build_model(models.ModelSpec(family, dims, "tanh", 1))
        with pytest.raises(Exception):
            level_structure(g)
        lg, report = level(g)
        assert report.inserted > 0
        level_structure(lg)  # no longer raises


@pytest.mark.parametrize("family", ["mlp", "residual"])
def test_level_is_kept_per_graph(family):
    """A second call returns the same graph and report, whether the
    graph needed identities or not, so its level structure and plans
    are reused."""
    g, params = models.build_model(models.ModelSpec(family, (), "tanh", 0))
    lg, report = level(g)
    again, same = level(g)
    assert again is lg and same is report
    assert (lg is g) == (family in models.LEVELLED_FAMILIES)
    y = forward(lg, params).output_value(lg) + 0.5
    zil_train_step(lg, params, y, record_trace=True)
    plan = lg._steps
    assert plan is not None
    zil_train_step(level(g)[0], params, y, record_trace=True)
    assert lg._steps is plan
