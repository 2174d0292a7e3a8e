"""Persistence round-trips and DOT rendering."""

import json

import numpy as np
import pytest

from pcgraph import functions as fns
from pcgraph import models
from pcgraph.autodiff import backprop, forward
from pcgraph.errors import GraphError
from pcgraph.graph import GraphBuilder
from pcgraph.serial import (
    FORMAT,
    graph_from_dict,
    graph_to_dict,
    load_graph,
    save_graph,
    to_dot,
)


@pytest.mark.parametrize("family", list(models.FAMILIES))
def test_round_trip_preserves_behaviour(family):
    act = "identity" if family in ("sqrtsquare", "skipchain") else "tanh"
    g, params = models.build_model(models.ModelSpec(family, (), act, 3))
    g2, params2 = graph_from_dict(graph_to_dict(g, params))
    assert len(g2) == len(g)
    assert g2.output == g.output
    assert [grp.group_id for grp in g2.tie_groups] == \
        [grp.group_id for grp in g.tie_groups]
    assert params2.keys() == params.keys()
    y = forward(g, params).output_value(g) + 0.5
    a = backprop(g, params, y).updates
    b = backprop(g2, params2, y).updates
    assert list(a) == list(b)
    for key in a:
        assert np.array_equal(a[key], b[key])


def test_round_trip_keeps_a_constant_vertex():
    b = GraphBuilder()
    c = b.constant(2.5)
    z = b.leaf()
    g = b.build(b.vertex(fns.multiply(), [c, z]))
    params = {z: np.asarray(3.0)}
    g2, params2 = graph_from_dict(json.loads(json.dumps(graph_to_dict(g, params))))
    assert g2.vertices[c].fn.kind is fns.FnKind.CONSTANT
    assert g2.vertices[c].fn.value == 2.5
    assert forward(g2, params2).output_value(g2) == 7.5


def test_round_trip_without_params():
    g, _params = models.build_model(models.ModelSpec("sqrtsquare"))
    g2, params2 = graph_from_dict(graph_to_dict(g))
    assert params2 is None
    assert len(g2) == len(g)


def test_dict_is_json_serializable():
    g, params = models.build_model(models.ModelSpec("rnn", (3, 3, 4), "tanh", 0))
    text = json.dumps(graph_to_dict(g, params))
    d = json.loads(text)
    assert d["format"] == FORMAT
    g2, params2 = graph_from_dict(d)
    assert len(g2) == len(g)
    for k in params:
        assert np.array_equal(params2[k], np.asarray(params[k]))


def test_unsupported_format_rejected():
    g, _ = models.build_model(models.ModelSpec("sqrtsquare"))
    d = graph_to_dict(g)
    d["format"] = "pcgraph-v999"
    with pytest.raises(GraphError, match="format"):
        graph_from_dict(d)


def test_file_round_trip(tmp_path):
    g, params = models.build_model(models.ModelSpec("conv1d", (6, 2), "tanh", 1))
    path = tmp_path / "model.json"
    save_graph(path, g, params)
    g2, params2 = load_graph(path)
    assert [grp.members for grp in g2.tie_groups] == \
        [grp.members for grp in g.tie_groups]
    for k in params:
        assert np.array_equal(params2[k], np.asarray(params[k]))


def test_load_missing_file_raises_graph_error(tmp_path):
    with pytest.raises(GraphError, match="cannot read"):
        load_graph(tmp_path / "nope.json")


def test_dot_output_structure():
    g, _params = models.build_model(models.ModelSpec("skipchain"))
    dot = to_dot(g, title="toy")
    assert dot.startswith('digraph "toy"')
    assert "rankdir=BT" in dot
    assert "peripheries=2" in dot  # the output vertex stands out
    # one edge per (parent, child) slot, drawn child -> parent
    n_edges = sum(len(v.children) for v in g.vertices)
    assert dot.count(" -> ") == n_edges


def test_dot_marks_identities_and_ties():
    from pcgraph.leveller import level

    g, _params = models.build_model(models.ModelSpec("conv1d", (6, 2), "tanh", 0))
    lg, report = level(g)
    assert report.inserted == 0  # already levelled; identities come from skipchain
    dot = to_dot(g)
    assert "lightblue" in dot  # first tie group's colour

    g3, _ = models.build_model(models.ModelSpec("skipchain"))
    lg3, _ = level(g3)
    assert "style=dashed" in to_dot(lg3)
