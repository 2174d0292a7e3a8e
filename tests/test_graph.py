"""Graph construction, validation, ordering, and level bookkeeping."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pcgraph import functions as fns
from pcgraph import models
from pcgraph.errors import (
    ArityMismatch,
    BadTieGroup,
    CycleDetected,
    DanglingId,
    GraphError,
    NotLevelled,
    UnreachableVertex,
)
from pcgraph.graph import (
    Graph,
    GraphBuilder,
    TieGroup,
    Vertex,
    check_params,
    level_structure,
    min_distances,
    param_keys,
    path_length_sets,
    topological_sort,
)
from pcgraph.leveller import audit_paths
from pcgraph.serial import build_graph


def chain_graph():
    """leaf -> square -> sqrt-free chain with a single output."""
    b = GraphBuilder()
    z = b.leaf(name="z")
    out = b.vertex(fns.square(), [z])
    return b.build(out), z, out


# -- construction ---------------------------------------------------------

def test_builder_allocates_dense_ids():
    g, z, out = chain_graph()
    assert [v.id for v in g.vertices] == [0, 1]
    assert g.output == out
    assert g.leaves == (z,)
    assert g.internal_ids == (out,)


def test_parents_are_transpose_with_slots():
    b = GraphBuilder()
    z = b.leaf()
    # same child used twice by one parent: two slots, one child id
    out = b.vertex(fns.multiply(), [z, z])
    g = b.build(out)
    assert g.parents[z] == ((out, 0), (out, 1))
    assert g.parents[out] == ()


def test_constant_vertices_have_no_children():
    b = GraphBuilder()
    c = b.constant(3.0)
    z = b.leaf()
    out = b.vertex(fns.add(), [c, z])
    g = b.build(out)
    assert g.vertices[c].fn.arity == 0
    assert not g.vertices[c].is_leaf


# -- validation errors ----------------------------------------------------

def test_non_dense_ids_rejected():
    v = Vertex(5, None, (), True)
    with pytest.raises(GraphError, match="dense"):
        Graph([v], 0)


def test_dangling_child_rejected():
    vs = [Vertex(0, fns.square(), (3,), False)]
    with pytest.raises(DanglingId):
        Graph(vs, 0)


def test_leaf_with_children_rejected():
    vs = [Vertex(0, None, (1,), True), Vertex(1, None, (), True)]
    with pytest.raises(GraphError, match="leaf"):
        Graph(vs, 0)


def test_internal_without_function_rejected():
    vs = [Vertex(0, None, (), False)]
    with pytest.raises(GraphError, match="function"):
        Graph(vs, 0)


def test_arity_mismatch_rejected():
    vs = [Vertex(0, fns.add(), (1,), False), Vertex(1, None, (), True)]
    with pytest.raises(ArityMismatch) as exc:
        Graph(vs, 0)
    assert exc.value.expected == 2 and exc.value.got == 1


def test_cycle_detected_with_path():
    vs = [Vertex(0, fns.identity(), (1,), False),
          Vertex(1, fns.identity(), (0,), False)]
    with pytest.raises(CycleDetected) as exc:
        Graph(vs, 0)
    assert set(exc.value.path) >= {0, 1}


def walk(start, step):
    """Every id reached from ``start`` by repeatedly following ``step``."""
    seen, stack = {start}, [start]
    while stack:
        for nxt in step(stack.pop()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 500), st.integers(0, 2**32 - 1), st.booleans())
def test_construction_names_a_real_cycle_or_the_unreached_vertices(
        seed, pick, orphan):
    """One child of a random graph's internal vertex is redirected to any
    vertex, and maybe an orphan leaf added: the graph is then rejected
    with a cycle exactly when the new child is the vertex or one of its
    ancestors, else with exactly the vertices the output no longer
    reaches, if any."""
    g, _params, _y = models.random_graph(seed)
    rng = np.random.default_rng(pick)
    v = g.vertices[int(rng.choice(g.internal_ids))]
    children, new = list(v.children), int(rng.integers(len(g)))
    children[int(rng.integers(len(children)))] = new
    vs = list(g.vertices)
    vs[v.id] = Vertex(v.id, v.fn, tuple(children), False)
    if orphan:
        vs.append(Vertex(len(vs), None, (), True))
    above = walk(v.id, lambda u: (p for p, _slot in g.parents[u]))
    missing = set(range(len(vs))) - walk(g.output, lambda u: vs[u].children)
    try:
        built = Graph(vs, g.output)
    except CycleDetected as err:
        path = err.path
        assert new in above, "no cycle was made"
        assert len(path) >= 2 and path[0] == path[-1]
        assert len(set(path)) == len(path) - 1
        for parent, child in zip(path, path[1:]):
            assert child in vs[parent].children
        return
    except UnreachableVertex as err:
        assert new not in above and set(err.ids) == missing
        return
    assert new not in above and not missing
    assert sorted(built.order) == list(range(len(vs)))


def test_output_with_parents_rejected():
    vs = [Vertex(0, fns.square(), (1,), False),
          Vertex(1, fns.square(), (2,), False),
          Vertex(2, None, (), True)]
    with pytest.raises(GraphError, match="parents"):
        Graph(vs, 1)  # vertex 1 is consumed by vertex 0


def test_unreachable_vertices_rejected():
    vs = [Vertex(0, fns.square(), (1,), False),
          Vertex(1, None, (), True),
          Vertex(2, None, (), True)]  # orphan
    with pytest.raises(UnreachableVertex) as exc:
        Graph(vs, 0)
    assert exc.value.ids == (2,)


@pytest.mark.parametrize("mutate,match", [
    (lambda vs, grp: (vs, [TieGroup("k", ())]), "empty"),
    (lambda vs, grp: (vs, [TieGroup("k", (0,))]), "not a leaf"),
    (lambda vs, grp: (vs, [TieGroup("other", (1,))]), "does not name"),
    (lambda vs, grp: (vs, [TieGroup("k", (1,)), TieGroup("k", (1,))]),
     "distinct"),
    (lambda vs, grp: (vs, [TieGroup("k", (1, 7))]), "unknown"),
])
def test_bad_tie_groups(mutate, match):
    vs = [Vertex(0, fns.square(), (1,), False),
          Vertex(1, None, (), True, "k")]
    vs2, groups = mutate(vs, None)
    with pytest.raises(BadTieGroup, match=match):
        Graph(vs2, 0, groups)


def test_undeclared_tie_group_rejected():
    vs = [Vertex(0, fns.square(), (1,), False),
          Vertex(1, None, (), True, "ghost")]
    with pytest.raises(BadTieGroup, match="not declared"):
        Graph(vs, 0)


def test_untrainable_tie_group_member_rejected():
    vs = [Vertex(0, fns.add(), (1, 2), False),
          Vertex(1, None, (), True, "k"),
          Vertex(2, None, (), True, "k", trainable=False)]
    with pytest.raises(BadTieGroup, match="member 2 is not trainable"):
        Graph(vs, 0, [TieGroup("k", (1, 2))])


def test_leaf_in_two_groups_rejected():
    vs = [Vertex(0, fns.add(), (1, 1), False),
          Vertex(1, None, (), True, "a")]
    with pytest.raises(BadTieGroup):
        Graph(vs, 0, [TieGroup("a", (1,)), TieGroup("b", (1,))])


# -- ordering and distances -----------------------------------------------

def test_topological_sort_starts_at_output():
    g, _, out = chain_graph()
    order = topological_sort(g)
    assert order[0] == g.output
    assert len(order) == len(g)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 500))
def test_topological_sort_respects_parents(seed):
    g, _params, _y = models.random_graph(seed)
    order = topological_sort(g)
    position = {v: i for i, v in enumerate(order)}
    assert sorted(position) == list(range(len(g)))
    for v in g.vertices:
        for p, _slot in g.parents[v.id]:
            assert position[p] < position[v.id]
    # deterministic
    assert topological_sort(g) == order


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 500))
def test_min_distance_is_smallest_path_length(seed):
    g, _params, _y = models.random_graph(seed)
    dist = min_distances(g)
    sets = audit_paths(g)
    assert dist.keys() == sets.keys()
    for v, s in sets.items():
        assert dist[v] == min(s)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 300))
def test_path_length_sets_match_exhaustive_walk(seed):
    g, _params, _y = models.random_graph(seed)
    assert path_length_sets(g) == audit_paths(g)


def test_level_structure_on_a_chain():
    g, z, out = chain_graph()
    s = level_structure(g)
    assert s.levels == {out: 0, z: 1}
    assert s.max_level == 1
    assert s.members(1) == (z,)
    assert s.members(2) == () and s.members(-1) == ()
    assert level_structure(g) is s  # computed once per graph


def test_level_structure_rejects_skips():
    g, _params = models.build_model(models.ModelSpec("skipchain"))
    sets = path_length_sets(g)
    expected_offender = min(v for v, s in sets.items() if len(s) != 1)
    for _ in range(2):  # the cached outcome raises afresh
        with pytest.raises(NotLevelled) as exc:
            level_structure(g)
        assert exc.value.vertex == expected_offender
        assert exc.value.lengths == sets[expected_offender]


# -- parameter bookkeeping ------------------------------------------------

def test_param_keys_order_groups_then_free_leaves():
    b = GraphBuilder()
    k1 = b.leaf(tie_group="beta")
    k2 = b.leaf(tie_group="beta")
    w = b.leaf()
    x = b.leaf(trainable=False)
    k3 = b.leaf(tie_group="alpha")
    out = b.vertex(fns.add(5), [k1, k2, w, x, k3])
    g = b.build(out)
    # declaration order of the groups, not alphabetical
    assert param_keys(g) == (("group", "beta"), ("group", "alpha"), ("leaf", w))


def test_check_params_missing_leaf():
    g, z, _ = chain_graph()
    with pytest.raises(GraphError, match="missing"):
        check_params(g, {})


def test_check_params_tie_disagreement():
    b = GraphBuilder()
    k1 = b.leaf(tie_group="k")
    k2 = b.leaf(tie_group="k")
    out = b.vertex(fns.add(), [k1, k2])
    g = b.build(out)
    with pytest.raises(BadTieGroup, match="disagree"):
        check_params(g, {k1: np.asarray(1.0), k2: np.asarray(2.0)})
    check_params(g, {k1: np.asarray(1.0), k2: np.asarray(1.0)})


def five_clones():
    b = GraphBuilder()
    ks = [b.leaf(tie_group="k") for _ in range(5)]
    return b.build(b.vertex(fns.add(5), ks)), ks


@pytest.mark.parametrize("at", [1, 2, 4])  # the first clone, a middle one, the last
@pytest.mark.parametrize("odd", [
    np.array([1.0, 3.0]),        # another value
    np.array([1.0, np.nan]),     # a nan, which equals nothing
    np.array([1.0, 2.0, 3.0]),   # another shape
    np.array(1.0),               # a scalar
    np.array([[1.0, 2.0]]),      # the same values, laid out in two dims
])
def test_check_params_names_the_first_clone_that_disagrees(at, odd):
    g, ks = five_clones()
    params = {k: np.array([1.0, 2.0]) for k in ks}
    check_params(g, params)
    with pytest.raises(BadTieGroup, match=f"disagree at leaf {ks[at]}$"):
        check_params(g, {**params, ks[at]: odd})
    if at < 4:  # a later clone of another shape hides no earlier one
        with pytest.raises(BadTieGroup, match=f"disagree at leaf {ks[at]}$"):
            check_params(g, {**params, ks[at]: odd, ks[4]: np.zeros(3)})


def test_check_params_takes_signed_zeros_as_equal_clones():
    g, ks = five_clones()
    params = {k: np.array([0.0, 2.0]) for k in ks}
    check_params(g, {**params, ks[2]: np.array([-0.0, 2.0])})
    empty = {k: np.zeros((2, 0)) for k in ks}
    check_params(g, empty)
    with pytest.raises(BadTieGroup, match=f"disagree at leaf {ks[1]}$"):
        check_params(g, {**empty, ks[1]: np.zeros((0, 2))})


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_check_params_rejects_non_finite_values(bad):
    b = GraphBuilder()
    k1 = b.leaf(tie_group="k")
    k2 = b.leaf(tie_group="k")
    w = b.leaf()
    x = b.leaf(trainable=False)
    g = b.build(b.vertex(fns.add(4), [k1, k2, w, x]))
    ok = {k1: np.asarray(1.0), k2: np.asarray(1.0), w: np.array([2.0, 3.0]),
          x: np.asarray(4.0)}
    check_params(g, ok)
    for leaf in (w, x):
        value = ok[leaf].copy()
        value.flat[-1] = bad
        with pytest.raises(GraphError, match=f"non-finite value for leaf {leaf}"):
            check_params(g, {**ok, leaf: value})
    with pytest.raises(GraphError, match="non-finite value for tie group 'k'"):
        check_params(g, {**ok, k1: np.asarray(bad), k2: np.asarray(bad)})


@pytest.mark.parametrize("bad", [
    pytest.param("1.0", id="str"), pytest.param([1.0, [2.0]], id="ragged"),
    pytest.param({}, id="dict"), pytest.param(1 + 0j, id="complex"),
    pytest.param(np.array([1j, 2.0]), id="complex-array"),
    pytest.param(10**400, id="huge-int"),
])
def test_check_params_names_a_leaf_whose_value_is_not_real(bad):
    b = GraphBuilder()
    k1 = b.leaf(tie_group="k")
    k2 = b.leaf(tie_group="k")
    w = b.leaf()
    x = b.leaf(trainable=False)
    g = b.build(b.vertex(fns.add(4), [k1, k2, w, x]))
    ok = {k1: np.asarray(1.0), k2: np.asarray(1.0), w: np.asarray(2.0),
          x: np.asarray(4.0)}
    for leaf in (w, x, k1, k2):  # free leaves and tie members alike
        with pytest.raises(GraphError, match=f"value for leaf {leaf} must be "
                                             f"a real number"):
            check_params(g, {**ok, leaf: bad})


# -- plain-dict construction (pcgraph.serial.build_graph) -----------------

def test_build_graph_from_description():
    desc = {
        "output": 2,
        "vertices": [
            {"id": 0, "leaf": True, "name": "z"},
            {"id": 1, "leaf": True, "trainable": False},
            {"id": 2, "kind": "add", "children": [0, 1]},
        ],
    }
    g = build_graph(desc)
    assert g.output == 2
    assert g.trainable_leaves() == (0,)
    assert g.vertices[2].fn.kind is fns.FnKind.ADD


def test_build_graph_with_tie_groups():
    desc = {
        "output": 3,
        "vertices": [
            {"id": 0, "leaf": True, "tie_group": "k"},
            {"id": 1, "leaf": True, "tie_group": "k"},
            {"id": 2, "kind": "multiply", "children": [0, 1]},
            {"id": 3, "kind": "square", "children": [2]},
        ],
        "tie_groups": [{"id": "k", "members": [0, 1], "value": 0.5}],
    }
    g = build_graph(desc)
    assert g.tie_groups[0].members == (0, 1)
    assert float(g.tie_groups[0].shared_value) == 0.5


@pytest.mark.parametrize("desc", [
    {},
    {"output": 0},
    {"output": 0, "vertices": [{"id": 0, "leaf": True},
                               {"id": 0, "leaf": True}]},
    {"output": 0, "vertices": [{"id": 4, "leaf": True}]},
    {"output": 1, "vertices": [{"id": 0, "leaf": True},
                               {"id": 1, "children": [0]}]},
    {"output": 1, "vertices": [{"id": 0, "leaf": True},
                               {"id": 1, "kind": "nope", "children": [0]}]},
    {"output": 1, "vertices": [{"id": 0, "leaf": True},
                               {"id": 1, "kind": "add", "arity": 1,
                                "children": [0]}]},
    {"output": 1, "vertices": [{"id": 0, "leaf": True},
                               {"id": 1, "kind": "activation", "children": [0]}]},
    {"output": "top", "vertices": []},
    {"output": 0, "vertices": [7]},
    [{"id": 0, "leaf": True}],
    {"output": float("inf"), "vertices": [{"id": 0, "leaf": True}]},
    {"output": 0, "vertices": [{"id": float("inf"), "leaf": True}]},
    # nothing is coerced: ids and counts are integers, flags are booleans
    {"output": 1.7, "vertices": [{"id": 0, "leaf": True},
                                 {"id": 1, "kind": "square", "children": [0]}]},
    {"output": True, "vertices": [{"id": 0, "leaf": True},
                                  {"id": 1, "kind": "square", "children": [0]}]},
    {"output": 1, "vertices": [{"id": 0, "leaf": True},
                               {"id": 1.9, "kind": "square", "children": [0]}]},
    {"output": 1, "vertices": [{"id": False, "leaf": True},
                               {"id": 1, "kind": "square", "children": [0]}]},
    {"output": 1, "vertices": [{"id": 0, "leaf": True},
                               {"id": 1, "kind": "square", "children": [0.5]}]},
    {"output": 1, "vertices": [{"id": 0, "leaf": True},
                               {"id": 1, "kind": "square", "children": [False]}]},
    {"output": 1, "vertices": [{"id": 0, "leaf": "no"},
                               {"id": 1, "kind": "square", "children": [0]}]},
    {"output": 1, "vertices": [{"id": 0, "leaf": 1},
                               {"id": 1, "kind": "square", "children": [0]}]},
    {"output": 1, "vertices": [{"id": 0, "leaf": True, "trainable": "false"},
                               {"id": 1, "kind": "square", "children": [0]}]},
    {"output": 1, "vertices": [{"id": 0, "leaf": True, "trainable": 0},
                               {"id": 1, "kind": "square", "children": [0]}]},
    {"output": 2, "vertices": [{"id": 0, "leaf": True}, {"id": 1, "leaf": True},
                               {"id": 2, "kind": "add", "arity": 2.0,
                                "children": [0, 1]}]},
    {"output": 1, "vertices": [{"id": 0, "leaf": True, "tie_group": "k"},
                               {"id": 1, "kind": "square", "children": [0]}],
     "tie_groups": [{"id": "k", "members": [0.0]}]},
    {"output": 1, "vertices": [{"id": 0, "leaf": True, "tie_group": "k"},
                               {"id": 1, "kind": "square", "children": [0]}],
     "tie_groups": [{"id": "k", "members": [False]}]},
    {"output": 2, "vertices": [{"id": 0, "leaf": True},
                               {"id": 1, "kind": "square", "children": [0]}]},
])
def test_build_graph_rejects_malformed_descriptions(desc):
    with pytest.raises(GraphError):
        build_graph(desc)
