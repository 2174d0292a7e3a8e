"""The wavefront engine against the step engine: the same bytes on every update.

``np.array_equal`` treats -0.0 and 0.0 as equal, so updates are compared
through ``.tobytes()``.  A run without a recorded trace on a levelled
graph takes the wavefront engine; a traced run of the same schedule
takes the step engine, which is the oracle.
"""

from dataclasses import replace

import numpy as np
import pytest

from pcgraph import functions as fns
from pcgraph import pc
from pcgraph.autodiff import forward
from pcgraph.graph import GraphBuilder
from pcgraph.leveller import level
from pcgraph.models import FAMILIES, ModelSpec, build_model, random_graph
from pcgraph.pc import il_train_step, run_schedule
from pcgraph.zil import make_schedule, zil_ablate, zil_train_step

GAMMAS = (1.0, 0.5)


@pytest.fixture
def engines(monkeypatch):
    """The names of the engines run since the fixture was set up."""
    ran: list[str] = []
    for name in ("relax_schedule", "_wavefront"):
        inner = getattr(pc, name)

        def spy(*args, _inner=inner, _name=name, **kwargs):
            ran.append(_name)
            return _inner(*args, **kwargs)

        monkeypatch.setattr(pc, name, spy)
    return ran


def _assert_same_bytes(g, params, y, gamma, engines):
    engines.clear()
    schedule = replace(make_schedule(g, "level_structured"), gamma=gamma)
    dense, dense_trace = run_schedule(g, params, y, 0.01, schedule, "zil",
                                      record_trace=True)
    sparse, sparse_trace = run_schedule(g, params, y, 0.01, schedule, "zil")
    assert engines == ["relax_schedule", "_wavefront"]
    assert set(sparse_trace.updates) == set(dense_trace.updates)
    for vid, delta in dense_trace.updates.items():
        assert sparse_trace.updates[vid].tobytes() == delta.tobytes(), vid
    assert list(sparse.updates) == list(dense.updates)
    for key, delta in dense.updates.items():
        assert sparse.updates[key].tobytes() == delta.tobytes(), key


@pytest.mark.parametrize("gamma", GAMMAS)
@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("family", FAMILIES)
def test_zoo_updates_are_byte_identical(family, seed, gamma, engines):
    g, params = build_model(ModelSpec(family, (), "tanh", seed))
    lg, _report = level(g)
    y = forward(lg, params).output_value(lg) + 0.5
    _assert_same_bytes(lg, params, y, gamma, engines)


@pytest.mark.parametrize("gamma", GAMMAS)
def test_random_graph_updates_are_byte_identical(gamma, engines):
    for seed in range(200):
        g, params, y = random_graph(seed)
        lg, _report = level(g)
        _assert_same_bytes(lg, params, y, gamma, engines)


def test_a_negative_zero_below_the_wavefront_keeps_the_dense_bytes(engines):
    """The dense step turns a quiet -0.0 value into +0.0 at t = 1, and the
    leaf read through it at t = 1 sees the sign of that zero."""
    b = GraphBuilder()
    x = b.leaf(trainable=False)
    w2 = b.leaf()
    w3 = b.leaf()
    h = b.vertex(fns.identity(), [x])
    a = b.vertex(fns.multiply(), [w2, h])
    g = b.build(b.vertex(fns.multiply(), [w3, a]))
    params = {x: np.asarray(-0.0), w2: np.asarray(2.0), w3: np.asarray(3.0)}
    for gamma in GAMMAS:
        _assert_same_bytes(g, params, 1.0, gamma, engines)


def test_layer_indexed_on_a_levelled_graph_takes_the_wavefront(engines):
    g, params = build_model(ModelSpec("rnn", (3, 3, 4), "tanh", 1))
    zil_train_step(g, params, 0.3, variant="layer_indexed", record_trace=False)
    assert engines == ["_wavefront"]


def test_unlevelled_graphs_and_traced_runs_take_the_dense_engine(engines):
    g, params = build_model(ModelSpec("skipchain"))
    zil_train_step(g, params, 0.3, variant="layer_indexed", record_trace=False)
    lg, _report = level(g)
    zil_train_step(lg, params, 0.3, record_trace=True)
    assert engines == ["relax_schedule", "relax_schedule"]


def test_schedule_and_init_ablations_take_the_dense_engine(engines):
    g, params = build_model(ModelSpec("mlp", (3, 4, 1), "tanh", 2))
    zil_ablate(g, params, 0.3, which="no_level_schedule")
    zil_ablate(g, params, 0.3, which="nonzero_init_error")
    assert engines == ["relax_schedule", "relax_schedule"]
    zil_ablate(g, params, 0.3, which="gamma_half")
    assert engines[-1] == "_wavefront"


def test_inference_learning_reading_every_leaf_at_its_level_takes_the_wavefront(
        engines):
    """Every kernel tap of conv1d(6, 2) sits at level 3, so T = 2 reads
    each at level(leaf) - 1 and T = 3 does not."""
    g, params = build_model(ModelSpec("conv1d", (6, 2), "tanh", 0))
    il_train_step(g, params, 0.3, T=2)
    il_train_step(g, params, 0.3, T=3)
    assert engines == ["_wavefront", "relax_schedule"]
