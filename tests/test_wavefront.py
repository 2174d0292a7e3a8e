"""The wavefront engine against the step engine: the same bytes on every update.

``np.array_equal`` treats -0.0 and 0.0 as equal, so updates are compared
through ``.tobytes()``.  A run without a recorded trace on a levelled
graph takes the wavefront engine; a traced run of the same schedule
takes the step engine, which is the oracle.  The wavefront settles on
the forward values and evaluates nothing again, which is exact only
where no internal forward value holds a -0.0, an inf or a nan; an
untraced run whose forward values do takes the step engine, and those
cases are covered here too, nan bits included.
"""

from dataclasses import replace

import numpy as np
import pytest

from oracles import check_wavefront_recursion
from pcgraph import functions as fns
from pcgraph import pc
from pcgraph.autodiff import backprop, forward
from pcgraph.errors import GraphError
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


def _assert_same_bytes(g, params, y, gamma, engines,
                       variant="level_structured", untraced="_wavefront"):
    """The traced run (step engine) and the untraced one (the engine
    named ``untraced``) give the same bytes; returns the traced run's
    trace."""
    engines.clear()
    schedule = replace(make_schedule(g, variant), gamma=gamma)
    dense, dense_trace = run_schedule(g, params, y, 0.01, schedule, "zil",
                                      record_trace=True)
    sparse, sparse_trace = run_schedule(g, params, y, 0.01, schedule, "zil")
    assert engines == ["relax_schedule", untraced]
    assert set(sparse_trace.updates) == set(dense_trace.updates)
    for vid, delta in dense_trace.updates.items():
        assert sparse_trace.updates[vid].tobytes() == delta.tobytes(), vid
    assert list(sparse.updates) == list(dense.updates)
    for key, delta in dense.updates.items():
        assert sparse.updates[key].tobytes() == delta.tobytes(), key
    return dense_trace


def _outcome(g, params, y, record_trace):
    """A level-scheduled run's update bytes, or its exception."""
    try:
        report, _trace = zil_train_step(g, params, y, 0.01,
                                        record_trace=record_trace)
    except GraphError as err:
        return type(err), str(err), getattr(err, "vertex", None)
    return [(key, delta.tobytes()) for key, delta in report.updates.items()]


def _internal_values(g, params):
    mu = forward(g, params).mu
    return np.concatenate([mu[v] for v in g.internal_ids], axis=None)


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
    leaf read through it at t = 1 sees the sign of that zero; the
    untraced run takes the step engine too."""
    b = GraphBuilder()
    x = b.leaf(trainable=False)
    w2 = b.leaf()
    w3 = b.leaf()
    h = b.vertex(fns.identity(), [x])
    a = b.vertex(fns.multiply(), [w2, h])
    g = b.build(b.vertex(fns.multiply(), [w3, a]))
    params = {x: np.asarray(-0.0), w2: np.asarray(2.0), w3: np.asarray(3.0)}
    for gamma in GAMMAS:
        _assert_same_bytes(g, params, 1.0, gamma, engines,
                           untraced="relax_schedule")


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


def _negative_zero_graphs():
    """A -0.0 at an internal vertex: a scalar one, and one component of
    a vector, each fed on to further kinds."""
    b = GraphBuilder()
    x = b.leaf(trainable=False)
    w1, w2, w3 = b.leaf(), b.leaf(), b.leaf()
    h = b.vertex(fns.multiply(), [w1, x])  # -2.0 * 0.0 = -0.0
    c = b.vertex(fns.multiply(), [w2, b.vertex(fns.activation("tanh"), [h])])
    g = b.build(b.vertex(fns.square(), [b.vertex(fns.add(), [c, w3])]))
    yield "scalar", g, {x: np.asarray(0.0), w1: np.asarray(-2.0),
                        w2: np.asarray(3.0), w3: np.asarray(0.5)}, 1.0
    b = GraphBuilder()
    x = b.leaf(trainable=False)
    w, m = b.leaf(), b.leaf()
    h = b.vertex(fns.multiply(), [w, x])  # [-0.0, 2.0, -1.0]
    top = b.vertex(fns.matvec(), [m, b.vertex(fns.activation("tanh"), [h])])
    g = b.build(b.vertex(fns.sum_reduce(),
                         [b.vertex(fns.activation("tanh"), [top])]))
    yield "vector", g, {x: np.asarray([0.0, 1.0, -1.0]),
                        w: np.asarray([-1.0, 2.0, 1.0]),
                        m: np.asarray([[0.5, -0.5, 1.0], [1.0, 0.0, -1.0]])}, 0.3


@pytest.mark.parametrize("gamma", GAMMAS)
def test_a_negative_zero_at_an_internal_vertex_keeps_the_dense_bytes(
        gamma, engines):
    for label, g, params, y in _negative_zero_graphs():
        values = _internal_values(g, params)
        assert (np.signbit(values) & (values == 0.0)).any(), label
        trace = _assert_same_bytes(g, params, y, gamma, engines,
                                   untraced="relax_schedule")
        assert check_wavefront_recursion(trace, g), label


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the params overflow
@pytest.mark.parametrize("family", FAMILIES)
def test_huge_params_keep_the_dense_bytes(family, engines):
    """Params times 1e160 overflow: an infinite forward value gives a nan
    error at t = 0, so the untraced run takes the step engine too and
    gives the traced run's bytes, nan bits included, or raises the same
    error at the same vertex; where every forward value stays finite it
    takes the wavefront."""
    for seed in range(3):
        g, params = build_model(ModelSpec(family, (), "tanh", seed))
        lg, _report = level(g)
        y = forward(lg, params).output_value(lg) + 0.5
        huge = {v: p * 1e160 for v, p in params.items()}
        finite = np.isfinite(_internal_values(lg, huge)).all()
        if family not in ("sqrtsquare", "skipchain"):
            assert not finite
        engines.clear()
        assert _outcome(lg, huge, y, True) == _outcome(lg, huge, y, False)
        assert engines == ["relax_schedule",
                           "_wavefront" if finite else "relax_schedule"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the params overflow
def test_huge_random_graphs_keep_the_dense_nan_signs():
    """Untraced runs give the traced runs' bytes, nan bits included, or
    raise the same error at the same vertex."""
    for seed in range(200):
        g, params, y = random_graph(seed)
        lg, _report = level(g)
        huge = {v: p * 1e160 for v, p in params.items()}
        assert _outcome(lg, huge, y, True) == _outcome(lg, huge, y, False), seed


@pytest.mark.parametrize("family", FAMILIES)
def test_gamma_half_takes_the_wavefront_with_the_dense_bytes(family, engines):
    g, params = build_model(ModelSpec(family, (), "tanh", 4))
    lg, _report = level(g)
    y = forward(lg, params).output_value(lg) + 0.5
    trace = _assert_same_bytes(lg, params, y, 0.5, engines)
    assert check_wavefront_recursion(trace, lg)
    engines.clear()
    ablated = zil_ablate(lg, params, y, 0.01, which="gamma_half")
    dense, _trace = run_schedule(lg, params, y, 0.01, trace.schedule, "zil",
                                 record_trace=True)
    assert engines == ["_wavefront", "relax_schedule"]
    for key, delta in dense.updates.items():
        assert ablated.updates[key].tobytes() == delta.tobytes(), key


@pytest.mark.parametrize("family", FAMILIES)
def test_layer_indexed_on_levelled_graphs_keeps_the_dense_bytes(family, engines):
    for seed in range(3):
        g, params = build_model(ModelSpec(family, (), "tanh", seed))
        lg, _report = level(g)
        y = forward(lg, params).output_value(lg) + 0.5
        trace = _assert_same_bytes(lg, params, y, 1.0, engines,
                                   variant="layer_indexed")
        assert check_wavefront_recursion(trace, lg)


def test_a_wavefront_run_evaluates_each_internal_vertex_once(monkeypatch,
                                                             engines):
    """The forward pass evaluates every internal vertex; the sweep then
    settles on those values and evaluates none again."""
    g, params = build_model(ModelSpec("rnn", (13, 4, 8), "tanh", 0))
    lg, _report = level(g)
    y = forward(lg, params).output_value(lg) + 0.5
    evaluated = []
    for kind, rule in list(fns.KINDS.items()):
        def counting(fn, ins, out=None, _rule=rule):
            evaluated.append(fn.kind)
            return _rule.forward(fn, ins, out)
        monkeypatch.setitem(fns.KINDS, kind, rule._replace(forward=counting))
    engines.clear()
    zil_train_step(lg, params, y, record_trace=False)
    assert engines == ["_wavefront"]
    assert len(evaluated) == len(lg.internal_ids) == 54
    # A -0.0 forward value sends the run to the step engine.
    for label, g, params, y in _negative_zero_graphs():
        engines.clear()
        zil_train_step(g, params, y, record_trace=False)
        assert engines == ["relax_schedule"], label


def test_untraced_zil_makes_the_kernel_calls_of_backprop(monkeypatch,
                                                         engines):
    """The paper's cost claim, counted: on every levelled zoo model and
    random graph, untraced level-structured Z-IL makes exactly as many
    ``ElemFn`` forward and vjp calls as backprop."""
    calls = {"call": 0, "vjp": 0}
    for name, attr in (("call", "__call__"), ("vjp", "vjp")):
        def counted(*args, _inner=getattr(fns.ElemFn, attr), _name=name,
                    **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)
        monkeypatch.setattr(fns.ElemFn, attr, counted)

    def counts(run):
        calls.update(call=0, vjp=0)
        run()
        return dict(calls)

    models = []
    for family in FAMILIES:
        for activation in ("tanh", "identity", "logistic"):
            for seed in range(3):
                g, params = build_model(ModelSpec(family, (), activation,
                                                  seed))
                models.append((g, params,
                               forward(g, params).output_value(g) + 0.5))
    models += [random_graph(seed) for seed in range(200)]
    for g, params, y in models:
        lg, _report = level(g)
        bp = counts(lambda: backprop(lg, params, y, 0.01))
        zil = counts(lambda: zil_train_step(lg, params, y, 0.01,
                                            record_trace=False))
        assert zil == bp and bp["call"] > 0, (lg, bp, zil)
    assert engines.count("_wavefront") == len(models)
