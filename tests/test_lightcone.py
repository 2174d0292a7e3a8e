"""The step engine against the plain relaxation loop, byte for byte.

The step engine (:func:`pc.relax_schedule`) recomputes only what an
input change reaches.  :func:`pc.run_schedule` runs a traced schedule
on it and, where every leaf is read at level(leaf) - 1 on a levelled
graph, keeps only the light cone: at step t the internal vertices at
level >= t.  Inference learning is a schedule that reads every leaf
after T steps.  The oracle below is one full :func:`pc.inference_step` per
step.  Bytes are compared through ``.tobytes()``, because
``np.array_equal`` treats -0.0 and 0.0 as equal.
"""

from dataclasses import replace

import numpy as np
import pytest

from pcgraph import functions as fns
from pcgraph import pc
from pcgraph.autodiff import backprop, forward
from pcgraph.errors import DomainError, GraphError, NotLevelled
from pcgraph.graph import GraphBuilder, level_structure
from pcgraph.leveller import level
from pcgraph.models import FAMILIES, ModelSpec, build_model, random_graph
from pcgraph.pc import (extract_updates, il_train_step, inference_step,
                        init_state, run_schedule)
from pcgraph.report import make_report
from pcgraph.zil import (ZilSchedule, ZilTrace, check_quiet_window,
                         check_wavefront_recursion, make_schedule,
                         zil_train_step)

LR = 0.01
PERTURBATION = 0.1


def relax_every_step(g, params, y, lr, schedule, init_perturbation):
    """The oracle: every value node relaxed at every step."""
    state = init_state(g, params, y)
    if init_perturbation != 0.0:
        state = pc._perturb(state, g, init_perturbation)
    per_leaf, snapshots = {}, []
    for t in range(schedule.steps):
        snapshots.append(state)
        due = schedule.leaves_at(t)
        if due:
            per_leaf.update(extract_updates(state, g, lr, only=set(due)))
        if t < schedule.steps - 1:
            state = inference_step(state, g, schedule.gamma)
    return per_leaf, tuple(snapshots)


def schedules(g):
    """(schedule, init perturbation) of every run the suites make on g."""
    runs = []
    for variant in ("level_structured", "layer_indexed"):
        for gamma in (1.0, 0.5):
            try:
                runs.append((replace(make_schedule(g, variant), gamma=gamma),
                             0.0))
            except NotLevelled:
                continue
    try:
        base = make_schedule(g, "level_structured")
    except NotLevelled:
        return runs
    last = base.steps - 1
    runs.append((ZilSchedule(1.0, {v: last for v in base.update_times}), 0.0))
    runs.append((base, PERTURBATION))
    return runs


def region(g, schedule, t):
    if pc._reads_at_levels(g, schedule):
        levels = level_structure(g).levels
        return {v for v in g.internal_ids if levels[v] >= t}
    return set(g.internal_ids)


def check_outcomes(trace, g):
    try:
        return check_quiet_window(trace, g), check_wavefront_recursion(trace, g)
    except NotLevelled:
        return None


def assert_run_matches_oracle(g, params, y, schedule, shift=0.0):
    expected, expected_snaps = relax_every_step(g, params, y, LR,
                                                schedule, shift)
    got, snaps = traced(g, params, y, schedule, shift)
    assert list(got) == list(expected)
    for vid, delta in expected.items():
        assert got[vid].tobytes() == delta.tobytes(), (schedule, vid)
    assert len(snaps) == len(expected_snaps) == schedule.steps
    for t, (snap, full) in enumerate(zip(snaps, expected_snaps)):
        inside = region(g, schedule, t)
        assert set(snap.x) == set(snap.mu) == set(snap.eps) == inside
        for vid in inside:
            for name in ("x", "mu", "eps"):
                assert (getattr(snap, name)[vid].tobytes()
                        == getattr(full, name)[vid].tobytes()), \
                    (schedule, t, vid, name)
        assert snap.t == full.t
    assert check_outcomes(ZilTrace(snaps, got, schedule), g) == \
        check_outcomes(ZilTrace(expected_snaps, expected, schedule), g)


def traced(g, params, y, schedule, shift=0.0):
    """The per-leaf updates and snapshots of a traced run of ``schedule``."""
    _report, trace = run_schedule(g, params, y, LR, schedule, "traced",
                                  shift=shift, record_trace=True)
    return trace.updates, trace.snapshots


def il_schedule(g, gamma, T):
    """Inference learning's schedule: every leaf read after T steps."""
    return ZilSchedule(gamma, {v: T for v in g.trainable_leaves()})


def assert_il_matches_oracle(g, params, y):
    for T in (1, 2, 7):
        for gamma in (0.1, 1.0):
            try:
                per_leaf, _snaps = relax_every_step(
                    g, params, y, LR, il_schedule(g, gamma, T), 0.0)
            except GraphError as err:
                with pytest.raises(GraphError) as got:
                    il_train_step(g, params, y, LR, gamma, T)
                assert type(got.value) is type(err)
                assert getattr(got.value, "vertex", None) == \
                    getattr(err, "vertex", None)
                continue
            expected = make_report(g, "il", per_leaf).updates
            got = il_train_step(g, params, y, LR, gamma, T).updates
            assert list(got) == list(expected)
            for key, delta in expected.items():
                assert got[key].tobytes() == delta.tobytes(), (T, gamma, key)


def assert_matches_oracle(g, params, y):
    for schedule, shift in schedules(g):
        assert_run_matches_oracle(g, params, y, schedule, shift)
    assert_il_matches_oracle(g, params, y)


def target(g, params):
    return forward(g, params).output_value(g) + 0.5


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("family", FAMILIES)
def test_zoo_runs_match_the_oracle_raw_and_levelled(family, seed):
    g, params = build_model(ModelSpec(family, (), "tanh", seed))
    y = target(g, params)
    assert_matches_oracle(g, params, y)
    lg, _report = level(g)
    assert_matches_oracle(lg, params, y)


def test_random_graphs_match_the_oracle_raw_and_levelled():
    for seed in range(60):
        g, params, y = random_graph(seed)
        assert_matches_oracle(g, params, y)
        lg, _report = level(g)
        assert_matches_oracle(lg, params, y)


def test_a_deep_recurrent_graph_matches_the_oracle():
    g, params = build_model(ModelSpec("rnn", (13, 4, 8), "tanh", 0))
    assert_matches_oracle(g, params, target(g, params))


def test_a_negative_zero_that_turns_positive_is_a_change():
    """A quiet -0.0 value node relaxes to +0.0 at step 1: equal as a value,
    but a later read sees the sign, so the snapshot must hold +0.0."""
    b = GraphBuilder()
    x = b.leaf(trainable=False)
    w2, w3 = b.leaf(), b.leaf()
    h = b.vertex(fns.identity(), [x])
    g = b.build(b.vertex(fns.multiply(),
                         [w3, b.vertex(fns.multiply(), [w2, h])]))
    params = {x: np.asarray(-0.0), w2: np.asarray(2.0), w3: np.asarray(3.0)}
    assert_matches_oracle(g, params, 1.0)
    _rep, trace = zil_train_step(g, params, 1.0)
    assert trace.snapshots[0].x[h].tobytes() == np.float64(-0.0).tobytes()
    assert trace.snapshots[1].x[h].tobytes() == np.float64(0.0).tobytes()


def test_a_parent_is_pulled_again_when_only_its_children_moved():
    """With a huge clamped target, out's error keeps its bytes while its
    children move, yet its pull onto each child reads the other."""
    b = GraphBuilder()
    w1, w2 = b.leaf(), b.leaf()
    d1, d2 = b.leaf(trainable=False), b.leaf(trainable=False)
    h1 = b.vertex(fns.multiply(), [w1, d1])
    h2 = b.vertex(fns.multiply(), [w2, d2])
    out = b.vertex(fns.multiply(), [h1, h2])
    g = b.build(out)
    params = {w1: np.asarray(1.5), w2: np.asarray(0.5), d1: np.asarray(1.0),
              d2: np.asarray(2.0)}
    tiny_steps = ZilSchedule(1e-20, {w1: 3, w2: 3})
    assert_run_matches_oracle(g, params, 1e17, tiny_steps)
    _updates, snaps = traced(g, params, 1e17, tiny_steps)
    assert snaps[2].eps[out].tobytes() == snaps[1].eps[out].tobytes()
    assert snaps[2].x[h2].tobytes() != snaps[1].x[h2].tobytes()


def test_snapshots_hold_the_light_cone_or_every_internal_vertex():
    g, params = build_model(ModelSpec("mlp", (3, 4, 4, 1), "tanh", 1))
    levels = level_structure(g).levels
    y = target(g, params)
    _rep, trace = zil_train_step(g, params, y)
    assert len(trace.snapshots) == trace.schedule.steps
    for t, snap in enumerate(trace.snapshots):
        assert set(snap.eps) == {v for v in g.internal_ids if levels[v] >= t}
    late = make_schedule(g, "level_structured")
    last = late.steps - 1
    late = ZilSchedule(1.0, {v: last for v in late.update_times})
    _updates, snaps = traced(g, params, y, late)
    assert all(set(snap.eps) == set(g.internal_ids) for snap in snaps)


def test_a_hand_built_levelled_schedule_runs_the_same_traced_or_not():
    g, params = build_model(ModelSpec("mlp", (4, 8, 8, 1), "tanh", 0))
    y = target(g, params)
    schedule = ZilSchedule(1.0,
                           make_schedule(g, "level_structured").update_times)
    untraced, _ = run_schedule(g, params, y, LR, schedule, "x")
    traced_report, trace = run_schedule(g, params, y, LR, schedule, "x",
                                        record_trace=True)
    assert len(trace.snapshots) == schedule.steps
    assert list(traced_report.updates) == list(untraced.updates)
    for key, delta in untraced.updates.items():
        assert traced_report.updates[key].tobytes() == delta.tobytes(), key


def _edited(edit):
    """Run mlp(3,4,1)'s level schedule after ``edit``, traced or not."""
    def run(g, params, y, record_trace):
        schedule = edit(make_schedule(g, "level_structured"))
        run_schedule(g, params, y, LR, schedule, "hand-built",
                     record_trace=record_trace)
    return run


def _first_read_at(when):
    return _edited(lambda s: replace(
        s, update_times={**s.update_times, min(s.update_times): when}))


def _il(gamma, T):
    return lambda g, params, y, _record_trace: il_train_step(
        g, params, y, LR, gamma, T)


@pytest.mark.parametrize("run, message", [
    (_edited(lambda s: replace(
        s, update_times=dict(sorted(s.update_times.items())[:1]))),
     "exactly the trainable leaves"),
    (_edited(lambda s: replace(s, update_times={**s.update_times, 999: 0})),
     "exactly the trainable leaves"),
    (_first_read_at(-1), "integer >= 0"),
    (_first_read_at(1.5), "integer >= 0"),
    (_first_read_at(True), "integer >= 0"),
    (_il(0.1, 2.5), "integer >= 0"),
    (_edited(lambda s: replace(s, gamma=float("nan"))), "finite and positive"),
    (_edited(lambda s: replace(s, gamma=float("inf"))), "finite and positive"),
    (_edited(lambda s: replace(s, gamma=0.0)), "finite and positive"),
    (_il(float("nan"), 2), "finite and positive"),
], ids=["one-of-two-weights", "vertex-999", "step-minus-one", "step-1.5",
        "step-true", "il-T-2.5", "gamma-nan", "gamma-inf", "gamma-zero",
        "il-gamma-nan"])
def test_a_schedule_that_does_not_fit_the_graph_is_a_graph_error(run, message):
    g, params = build_model(ModelSpec("mlp", (3, 4, 1), "tanh", 0))
    assert len(g.trainable_leaves()) == 2
    for record_trace in (False, True):
        with pytest.raises(GraphError, match=message):
            run(g, params, target(g, params), record_trace)


def test_the_state_reads_the_callers_parameters_and_leaves_them_alone():
    g, params = build_model(ModelSpec("rnn", (3, 3, 4), "tanh", 0))
    y = target(g, params)
    before = {v: p.tobytes() for v, p in params.items()}
    state = init_state(g, params, y)
    weight = g.trainable_leaves()[0]
    assert params[weight].dtype == np.float64
    assert state.params[weight] is params[weight]
    il_train_step(g, params, y, LR, 0.1, 7)
    zil_train_step(g, params, y, LR, "layer_indexed")
    lg, _report = level(g)
    zil_train_step(lg, params, y, LR)
    zil_train_step(lg, params, y, LR, record_trace=False)
    assert {v: p.tobytes() for v, p in params.items()} == before


def test_unchanged_arrays_are_shared_between_snapshots():
    g, params = build_model(ModelSpec("rnn", (3, 3, 4), "tanh", 0))
    _rep, trace = zil_train_step(g, params, target(g, params))
    first, second = trace.snapshots[:2]
    below = [v for v in second.x if level_structure(g).levels[v] > 1]
    assert below
    assert all(second.x[v] is first.x[v] for v in below)


@pytest.fixture
def vjp_calls(monkeypatch):
    """The kinds of every ``ElemFn.vjp`` call made, in order."""
    calls = []
    vjp = fns.ElemFn.vjp

    def counted(self, *args, **kwargs):
        calls.append(self.kind)
        return vjp(self, *args, **kwargs)

    monkeypatch.setattr(fns.ElemFn, "vjp", counted)
    return calls


def test_a_traced_deep_recurrent_run_costs_a_few_reverse_passes(vjp_calls):
    g, params = build_model(ModelSpec("rnn", (13, 4, 8), "tanh", 0))
    y = target(g, params)
    backprop(g, params, y, LR)
    bp_calls = len(vjp_calls)
    vjp_calls.clear()
    zil_train_step(g, params, y, LR)
    assert bp_calls == 54
    assert len(vjp_calls) < 3 * bp_calls


def test_inference_learning_pulls_only_where_an_input_moved(vjp_calls):
    g, params = build_model(ModelSpec("rnn", (13, 4, 8), "tanh", 0))
    lg, _report = level(g)
    y = target(lg, params)
    relax_every_step(lg, params, y, LR, il_schedule(lg, 0.1, 100), 0.0)
    oracle_calls = len(vjp_calls)
    vjp_calls.clear()
    il_train_step(lg, params, y, LR, 0.1, 100)
    assert len(vjp_calls) < 0.65 * oracle_calls


def sqrt_below_the_wavefront():
    """out = w2 * sqrt(w1 * x): relaxation drives w1 * x negative at t = 2,
    when the sqrt vertex (level 1) has left the light cone."""
    b = GraphBuilder()
    w2, w1 = b.leaf(), b.leaf()
    x = b.leaf(trainable=False)
    inner = b.vertex(fns.multiply(), [w1, x])
    root = b.vertex(fns.sqrt(), [inner])
    g = b.build(b.vertex(fns.multiply(), [w2, root]))
    params = {w2: np.asarray(1.0), w1: np.asarray(1.0), x: np.asarray(0.01)}
    return g, params, root, inner, -10.0


def test_a_vertex_that_left_the_light_cone_no_longer_raises():
    g, params, root, inner, y = sqrt_below_the_wavefront()
    schedule = make_schedule(g, "level_structured")
    with pytest.raises(DomainError) as err:
        relax_every_step(g, params, y, LR, schedule, 0.0)
    assert err.value.vertex == root
    rep, trace = zil_train_step(g, params, y, LR)
    assert float(trace.snapshots[2].x[inner]) < 0.0
    bp = backprop(g, params, y, LR)
    for key, delta in bp.updates.items():
        assert rep.updates[key].tobytes() == delta.tobytes(), key
    assert check_quiet_window(trace, g) == (True, [])
    assert check_wavefront_recursion(trace, g)


def test_inference_learning_read_at_levels_no_longer_raises_outside_the_cone():
    """out = sqrt(w * x): every weight sits at level 2, so T = 1 reads it
    at level(leaf) - 1 and takes the wavefront.  Relaxing every value
    node would evaluate the sqrt (level 0) at a negative w * x at t = 1,
    after it left the light cone."""
    b = GraphBuilder()
    w = b.leaf()
    x = b.leaf(trainable=False)
    g = b.build(b.vertex(fns.sqrt(), [b.vertex(fns.multiply(), [w, x])]))
    params = {w: np.asarray(1.0), x: np.asarray(0.01)}
    schedule = il_schedule(g, 0.1, 1)
    with pytest.raises(DomainError) as err:
        relax_every_step(g, params, -10.0, LR, schedule, 0.0)
    assert err.value.vertex == g.output
    expected, _snaps = traced(g, params, -10.0, schedule)
    got = il_train_step(g, params, -10.0, LR, 0.1, 1).updates[("leaf", w)]
    assert got.tobytes() == expected[w].tobytes()
    assert np.isfinite(got)
