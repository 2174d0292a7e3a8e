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
from pcgraph.errors import DomainError, GraphError, NonFiniteSum, NotLevelled
from pcgraph.graph import GraphBuilder, level_structure
from pcgraph.leveller import level
from pcgraph.models import FAMILIES, ModelSpec, build_model, random_graph
from pcgraph.pc import (GROUP_MIN, extract_updates, il_train_step,
                        inference_step, init_state, run_schedule)
from pcgraph.report import make_report
from pcgraph.zil import (ZilSchedule, ZilTrace, check_quiet_window,
                         make_schedule, zil_ablate, zil_train_step)

from oracles import check_wavefront_recursion

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


def same_bytes(a, b):
    return a.tobytes() == b.tobytes()


def same_but_nan_bits(a, b):
    """NaN at the same positions and the same bytes everywhere else, so
    the same signs of every zero and infinity."""
    a, b = np.asarray(a), np.asarray(b)
    nan = np.isnan(a)
    return (np.array_equal(nan, np.isnan(b))
            and a[~nan].tobytes() == b[~nan].tobytes())


def assert_run_matches_oracle(g, params, y, schedule, shift=0.0,
                              same=same_bytes):
    expected, expected_snaps = relax_every_step(g, params, y, LR,
                                                schedule, shift)
    got, snaps = traced(g, params, y, schedule, shift)
    assert list(got) == list(expected)
    for vid, delta in expected.items():
        assert same(got[vid], delta), (schedule, vid)
    assert len(snaps) == len(expected_snaps) == schedule.steps
    for t, (snap, full) in enumerate(zip(snaps, expected_snaps)):
        inside = region(g, schedule, t)
        assert set(snap.x) == set(snap.mu) == set(snap.eps) == inside
        for vid in inside:
            for name in ("x", "mu", "eps"):
                assert same(getattr(snap, name)[vid],
                            getattr(full, name)[vid]), \
                    (schedule, t, vid, name)
        assert snap.t == full.t
    if same is same_bytes:
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


def test_a_run_keeps_its_bytes_while_later_runs_relax():
    """Each run relaxes in buffers of its own; what it returns, updates
    and snapshots alike, holds no view of them."""
    g, params = build_model(ModelSpec("rnn", (3, 3, 4), "tanh", 0))
    y = target(g, params)
    rep, trace = zil_train_step(g, params, y, LR)
    arrays = [*rep.updates.values(), *trace.updates.values()]
    for snap in trace.snapshots:
        arrays += [*snap.x.values(), *snap.mu.values(), *snap.eps.values()]
    before = [a.tobytes() for a in arrays]
    il_train_step(g, params, y, LR, 0.1, 7)
    zil_ablate(g, params, y, LR, "no_level_schedule")
    zil_ablate(g, params, y, LR, "nonzero_init_error")
    assert [a.tobytes() for a in arrays] == before
    for prev, snap in zip(trace.snapshots, trace.snapshots[1:]):
        for name in ("x", "mu", "eps"):
            for vid, a in getattr(snap, name).items():
                old = getattr(prev, name)[vid]
                assert a is old or a.flags.owndata, (snap.t, name, vid)
                if name == "x":  # a value node is copied only when it moved
                    assert a is old or a.tobytes() != old.tobytes()


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


@pytest.fixture
def fallback_steps(monkeypatch):
    """Every :func:`pc.relax` call, which the step engine makes only
    where a step is not finite."""
    calls = []
    relax = pc.relax

    def counted(*args):
        calls.append(args)
        return relax(*args)

    monkeypatch.setattr(pc, "relax", counted)
    return calls


def non_finite_runs(g, lg):
    """IL on ``g`` at gamma = 1, and on its levelled ``lg`` the two
    ablations that relax and a traced Z-IL."""
    base = make_schedule(lg, "level_structured")
    late = ZilSchedule(1.0, {v: base.steps - 1 for v in base.update_times})
    return [(g, il_schedule(g, 1.0, T), 0.0) for T in (5, 20)] + [
        (lg, late, 0.0), (lg, base, PERTURBATION), (lg, base, 0.0)]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_runs_match_the_oracle(fallback_steps):
    """Huge parameters drive the relaxation to inf and NaN.  The engine
    then relaxes vertex by vertex and must agree with the oracle on
    every sign, every NaN position and every exception; NaN payloads
    may differ, because the oracle holds other scalar types."""
    seen = {"fallback": 0, "overflow": 0, "nan": 0, "inf": 0}
    for seed in (0, 1, 5, 18, 23, 29, 34, 35, 42, 56):
        g, params, y = random_graph(seed)
        lg, _report = level(g)
        for scale in (1e160, 1e300):
            huge = {v: np.asarray(p) * scale for v, p in params.items()}
            for graph, schedule, shift in non_finite_runs(g, lg):
                try:
                    relax_every_step(graph, huge, y, LR, schedule, shift)
                except GraphError as err:
                    with pytest.raises(GraphError) as got:
                        traced(graph, huge, y, schedule, shift)
                    assert type(got.value) is type(err)
                    assert str(got.value) == str(err)
                    assert getattr(got.value, "vertex", None) == \
                        getattr(err, "vertex", None)
                    seen["overflow"] += isinstance(err, NonFiniteSum)
                    continue
                del fallback_steps[:]
                assert_run_matches_oracle(graph, huge, y, schedule, shift,
                                          same=same_but_nan_bits)
                seen["fallback"] += len(fallback_steps) > 0
                got, _snaps = traced(graph, huge, y, schedule, shift)
                values = np.concatenate([np.ravel(d) for d in got.values()])
                seen["nan"] += bool(np.isnan(values).any())
                seen["inf"] += bool(np.isinf(values).any())
    assert min(seen.values()) > 0, seen


# -- groups: vertices that share a rule run in one batch call -------------

def ladder(k, seed):
    """``k`` equal chains joined at the output, with vector vertices of
    every kind that has a batch form, each on an internal child, so
    that each such kind forms groups of ``k`` or ``2k``:

    m = W x (leaf-only), s = m^2, r = sqrt(s + c), a = tanh(r),
    d = identity activation(logistic(a)), i = identity(identity(a)),
    p = d * i * b, v = V p (V tied), out = sum(v_1 + ... + v_k).

    Each a has two parents, so pulls onto it land one per edge.
    """
    rng = np.random.default_rng(seed)
    b = GraphBuilder()
    params = {}

    def leaf(shape, **kw):
        vid = b.leaf(**kw)
        params[vid] = rng.uniform(-0.5, 0.5, shape)
        return vid

    shared = rng.uniform(-0.5, 0.5, (2, 3))
    tops = []
    for _ in range(k):
        m = b.vertex(fns.matvec(), [leaf((3, 3)), leaf(3, trainable=False)])
        c = leaf(3)
        params[c] += 1.0
        r = b.vertex(fns.sqrt(), [b.vertex(fns.add(), [
            b.vertex(fns.square(), [m]), c])])
        a = b.vertex(fns.activation("tanh"), [r])
        d = b.vertex(fns.activation("identity"), [
            b.vertex(fns.activation("logistic"), [a])])
        i = b.vertex(fns.identity(), [b.vertex(fns.identity(), [a])])
        p = b.vertex(fns.multiply(), [b.vertex(fns.multiply(), [d, i]),
                                      leaf(3)])
        v = leaf((2, 3), tie_group="V")
        params[v] = shared.copy()
        tops.append(b.vertex(fns.matvec(), [v, p]))
    b.tie_value("V", shared)
    g = b.build(b.vertex(fns.sum_reduce(), [b.vertex(fns.add(k), tops)]))
    return g, params, target(g, params)


@pytest.fixture
def batch_calls(monkeypatch):
    """Records the kind of every batch call and whether it raised."""
    calls = []

    def counted(method):
        def call(self, *args):
            try:
                ok = method(self, *args)
            except DomainError as err:
                calls.append((self.fn.kind, str(err)))
                raise
            calls.append((self.fn.kind, ok))
            return ok
        return call

    for name in ("pull", "predict"):
        monkeypatch.setattr(pc._Group, name, counted(getattr(pc._Group, name)))
    return calls


def assert_group_runs_match_the_oracle(g, params, y, same=same_bytes):
    """IL at T = 1, 5 and 20, and every run of :func:`schedules`: traced,
    against every snapshot, and untraced."""
    runs = [(il_schedule(g, gamma, T), 0.0)
            for T in (1, 5, 20) for gamma in (0.1, 1.0)] + schedules(g)
    for schedule, shift in runs:
        try:
            expected, _snaps = relax_every_step(g, params, y, LR, schedule,
                                                shift)
        except GraphError as err:
            with pytest.raises(GraphError) as got:
                traced(g, params, y, schedule, shift)
            assert (type(got.value), str(got.value)) == (type(err), str(err))
            assert got.value.vertex == err.vertex
            continue
        assert_run_matches_oracle(g, params, y, schedule, shift, same=same)
        report, _trace = run_schedule(g, params, y, LR, schedule, "run",
                                      shift=shift)
        want = make_report(g, "run", expected).updates
        assert list(report.updates) == list(want)
        for key, delta in want.items():
            assert same(report.updates[key], delta), (schedule, key)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # gamma = 1 diverges
@pytest.mark.parametrize("k", [4, 2])
def test_group_runs_match_the_oracle(k, batch_calls, monkeypatch):
    """At the size threshold, and at two members with the threshold
    lowered and a group called as soon as one member is due."""
    if k < GROUP_MIN:
        monkeypatch.setattr(pc, "GROUP_MIN", k)
        monkeypatch.setattr(pc, "_MIN_DUE", 1)
    for seed in range(2):
        g, params, y = ladder(k, seed)
        assert_group_runs_match_the_oracle(g, params, y)
    batched = {kind for kind, ok in batch_calls if ok is True}
    assert batched == {kind for kind, rule in fns.KINDS.items() if rule.batch}


def test_scalar_activations_are_left_out_of_their_group(batch_calls):
    """Four scalar tanh vertices apply one rule, but a 0-d activation
    has no batch form (``Batch.scalars``), so the step plan makes no
    group of them and each runs per vertex."""
    b = GraphBuilder()
    params = {}
    tops = []
    for i in range(GROUP_MIN):
        w, x = b.leaf(), b.leaf(trainable=False)
        params.update({w: np.asarray(0.3 + 0.1 * i), x: np.asarray(1.0 - i)})
        m = b.vertex(fns.multiply(), [w, x])
        tops.append(b.vertex(fns.activation("tanh"), [m]))
    g = b.build(b.vertex(fns.add(GROUP_MIN), tops))
    assert_group_runs_match_the_oracle(g, params, target(g, params))
    assert g._steps is not None and g._steps.groups == ()
    assert batch_calls == []


def test_the_step_plan_is_kept_per_graph_and_value_shapes(batch_calls):
    """Four identity(tanh(w * x)) chains under one sum: two groups of
    four, the tanh vertices and the identities.  IL runs at leaf shapes
    (3,), (5,) and (3,) again, twice each, with the oracle's bytes; the
    two runs at one shape share the plan, a new shape replaces it, and
    the plan's index arrays cannot be written."""
    b = GraphBuilder()
    leaves, tops = [], []
    for _ in range(GROUP_MIN):
        w, x = b.leaf(), b.leaf(trainable=False)
        leaves += [w, x]
        tops.append(b.vertex(fns.identity(), [b.vertex(
            fns.activation("tanh"), [b.vertex(fns.multiply(), [w, x])])]))
    g = b.build(b.vertex(fns.sum_reduce(), [b.vertex(fns.add(GROUP_MIN),
                                                      tops)]))
    rng = np.random.default_rng(0)
    plans = []
    for n in (3, 5, 3):
        params = {v: rng.uniform(-1.0, 1.0, n) for v in leaves}
        y = target(g, params)
        expected, _snaps = relax_every_step(g, params, y, LR,
                                            il_schedule(g, 0.1, 30), 0.0)
        want = make_report(g, "il", expected).updates
        for _run in range(2):
            got = il_train_step(g, params, y, LR, 0.1, 30).updates
            assert list(got) == list(want)
            for key, delta in want.items():
                assert got[key].tobytes() == delta.tobytes(), (n, key)
            plans.append(g._steps)
        assert plans[-1] is plans[-2]
        assert plans[-1].shapes[leaves[0]] == (n,)
    assert plans[0] is not plans[2] and plans[2] is not plans[4]
    for plan in plans[::2]:
        assert {frozenset(grp.members) for grp in plan.groups} == \
            {frozenset(tops), frozenset(g.vertices[v].children[0]
                                        for v in tops)}
        arrays = [plan.relaxed, plan.heads]
        for grp in plan.groups:
            arrays += [*grp.ins, grp.out, *grp.onto]
        for index in arrays:
            assert not index.flags.writeable
            with pytest.raises(ValueError):
                index[...] = 0
    assert {(fns.FnKind.ACTIVATION, True), (fns.FnKind.IDENTITY, True)} \
        <= set(batch_calls)


def identity_chain(depth):
    """out = identity(... identity(w * x)), ``depth`` identities: one
    group, whose members the relaxation reaches one step after another."""
    b = GraphBuilder()
    w, x = b.leaf(), b.leaf(trainable=False)
    top = b.vertex(fns.multiply(), [w, x])
    for _ in range(depth):
        top = b.vertex(fns.identity(), [top])
    g = b.build(top)
    params = {w: np.asarray(0.7), x: np.asarray(-1.3)}
    return g, params, target(g, params)


@pytest.mark.parametrize("T", [16, 40])
def test_a_group_first_due_late_in_a_run_is_batched(T, batch_calls):
    """Three members of the chain's group (the output and the two
    identities below it) are first due at t = 2: however few steps are
    left there, the run calls the group, with the oracle's bytes."""
    g, params, y = identity_chain(8)
    for gamma in (0.1, 1.0):
        del batch_calls[:]
        expected, _snaps = relax_every_step(g, params, y, LR,
                                            il_schedule(g, gamma, T), 0.0)
        want = make_report(g, "il", expected).updates
        got = il_train_step(g, params, y, LR, gamma, T).updates
        assert list(got) == list(want)
        for key, delta in want.items():
            assert got[key].tobytes() == delta.tobytes(), (T, gamma, key)
        assert (fns.FnKind.IDENTITY, True) in batch_calls


def same_nan_bits_too(a, b):
    """The bytes, NaN payloads included, as :func:`same_bytes`; given as
    its own comparator, it leaves out the check outcomes, which hold
    NaN values that equal nothing."""
    return same_bytes(a, b)


def flipped_nans(batch):
    """``batch`` with the sign of every NaN it returns flipped: a long
    ``np.add`` or ``np.multiply`` may keep another of two NaNs than a
    one-component call does."""
    def flip(value):
        if value is None:
            return None
        value = np.array(value)
        return np.negative(value, where=np.isnan(value), out=value)

    return batch._replace(
        forward=lambda fn, ins: flip(batch.forward(fn, ins)),
        vjp=lambda fn, ins, u, want: tuple(
            flip(pull) for pull in batch.vjp(fn, ins, u, want)))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_group_runs_beyond_the_float_range_match_the_oracle(batch_calls,
                                                           monkeypatch):
    """Huge parameters: every NaN keeps the oracle's bits, because a
    batch result that is not finite is recomputed per vertex; here the
    batches even return other NaN bits."""
    for kind, rule in fns.KINDS.items():
        if rule.batch:
            monkeypatch.setitem(fns.KINDS, kind,
                                rule._replace(batch=flipped_nans(rule.batch)))
    for seed in range(2):
        g, params, y = ladder(GROUP_MIN, seed)
        huge = {v: p * 1e300 for v, p in params.items()}
        assert_group_runs_match_the_oracle(g, huge, y, same=same_nan_bits_too)
    assert (fns.FnKind.MATVEC, False) in batch_calls


def roots_that_go_negative_together():
    """out = sum over four chains of w2 * sqrt(w1 * x).  Relaxing toward
    y = -10 drives the first two products negative in the same step,
    the second one further; both sqrt vertices are one group's."""
    b = GraphBuilder()
    params, products, roots = {}, [], []
    for x in (0.01, 0.0099, 100.0, 100.0):
        w1, w2, leaf = b.leaf(), b.leaf(), b.leaf(trainable=False)
        params.update({w1: np.asarray(1.0), w2: np.asarray(1.0),
                       leaf: np.asarray(x)})
        roots.append(b.vertex(fns.sqrt(), [b.vertex(fns.multiply(),
                                                    [w1, leaf])]))
        products.append(b.vertex(fns.multiply(), [w2, roots[-1]]))
    return b.build(b.vertex(fns.add(4), products)), params, roots


def test_a_batch_that_leaves_the_domain_raises_at_the_lowest_id(batch_calls):
    g, params, roots = roots_that_go_negative_together()
    for gamma in (0.1, 1.0):
        schedule = il_schedule(g, gamma, 5)
        with pytest.raises(DomainError) as err:
            relax_every_step(g, params, -10.0, LR, schedule, 0.0)
        assert err.value.vertex == roots[0]
        with pytest.raises(DomainError) as got:
            il_train_step(g, params, -10.0, LR, gamma, 5)
        assert (str(got.value), got.value.vertex) == \
            (str(err.value), err.value.vertex)
        # The batch saw the second root's lower value, and raised first.
        kind, message = batch_calls[-1]
        assert kind is fns.FnKind.SQRT and message != str(err.value)


def test_later_steps_pull_only_vertices_with_an_internal_child(monkeypatch):
    """Nothing reads a pull onto a leaf: after step 0, which pulls every
    vertex for backprop's domain checks, a vertex whose children are all
    leaves is not pulled again.  Such a vertex is never a group's
    member; a group call counts as a pull of each member it writes."""
    pulled = []
    pull_back, group_pull = pc.pull_back, pc._Group.pull

    def counted(g, vid, *args):
        pulled.append(vid)
        return pull_back(g, vid, *args)

    def counted_group(grp, live, *args):
        ok = group_pull(grp, live, *args)
        if ok:
            pulled.extend(grp.members[:live])
        return ok

    monkeypatch.setattr(pc, "pull_back", counted)
    monkeypatch.setattr(pc._Group, "pull", counted_group)
    for family in ("mlp", "rnn", "conv1d"):
        g, params = build_model(ModelSpec(family, (), "tanh", 0))
        lg, _report = level(g)
        y = target(lg, params)
        leaf_fed = {v for v in lg.internal_ids
                    if lg.vertices[v].children and not lg.internal_slots[v]}
        assert leaf_fed
        for T in (1, 5, 20):
            del pulled[:]
            il_train_step(lg, params, y, LR, 0.1, T)
            counts = {v: pulled.count(v) for v in leaf_fed}
            assert counts == dict.fromkeys(leaf_fed, 1), (family, T)
            assert set(pulled) == {v for v in lg.internal_ids
                                   if lg.vertices[v].children}
