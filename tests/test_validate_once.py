"""Inputs are validated once per run, in the forward pass that starts it.

``ElemFn.check`` (arity, float64 coercion, the kind's shape rule) runs
on every internal vertex in :func:`autodiff.forward`; after that the
engines call the bare kind rules, through ``ElemFn.__call__`` and
``ElemFn.vjp`` or bound in the step engine's plan.  The oracle here
runs ``check`` before every one of those calls and coerces every
upstream cotangent, as each call did when it validated its own inputs.  Under it no check may raise, and every run must give the same
bytes, or the same exception, as without it.
"""

import numpy as np
import pytest

from pcgraph import functions as fns
from pcgraph.autodiff import backprop, forward
from pcgraph.errors import GraphError
from pcgraph.leveller import level
from pcgraph.models import FAMILIES, ModelSpec, build_model, random_graph
from pcgraph.numerics import as_f64
from pcgraph.pc import il_train_step
from pcgraph.zil import ABLATIONS, zil_ablate, zil_train_step

LR = 0.01


def checked_everywhere(monkeypatch) -> list[str]:
    """Patch every kind's rules so that every evaluation and pull
    validates, through ``ElemFn`` or bound in a step plan built under
    the patch; the returned list grows by one entry per validated call,
    "call" or "vjp", prefixed "bound " where the step engine made it
    (it alone hands the rules buffers as ``out``)."""
    calls = []
    for kind, rule in list(fns.KINDS.items()):
        def checked_forward(fn, ins, out=None, _rule=rule):
            calls.append("call" if out is None else "bound call")
            return _rule.forward(fn, fn.check(ins), out)

        def checked_vjp(fn, ins, upstream, want, out=None, _rule=rule):
            calls.append("vjp" if out is None else "bound vjp")
            return _rule.vjp(fn, fn.check(ins), as_f64(upstream), want, out)

        monkeypatch.setitem(fns.KINDS, kind, rule._replace(
            forward=checked_forward, vjp=checked_vjp))
    return calls


def _bytes(updates):
    return [(key, np.asarray(v).tobytes()) for key, v in updates.items()]


def _snapshot_bytes(trace):
    return [(t, region, vid, np.asarray(value).tobytes())
            for t, snap in enumerate(trace.snapshots)
            for region in ("x", "mu", "eps")
            for vid, value in getattr(snap, region).items()]


def runs(g, params, y):
    """Every engine and schedule the suites run, as named thunks."""
    out = [("bp", lambda: _bytes(backprop(g, params, y, LR).updates))]
    for variant in ("level_structured", "layer_indexed"):
        out.append((f"zil/{variant}", lambda v=variant: _bytes(
            zil_train_step(g, params, y, LR, v, record_trace=False)[0].updates)))

        def traced(v=variant):
            report, trace = zil_train_step(g, params, y, LR, v)
            return _bytes(report.updates) + _snapshot_bytes(trace)
        out.append((f"zil/{variant}/traced", traced))
    for T in (1, 4):
        out.append((f"il/T={T}", lambda T=T: _bytes(
            il_train_step(g, params, y, LR, 0.1, T).updates)))
    for which in ABLATIONS:
        out.append((which, lambda w=which: _bytes(
            zil_ablate(g, params, y, LR, w).updates)))
    return out


def outcome(thunk):
    try:
        return thunk()
    except GraphError as err:
        return type(err), getattr(err, "vertex", None)


def assert_validated_once(monkeypatch, label, g, params, y):
    named = runs(g, params, y)
    bare = [(name, outcome(thunk)) for name, thunk in named]
    with monkeypatch.context() as patch:
        calls = checked_everywhere(patch)
        patch.setattr(g, "_steps", None)  # the plan binds the checked rules
        checked = [(name, outcome(thunk)) for name, thunk in named]
    assert {"call", "vjp", "bound vjp"} <= set(calls), label
    for (name, want), (_name, got) in zip(bare, checked):
        assert got == want, (label, name)


def instances():
    for family in FAMILIES:
        for seed in range(2):
            g, params = build_model(ModelSpec(family, (), "tanh", seed))
            y = forward(g, params).output_value(g) + 0.5
            yield f"{family}/{seed}", g, params, y
    for seed in range(40):
        g, params, y = random_graph(seed)
        yield f"random/{seed}", g, params, y
        # Overflow: infs and NaNs of either sign reach every kind.
        huge = {v: p * 1e160 for v, p in params.items()}
        yield f"random/{seed}/huge", g, huge, y


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # random graphs overflow
@pytest.mark.parametrize("levelled", (False, True))
def test_every_run_is_the_same_when_every_call_validates(monkeypatch, levelled):
    for label, g, params, y in instances():
        if levelled:
            g, _report = level(g)
        assert_validated_once(monkeypatch, label, g, params, y)


def test_check_runs_once_per_internal_vertex_per_run(monkeypatch):
    counted = []
    check = fns.ElemFn.check

    def counting(self, inputs):
        counted.append(self.kind)
        return check(self, inputs)

    monkeypatch.setattr(fns.ElemFn, "check", counting)
    for family in FAMILIES:
        g, params = build_model(ModelSpec(family, (), "tanh", 0))
        g, _report = level(g)
        y = forward(g, params).output_value(g) + 0.5
        thunks = [lambda: backprop(g, params, y, LR),
                  lambda: zil_train_step(g, params, y, LR, record_trace=False),
                  lambda: zil_train_step(g, params, y, LR, record_trace=True)]
        thunks += [lambda T=T: il_train_step(g, params, y, LR, 0.1, T)
                   for T in (1, 3, 20)]
        for thunk in thunks:
            counted.clear()
            thunk()
            assert len(counted) == len(g.internal_ids), family
