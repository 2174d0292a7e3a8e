"""Forward evaluation and reverse differentiation on computational graphs.

This is the ground-truth gradient engine every other learning rule in
the package is compared against.  The loss is the scalar quadratic
``E = 1/2 (mu_out - y)^2`` at the single output vertex; updates follow
the descent convention ``delta_z = -lr * dE/dz``.

Error-signal accumulation across parents uses order-independent
correctly rounded sums (:func:`pcgraph.numerics.fsum_arrays`), so leaf
updates are exactly invariant under edge re-routings that preserve the
arriving contributions — in particular under identity-vertex insertion.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Collection, Iterable, Mapping, NamedTuple

import numpy as np

from .errors import DomainError, GraphError, ShapeMismatch
from .functions import ElemFn
from .graph import Graph, ParamKey, VertexId, check_params
from .numerics import Array, as_f64, fsum_arrays, is_finite_real


@dataclass(frozen=True)
class ForwardTrace:
    """Forward value mu of every vertex."""

    mu: dict[VertexId, Array]

    def output_value(self, g: Graph) -> float:
        return float(self.mu[g.output])


@dataclass(frozen=True)
class BPReport:
    """Result of one reverse pass.

    ``delta`` maps the output, every internal vertex and every trainable
    leaf to its error signal dE/dmu (a data leaf's is never computed,
    because nothing reads it); ``updates``
    holds the canonical per-parameter deltas (tie groups summed over
    members); ``per_leaf`` keeps each trainable leaf's own delta so tied
    structures can be compared member-wise.
    """

    delta: dict[VertexId, Array]
    updates: dict[ParamKey, Array]
    per_leaf: dict[VertexId, Array]
    loss: float


# -- vertex kernels -------------------------------------------------------

def evaluate(g: Graph, vid: VertexId, values: Mapping[VertexId, Array]
             ) -> Array:
    """Apply vertex ``vid``'s function to its children's ``values``."""
    v = g.vertices[vid]
    try:
        return v.fn([values[c] for c in v.children])
    except DomainError as err:
        raise err.at_vertex(vid) from None


def pull_back(g: Graph, vid: VertexId, values: Mapping[VertexId, Array],
              upstream: Array, slots: Collection[int] | None = None
              ) -> tuple[Array | None, ...]:
    """Pull ``upstream`` back through vertex ``vid`` onto its child ``slots``.

    One entry per child slot, None where a slot is not asked for (see
    :meth:`ElemFn.vjp`).  The step engine calls this once per parent
    and reads the results through :func:`arriving`.
    """
    v = g.vertices[vid]
    try:
        return v.fn.vjp([values[c] for c in v.children], upstream, slots)
    except DomainError as err:
        raise err.at_vertex(vid) from None


def pull_onto(g: Graph, vids: Iterable[VertexId],
              values: Mapping[VertexId, Array],
              upstream: Mapping[VertexId, Array]
              ) -> dict[VertexId, tuple[Array | None, ...]]:
    """Pull every parent of ``vids`` back once, onto the slots that hold them.

    Parents are pulled in ascending id, each with its own ``upstream``;
    :func:`arriving` then reads the pulls onto any of ``vids``.
    """
    slots: dict[VertexId, list[int]] = {}
    for vid in vids:
        for p, slot in g.parents[vid]:
            slots.setdefault(p, []).append(slot)
    return {p: pull_back(g, p, values, upstream[p], slots[p])
            for p in sorted(slots)}


def arriving(g: Graph, vid: VertexId,
             pulls: Mapping[VertexId, tuple[Array | None, ...]]) -> list[Array]:
    """The pulls of ``vid``'s parents onto ``vid``, in (parent, slot) order.

    ``pulls`` maps each parent to its :func:`pull_back` result.
    """
    return [pulls[p][slot] for p, slot in g.parents[vid]]


class SweepPlan(NamedTuple):
    """The straight-line walks of :func:`forward` and :func:`reverse_sweep`.

    ``forward`` holds ``(vid, fn, children)`` per vertex, children before
    parents, ``fn`` None at a leaf.  ``reverse`` holds ``(vid, fn,
    children, slots, lands, span)`` in ``g.order`` for the output, if
    internal, and every other vertex that gets a signal: the internal
    ones and the trainable leaves.  The pulls arriving at a vertex sit
    at ``span`` of one list of ``arrivals`` entries, in (parent, slot)
    order; ``slots`` are its children's slots that hold such a vertex,
    and ``lands`` pairs each with where its pull sits in that list.
    """

    forward: tuple[tuple[VertexId, ElemFn | None, tuple[VertexId, ...]], ...]
    reverse: tuple[tuple, ...]
    arrivals: int


def sweep_plan(g: Graph) -> SweepPlan:
    """The graph's :class:`SweepPlan`, computed once per graph."""
    if g._sweep is None:
        vs, out = g.vertices, g.output
        signalled = [v for v in g.order  # a data leaf gets no signal
                     if v != out and (not vs[v].is_leaf or vs[v].trainable)]
        sizes = [len(g.parents[v]) for v in signalled]
        span = {v: slice(lo, lo + n) for v, lo, n in
                zip(signalled, accumulate(sizes, initial=0), sizes)}
        at = {edge: span[v].start + i for v in signalled
              for i, edge in enumerate(g.parents[v])}
        reverse = []
        for v in g.order:
            if v in span or v == out and not vs[v].is_leaf:
                lands = tuple((s, at[v, s]) for s, c
                              in enumerate(vs[v].children) if c in span)
                reverse.append((v, vs[v].fn, vs[v].children,
                                tuple(s for s, _at in lands), lands,
                                span.get(v, slice(0))))
        g._sweep = SweepPlan(tuple((v, vs[v].fn, vs[v].children)
                                   for v in reversed(g.order)),
                             tuple(reverse), sum(sizes))
    return g._sweep


def reverse_sweep(g: Graph, values: Mapping[VertexId, Array], seed: Array,
                  settle: Callable[[VertexId, list[Array]], Array]
                  ) -> dict[VertexId, Array]:
    """Every vertex's signal, in ``g.order`` from ``seed`` at the output.

    A trainable leaf's signal is the sum of its arriving pulls, an
    internal vertex's is ``settle(vid, terms)``; each vertex with
    children is then pulled back once through ``values``, onto the
    slots of its children that get a signal.  A data leaf gets none.
    Backprop and the Z-IL wavefront engine are this walk with different
    settle rules.  It follows :func:`sweep_plan`: each pull lands where
    its child reads it, and nothing is looked up by parent.
    """
    plan = sweep_plan(g)
    signal: dict[VertexId, Array] = {g.output: seed}
    arrivals: list = [None] * plan.arrivals
    for vid, fn, kids, slots, lands, span in plan.reverse:
        if fn is None:  # a trainable leaf
            signal[vid] = fsum_arrays(arrivals[span])
            continue
        up = signal[vid] = seed if vid == g.output else settle(
            vid, arrivals[span])
        if kids:
            try:
                back = fn.vjp([values[c] for c in kids], up, slots)
            except DomainError as err:
                raise err.at_vertex(vid) from None
            for s, where in lands:
                arrivals[where] = back[s]
    return signal


def forward(g: Graph, params: Mapping[VertexId, Array],
            overrides: Mapping[VertexId, Array] | None = None) -> ForwardTrace:
    """Evaluate every vertex bottom-up, validating each vertex's inputs
    (:meth:`ElemFn.check`): every run starts from this pass.

    ``overrides`` forces selected vertices to given values instead of
    evaluating them — the hook the finite-difference oracle for error
    signals uses.
    """
    leaves = check_params(g, params)
    mu: dict[VertexId, Array] = {}
    for vid, fn, kids in sweep_plan(g).forward:
        if overrides and vid in overrides:
            mu[vid] = as_f64(overrides[vid])
        elif fn is None:
            mu[vid] = leaves[vid]
        else:
            try:
                mu[vid] = fn(fn.check([mu[c] for c in kids]))
            except DomainError as err:
                raise err.at_vertex(vid) from None
    return ForwardTrace(mu=mu)


def loss_value(mu_out: Array, y: float) -> float:
    diff = float(mu_out) - float(y)
    return 0.5 * diff * diff


def scalar_output(g: Graph, mu: Mapping[VertexId, Array]) -> Array:
    """The output's forward value; :class:`ShapeMismatch` unless it is a
    scalar, the one output the quadratic loss and the clamp take."""
    out = mu[g.output]
    if out.shape != ():
        raise ShapeMismatch(f"the loss and the clamp need a scalar output "
                            f"vertex, got shape {out.shape}")
    return out


def check_real(value, name: str) -> None:
    """Raise :class:`GraphError` unless ``value`` (the target ``y`` or a
    learning rate) is a finite real number (:func:`is_finite_real`)."""
    if not is_finite_real(value):
        raise GraphError(f"{name} must be a finite real number, got {value!r}")


def backprop(g: Graph, params: Mapping[VertexId, Array], y: float,
             lr: float = 0.01) -> BPReport:
    """One reverse pass: error signals for all vertices, updates for leaves.

    delta(output) = mu_out - y; every other vertex accumulates its
    parents' pulled-back signals.  Leaf update: -lr * delta(leaf).
    """
    check_real(y, "target y")
    check_real(lr, "learning rate lr")
    trace = forward(g, params)
    mu_out = scalar_output(g, trace.mu)
    delta = reverse_sweep(g, trace.mu, mu_out - float(y),
                          lambda _vid, terms: fsum_arrays(terms))
    per_leaf = {v: -lr * delta[v] for v in g.trainable_leaves()}
    updates = collect_updates(g, per_leaf)
    return BPReport(delta=delta, updates=updates, per_leaf=per_leaf,
                    loss=loss_value(mu_out, y))


def collect_updates(g: Graph, per_leaf: Mapping[VertexId, Array]) -> dict[ParamKey, Array]:
    """Fold per-leaf deltas into the canonical parameter order.

    Tie groups report one entry: the order-independent sum of their
    members' deltas.
    """
    out: dict[ParamKey, Array] = {}
    for key in g.param_keys:
        kind, ident = key
        if kind == "group":
            members = sorted(g.group_by_id[ident].members)
            out[key] = fsum_arrays([per_leaf[m] for m in members])
        else:
            out[key] = as_f64(per_leaf[ident]).copy()
    return out


# -- independent oracle ---------------------------------------------------

def _perturbed(params: Mapping[VertexId, Array], leaves: tuple[VertexId, ...],
               index: tuple[int, ...], step: float) -> dict[VertexId, Array]:
    out = {k: as_f64(v).copy() for k, v in params.items()}
    for leaf in leaves:
        if out[leaf].shape == ():
            out[leaf] = out[leaf] + step
        else:
            out[leaf][index] += step
    return out


def gradient_rows(g: Graph, params: Mapping[VertexId, Array], y: float,
                  h: float = 1e-6) -> list[dict]:
    """Per-component analytic vs central-difference gradients.

    One row per trainable parameter component with the relative error
    |analytic - numeric| / max(1, |analytic|).  A tie group is perturbed
    as a unit (all members together), so its numeric gradient is the sum
    of the member gradients — the same reduction the analytic side uses.
    """
    if not (is_finite_real(h) and h > 0):
        raise GraphError(
            f"finite-difference step must be finite and positive, got {h!r}")
    rep = backprop(g, params, y, lr=1.0)
    rows: list[dict] = []
    for key in g.param_keys:
        kind, ident = key
        if kind == "group":
            leaves = tuple(sorted(g.group_by_id[ident].members))
        else:
            leaves = (ident,)
        analytic_arr = -rep.updates[key]  # dE/dtheta
        shape = analytic_arr.shape
        for index in np.ndindex(shape if shape else (1,)):
            idx = index if shape else ()
            up = forward(g, _perturbed(params, leaves, idx, +h))
            down = forward(g, _perturbed(params, leaves, idx, -h))
            e_up = loss_value(up.mu[g.output], y)
            e_down = loss_value(down.mu[g.output], y)
            numeric = (e_up - e_down) / (2.0 * h)
            analytic = float(analytic_arr[idx]) if shape else float(analytic_arr)
            err = abs(analytic - numeric) / max(1.0, abs(analytic))
            rows.append({
                "param": f"{kind}:{ident}",
                "component": ",".join(str(i) for i in idx) if shape else "",
                "analytic": analytic,
                "numeric": numeric,
                "rel_error": err,
            })
    return rows


def grad_check(g: Graph, params: Mapping[VertexId, Array], y: float) -> float:
    """Max relative error between analytic and central-difference gradients
    at the default step of :func:`gradient_rows`."""
    rows = gradient_rows(g, params, y)
    return float(np.max([row["rel_error"] for row in rows], initial=0.0))
