"""Byte gate: every engine output of one fixed corpus, one line each.

Compare a change with its parent by running the gate on both trees'
sources and diffing the two outputs:

    git archive <parent> | tar -x -C /tmp/parent
    python3 tools/bytegate.py /tmp/parent/src > parent.txt
    python3 tools/bytegate.py src > change.txt
    diff parent.txt change.txt

It imports pcgraph from the given ``src`` directory and runs the whole
corpus in one process.  Each line is ``case<TAB>run<TAB>outcome``.  An
outcome is a sha256 prefix over the run's outputs (key order, type,
dtype, shape and bytes of every value, so NaN bits count), or the
exception's type and message with its ``vertex``, ``path`` or ``ids``.

The corpus:

- models: every family of the zoo x tanh/identity/logistic x seeds 0-3,
  ``rnn(13,4,8)`` at seeds 0-1, a 0-d ladder (four logistic(tanh(w*x))
  chains of 0-d values, summed) at seeds 0-3 and ``random_graph`` seeds
  0-119; each as built and levelled, with its params as given and
  scaled by 1e160;
- runs per model: BP (delta, updates, per-leaf deltas, loss); Z-IL,
  both variants, untraced and traced (updates and snapshots); the three
  ablations; IL at T = 1, 5 and 20; and, per graph, ``level()``'s
  result, the level structure, ``g.order`` and the distances (values
  by vertex, and the key order apart, as ``distance_keys``);
- invalid graphs: 300 random graphs, each given a back edge, an orphan
  leaf or an extra root, of which the construction must fail.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

LR = 0.01
GAMMA_IL = 0.1
IL_STEPS = (1, 5, 20)
SCALES = (1.0, 1e160)
ACTIVATIONS = ("tanh", "identity", "logistic")
FAMILY_SEEDS = 4
DEEP_RNN_SEEDS = 2
LADDER_SEEDS = 4
RANDOM_SEEDS = 120
INVALID_SEEDS = 300


def feed(h, obj) -> None:
    """Hash ``obj``: dicts by key order, sequences item by item,
    anything else as an array's type, dtype, shape and bytes."""
    if isinstance(obj, dict):
        h.update(b"{%d" % len(obj))
        for key, value in obj.items():
            h.update(repr(key).encode())
            feed(h, value)
    elif isinstance(obj, (tuple, list)):
        h.update(b"(%d" % len(obj))
        for item in obj:
            feed(h, item)
    elif isinstance(obj, str) or obj is None:
        h.update(repr(obj).encode())
    else:
        a = np.asarray(obj)
        h.update(f"{type(obj).__name__}:{a.dtype}{a.shape}".encode())
        h.update(a.tobytes())


def failure(err: Exception) -> str:
    """The exception's type and message, and where it names one, its
    vertex, cycle or unreached ids."""
    return " ".join([f"raise {type(err).__name__}: {err}",
                     *(f"{attr}={getattr(err, attr)!r}"
                       for attr in ("vertex", "path", "ids")
                       if hasattr(err, attr))])


def outcome(thunk) -> str:
    """What ``thunk()`` gives: a digest, or the exception it raises."""
    try:
        result = thunk()
    except Exception as err:  # every exception is an outcome to compare
        return failure(err)
    h = hashlib.sha256()
    feed(h, result)
    return h.hexdigest()[:32]


# -- the corpus -----------------------------------------------------------

def cases(pg):
    """(label, build) per case; ``build()`` gives (graph, params, target)
    or raises."""
    def family(spec):
        g, params = pg.build_model(spec)
        return g, params, pg.forward(g, params).output_value(g) + 0.5

    for name in pg.FAMILIES:
        for activation in ACTIVATIONS:
            for seed in range(FAMILY_SEEDS):
                spec = pg.ModelSpec(name, (), activation, seed)
                yield f"{name}/{activation}/{seed}", lambda s=spec: family(s)
    for seed in range(DEEP_RNN_SEEDS):
        spec = pg.ModelSpec("rnn", (13, 4, 8), "tanh", seed)
        yield f"rnn13x4x8/{seed}", lambda s=spec: family(s)
    for seed in range(LADDER_SEEDS):
        yield f"ladder0d/{seed}", lambda s=seed: ladder0d(pg, s)
    for seed in range(RANDOM_SEEDS):
        yield f"random/{seed}", lambda s=seed: pg.random_graph(s)
    for seed in range(INVALID_SEEDS):
        yield f"invalid/{seed}", lambda s=seed: mutated(pg, s)


def ladder0d(pg, seed: int):
    """Four logistic(tanh(w * x)) chains of 0-d values under one sum:
    the step engine groups the four tanh and the four logistic
    vertices."""
    rng = np.random.default_rng(seed)
    fns, b = pg.functions, pg.GraphBuilder()
    params, tops = {}, []
    for _ in range(4):
        w, x = b.leaf(), b.leaf(trainable=False)
        params[w], params[x] = map(np.asarray, rng.uniform(-2.0, 2.0, 2))
        m = b.vertex(fns.multiply(), [w, x])
        tops.append(b.vertex(fns.activation("logistic"), [
            b.vertex(fns.activation("tanh"), [m])]))
    g = b.build(b.vertex(fns.add(len(tops)), tops))
    return g, params, pg.forward(g, params).output_value(g) + 0.5


def mutated(pg, seed: int):
    """``random_graph(seed)`` given a back edge (seed % 3 == 0), an orphan
    leaf (1) or an extra root (2); its construction must fail."""
    g, params, y = pg.random_graph(seed)
    rng = np.random.default_rng(seed)
    vs, n = list(g.vertices), len(g.vertices)
    if seed % 3 == 0:  # a child becomes its parent or an ancestor of it
        v = vs[int(rng.choice(g.internal_ids))]
        above, stack = {v.id}, [v.id]
        while stack:
            for p, _slot in g.parents[stack.pop()]:
                if p not in above:
                    above.add(p)
                    stack.append(p)
        children = list(v.children)
        children[int(rng.integers(len(children)))] = int(
            rng.choice(sorted(above)))
        vs[v.id] = replace(v, children=tuple(children))
    elif seed % 3 == 1:
        vs.append(pg.Vertex(n, None, (), True))
    else:
        vs.append(pg.Vertex(n, pg.functions.identity(),
                            (int(rng.integers(n)),), False))
    return pg.Graph(vs, g.output, g.tie_groups), params, y


def graph_runs(pg, g):
    """The per-graph facts: levelling, levels, order and distances."""
    def levelled():
        lg, report = pg.level(g)
        return (report.inserted, report.edge_paddings,
                report.structure.levels, report.structure.buckets,
                [(v.id, repr(v.fn), v.children, v.is_leaf, v.tie_group,
                  v.trainable) for v in lg.vertices], lg.order)

    def structure():
        s = pg.level_structure(g)
        return s.levels, s.max_level, s.buckets

    yield "level", levelled
    yield "level_structure", structure
    yield "order", lambda: g.order
    yield "distances", lambda: sorted(pg.min_distances(g).items())
    yield "distance_keys", lambda: list(pg.min_distances(g))


def model_runs(pg, g, params, y):
    """Every engine run on one graph with one set of params."""
    def bp():
        r = pg.backprop(g, params, y, LR)
        return r.delta, r.updates, r.per_leaf, r.loss

    def zil(variant, traced):
        report, trace = pg.zil_train_step(g, params, y, LR, variant,
                                          record_trace=traced)
        return report.updates, trace.updates, [
            (s.t, s.x, s.mu, s.eps) for s in trace.snapshots]

    yield "bp", bp
    for variant in ("level_structured", "layer_indexed"):
        for traced in (False, True):
            yield (f"zil/{variant}{'/traced' if traced else ''}",
                   lambda v=variant, t=traced: zil(v, t))
    for which in pg.ABLATIONS:
        yield (f"ablate/{which}",
               lambda w=which: pg.zil_ablate(g, params, y, LR, w).updates)
    for steps in IL_STEPS:
        yield (f"il/T={steps}", lambda T=steps: pg.il_train_step(
            g, params, y, LR, GAMMA_IL, T).updates)


def lines(pg, corpus):
    """One line per (case, run) of ``corpus``, a :func:`cases` subset."""
    for label, build in corpus:
        try:
            g, params, y = build()
        except Exception as err:
            yield f"{label}\tbuild\t{failure(err)}"
            continue
        for form, graph in (("raw", g), ("levelled", pg.level(g)[0])):
            for run, thunk in graph_runs(pg, graph):
                yield f"{label}/{form}\t{run}\t{outcome(thunk)}"
            for scale in SCALES:
                scaled = params if scale == 1.0 else {
                    v: np.multiply(p, scale) for v, p in params.items()}
                for run, thunk in model_runs(pg, graph, scaled, y):
                    yield (f"{label}/{form}/x{scale:g}\t{run}\t"
                           f"{outcome(thunk)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", type=Path,
                        help="the src directory of the tree to gate")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    import pcgraph as pg
    if Path(pg.__file__).resolve().parent != args.src.resolve() / "pcgraph":
        raise SystemExit(f"error: imported pcgraph from {pg.__file__}")
    warnings.simplefilter("ignore", RuntimeWarning)  # overflow is a case
    for line in lines(pg, cases(pg)):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
