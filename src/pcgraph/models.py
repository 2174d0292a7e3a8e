"""Desk-scale model builders: graphs plus initial parameters.

Families:

* ``mlp`` — chain of matrix-vector layers with pointwise activations;
  naturally levelled.  dims = layer widths, e.g. (4, 8, 1).
* ``conv1d`` — 1-d convolution expanded into scalar multiply-adds with
  one tie group per kernel entry; naturally levelled.  dims =
  (input_length, kernel_size).
* ``rnn`` — many-to-one recurrent net unrolled over the sequence;
  step-shared weight matrices become tie groups whose members sit at
  different levels.  dims = (seq_len, input_dim, hidden_dim).
* ``residual`` — two-layer block with a skip connection; NOT levelled
  (the skip shortens one path).  dims = (input_dim, hidden_dim, 1).
* ``attention`` — gate-times-value multiplicative block where the gate
  side is deeper than the value side; NOT levelled.  dims =
  (input_dim, inner_dim).
* ``sqrtsquare`` / ``skipchain`` — the two worked toy graphs used throughout the
  test suite, with their canonical parameter values.

Trainable parameters are drawn uniform [-0.5, 0.5] from the seed in the
model description; data inputs (the ``x``/``s`` leaves) are drawn the
same way but marked non-trainable.  The random DAG generator at the
bottom feeds the property sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import functions as fns
from .errors import BadSpec
from .graph import Graph, GraphBuilder, Vertex, VertexId
from .numerics import Array, as_f64

FAMILIES = ("mlp", "conv1d", "rnn", "residual", "attention", "sqrtsquare", "skipchain")

# Levelled as built; the others need the leveller first.
LEVELLED_FAMILIES = ("mlp", "conv1d", "rnn")


@dataclass(frozen=True)
class ModelSpec:
    family: str
    dims: tuple[int, ...] = ()
    activation: str = "identity"
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise BadSpec(f"unknown family {self.family!r}; "
                          f"choose one of {FAMILIES}")
        if any(d <= 0 for d in self.dims):
            raise BadSpec("dims must be positive")
        if self.activation not in fns.ACTIVATION_NAMES:
            raise BadSpec(f"unknown activation {self.activation!r}")
        if self.seed < 0:
            raise BadSpec(f"seed must be >= 0, got {self.seed}")


def default_dims(family: str) -> tuple[int, ...]:
    return _FAMILY_TABLE[family][1]


def build_model(spec: ModelSpec) -> tuple[Graph, dict[VertexId, Array]]:
    """Build the family's graph and its seed-determined initial parameters."""
    builder, dims = _FAMILY_TABLE[spec.family]
    return builder(spec.dims or dims, spec.activation,
                   np.random.default_rng(spec.seed))


def _uniform(rng, shape=()):
    return as_f64(rng.uniform(-0.5, 0.5, shape) if shape else rng.uniform(-0.5, 0.5))


def _build_mlp(dims, activation, rng):
    if len(dims) < 2:
        raise BadSpec("mlp needs at least (input, output) widths")
    b = GraphBuilder()
    params: dict[VertexId, Array] = {}
    x = b.leaf(trainable=False, name="x")
    params[x] = _uniform(rng, (dims[0],))
    cur = x
    for layer, (d_in, d_out) in enumerate(zip(dims, dims[1:]), start=1):
        w = b.leaf(name=f"W{layer}")
        params[w] = _uniform(rng, (d_out, d_in))
        mv = b.vertex(fns.matvec(), [w, cur], name=f"mv{layer}")
        cur = b.vertex(fns.activation(activation), [mv], name=f"a{layer}")
    out = b.vertex(fns.sum_reduce(), [cur], name="out")
    return b.build(out), params


def _build_conv1d(dims, activation, rng):
    if len(dims) != 2:
        raise BadSpec("conv1d needs (input_length, kernel_size)")
    length, ksize = dims
    if ksize > length:
        raise BadSpec("kernel longer than the input")
    b = GraphBuilder()
    params: dict[VertexId, Array] = {}
    signal = []
    for i in range(length):
        s = b.leaf(trainable=False, name=f"s{i}")
        params[s] = _uniform(rng)
        signal.append(s)
    kernel_values = [_uniform(rng) for _ in range(ksize)]
    positions = []
    n_pos = length - ksize + 1
    for i in range(n_pos):
        taps = []
        for a in range(ksize):
            k = b.leaf(tie_group=f"kernel{a}", name=f"k{a}@{i}")
            params[k] = kernel_values[a].copy()
            taps.append(b.vertex(fns.multiply(), [k, signal[i + a]],
                                 name=f"p{i},{a}"))
        if len(taps) == 1:
            positions.append(taps[0])
        else:
            positions.append(b.vertex(fns.add(len(taps)), taps, name=f"y{i}"))
    for a in range(ksize):
        b.tie_value(f"kernel{a}", kernel_values[a])
    if n_pos == 1:
        out = positions[0]
    else:
        out = b.vertex(fns.add(n_pos), positions, name="out")
    return b.build(out), params


def _build_rnn(dims, activation, rng):
    if len(dims) != 3:
        raise BadSpec("rnn needs (seq_len, input_dim, hidden_dim)")
    seq_len, d_in, d_h = dims
    b = GraphBuilder()
    params: dict[VertexId, Array] = {}
    theta_x = _uniform(rng, (d_h, d_in))
    theta_h = _uniform(rng, (d_h, d_h))
    h0 = b.leaf(trainable=False, name="h0")
    params[h0] = np.zeros(d_h)
    prev = h0
    for k in range(1, seq_len + 1):
        s = b.leaf(trainable=False, name=f"s{k}")
        params[s] = _uniform(rng, (d_in,))
        wx = b.leaf(tie_group="theta_x", name=f"theta_x@{k}")
        params[wx] = theta_x.copy()
        wh = b.leaf(tie_group="theta_h", name=f"theta_h@{k}")
        params[wh] = theta_h.copy()
        mx = b.vertex(fns.matvec(), [wx, s], name=f"mx{k}")
        mh = b.vertex(fns.matvec(), [wh, prev], name=f"mh{k}")
        pre = b.vertex(fns.add(), [mx, mh], name=f"pre{k}")
        prev = b.vertex(fns.activation(activation), [pre], name=f"h{k}")
    b.tie_value("theta_x", theta_x)
    b.tie_value("theta_h", theta_h)
    wy = b.leaf(name="theta_y")
    params[wy] = _uniform(rng, (1, d_h))
    top = b.vertex(fns.matvec(), [wy, prev], name="ylin")
    out = b.vertex(fns.sum_reduce(), [top], name="out")
    return b.build(out), params


def _build_residual(dims, activation, rng):
    if len(dims) != 3:
        raise BadSpec("residual needs (input_dim, hidden_dim, output_dim)")
    d_in, d_h, d_out = dims
    b = GraphBuilder()
    params: dict[VertexId, Array] = {}
    x = b.leaf(trainable=False, name="x")
    params[x] = _uniform(rng, (d_in,))
    w1 = b.leaf(name="W1")
    params[w1] = _uniform(rng, (d_h, d_in))
    a1 = b.vertex(fns.activation(activation),
                  [b.vertex(fns.matvec(), [w1, x], name="mv1")], name="a1")
    w2 = b.leaf(name="W2")
    params[w2] = _uniform(rng, (d_h, d_h))
    mv2 = b.vertex(fns.matvec(), [w2, a1], name="mv2")
    skip = b.vertex(fns.add(), [mv2, a1], name="skip")
    a2 = b.vertex(fns.activation(activation), [skip], name="a2")
    w3 = b.leaf(name="W3")
    params[w3] = _uniform(rng, (d_out, d_h))
    mv3 = b.vertex(fns.matvec(), [w3, a2], name="mv3")
    out = b.vertex(fns.sum_reduce(), [mv3], name="out")
    return b.build(out), params


def _build_attention(dims, activation, rng):
    """Self-gating block: h = act(W1 x); out ~ Wo (act(Wg h) * h).

    The hidden vector h feeds the product both directly and through the
    gate transform, so its root-path lengths differ by two — the same
    ambiguity a skip connection creates, but through a multiplicative
    interaction.
    """
    if len(dims) != 2:
        raise BadSpec("attention needs (input_dim, inner_dim)")
    d_in, d_inner = dims
    b = GraphBuilder()
    params: dict[VertexId, Array] = {}
    x = b.leaf(trainable=False, name="x")
    params[x] = _uniform(rng, (d_in,))
    w1 = b.leaf(name="W1")
    params[w1] = _uniform(rng, (d_inner, d_in))
    h1 = b.vertex(fns.activation(activation),
                  [b.vertex(fns.matvec(), [w1, x], name="mv1")], name="h1")
    wg = b.leaf(name="Wg")
    params[wg] = _uniform(rng, (d_inner, d_inner))
    gate = b.vertex(fns.activation(activation),
                    [b.vertex(fns.matvec(), [wg, h1], name="gmv")],
                    name="gate")
    gated = b.vertex(fns.multiply(), [gate, h1], name="gated")
    wo = b.leaf(name="Wo")
    params[wo] = _uniform(rng, (1, d_inner))
    out = b.vertex(fns.sum_reduce(),
                   [b.vertex(fns.matvec(), [wo, gated], name="omv")],
                   name="out")
    return b.build(out), params


def _build_sqrtsquare(dims, activation, rng):
    """(sqrt(z1) + z2)^2 with the canonical values z = (4, 1)."""
    b = GraphBuilder()
    z1 = b.leaf(name="z1")
    z2 = b.leaf(name="z2")
    root = b.vertex(fns.sqrt(), [z1], name="sqrt")
    total = b.vertex(fns.add(), [root, z2], name="add")
    out = b.vertex(fns.square(), [total], name="out")
    return b.build(out), {z1: as_f64(4.0), z2: as_f64(1.0)}


def _build_skipchain(dims, activation, rng):
    """s*z3*z2*z1 + s*z3 with unit values; the skip edge out->g3 makes
    the graph unlevelled."""
    b = GraphBuilder()
    s = b.leaf(trainable=False, name="s")
    z1 = b.leaf(name="z1")
    z2 = b.leaf(name="z2")
    z3 = b.leaf(name="z3")
    g3 = b.vertex(fns.multiply(), [s, z3], name="g3")
    g2 = b.vertex(fns.multiply(), [g3, z2], name="g2")
    g1 = b.vertex(fns.multiply(), [g2, z1], name="g1")
    out = b.vertex(fns.add(), [g1, g3], name="out")
    return b.build(out), {s: as_f64(1.0), z1: as_f64(1.0),
                          z2: as_f64(1.0), z3: as_f64(1.0)}


# Family -> (builder, default dims).
_FAMILY_TABLE = {
    "mlp": (_build_mlp, (4, 8, 1)),
    "conv1d": (_build_conv1d, (6, 2)),
    "rnn": (_build_rnn, (3, 3, 4)),
    "residual": (_build_residual, (4, 4, 1)),
    "attention": (_build_attention, (4, 4)),
    "sqrtsquare": (_build_sqrtsquare, ()),
    "skipchain": (_build_skipchain, ()),
}


def untie(g: Graph) -> Graph:
    """Clone with every tied leaf promoted to an independent parameter.

    Ids are preserved, so per-leaf results of the clone line up with the
    original's tie-group members.  A graph without ties is returned
    unchanged.
    """
    if not g.tie_groups:
        return g
    vertices = [v if v.tie_group is None else
                type(v)(v.id, v.fn, v.children, v.is_leaf, None,
                        v.trainable, v.name)
                for v in g.vertices]
    return Graph(vertices, g.output, ())


# -- random DAGs for property sweeps --------------------------------------

_RANDOM_KINDS = ("add2", "add3", "multiply", "square", "tanh", "logistic",
                 "identity")


def random_graph(seed: int) -> tuple[Graph, dict[VertexId, Array], float]:
    """A random scalar DAG of 4 to 12 vertices with safe function domains,
    plus params and target.

    Every vertex is reachable from the single output; leaves are mostly
    trainable (at least one always is).  Square roots are excluded so
    random values can never leave a domain.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 13))
    is_leaf = [False] * n
    fn_of: dict[int, fns.ElemFn] = {}
    children_of: dict[int, list[int]] = {}
    for vid in range(1, n):
        if vid == n - 1 or rng.random() < 0.35:
            is_leaf[vid] = True
            continue
        kind = _RANDOM_KINDS[int(rng.integers(len(_RANDOM_KINDS)))]
        arity = {"add2": 2, "add3": 3, "multiply": 2}.get(kind, 1)
        arity = min(arity, n - 1 - vid)
        pool = np.arange(vid + 1, n)
        children_of[vid] = [int(c) for c in rng.choice(pool, size=arity,
                                                       replace=True)]
        if kind in ("add2", "add3"):
            fn_of[vid] = fns.add(arity) if arity >= 2 else fns.identity()
        elif kind == "multiply":
            fn_of[vid] = fns.multiply(arity) if arity >= 2 else fns.square()
        elif kind == "square":
            fn_of[vid] = fns.square()
        elif kind == "identity":
            fn_of[vid] = fns.identity()
        else:
            fn_of[vid] = fns.activation(kind)
    # The output adds its sampled children plus every orphan root, which
    # guarantees reachability of the whole vertex set.
    has_parent = set()
    for vid, kids in children_of.items():
        has_parent.update(kids)
    orphans = [v for v in range(1, n) if v not in has_parent]
    base = [int(c) for c in rng.choice(np.arange(1, n),
                                       size=min(2, n - 1), replace=True)]
    out_children = base + [v for v in orphans if v not in base]
    fn_of[0] = (fns.add(len(out_children)) if len(out_children) >= 2
                else fns.identity())
    children_of[0] = out_children

    trainable_flags = {vid: bool(rng.random() < 0.8)
                       for vid in range(n) if is_leaf[vid]}
    if trainable_flags and not any(trainable_flags.values()):
        trainable_flags[sorted(trainable_flags)[0]] = True
    vertices = [Vertex(vid, fn_of.get(vid), tuple(children_of.get(vid, ())),
                       is_leaf[vid], None, trainable_flags.get(vid, True))
                for vid in range(n)]
    g = Graph(vertices, 0, ())
    params = {vid: _uniform(rng) for vid in g.leaves}
    y = float(rng.uniform(-2.0, 2.0))
    return g, params, y
