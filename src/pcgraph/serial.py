"""Graph persistence: the JSON schema (read and written) and DOT export.

Schema (``format: "pcgraph-v1"``)::

    {
      "format": "pcgraph-v1",
      "output": 4,
      "vertices": [
        {"id": 0, "leaf": true, "trainable": true, "name": "z1"},
        {"id": 1, "leaf": true, "tie_group": "kernel0"},
        {"id": 2, "kind": "add", "arity": 2, "children": [0, 1]},
        {"id": 3, "kind": "activation", "activation": "tanh", "children": [2]},
        {"id": 4, "kind": "constant", "value": 0.5, "children": []}
      ],
      "tie_groups": [{"id": "kernel0", "members": [1], "value": 0.25}],
      "params": {"0": 4.0, "1": 0.25}
    }

``children`` lists a vertex's inputs (the reverse-pass direction);
``params`` maps leaf ids to values (scalars or nested lists) and is
optional.  DOT edges are drawn in the forward-flow direction, child to
parent.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping

from . import functions as fns
from .errors import GraphError
from .functions import ElemFn, FnKind
from .graph import Graph, TieGroup, Vertex, VertexId
from .numerics import Array, as_f64, is_integer

FORMAT = "pcgraph-v1"


def _integer(value, what: str) -> int:
    if not is_integer(value):
        raise GraphError(f"{what} must be an integer, got {value!r}")
    return value


def _flag(value, what: str) -> bool:
    if not isinstance(value, bool):
        raise GraphError(f"{what} must be true or false, got {value!r}")
    return value


def build_graph(description: Mapping) -> Graph:
    """Build a graph from its plain-dict description (the JSON schema).

    Expected keys: ``output`` (int), ``vertices`` (list of vertex
    records), optional ``tie_groups``.  See the README for the schema.
    Ids, children, members and arities must be integers and ``leaf``
    and ``trainable`` booleans; nothing is coerced.  Parameter values
    under ``params`` are ignored here; the serializer returns them
    separately.
    """
    try:
        records = list(description["vertices"])
        output = _integer(description["output"], "output")
        by_id: dict[int, Mapping] = {}
        for rec in records:
            vid = _integer(rec["id"], "vertex id")
            if vid in by_id:
                raise GraphError(f"duplicate vertex id {vid}")
            by_id[vid] = rec
        if set(by_id) != set(range(len(by_id))):
            raise GraphError("vertex ids must be dense 0..n-1")
        vertices = []
        for vid in range(len(by_id)):
            rec = by_id[vid]
            if _flag(rec.get("leaf", False), f"vertex {vid} leaf"):
                vertices.append(Vertex(
                    vid, None, (), True, rec.get("tie_group"),
                    _flag(rec.get("trainable", True), f"vertex {vid} trainable"),
                    rec.get("name")))
                continue
            kind = FnKind(rec["kind"])
            children = tuple(_integer(c, f"vertex {vid} child")
                             for c in rec.get("children", ()))
            arity = _integer(rec.get("arity", len(children)), f"vertex {vid} arity")
            if kind is FnKind.CONSTANT:
                fn = fns.constant(rec["value"])
            elif kind is FnKind.ACTIVATION:
                fn = fns.activation(rec["activation"])
            else:
                fixed = fns.KINDS[kind].arity
                fn = ElemFn(kind, arity if fixed is None else fixed)
            vertices.append(Vertex(vid, fn, children, False, None, True,
                                   rec.get("name")))
        groups = tuple(
            TieGroup(str(rec["id"]),
                     tuple(_integer(m, "tie group member") for m in rec["members"]),
                     as_f64(rec["value"]) if "value" in rec else None)
            for rec in description.get("tie_groups", ()))
    except (AttributeError, KeyError, OverflowError, TypeError,
            ValueError) as exc:
        raise GraphError(f"malformed graph description: {exc!r}") from exc
    return Graph(vertices, output, groups)


def graph_to_dict(g: Graph, params: Mapping[VertexId, Array] | None = None) -> dict:
    vertices = []
    for v in g.vertices:
        if v.is_leaf:
            rec: dict = {"id": v.id, "leaf": True, "trainable": v.trainable}
            if v.tie_group is not None:
                rec["tie_group"] = v.tie_group
        else:
            rec = {"id": v.id, "kind": v.fn.kind.value,
                   "children": list(v.children)}
            if v.fn.kind in (FnKind.ADD, FnKind.MULTIPLY):
                rec["arity"] = v.fn.arity
            if v.fn.kind is FnKind.ACTIVATION:
                rec["activation"] = v.fn.name
            if v.fn.kind is FnKind.CONSTANT:
                rec["value"] = v.fn.value
        if v.name is not None:
            rec["name"] = v.name
        vertices.append(rec)
    groups = []
    for grp in g.tie_groups:
        rec = {"id": grp.group_id, "members": list(grp.members)}
        if grp.shared_value is not None:
            rec["value"] = grp.shared_value.tolist()
        groups.append(rec)
    out: dict = {"format": FORMAT, "output": g.output, "vertices": vertices}
    if groups:
        out["tie_groups"] = groups
    if params is not None:
        out["params"] = {str(k): as_f64(v).tolist() for k, v in params.items()}
    return out


def graph_from_dict(d: Mapping) -> tuple[Graph, dict[VertexId, Array] | None]:
    if not isinstance(d, Mapping):
        raise GraphError("graph description must be a JSON object")
    if d.get("format", FORMAT) != FORMAT:
        raise GraphError(f"unsupported graph format {d.get('format')!r}")
    g = build_graph(d)
    params = None
    if "params" in d:
        try:
            params = {int(k): as_f64(v) for k, v in d["params"].items()}
        except (AttributeError, OverflowError, TypeError, ValueError) as exc:
            raise GraphError(f"malformed params: {exc!r}") from exc
    return g, params


def save_graph(path, g: Graph, params: Mapping[VertexId, Array] | None = None) -> None:
    Path(path).write_text(json.dumps(graph_to_dict(g, params), indent=2) + "\n")


def load_graph(path) -> tuple[Graph, dict[VertexId, Array] | None]:
    try:
        d = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise GraphError(f"cannot read graph file {path}: {exc}") from exc
    return graph_from_dict(d)


_PALETTE = ("lightblue", "lightsalmon", "palegreen", "khaki", "plum",
            "lightcyan", "mistyrose", "honeydew")


def to_dot(g: Graph, title: str = "graph") -> str:
    """Graphviz rendering; tied leaves share a fill colour."""
    colour = {grp.group_id: _PALETTE[i % len(_PALETTE)]
              for i, grp in enumerate(g.tie_groups)}
    lines = [f'digraph "{title}" {{', "  rankdir=BT;"]
    for v in g.vertices:
        label = v.name or (f"v{v.id}" if v.is_leaf else v.fn.kind.value)
        if v.is_leaf:
            style = 'shape=box, style=filled, fillcolor="%s"' % (
                colour.get(v.tie_group, "white" if v.trainable else "lightgray"))
        elif v.fn.kind is FnKind.IDENTITY:
            style = "shape=circle, style=dashed"
        else:
            style = "shape=ellipse"
        peripheries = ", peripheries=2" if v.id == g.output else ""
        lines.append(f'  n{v.id} [label="{label}", {style}{peripheries}];')
    for v in g.vertices:
        for c in v.children:
            lines.append(f"  n{c} -> n{v.id};")
    lines.append("}")
    return "\n".join(lines) + "\n"
