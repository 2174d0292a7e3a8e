"""Graph levelling: equalize all root-path lengths by inserting identity vertices.

A graph is *levelled* when every directed path from the output to a
given vertex has the same length; that property is what lets the level
schedule deliver each error signal exactly once, at a known step.  Most
interesting architectures (skip connections, attention-style products)
are not levelled.  The transform here pads each edge with identity
vertices until they are, without changing the computed function or any
gradient: identities pass values and cotangents through bit-exactly.

The contract is the postcondition — unique root-path length for every
vertex, identical forward values, and bit-identical reverse-pass leaf
updates — with per-edge padding derived from the longest root-path lengths.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import functions as fns
from .errors import TooLarge
from .graph import (
    Graph,
    LevelStructure,
    Vertex,
    VertexId,
    level_structure,
    path_length_sets,
)


@dataclass(frozen=True)
class LevelReport:
    """What the transform did: insertions per original edge, plus the
    resulting level partition.  Shared by every :func:`level` call on one
    graph, so read-only."""

    inserted: int
    edge_paddings: dict[tuple[VertexId, int], int]
    structure: LevelStructure


def level(g: Graph) -> tuple[Graph, LevelReport]:
    """Return an equivalent levelled graph and a report of the insertions.

    Each edge is padded by its child's longest root-path length less its
    parent's, less one (:func:`graph.path_length_sets`).  Original
    vertices keep their ids; inserted identity vertices get fresh ids
    appended after the existing ones and never join tie groups.
    Levelling an already-levelled graph returns the graph object
    unchanged with zero insertions.  The result is computed once per
    graph and kept on it, so every call returns the same graph and
    report, and the report is read-only.
    """
    if g._levelled is None:
        depth = {v: max(s) for v, s in path_length_sets(g).items()}
        paddings = {(v.id, slot): depth[c] - depth[v.id] - 1
                    for v in g.vertices for slot, c in enumerate(v.children)}
        total = sum(paddings.values())
        lg = Graph(_padded(g, paddings), g.output, g.tie_groups) \
            if total else g
        g._levelled = lg, LevelReport(inserted=total, edge_paddings=paddings,
                                      structure=level_structure(lg))
    return g._levelled


def _padded(g: Graph, paddings: dict[tuple[VertexId, int], int]
            ) -> list[Vertex]:
    """``g``'s vertices with each edge's padding inserted."""
    new_vertices = list(g.vertices)
    next_id = len(g.vertices)
    for v in g.vertices:
        if v.is_leaf:
            continue
        children = list(v.children)
        for slot, c in enumerate(v.children):
            pad = paddings[(v.id, slot)]
            if pad == 0:
                continue
            # Chain parent -> next_id -> ... -> next_id + pad - 1 -> child.
            for vid in range(next_id, next_id + pad):
                below = vid + 1 if vid + 1 < next_id + pad else c
                new_vertices.append(Vertex(vid, fns.identity(), (below,),
                                           False))
            children[slot] = next_id
            next_id += pad
        if children != list(v.children):
            new_vertices[v.id] = replace(v, children=tuple(children))
    return new_vertices


def audit_paths(g: Graph, limit: int = 1_000_000) -> dict[VertexId, frozenset[int]]:
    """Exhaustively enumerate all root-to-vertex path lengths.

    The independent oracle for levelledness: walks every directed path
    from the output and records each visited vertex's path lengths.
    The walk touches every (path, vertex) pair, so its cost is the total
    path count, which ``limit`` caps.
    """
    lengths: dict[VertexId, set[int]] = {v.id: set() for v in g.vertices}
    visits = 0
    stack = [(g.output, 0)]  # one entry per path prefix still to extend
    while stack:
        vid, depth = stack.pop()
        visits += 1
        if visits > limit:
            raise TooLarge(visits, limit)
        lengths[vid].add(depth)
        stack.extend((c, depth + 1) for c in g.vertices[vid].children)
    return {vid: frozenset(s) for vid, s in lengths.items()}
