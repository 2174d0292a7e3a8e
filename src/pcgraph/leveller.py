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
updates — with per-edge padding derived from longest-path depths.
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
)


@dataclass(frozen=True)
class LevelReport:
    """What the transform did: insertions per original edge, plus the
    resulting level partition."""

    inserted: int
    edge_paddings: dict[tuple[VertexId, int], int]
    structure: LevelStructure


def _depths(g: Graph) -> dict[VertexId, int]:
    """Longest-path distance from the output to every vertex."""
    depth: dict[VertexId, int] = {g.output: 0}
    for vid in g.order:
        if vid == g.output:
            continue
        depth[vid] = 1 + max(depth[p] for p, _slot in g.parents[vid])
    return depth


def level(g: Graph) -> tuple[Graph, LevelReport]:
    """Return an equivalent levelled graph and a report of the insertions.

    Original vertices keep their ids; inserted identity vertices get
    fresh ids appended after the existing ones and never join tie
    groups.  Levelling an already-levelled graph returns the graph
    object unchanged with zero insertions.
    """
    depth = _depths(g)
    paddings: dict[tuple[VertexId, int], int] = {}
    for v in g.vertices:
        for slot, c in enumerate(v.children):
            paddings[(v.id, slot)] = depth[c] - depth[v.id] - 1
    total = sum(paddings.values())
    if total == 0:
        return g, LevelReport(inserted=0, edge_paddings=paddings,
                              structure=level_structure(g))
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
            # Chain parent -> id_1 -> ... -> id_pad -> child.
            below = c
            chain: list[VertexId] = []
            for _ in range(pad):
                chain.append(next_id)
                next_id += 1
            for pos, vid in enumerate(chain):
                target = chain[pos + 1] if pos + 1 < len(chain) else below
                new_vertices.append(Vertex(vid, fns.identity(), (target,),
                                           False, None, True, None))
            children[slot] = chain[0]
        if children != list(v.children):
            new_vertices[v.id] = replace(v, children=tuple(children))
    levelled = Graph(new_vertices, g.output, g.tie_groups)
    return levelled, LevelReport(inserted=total, edge_paddings=paddings,
                                 structure=level_structure(levelled))


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
