"""Computational-graph data model, construction, ordering, and validation.

A graph is a DAG of vertices.  Edges are stored *child-ward*: a vertex's
``children`` are the inputs of its function, i.e. the direction the
reverse pass walks.  The forward pass therefore iterates the topological
order reversed.  ``parents`` is the exact transpose of the children
lists, kept with slot indices so that a vertex used twice by the same
parent receives two distinct contributions.

Leaves carry no function; they hold parameter or data values supplied at
run time.  A leaf with ``trainable=False`` is a data input: it is
excluded from every update report.  Tie groups constrain several leaves
to share one trainable value (convolution kernel entries, reused
recurrent weights); their update is the sum of the member updates.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import functions as fns
from .errors import (
    ArityMismatch,
    BadTieGroup,
    CycleDetected,
    DanglingId,
    GraphError,
    NotLevelled,
    UnreachableVertex,
)
from .functions import ElemFn
from .numerics import Array, all_finite, as_f64

VertexId = int

# Canonical handle for one trainable parameter: a tie group or a free leaf.
ParamKey = tuple[str, str | int]


@dataclass(frozen=True)
class Vertex:
    id: VertexId
    fn: ElemFn | None
    children: tuple[VertexId, ...]
    is_leaf: bool
    tie_group: str | None = None
    trainable: bool = True
    name: str | None = None


@dataclass(frozen=True)
class TieGroup:
    """Leaves sharing one trainable parameter value."""

    group_id: str
    members: tuple[VertexId, ...]
    shared_value: Array | None = None


@dataclass(frozen=True)
class LevelStructure:
    """Partition of a levelled graph's vertices by root-path length.

    ``buckets[k]`` holds the ids at level k, ascending.
    """

    levels: dict[VertexId, int]
    max_level: int
    buckets: tuple[tuple[VertexId, ...], ...]

    def members(self, k: int) -> tuple[VertexId, ...]:
        return self.buckets[k] if 0 <= k <= self.max_level else ()


class Graph:
    """Validated, immutable computational graph.

    Construct through :class:`GraphBuilder` or ``serial.build_graph``;
    direct construction validates too.  Construction also computes the
    graph's plan once: ``order`` (see :func:`topological_sort`),
    ``internal_ids`` (non-leaf ids, ascending), ``internal_slots[vid]``
    (the slots of ``vid`` whose child is internal), the trainable
    leaves, ``param_keys`` (see :func:`param_keys`) and ``group_by_id``.
    The level structure is computed on first use by
    :func:`level_structure` and kept, whether it is a partition or a
    :class:`NotLevelled` outcome; so is the plan of the forward and
    reverse sweeps, by :func:`autodiff.sweep_plan`.  ``_steps`` keeps
    the step engine's plan for the value shapes of its latest run
    (:func:`pc._step_plan`), which a run with other shapes replaces.
    """

    def __init__(self, vertices: Sequence[Vertex], output: VertexId,
                 tie_groups: Sequence[TieGroup] = ()):
        self.vertices: tuple[Vertex, ...] = tuple(vertices)
        self.output: VertexId = output
        self.tie_groups: tuple[TieGroup, ...] = tuple(tie_groups)
        self._validate_structure()
        self.parents: tuple[tuple[tuple[VertexId, int], ...], ...] = \
            self._transpose()
        self.leaves: tuple[VertexId, ...] = tuple(
            v.id for v in self.vertices if v.is_leaf)
        self.group_of: dict[VertexId, TieGroup] = {
            m: grp for grp in self.tie_groups for m in grp.members}
        self.group_by_id: dict[str, TieGroup] = {
            grp.group_id: grp for grp in self.tie_groups}
        self._validate_graph()
        self.order: tuple[VertexId, ...] = self._topological_order()
        self.internal_ids: tuple[VertexId, ...] = tuple(
            v.id for v in self.vertices if not v.is_leaf)
        self.internal_slots: tuple[tuple[int, ...], ...] = tuple(
            tuple(s for s, c in enumerate(v.children)
                  if not self.vertices[c].is_leaf)
            for v in self.vertices)
        self._trainable_leaves: tuple[VertexId, ...] = tuple(
            v for v in self.leaves if self.vertices[v].trainable)
        self.param_keys: tuple[ParamKey, ...] = (
            *(("group", grp.group_id) for grp in self.tie_groups),
            *(("leaf", v) for v in self._trainable_leaves
              if v not in self.group_of))
        self._levels: LevelStructure | tuple | None = None  # see level_structure
        self._steps = None  # see pc._step_plan
        self._sweep = None  # see autodiff.sweep_plan

    # -- accessors -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.vertices)

    def trainable_leaves(self) -> tuple[VertexId, ...]:
        return self._trainable_leaves

    # -- validation ------------------------------------------------------

    def _validate_structure(self) -> None:
        n = len(self.vertices)
        for i, v in enumerate(self.vertices):
            if v.id != i:
                raise GraphError(
                    f"vertex ids must be dense 0..{n - 1}; position {i} has id {v.id}")
            for c in v.children:
                if not (0 <= c < n):
                    raise DanglingId(v.id, c)
            if v.is_leaf:
                if v.children or v.fn is not None:
                    raise GraphError(f"leaf {v.id} must have no children and no fn")
            else:
                if v.fn is None:
                    raise GraphError(f"internal vertex {v.id} needs a function")
                if len(v.children) != v.fn.arity:
                    raise ArityMismatch(v.id, v.fn.arity, len(v.children))
        if not (0 <= self.output < n):
            raise DanglingId(-1, self.output)

    def _transpose(self) -> tuple[tuple[tuple[VertexId, int], ...], ...]:
        acc: list[list[tuple[VertexId, int]]] = [[] for _ in self.vertices]
        for v in self.vertices:
            for slot, c in enumerate(v.children):
                acc[c].append((v.id, slot))
        return tuple(tuple(sorted(p)) for p in acc)

    def _topological_order(self) -> tuple[VertexId, ...]:
        pending = [len(p) for p in self.parents]
        heap = [self.output]
        order: list[VertexId] = []
        while heap:
            v = heapq.heappop(heap)
            order.append(v)
            for c in self.vertices[v].children:
                pending[c] -= 1
                if pending[c] == 0:
                    heapq.heappush(heap, c)
        return tuple(order)

    def _validate_graph(self) -> None:
        self._check_acyclic()
        if self.parents[self.output]:
            raise GraphError(f"output vertex {self.output} has parents")
        reachable = set()
        stack = [self.output]
        while stack:
            v = stack.pop()
            if v in reachable:
                continue
            reachable.add(v)
            stack.extend(self.vertices[v].children)
        missing = set(range(len(self.vertices))) - reachable
        if missing:
            raise UnreachableVertex(missing)
        if len(self.group_by_id) != len(self.tie_groups):
            raise BadTieGroup("tie group ids must be distinct")
        seen: set[VertexId] = set()
        for grp in self.tie_groups:
            if not grp.members:
                raise BadTieGroup(f"tie group {grp.group_id!r} is empty")
            for m in grp.members:
                if not (0 <= m < len(self.vertices)):
                    raise BadTieGroup(f"tie group {grp.group_id!r} member {m} unknown")
                if not self.vertices[m].is_leaf:
                    raise BadTieGroup(
                        f"tie group {grp.group_id!r} member {m} is not a leaf")
                if not self.vertices[m].trainable:
                    raise BadTieGroup(
                        f"tie group {grp.group_id!r} member {m} is not trainable")
                if m in seen:
                    raise BadTieGroup(f"leaf {m} belongs to several tie groups")
                if self.vertices[m].tie_group != grp.group_id:
                    raise BadTieGroup(
                        f"leaf {m} does not name tie group {grp.group_id!r}")
                seen.add(m)
        for v in self.vertices:
            if v.tie_group is not None and v.id not in seen:
                raise BadTieGroup(
                    f"leaf {v.id} names tie group {v.tie_group!r} "
                    "which is not declared")

    def _check_acyclic(self) -> None:
        WHITE, GREY, BLACK = 0, 1, 2
        color = [WHITE] * len(self.vertices)
        for start in range(len(self.vertices)):
            if color[start] != WHITE:
                continue
            path: list[VertexId] = []
            stack: list[tuple[VertexId, int]] = [(start, 0)]
            color[start] = GREY
            path.append(start)
            while stack:
                v, idx = stack[-1]
                children = self.vertices[v].children
                if idx < len(children):
                    stack[-1] = (v, idx + 1)
                    c = children[idx]
                    if color[c] == GREY:
                        raise CycleDetected(path[path.index(c):] + [c])
                    if color[c] == WHITE:
                        color[c] = GREY
                        path.append(c)
                        stack.append((c, 0))
                else:
                    color[v] = BLACK
                    path.pop()
                    stack.pop()


# -- ordering and distances ----------------------------------------------

def topological_sort(g: Graph) -> tuple[VertexId, ...]:
    """Order with the output first and every vertex after all its parents.

    Deterministic: among ready vertices the smallest id is emitted first.
    """
    return g.order


def min_distances(g: Graph) -> dict[VertexId, int]:
    """Shortest edge-count distance from the output to every vertex."""
    dist = {g.output: 0}
    queue = deque([g.output])
    while queue:
        v = queue.popleft()
        for c in g.vertices[v].children:
            if c not in dist:
                dist[c] = dist[v] + 1
                queue.append(c)
    return dist


def path_length_sets(g: Graph) -> dict[VertexId, frozenset[int]]:
    """All distinct root-path lengths per vertex (dynamic programming).

    Efficient companion to the exhaustive path enumeration oracle: the
    set for a vertex is the union over its parents of their sets shifted
    by one.
    """
    sets: dict[VertexId, set[int]] = {g.output: {0}}
    for v in g.order:
        if v == g.output:
            continue
        acc: set[int] = set()
        for p, _slot in g.parents[v]:
            acc.update(l + 1 for l in sets[p])
        sets[v] = acc
    return {v: frozenset(s) for v, s in sets.items()}


def level_structure(g: Graph) -> LevelStructure:
    """The unique partition by root-path length, if the graph is levelled.

    Raises :class:`NotLevelled` naming the smallest-id vertex whose
    root-path lengths disagree.  Either outcome is computed once per
    graph.
    """
    if g._levels is None:
        sets = path_length_sets(g)
        offenders = sorted(v for v, s in sets.items() if len(s) != 1)
        if offenders:
            g._levels = (offenders[0], sets[offenders[0]])
        else:
            levels = {v: next(iter(s)) for v, s in sets.items()}
            max_level = max(levels.values())
            buckets: list[list[VertexId]] = [[] for _ in range(max_level + 1)]
            for v in range(len(g.vertices)):
                buckets[levels[v]].append(v)
            g._levels = LevelStructure(levels=levels, max_level=max_level,
                                       buckets=tuple(map(tuple, buckets)))
    if isinstance(g._levels, tuple):
        raise NotLevelled(*g._levels)
    return g._levels


def param_keys(g: Graph) -> tuple[ParamKey, ...]:
    """Canonical parameter order: tie groups (declaration order), then
    free trainable leaves (ascending id)."""
    return g.param_keys


def check_params(g: Graph,
                 params: Mapping[VertexId, Array]) -> dict[VertexId, Array]:
    """Validate that ``params`` covers all leaves with finite real values
    and respects tie groups; returns each leaf's value as float64."""
    values: dict[VertexId, Array] = {}
    for v in g.leaves:
        if v not in params:
            raise GraphError(f"missing value for leaf {v}")
        values[v] = _leaf_value(v, params[v])
        if v not in g.group_of and not all_finite(values[v]):
            raise GraphError(f"non-finite value for leaf {v}")
    for grp in g.tie_groups:
        first = values[grp.members[0]]
        if not all_finite(first):
            raise GraphError(f"non-finite value for tie group {grp.group_id!r}")
        clones = [values[m] for m in grp.members[1:]]
        same = [c.shape == first.shape for c in clones]
        if not all(same):  # one clone of another shape: compare one by one
            same = [s and np.array_equal(first, c) for s, c in zip(same, clones)]
        elif clones:  # every clone in one comparison
            same = (np.stack(clones) == first).reshape(len(clones), -1).all(1)
        if not np.all(same):
            m = grp.members[1 + int(np.argmin(same))]  # the first to disagree
            raise BadTieGroup(
                f"tie group {grp.group_id!r} members disagree at leaf {m}")
    return values


def _leaf_value(v: VertexId, value) -> Array:
    """Leaf ``v``'s value as float64; a :class:`GraphError` naming the
    leaf where it is not a real number or a regular array of them."""
    try:
        if np.asarray(value).dtype.kind in "biufO":
            return as_f64(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise GraphError(f"value for leaf {v} must be a real number or an "
                     f"array of them, got {value!r}")


# -- construction --------------------------------------------------------

class GraphBuilder:
    """Incremental construction with dense id allocation.

    >>> b = GraphBuilder()
    >>> z1 = b.leaf(name="z1")
    >>> z2 = b.leaf(name="z2")
    >>> root = b.vertex(fns.square(), [b.vertex(fns.add(), [b.vertex(fns.sqrt(), [z1]), z2])])
    >>> g = b.build(root)
    """

    def __init__(self):
        self._vertices: list[Vertex] = []
        self._tie_members: dict[str, list[VertexId]] = {}
        self._tie_values: dict[str, Array | None] = {}

    def _next(self) -> VertexId:
        return len(self._vertices)

    def leaf(self, *, trainable: bool = True, tie_group: str | None = None,
             name: str | None = None) -> VertexId:
        vid = self._next()
        self._vertices.append(Vertex(vid, None, (), True, tie_group,
                                     trainable, name))
        if tie_group is not None:
            self._tie_members.setdefault(tie_group, []).append(vid)
        return vid

    def vertex(self, fn: ElemFn, children: Sequence[VertexId], *,
               name: str | None = None) -> VertexId:
        vid = self._next()
        self._vertices.append(Vertex(vid, fn, tuple(children), False,
                                     None, True, name))
        return vid

    def constant(self, value: float, *, name: str | None = None) -> VertexId:
        return self.vertex(fns.constant(value), [], name=name)

    def tie_value(self, group_id: str, value) -> None:
        """Record the shared initial value of a tie group."""
        self._tie_values[group_id] = as_f64(value)

    def build(self, output: VertexId) -> Graph:
        groups = tuple(
            TieGroup(gid, tuple(members), self._tie_values.get(gid))
            for gid, members in self._tie_members.items())
        return Graph(self._vertices, output, groups)

