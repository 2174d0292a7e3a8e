"""Exception types shared across the engine.

Every error raised deliberately by this package derives from
:class:`GraphError`, so callers can catch one base class at API
boundaries (the CLI maps them to exit code 2 for usage/config problems
and prints the message).
"""

from __future__ import annotations


class GraphError(Exception):
    """Base class for all graph-engine errors."""


class CycleDetected(GraphError):
    """The construction description contains a directed cycle."""

    def __init__(self, path):
        self.path = tuple(path)
        super().__init__(f"cycle detected through vertices {list(self.path)}")


class DanglingId(GraphError):
    """A child list references a vertex id that does not exist."""

    def __init__(self, vertex, child):
        self.vertex = vertex
        self.child = child
        super().__init__(f"vertex {vertex} references unknown child id {child}")


class ArityMismatch(GraphError):
    """A vertex's child count does not match its function's arity."""

    def __init__(self, vertex, expected, got):
        self.vertex = vertex
        self.expected = expected
        self.got = got
        super().__init__(
            f"vertex {vertex} expects {expected} children, got {got}"
        )


class UnreachableVertex(GraphError):
    """Vertices exist that cannot be reached from the output."""

    def __init__(self, ids):
        self.ids = tuple(sorted(ids))
        super().__init__(f"vertices not reachable from output: {list(self.ids)}")


class BadTieGroup(GraphError):
    """A tie group is malformed (non-leaf member, overlap, value mismatch)."""


class NotLevelled(GraphError):
    """The graph has a vertex with several distinct root-path lengths."""

    def __init__(self, vertex, lengths):
        self.vertex = vertex
        self.lengths = frozenset(lengths)
        super().__init__(
            f"vertex {vertex} has root-path lengths {sorted(self.lengths)}; "
            "run the leveller first"
        )


class DomainError(GraphError):
    """A function was evaluated outside its admissible input domain."""

    def __init__(self, value, vertex=None):
        self.value = value
        self.vertex = vertex
        where = f" at vertex {vertex}" if vertex is not None else ""
        super().__init__(f"input {value!r} outside function domain{where}")

    def at_vertex(self, vertex):
        """Return a copy of this error tagged with the offending vertex id."""
        return DomainError(self.value, vertex=vertex)


class NonFiniteSum(GraphError, OverflowError, ValueError):
    """An exact sum overflowed or met inf - inf, as ``math.fsum`` raises."""


class BadGamma(GraphError):
    """An integration step other than 1 was requested for an exact schedule."""

    def __init__(self, gamma):
        self.gamma = gamma
        super().__init__(
            f"gamma={gamma} breaks update exactness; pass the explicit "
            "ablation flag to run anyway"
        )


class ShapeMismatch(GraphError):
    """Two objects that must agree in structure (keys/shapes) do not."""


class TooLarge(GraphError):
    """An exhaustive oracle was asked to enumerate too large a graph."""

    def __init__(self, size, limit):
        self.size = size
        self.limit = limit
        super().__init__(
            f"exhaustive path walk passed {size} steps, cap is {limit}")


class BadSpec(GraphError):
    """A model/config description is invalid."""
