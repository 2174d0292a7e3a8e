"""Elementary vertex functions: forward evaluation and vector-Jacobian products.

Each vertex of a computational graph applies one of the kinds below to
the values of its children.  A kind is a total differentiable map on its
admissible domain and knows how to pull an upstream cotangent back onto
each input slot (`vjp`) — which is everything reverse differentiation
and the predictive-coding dynamics need.

Values are float64 ndarrays; scalars are 0-d arrays or NumPy float64
scalars.  No broadcasting: elementwise kinds require identical input
shapes.

Validation lives in one place, :meth:`ElemFn.check`: the arity, the
float64 coercion and the kind's shape rule.  A run checks each vertex
once, in the forward pass that starts it; every later value keeps its
forward shape, so ``__call__`` and ``vjp`` are the bare kind rules and
their callers vouch for inputs that ``check`` accepted (or values of
the same shapes).  A kind's value checks, such as ``sqrt``'s domain,
stay in its rules and run on every call and every pull.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import reduce
from typing import Callable, Collection, NamedTuple, Sequence

import numpy as np

from .errors import DomainError, ShapeMismatch
from .numerics import Array, as_f64, ieee_sum


class FnKind(str, Enum):
    CONSTANT = "constant"
    ADD = "add"
    MULTIPLY = "multiply"
    MATVEC = "matvec"
    SQUARE = "square"
    SQRT = "sqrt"
    ACTIVATION = "activation"
    CONVOLVE1D = "convolve1d"
    IDENTITY = "identity"
    SUM_REDUCE = "sum_reduce"


ACTIVATION_NAMES = ("identity", "tanh", "logistic")


@dataclass(frozen=True)
class ElemFn:
    """One elementary function: a kind, its arity, and optional metadata.

    ``name`` selects the activation nonlinearity; ``value`` is the
    payload of a constant vertex.  What the kind computes is its row in
    :data:`KINDS`.  :meth:`check` validates inputs; ``__call__`` and
    :meth:`vjp` run the kind's rules on inputs as given, so a caller
    passes them only values of the shapes ``check`` accepted.
    """

    kind: FnKind
    arity: int
    name: str | None = None
    value: float | None = None

    def __post_init__(self):
        arity = KINDS[self.kind].arity
        if arity is None and self.arity < 2:
            raise ValueError(f"{self.kind.value} needs arity >= 2")
        if arity is not None and self.arity != arity:
            raise ValueError(f"{self.kind.value} has arity {arity}")
        if self.kind is FnKind.CONSTANT and self.value is None:
            raise ValueError("constant needs a value")
        if self.kind is FnKind.ACTIVATION and self.name not in ACTIVATION_NAMES:
            raise ValueError(f"unknown activation {self.name!r}")

    def __call__(self, inputs: Sequence[Array]) -> Array:
        """Evaluate the function on its inputs (one array per child slot).

        The inputs are taken as given: the caller vouches that
        :meth:`check` accepts them.
        """
        return KINDS[self.kind].forward(self, inputs)

    def vjp(self, inputs: Sequence[Array], upstream: Array,
            slots: Collection[int] | None = None) -> tuple[Array | None, ...]:
        """Pull ``upstream`` (cotangent of the output) back onto input ``slots``.

        Returns one entry per child slot: an array shaped like that input
        for each slot in ``slots`` (default: every slot), None for the
        others.  A one-input kind runs its rule whatever is asked, so its
        domain check holds in every pull.  As for :meth:`__call__`, the
        caller vouches for the inputs, and ``upstream`` is a float64
        value shaped like the output.
        """
        want = range(self.arity) if slots is None else slots
        back = KINDS[self.kind].vjp(self, inputs, upstream, want)
        return back if self.arity != 1 or 0 in want else (None,)

    def check(self, inputs: Sequence[Array]) -> tuple[Array, ...]:
        """The inputs as float64 arrays, once their count and shapes are
        ones this function takes; raises :class:`ShapeMismatch` if not."""
        if len(inputs) != self.arity:
            raise ShapeMismatch(
                f"{self.kind.value} expects {self.arity} inputs, got {len(inputs)}"
            )
        ins = tuple(as_f64(v) for v in inputs)
        check = KINDS[self.kind].check
        if check is not None:
            check(self, ins)
        return ins


# -- per-kind rows -------------------------------------------------------

class Batch(NamedTuple):
    """A kind's rules on the values of k vertices at once.

    Each input, the upstream and each result hold the k vertices'
    values one after another: concatenated flat when the rules act
    component by component (``stack`` is False), so the vertices may
    differ in shape; else stacked, shape (k, *value shape), from values
    of one shape per input.  ``forward(fn, ins)`` and
    ``vjp(fn, ins, upstream, want)`` give, wherever they are finite,
    the bytes of the kind's own rule on each vertex (a non-finite value
    may carry other NaN bits: between two NaNs, a long ``np.add`` keeps
    another one than a one-component call).  ``scalars`` says whether
    that also holds where the values are 0-d.  A ``DomainError`` names
    some vertex's offending value, not necessarily the first one's.
    """

    stack: bool
    forward: Callable[[ElemFn, tuple[Array, ...]], Array]
    vjp: Callable[[ElemFn, tuple[Array, ...], Array, Collection[int]],
                  tuple[Array | None, ...]]
    scalars: bool = True


class KindRule(NamedTuple):
    """What one kind computes.

    ``arity`` is the fixed input count, or None for a variadic kind
    (at least two inputs).  ``forward(fn, ins)`` and
    ``vjp(fn, ins, upstream, want)`` receive inputs that ``check``
    accepted, or values of the same shapes; ``vjp``
    computes the pulls onto the slots in ``want`` and None for the
    others, and a one-input kind computes its one pull regardless.
    ``check(fn, ins)`` rejects input shapes the kind cannot take; it
    runs in :meth:`ElemFn.check` only, never per evaluation or pull.
    ``batch`` is the same math on many vertices in one call
    (:class:`Batch`), or None for a kind that runs per vertex only.

    Neither ``forward`` nor ``vjp`` returns an array that shares memory
    with an input or with ``upstream`` (so ``identity`` and ``add``
    copy): the step engine hands them views of buffers that it writes
    in place later, and keeps what they return.  Each requested slot's
    pull is its own array, shared with no other slot's either (so
    ``add`` copies once per slot): a trainable leaf that gets one pull
    takes it as its signal and writes its ``+ 0.0`` and its learning
    rate into it in place.
    """

    arity: int | None
    forward: Callable[[ElemFn, tuple[Array, ...]], Array]
    vjp: Callable[[ElemFn, tuple[Array, ...], Array, Collection[int]],
                  tuple[Array | None, ...]]
    check: Callable[[ElemFn, tuple[Array, ...]], None] | None = None
    batch: Batch | None = None


def _componentwise(arity, forward, vjp, check=None,
                   scalars=True) -> KindRule:
    """A kind whose rules act component by component, so they run
    unchanged on many vertices' values concatenated."""
    return KindRule(arity, forward, vjp, check,
                    Batch(False, forward, vjp, scalars))


def _sqrt(fn, ins):
    x = ins[0]
    if np.any(x < 0):
        raise DomainError(float(np.min(x)))
    return np.sqrt(x)


def _sqrt_vjp(fn, ins, u, want):
    x = ins[0]
    if np.any(x <= 0):
        raise DomainError(float(np.min(x)))
    return (u / (2.0 * np.sqrt(x)),)


def _same_shapes(fn, ins):
    shapes = {v.shape for v in ins}
    if len(shapes) > 1:
        raise ShapeMismatch(f"{fn.kind.value} inputs differ in shape: {shapes}")


def _matvec_shapes(fn, ins):
    w, x = ins
    if w.ndim != 2 or x.ndim != 1 or w.shape[1] != x.shape[0]:
        raise ShapeMismatch(
            f"matvec needs (m,n) @ (n,), got {w.shape} and {x.shape}"
        )


def _convolve1d_shapes(fn, ins):
    kern, x = ins
    if kern.ndim != 1 or x.ndim != 1 or x.shape[0] < kern.shape[0]:
        raise ShapeMismatch(
            f"convolve1d needs 1-d kernel no longer than the signal, "
            f"got {kern.shape} and {x.shape}"
        )


def _logistic(x: Array) -> Array:
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


_activations = {
    "identity": lambda x: x.copy(),
    "tanh": np.tanh,
    "logistic": _logistic,
}

_activation_derivs = {
    "identity": np.ones_like,
    "tanh": lambda x: 1.0 - np.tanh(x) ** 2,
    "logistic": lambda x: _logistic(x) * (1.0 - _logistic(x)),
}

# Where two inputs, or an input and the upstream, are added or multiplied,
# the ufuncs do it: between two NumPy scalars ``+`` and ``*`` return the
# second of two NaN operands where an array operation returns the first,
# so a scalar vertex would give other NaN bits than a 0-d array one.
KINDS: dict[FnKind, KindRule] = {
    FnKind.CONSTANT: KindRule(
        0, lambda fn, ins: as_f64(fn.value), lambda fn, ins, u, want: ()),
    FnKind.ADD: _componentwise(
        None, lambda fn, ins: reduce(np.add, ins),
        lambda fn, ins, u, want: tuple([u.copy() if s in want else None
                                        for s in range(len(ins))]),
        _same_shapes),
    FnKind.MULTIPLY: _componentwise(
        None, lambda fn, ins: reduce(np.multiply, ins),
        # each slot's pull is upstream times every other input
        lambda fn, ins, u, want: tuple([
            reduce(np.multiply, ins[:s] + ins[s + 1:], u) if s in want else None
            for s in range(len(ins))]),
        _same_shapes),
    # ins = (weights, vector).  Stacked, one np.matmul runs the k
    # products; it gives each one's bytes, where a single gemm of the
    # vectors against the weights need not.
    FnKind.MATVEC: KindRule(
        2, lambda fn, ins: ins[0] @ ins[1],
        lambda fn, ins, u, want: (np.outer(u, ins[1]) if 0 in want else None,
                                  ins[0].T @ u if 1 in want else None),
        _matvec_shapes,
        Batch(True,
              lambda fn, ins: np.matmul(ins[0], ins[1][..., None])[..., 0],
              lambda fn, ins, u, want: (
                  np.multiply(u[..., :, None], ins[1][..., None, :])
                  if 0 in want else None,
                  np.matmul(np.swapaxes(ins[0], -1, -2), u[..., None])[..., 0]
                  if 1 in want else None))),
    FnKind.SQUARE: _componentwise(
        1, lambda fn, ins: ins[0] * ins[0],
        lambda fn, ins, u, want: (np.multiply(2.0 * ins[0], u),)),
    FnKind.SQRT: _componentwise(1, _sqrt, _sqrt_vjp),
    # On a 0-d value tanh's derivative squares a NumPy scalar, which
    # takes libm's pow; its last bit differs from an array's square in
    # about one value in 1400, so 0-d activations run per vertex.
    FnKind.ACTIVATION: _componentwise(
        1, lambda fn, ins: _activations[fn.name](ins[0]),
        lambda fn, ins, u, want: (
            np.multiply(_activation_derivs[fn.name](ins[0]), u),),
        scalars=False),
    # ins = (kernel, signal)
    FnKind.CONVOLVE1D: KindRule(
        2, lambda fn, ins: np.correlate(ins[1], ins[0], mode="valid"),
        lambda fn, ins, u, want: (
            np.correlate(ins[1], u, mode="valid") if 0 in want else None,
            np.convolve(u, ins[0], mode="full") if 1 in want else None),
        _convolve1d_shapes),
    FnKind.IDENTITY: _componentwise(
        1, lambda fn, ins: ins[0].copy(), lambda fn, ins, u, want: (u.copy(),)),
    FnKind.SUM_REDUCE: KindRule(
        1, lambda fn, ins: as_f64(ieee_sum(ins[0])),
        lambda fn, ins, u, want: (np.full_like(ins[0], float(u)),)),
}


# -- factories -----------------------------------------------------------

def constant(value: float) -> ElemFn:
    return ElemFn(FnKind.CONSTANT, 0, value=float(value))


def add(arity: int = 2) -> ElemFn:
    return ElemFn(FnKind.ADD, arity)


def multiply(arity: int = 2) -> ElemFn:
    return ElemFn(FnKind.MULTIPLY, arity)


def matvec() -> ElemFn:
    return ElemFn(FnKind.MATVEC, 2)


def square() -> ElemFn:
    return ElemFn(FnKind.SQUARE, 1)


def sqrt() -> ElemFn:
    return ElemFn(FnKind.SQRT, 1)


def activation(name: str) -> ElemFn:
    return ElemFn(FnKind.ACTIVATION, 1, name=name)


def convolve1d() -> ElemFn:
    return ElemFn(FnKind.CONVOLVE1D, 2)


def identity() -> ElemFn:
    return ElemFn(FnKind.IDENTITY, 1)


def sum_reduce() -> ElemFn:
    return ElemFn(FnKind.SUM_REDUCE, 1)
