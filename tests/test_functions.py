"""Elementary functions: forward landmarks, vjp vs finite differences, domains."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pcgraph import functions as fns
from pcgraph.errors import DomainError, ShapeMismatch


def numeric_vjp(fn, inputs, upstream, h=1e-6):
    """Central differences of sum(upstream * fn(inputs)) per input component."""
    upstream = np.asarray(upstream, dtype=np.float64)

    def phi(vals):
        return float(np.sum(upstream * fn(vals)))

    grads = []
    for s, base in enumerate(inputs):
        base = np.asarray(base, dtype=np.float64)
        g = np.zeros_like(base)
        it = np.nditer(base, flags=["multi_index"], op_flags=["readonly"])
        for _ in it:
            idx = it.multi_index
            bumped = [np.array(v, dtype=np.float64) for v in inputs]
            bumped[s][idx] += h
            up = phi(bumped)
            bumped[s][idx] -= 2 * h
            down = phi(bumped)
            g[idx] = (up - down) / (2 * h)
        grads.append(g)
    return grads


def assert_vjp_close(fn, inputs, upstream, tol=1e-6):
    analytic = fn.vjp(inputs, upstream)
    numeric = numeric_vjp(fn, inputs, upstream)
    assert len(analytic) == len(numeric)
    for a, n in zip(analytic, numeric):
        assert np.allclose(a, n, atol=tol, rtol=tol), (a, n)


# -- forward landmarks ----------------------------------------------------

def test_add_and_multiply():
    a, b = np.array([1.0, 2.0]), np.array([3.0, 5.0])
    assert np.array_equal(fns.add()( [a, b]), [4.0, 7.0])
    assert np.array_equal(fns.multiply()([a, b]), [3.0, 10.0])
    assert np.array_equal(fns.add(3)([a, b, a]), [5.0, 9.0])


def test_matvec():
    w = np.array([[1.0, 2.0], [0.0, -1.0]])
    x = np.array([3.0, 4.0])
    assert np.array_equal(fns.matvec()([w, x]), [11.0, -4.0])


def test_square_sqrt_roundtrip():
    x = np.array([4.0, 9.0])
    assert np.array_equal(fns.sqrt()([fns.square()([x])]), x)


def test_activations():
    x = np.array([0.0, 1.0])
    assert np.array_equal(fns.activation("identity")([x]), x)
    assert np.allclose(fns.activation("tanh")([x]), np.tanh(x))
    assert np.allclose(fns.activation("logistic")([x]), [0.5, 1 / (1 + np.exp(-1))])


def test_convolve1d_valid_mode():
    kern = np.array([1.0, 2.0])
    sig = np.array([1.0, 0.0, -1.0, 3.0])
    # valid cross-correlation: out[i] = sum_j sig[i+j] * kern[j]
    expected = [1.0 + 0.0, 0.0 - 2.0, -1.0 + 6.0]
    assert np.array_equal(fns.convolve1d()([kern, sig]), expected)


def test_constant_evaluates_to_payload():
    c = fns.constant(2.5)
    assert c.arity == 0
    assert float(c([])) == 2.5
    assert c.vjp([], np.asarray(1.0)) == ()


def test_sum_reduce_is_exactly_rounded():
    x = np.array([1e16, 1.0, -1e16])
    out = fns.sum_reduce()([x])
    assert out.shape == ()
    assert float(out) == 1.0


def test_sum_reduce_of_a_long_vector_has_math_fsum_bits():
    x = np.random.default_rng(0).standard_normal(10_000) * 1e10
    x[::2] = -x[1::2] * (1.0 + 2.0 ** -40)
    out = fns.sum_reduce()([x])
    assert out.tobytes() == np.float64(math.fsum(x.tolist())).tobytes()


def test_identity_preserves_bits():
    x = np.array([0.0, -0.0, 1.5])
    out = fns.identity()([x])
    assert np.array_equal(out, x)
    assert np.signbit(out[1]) and not np.signbit(out[0])
    out[0] = 7.0  # the copy must not alias the input
    assert x[0] == 0.0


# -- reverse landmarks ----------------------------------------------------

def test_identity_vjp_preserves_bits():
    u = np.array([2.0, -0.0])
    (back,) = fns.identity().vjp([np.zeros(2)], u)
    assert np.array_equal(back, u)
    assert np.signbit(back[1])


def test_add_vjp_passes_upstream_through():
    u = np.array([1.0, -2.0])
    outs = fns.add(3).vjp([np.zeros(2)] * 3, u)
    assert len(outs) == 3
    for o in outs:
        assert np.array_equal(o, u)


# One (factory, inputs) case per kind with slots, multiply at two arities.
VJP_CASES = [
    (lambda: fns.add(), [np.array([1.0, -2.0]), np.array([0.5, 3.0])]),
    (lambda: fns.multiply(), [np.array([1.5, -2.0]), np.array([0.5, 3.0])]),
    (lambda: fns.multiply(3),
     [np.array([1.5]), np.array([-0.5]), np.array([2.0])]),
    (lambda: fns.matvec(),
     [np.array([[0.3, -1.2], [2.0, 0.1]]), np.array([0.7, -0.4])]),
    (lambda: fns.square(), [np.array([1.2, -0.3])]),
    (lambda: fns.sqrt(), [np.array([4.0, 0.25])]),
    (lambda: fns.activation("tanh"), [np.array([0.3, -1.1])]),
    (lambda: fns.activation("logistic"), [np.array([0.3, -1.1])]),
    (lambda: fns.activation("identity"), [np.array([0.3, -1.1])]),
    (lambda: fns.convolve1d(),
     [np.array([0.5, -1.0]), np.array([1.0, 2.0, -0.5, 0.3])]),
    (lambda: fns.identity(), [np.array([0.9, -0.2])]),
    (lambda: fns.sum_reduce(), [np.array([0.9, -0.2, 1.1])]),
]


@pytest.mark.parametrize("make,inputs", VJP_CASES)
def test_vjp_matches_finite_differences(make, inputs):
    fn = make()
    out_shape = fn(inputs).shape
    rng = np.random.default_rng(7)
    upstream = rng.uniform(-1, 1, size=out_shape)
    assert_vjp_close(fn, inputs, upstream)


@pytest.mark.parametrize("make,inputs", VJP_CASES)
def test_vjp_onto_a_slot_subset_is_the_full_vjp_there(make, inputs):
    fn = make()
    upstream = np.random.default_rng(3).uniform(-1, 1, size=fn(inputs).shape)
    full = fn.vjp(inputs, upstream)
    for k in range(1, fn.arity + 1):
        for slots in itertools.combinations(range(fn.arity), k):
            part = fn.vjp(inputs, upstream, slots)
            assert len(part) == fn.arity
            for s in range(fn.arity):
                if s in slots:
                    assert part[s].dtype == full[s].dtype
                    assert part[s].shape == full[s].shape
                    assert part[s].tobytes() == full[s].tobytes(), (slots, s)
                else:
                    assert part[s] is None, (slots, s)


def test_one_slot_vjp_runs_its_domain_check_whatever_is_asked():
    for slots in (None, (0,), ()):
        with pytest.raises(DomainError):
            fns.sqrt().vjp([np.asarray(0.0)], np.asarray(1.0), slots)
    assert fns.square().vjp([np.asarray(3.0)], np.asarray(1.0), ()) == (None,)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(0, 10_000))
def test_elementwise_vjps_property(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-2, 2, size=n)
    b = rng.uniform(-2, 2, size=n)
    u = rng.uniform(-1, 1, size=n)
    assert_vjp_close(fns.multiply(), [a, b], u)
    assert_vjp_close(fns.activation("tanh"), [a], u)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3), st.integers(3, 6), st.integers(0, 10_000))
def test_convolution_vjp_property(klen, slen, seed):
    rng = np.random.default_rng(seed)
    kern = rng.uniform(-1, 1, size=klen)
    sig = rng.uniform(-1, 1, size=slen)
    u = rng.uniform(-1, 1, size=slen - klen + 1)
    assert_vjp_close(fns.convolve1d(), [kern, sig], u)


# -- domains and arity ----------------------------------------------------

def test_sqrt_rejects_negative_forward():
    with pytest.raises(DomainError):
        fns.sqrt()([np.array([-1.0])])


def test_sqrt_vjp_rejects_zero():
    # the forward map allows 0 but the derivative blows up there
    assert float(fns.sqrt()([np.asarray(0.0)])) == 0.0
    with pytest.raises(DomainError):
        fns.sqrt().vjp([np.asarray(0.0)], np.asarray(1.0))


def test_logistic_saturates_without_warning():
    out = fns.activation("logistic")([np.array([-800.0, 800.0])])
    assert out[0] == 0.0 and out[1] == 1.0


def test_arity_validation():
    with pytest.raises(ValueError):
        fns.add(1)
    with pytest.raises(ValueError):
        fns.ElemFn(fns.FnKind.SQUARE, 2)
    with pytest.raises(ValueError):
        fns.activation("relu")
    with pytest.raises(ValueError):
        fns.ElemFn(fns.FnKind.CONSTANT, 0)  # constant without payload


def test_shape_checking():
    with pytest.raises(ShapeMismatch):
        fns.add()([np.zeros(2), np.zeros(3)])
    with pytest.raises(ShapeMismatch):
        fns.matvec()([np.zeros((2, 3)), np.zeros(2)])
    with pytest.raises(ShapeMismatch):
        fns.convolve1d()([np.zeros(4), np.zeros(2)])  # kernel longer than signal
    with pytest.raises(ShapeMismatch):
        fns.square()([np.zeros(2), np.zeros(2)])
