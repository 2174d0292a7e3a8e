"""Elementary functions: forward landmarks, vjp vs finite differences, domains."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pcgraph import functions as fns
from pcgraph.autodiff import forward
from pcgraph.errors import ArityMismatch, DomainError, ShapeMismatch
from pcgraph.graph import GraphBuilder
from pcgraph.numerics import as_f64

from oracles import complex_step_jvp, holomorphic_forward


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # add's overflow
def test_sum_reduce_beyond_the_float_range_is_what_add_gives():
    """An overflowing sum is inf, and inf - inf is nan, as an array
    addition gives; neither raises from a forward pass."""
    b = GraphBuilder()
    w = b.leaf()
    g = b.build(b.vertex(fns.sum_reduce(), [w]))
    for big in (1e308, -1e308):
        pair = [np.asarray(big), np.asarray(big)]
        out = forward(g, {w: np.array([big, big])}).mu[g.output]
        assert out.tobytes() == fns.add()(pair).tobytes()
        assert out == math.copysign(math.inf, big)
        # past math.fsum's cut-over, and with an inf among the entries
        assert fns.sum_reduce()([np.full(3000, big)]) == out
        assert fns.sum_reduce()([np.array([big, big, -out])]) == -out
    # an internal vertex that overflows to +inf and -inf before the sum
    b = GraphBuilder()
    w = b.leaf()
    g = b.build(b.vertex(fns.sum_reduce(), [b.vertex(fns.add(), [w, w])]))
    out = forward(g, {w: np.array([1e308, -1e308])}).mu[g.output]
    assert math.isnan(out) and math.isnan(fns.add()([np.asarray(np.inf),
                                                     np.asarray(-np.inf)]))


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


SHAPE_MISMATCHES = [
    (fns.add(), [np.zeros(2), np.zeros(3)]),
    (fns.matvec(), [np.zeros((2, 3)), np.zeros(2)]),
    (fns.convolve1d(), [np.zeros(4), np.zeros(2)]),  # kernel longer than signal
]


def test_shape_checking():
    """Inputs are validated by ``ElemFn.check``, which the forward pass
    runs on every vertex; the bare ``__call__`` and ``vjp`` do not."""
    for fn, inputs in SHAPE_MISMATCHES:
        with pytest.raises(ShapeMismatch):
            fn.check(inputs)
        b = GraphBuilder()
        leaves = [b.leaf() for _ in inputs]
        g = b.build(b.vertex(fns.sum_reduce(), [b.vertex(fn, leaves)]))
        with pytest.raises(ShapeMismatch):
            forward(g, dict(zip(leaves, inputs)))
    with pytest.raises(ShapeMismatch):
        fns.square().check([np.zeros(2), np.zeros(2)])
    b = GraphBuilder()
    z1, z2 = b.leaf(), b.leaf()
    with pytest.raises(ArityMismatch):
        b.build(b.vertex(fns.square(), [z1, z2]))


def _alias_cases():
    """(fn, input shapes, output shape) for every kind and activation."""
    elementwise = [fns.square(), fns.sqrt(), fns.identity(),
                   *(fns.activation(name) for name in fns.ACTIVATION_NAMES),
                   fns.add(), fns.add(3), fns.multiply(), fns.multiply(3)]
    cases = [(fns.constant(2.0), [], ()),
             (fns.matvec(), [(2, 3), (3,)], (2,)),
             (fns.convolve1d(), [(2,), (4,)], (3,)),
             (fns.sum_reduce(), [(4,)], ())]
    for shape in ((), (3,)):
        cases += [(fn, [shape] * fn.arity, shape) for fn in elementwise]
    assert {fn.kind for fn, _ins, _out in cases} == set(fns.FnKind)
    return [pytest.param(fn, ins, out, id=f"{fn.kind.value}-"
                         f"{fn.name or fn.arity}-{'x'.join(map(str, out)) or 'scalar'}")
            for fn, ins, out in cases]


@pytest.mark.parametrize("fn, shapes, out_shape", _alias_cases())
def test_kind_rules_return_arrays_that_share_no_memory(fn, shapes, out_shape):
    """The step engine hands the rules views of buffers it later writes
    in place, and keeps what they return; a leaf with one pull writes
    into that pull, so one call's pulls share no memory either."""
    sizes = [math.prod(s) for s in (*shapes, out_shape)]
    buffer = np.linspace(0.5, 2.0, sum(sizes))
    ends = np.cumsum(sizes)
    views = [buffer[end - size:end].reshape(shape) for end, size, shape
             in zip(ends, sizes, (*shapes, out_shape))]
    *ins, upstream = views
    pulls = [back for back in fn.vjp(ins, upstream) if back is not None]
    results = [fn(ins), *pulls]
    for slot in range(fn.arity):
        results += fn.vjp(ins, upstream, [slot])
    for result in results:
        if result is not None:
            for view in views:
                assert not np.shares_memory(result, view)
    for i, j in itertools.combinations(range(len(pulls)), 2):
        assert not np.shares_memory(pulls[i], pulls[j])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf, 0 * inf
@pytest.mark.parametrize("fn, shapes, out_shape", _alias_cases())
def test_kind_rules_write_into_out_the_bytes_they_return(fn, shapes,
                                                          out_shape):
    """Given ``out``, a kind's rule writes its result there and returns
    ``out`` itself, with the bytes it returns when it allocates: NaN
    bits of either sign, infinities, signed zeros and 0-d values
    included, and the same ``DomainError`` where it raises."""
    rule = fns.KINDS[fn.kind]
    rng = np.random.default_rng(0)
    specials = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0])

    def value(shape):
        v = rng.standard_normal(shape)
        odd = rng.random(shape) < 0.3
        return np.where(odd, rng.choice(specials, shape), v)

    def outcome(call):
        try:
            return call()
        except DomainError as err:
            return str(err)

    for _trial in range(200):
        ins = [value(shape) for shape in shapes]
        upstream = value(out_shape)
        out = np.full(out_shape, 7.0)
        got = outcome(lambda: rule.forward(fn, ins, out))
        want = outcome(lambda: rule.forward(fn, ins))
        if isinstance(want, str):
            assert got == want
        else:
            assert got is out and got.tobytes() == as_f64(want).tobytes()
        wanted = {tuple(range(fn.arity)), (0,), (fn.arity - 1,)} \
            if fn.arity else ()
        for slots in wanted:
            outs = tuple(np.full(shape, 7.0) for shape in shapes)
            got = outcome(lambda: rule.vjp(fn, ins, upstream, slots, outs))
            want = outcome(lambda: rule.vjp(fn, ins, upstream, slots))
            if isinstance(want, str):
                assert got == want
                continue
            for s in slots:
                assert got[s] is outs[s]
                assert got[s].tobytes() == want[s].tobytes(), (slots, s)


# -- batch rules ----------------------------------------------------------

def _value(rng, fn, shape):
    """A value on ``fn``'s domain, with magnitudes from 1e-3 to 1e3 and
    an odd signed zero."""
    size = math.prod(shape)
    mag = rng.uniform(0.5, 2.0, size) * 10.0 ** rng.uniform(-3, 3, size)
    if fn.kind is not fns.FnKind.SQRT:
        mag *= rng.choice([-1.0, 1.0], size)
        mag[rng.random(size) < 0.1] = rng.choice([0.0, -0.0])
    return mag.reshape(shape)


def _flat(values):
    return np.concatenate([np.ravel(v) for v in values])


def _componentwise():
    return [fns.add(), fns.add(3), fns.multiply(), fns.multiply(3),
            fns.square(), fns.sqrt(), fns.identity(),
            *(fns.activation(name) for name in fns.ACTIVATION_NAMES)]


def test_the_kinds_that_batch():
    batched = {kind for kind, rule in fns.KINDS.items() if rule.batch}
    assert batched == {fn.kind for fn in _componentwise()} | {
        fns.FnKind.MATVEC}
    assert fns.KINDS[fns.FnKind.MATVEC].batch.stack
    assert not any(fns.KINDS[fn.kind].batch.stack for fn in _componentwise())


@pytest.mark.parametrize(
    "fn", _componentwise(),
    ids=lambda fn: f"{fn.kind.value}-{fn.name or fn.arity}")
def test_a_componentwise_batch_gives_the_bytes_of_its_rows(fn):
    """Rows of several shapes, 0-d ones included, concatenated: the
    batch rules give each row's bytes, for the forward value and every
    pull."""
    batch = fns.KINDS[fn.kind].batch
    rng = np.random.default_rng(0)
    shapes = [(3,), (1,), (5,), (2,), (), (), ()]
    for _trial in range(30):
        rows = [[_value(rng, fn, shape) for _ in range(fn.arity)]
                for shape in shapes]
        ups = [_value(rng, fns.add(), shape) for shape in shapes]
        ins = tuple(_flat([row[s] for row in rows]) for s in range(fn.arity))
        assert batch.forward(fn, ins).tobytes() == \
            _flat([fn(row) for row in rows]).tobytes()
        for want in (range(fn.arity), [0], [fn.arity - 1]):
            back = batch.vjp(fn, ins, _flat(ups), want)
            per_row = [fn.vjp(row, up, want) for row, up in zip(rows, ups)]
            for s in range(fn.arity):
                if back[s] is None:
                    assert all(pull[s] is None for pull in per_row)
                else:
                    assert back[s].tobytes() == \
                        _flat([pull[s] for pull in per_row]).tobytes()


def test_tanh_on_scalars_gives_the_bytes_of_an_array():
    """On a 0-d value np.tanh returns a NumPy scalar.  Its derivative
    squares that with np.square, as an array's is squared, so a batch
    of 0-d activations keeps every value's bytes; ``** 2`` would take
    libm's pow, whose last bit differs now and then."""
    tanh = fns.activation("tanh")
    x = np.random.default_rng(0).normal(size=20_000) * 3.0
    one = np.ones_like(x)
    per_value = [tanh.vjp([np.asarray(v)], np.asarray(1.0))[0] for v in x]
    batch = fns.KINDS[fns.FnKind.ACTIVATION].batch.vjp(tanh, (x,), one, [0])
    assert np.asarray(per_value).tobytes() == batch[0].tobytes()
    by_pow = [1.0 - np.tanh(np.asarray(v)) ** 2 for v in x]
    assert 0 < np.count_nonzero(np.asarray(by_pow) != batch[0]) < len(x) / 100


@pytest.mark.parametrize("tied", [False, True], ids=["stacked", "tied"])
def test_a_stacked_matvec_gives_the_bytes_of_each_product(tied):
    fn, batch = fns.matvec(), fns.KINDS[fns.FnKind.MATVEC].batch
    rng = np.random.default_rng(1)
    for m, n in [(1, 256), (256, 1), (1, 1), (8, 8), (7, 13), (64, 256),
                 (256, 256)]:
        w = rng.normal(size=(5, m, n))
        if tied:
            w[:] = w[0]
        x, u = rng.normal(size=(5, n)), rng.normal(size=(5, m))
        out = batch.forward(fn, (w, x))
        back = batch.vjp(fn, (w, x), u, [0, 1])
        for i in range(5):
            assert out[i].tobytes() == fn([w[i], x[i]]).tobytes()
            for got, want in zip(back, fn.vjp([w[i], x[i]], u[i])):
                assert got[i].tobytes() == want.tobytes()
        assert batch.vjp(fn, (w, x), u, [1])[0] is None
        assert batch.vjp(fn, (w, x), u, [0])[1] is None
    # One gemm of the vectors against the tied weights rounds otherwise.
    w = rng.normal(size=(256, 256))
    x = rng.normal(size=(5, 256))
    stacked = batch.forward(fn, (np.stack([w] * 5), x))
    assert (x @ w.T).tobytes() != stacked.tobytes()


def _complex_step_cases():
    """(fn, input shapes, low, high) for every kind, each activation,
    and ``matvec`` on square weights too; sizes drawn at random."""
    rng = np.random.default_rng(7)
    n, m, k = (int(v) for v in rng.integers(1, 7, 3))
    return [
        (fns.constant(1.5), [], -1.0, 1.0),
        (fns.add(3), [(n,)] * 3, -2.0, 2.0),
        (fns.add(2), [(), ()], -2.0, 2.0),
        (fns.multiply(3), [(m, n)] * 3, -2.0, 2.0),
        (fns.matvec(), [(m, n), (n,)], -1.0, 1.0),
        (fns.matvec(), [(n, n), (n,)], -1.0, 1.0),
        (fns.square(), [(n,)], -2.0, 2.0),
        (fns.sqrt(), [(m, n)], 0.5, 2.0),  # away from 0
        *((fns.activation(name), [(n,)], -2.0, 2.0)
          for name in ("tanh", "identity", "logistic")),
        (fns.convolve1d(), [(k,), (k + n,)], -1.0, 1.0),
        (fns.identity(), [(m, n)], -2.0, 2.0),
        (fns.sum_reduce(), [(m, n)], -2.0, 2.0),
    ]


def test_the_complex_step_reference_forwards_are_the_kind_rules():
    rng = np.random.default_rng(0)
    for fn, shapes, low, high in _complex_step_cases():
        ins = [rng.uniform(low, high, s) for s in shapes]
        assert np.allclose(holomorphic_forward(fn, ins), fn(ins),
                           rtol=1e-15, atol=0.0), fn


@pytest.mark.parametrize("seed", range(20))
def test_every_vjp_is_the_transpose_of_the_complex_step_jvp(seed):
    """<u, J v> against <J^T u, v>: ``vjp`` gives J^T u, the complex step
    gives J v without any vjp rule, so a wrong pull rule (a transposed
    matvec pull, a sign in the kernel pull) shows here although backprop
    and Z-IL, which share every rule, would agree on it.  Both sides are
    exact sums; they may differ only by rounding, bounded relative to
    the sum of the terms' magnitudes (at most 3.7e-16 over seeds 0-199,
    on tanh; a transposed square matvec pull reads 0.22)."""
    rng = np.random.default_rng(seed)
    cases = _complex_step_cases()
    assert {fn.kind for fn, *_rest in cases} == set(fns.FnKind)
    for fn, shapes, low, high in cases:
        ins = [rng.uniform(low, high, s) for s in shapes]
        directions = [rng.uniform(-1.0, 1.0, s) for s in shapes]
        u = rng.uniform(-1.0, 1.0, np.shape(fn(ins)))
        jv = complex_step_jvp(fn, ins, directions)
        pulls = fn.vjp(ins, u)
        left = np.ravel(u * jv)
        right = np.concatenate([np.ravel(p * d)
                                for p, d in zip(pulls, directions)] or [[]])
        gap = abs(math.fsum(left) - math.fsum(right))
        scale = math.fsum(np.abs(left)) + math.fsum(np.abs(right))
        assert gap <= 1e-15 * scale, (fn, gap / scale)
