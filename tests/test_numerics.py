"""Exact accumulation helpers: order independence and correct rounding."""

import math
import struct
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pcgraph import numerics
from pcgraph.errors import GraphError, NonFiniteSum
from pcgraph.numerics import (
    as_f64,
    exact_sum,
    fsum_arrays,
    is_integer,
    l2_norm,
    sum_of_squares,
)

from oracles import angle_degrees


def test_fsum_arrays_componentwise():
    a = np.array([1e16, 2.0])
    b = np.array([1.0, 3.0])
    c = np.array([-1e16, -5.0])
    out = fsum_arrays([a, b, c])
    assert out[0] == 1.0
    assert out[1] == 0.0


def test_fsum_arrays_single_term_is_a_copy():
    a = np.array([1.0, 2.0])
    out = fsum_arrays([a])
    assert np.array_equal(out, a)
    out[0] = 99.0
    assert a[0] == 1.0


def test_fsum_arrays_zero_dim():
    terms = [np.asarray(0.1), np.asarray(0.2), np.asarray(0.3)]
    out = fsum_arrays(terms)
    assert out.shape == ()
    assert float(out) == math.fsum([0.1, 0.2, 0.3])


def test_fsum_arrays_two_terms_match_math_fsum_bytes():
    """Signed zeros, subnormals and mixed signs, every pair of them."""
    values = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
              1.0, -1.0, 0.1, -0.3, 1e16, 2.0 - 1e16, math.pi, 8e307, -8e307]
    a = np.array([x for x in values for _ in values])
    b = np.array([y for _ in values for y in values])
    expected = np.array([math.fsum([x, y]) for x, y in zip(a, b)])
    assert fsum_arrays([a, b]).tobytes() == expected.tobytes()
    for x, y, want in zip(a, b, expected):
        out = fsum_arrays([np.asarray(x), np.asarray(y)])
        assert out.shape == () and out.tobytes() == want.tobytes()


def test_fsum_arrays_one_term_matches_math_fsum_bytes():
    """A lone -0.0 sums to 0.0, as ``math.fsum([-0.0])`` does."""
    values = [0.0, -0.0, 5e-324, -1.0]
    expected = np.array([math.fsum([x]) for x in values])
    assert fsum_arrays([np.array(values)]).tobytes() == expected.tobytes()
    for x, want in zip(values, expected):
        out = fsum_arrays([np.asarray(x)])
        assert out.shape == () and out.tobytes() == want.tobytes()


def test_fsum_arrays_two_terms_still_raise_on_overflow_and_inf_minus_inf():
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(OverflowError):
            fsum_arrays([np.array([1.0, 1e308]), np.array([2.0, 1e308])])
        with pytest.raises(ValueError):
            fsum_arrays([np.asarray(np.inf), np.asarray(-np.inf)])


def test_fsum_arrays_failures_are_graph_errors():
    with np.errstate(over="ignore", invalid="ignore"):
        for terms in ([np.asarray(1e308), np.asarray(1e308)],
                      [np.asarray(np.inf), np.asarray(-np.inf), np.asarray(1.0)]):
            with pytest.raises(NonFiniteSum) as exc:
                fsum_arrays(terms)
            assert isinstance(exc.value, GraphError)


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False), min_size=2, max_size=8),
       st.randoms(use_true_random=False))
def test_fsum_arrays_order_independent(values, rnd):
    """Permuting the summands must not change a single bit."""
    arrays = [np.asarray(v) for v in values]
    baseline = fsum_arrays(arrays)
    shuffled = list(arrays)
    rnd.shuffle(shuffled)
    assert np.array_equal(fsum_arrays(shuffled), baseline)


def test_l2_norm_matches_reference():
    vals = [3.0, 4.0]
    assert l2_norm(vals) == 5.0
    assert l2_norm([]) == 0.0


def test_angle_degrees_landmarks():
    assert angle_degrees(np.array([1.0, 0.0]), np.array([2.0, 0.0])) == pytest.approx(0.0, abs=1e-12)
    assert angle_degrees(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(90.0)
    assert angle_degrees(np.array([1.0, 0.0]), np.array([-3.0, 0.0])) == pytest.approx(180.0)


def test_angle_degrees_clips_rounding():
    # nearly parallel vectors can push the cosine a hair above 1.0
    v = np.array([0.1, 0.2, 0.3])
    assert angle_degrees(v, v * 7.0) == pytest.approx(0.0, abs=1e-6)


def test_as_f64_casts_and_preserves():
    out = as_f64([1, 2])
    assert out.dtype == np.float64
    assert out.shape == (2,)


# -- the exact-sum kernel ---------------------------------------------------

# Lengths on both sides of the math.fsum crossover and of the extraction
# pass's block size.
LENGTHS = sorted({0, 1, 2, 7, numerics._FSUM_BELOW - 1, numerics._FSUM_BELOW,
                  numerics._FSUM_BELOW + 1, 4095, 4096, 4097,
                  numerics._SPLIT - 1, numerics._SPLIT, numerics._SPLIT + 1,
                  8195})
EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
         -2.225073858507201e-308, 1e-310, 2.0 ** 1023, -(2.0 ** 1023),
         1.7976931348623157e308, -1.7976931348623157e308, 2.0 ** 970,
         1e300, -1e300, 1e-300, 1.0, -1.0, 0.1, 3.0]


def _outcome(sum_fn, values):
    """The bits of a sum, or the type of the error it raised."""
    try:
        return struct.pack("<d", sum_fn(values))
    except (OverflowError, ValueError) as exc:
        return type(exc)


def _reference(terms: list[float]):
    """math.fsum, except where its partials overflow on finite terms:
    there the exact rational sum, rounded once, decides."""
    try:
        return struct.pack("<d", math.fsum(terms))
    except OverflowError:
        if not all(math.isfinite(t) for t in terms):
            return OverflowError
        try:
            return struct.pack("<d", float(sum(map(Fraction, terms))))
        except OverflowError:
            return OverflowError
    except ValueError:
        return ValueError


@st.composite
def long_vectors(draw):
    """A length from LENGTHS, filled from a drawn pool of finite and edge
    values, with at times an inf, a nan or both infs put in."""
    pool = draw(st.lists(st.one_of(st.sampled_from(EDGES),
                                   st.floats(allow_nan=False,
                                             allow_infinity=False)),
                         min_size=1, max_size=12))
    n = draw(st.sampled_from(LENGTHS))
    nonfinite = draw(st.sampled_from(
        [(), (), (), (math.inf,), (-math.inf,), (math.nan,),
         (math.inf, -math.inf)]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = rng.choice(np.array(pool), n)
    if n >= len(nonfinite):
        values[rng.choice(n, len(nonfinite), replace=False)] = nonfinite
    return values


@settings(max_examples=150, deadline=None)
@given(long_vectors())
def test_the_kernel_has_math_fsum_bits(values):
    """Exact sums, and sums of squares, have math.fsum's bits and raise
    where it raises, whether math.fsum or the extraction pass sums them."""
    with np.errstate(over="ignore", invalid="ignore"):
        squares = (values * values).tolist()
    want = _reference(values.tolist())
    want_squares = _reference(squares)
    if want_squares is OverflowError:  # one rule: beyond the range is inf
        want_squares = struct.pack(
            "<d", math.nan if np.isnan(values).any() else math.inf)
    for crossover in (numerics._FSUM_BELOW, 0):  # 0: the kernel sums all
        with mock.patch.object(numerics, "_FSUM_BELOW", crossover), \
                np.errstate(invalid="ignore"):
            assert _outcome(exact_sum, values) == want
            got_squares = _outcome(sum_of_squares, values)
        if math.isnan(struct.unpack("<d", want_squares)[0]):
            assert math.isnan(struct.unpack("<d", got_squares)[0])
        else:
            assert got_squares == want_squares


@pytest.mark.parametrize("exponent", [0, 1, 2, 700, 1023, 2043])
def test_the_kernel_sums_every_binade_exactly(exponent):
    """Random signs and mantissas in four binades from a biased exponent
    up, so that no term is too small to change the rounded sum; the
    lowest binades hold the subnormals and the smallest normals."""
    rng = np.random.default_rng(exponent)
    n = 8193
    bits = ((rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63))
            | ((exponent + rng.integers(0, 4, n, dtype=np.uint64))
               << np.uint64(52))
            | rng.integers(0, 2 ** 52, n, dtype=np.uint64))
    values = bits.view(np.float64)
    assert _outcome(exact_sum, values) == _reference(values.tolist())
    assert _outcome(exact_sum, values[::-1]) == _reference(values[::-1].tolist())


def test_the_exact_sum_decides_where_fsum_partials_overflow():
    big = [1e308, 1e308, -1e308]
    with pytest.raises(OverflowError):
        math.fsum(big)
    assert exact_sum(big) == 1e308
    assert exact_sum(big[::-1]) == 1e308
    with pytest.raises(OverflowError, match="intermediate overflow"):
        exact_sum([1e308, 1e308])
    long = np.tile([1e308, -1e308], 4096)
    long[0] = 1.5e308
    assert exact_sum(long) == 0.5e308
    halves = np.repeat([1e308, -1e308], 1024)
    halves[0] = 1.5e308
    with pytest.raises(OverflowError):
        math.fsum(halves.tolist())
    assert exact_sum(halves) == 5e307
    assert exact_sum(halves[::-1]) == 5e307
    long[1] = 1.5e308
    with pytest.raises(OverflowError, match="intermediate overflow"):
        exact_sum(long)


def test_l2_norm_holds_no_input_sized_temporary():
    values = np.random.default_rng(0).standard_normal(100_000)
    want = math.sqrt(math.fsum((values * values).tolist()))
    tracemalloc.start()
    try:
        got = l2_norm(values)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < values.nbytes / 4, peak


def test_a_long_sum_is_certified_without_the_fallback():
    # A block's q sum is exact only with fewer than 2**M terms.
    assert numerics._SPLIT < 2 ** numerics._SPLIT_BITS
    values = np.random.default_rng(0).standard_normal(100_000)
    with mock.patch.object(numerics, "_fsum",
                           side_effect=AssertionError("not certified")):
        got = [exact_sum(values), sum_of_squares(values)]
    want = [_reference(values.tolist()), _reference((values * values).tolist())]
    assert [struct.pack("<d", v) for v in got] == want


def _padded(*terms):
    return np.pad(terms, (0, 2 * numerics._FSUM_BELOW - len(terms)))


_NORMAL = np.random.default_rng(1).standard_normal(3000)


@pytest.mark.parametrize("values, square", [
    pytest.param(_padded(2.0 ** 53, 1.0), False, id="midpoint"),
    pytest.param(_padded(2.0 ** 27, 1.0, 1.0), True, id="midpoint-of-squares"),
    pytest.param(np.tile([1e308, -1e308], 4096), False,
                 id="near-overflow"),
    pytest.param(np.concatenate([_NORMAL, -_NORMAL, [1e-30]]), False,
                 id="cancellation"),
    pytest.param(np.append(_NORMAL, math.inf), True, id="inf"),
    pytest.param(np.append(_NORMAL, -math.inf), False, id="-inf"),
    pytest.param(np.append(_NORMAL, math.nan), False, id="nan"),
])
def test_an_uncertified_sum_falls_back_to_fsum(values, square):
    want = _reference((values * values if square else values).tolist())
    with mock.patch.object(numerics, "_fsum", wraps=numerics._fsum) as spy:
        got = sum_of_squares(values) if square else exact_sum(values)
    assert spy.call_count == 1
    assert struct.pack("<d", got) == want


def test_sum_of_squares_is_inf_beyond_the_float_range():
    assert sum_of_squares([1.3e154, 1.3e154]) == math.inf  # each square fits
    assert sum_of_squares([1e155]) == math.inf  # the square itself overflows
    assert math.isnan(sum_of_squares([1.3e154, 1.3e154, math.nan]))
    assert sum_of_squares(np.full(numerics._FSUM_BELOW, 1e154)) == math.inf


# -- fsum_arrays at the overflow edge -----------------------------------------

NEAR_MAX = [2.0 ** 1023, -(2.0 ** 1023), 1.7976931348623157e308,
            -1.7976931348623157e308, 1e308, -1e308, 2.0 ** 1022, 2.0 ** 970,
            -(2.0 ** 970), 1.0]


def test_fsum_arrays_at_the_overflow_edge_returns_the_exact_sum():
    """math.fsum raises on [1e308, 1e308, -1e308] but not on its
    permutation [1e308, -1e308, 1e308]; both are 1e308."""
    for order in ([1e308, 1e308, -1e308], [1e308, -1e308, 1e308]):
        out = fsum_arrays([np.asarray(v) for v in order])
        assert out.shape == () and float(out) == 1e308
    with pytest.raises(NonFiniteSum, match="intermediate overflow"):
        fsum_arrays([np.asarray(1e308), np.asarray(1e308), np.asarray(1.0)])


@given(st.lists(st.sampled_from(NEAR_MAX), min_size=3, max_size=8),
       st.randoms(use_true_random=False))
def test_fsum_arrays_order_independent_near_the_overflow_edge(values, rnd):
    """Every permutation gives the same bits, or every one raises."""
    def outcome(order):
        try:
            zero_d = fsum_arrays([np.asarray(v) for v in order])
            one_d = fsum_arrays([np.array([v, 1.0]) for v in order])
        except NonFiniteSum:
            return NonFiniteSum
        return zero_d.tobytes(), one_d[0].tobytes()

    shuffled = list(values)
    rnd.shuffle(shuffled)
    exact = sum(map(Fraction, values))
    try:
        want = np.float64(float(exact)).tobytes()
    except OverflowError:
        want = None
    baseline = outcome(values)
    assert outcome(shuffled) == baseline
    assert outcome(values[::-1]) == baseline
    if want is None:
        assert baseline is NonFiniteSum
    else:
        assert baseline[0] == want


def test_is_integer_is_an_int_but_not_a_bool():
    assert is_integer(3) and is_integer(-1) and is_integer(2 ** 70)
    for value in (True, False, 1.0, "1", None, np.float64(2.0)):
        assert not is_integer(value)


# -- fsum_arrays' column pass -------------------------------------------------

def _per_component(terms: list[np.ndarray]) -> np.ndarray:
    """The exact sum of each component on its own: the column pass's
    reference."""
    flat = np.stack(terms).reshape(len(terms), -1)
    return np.array([numerics._exact_sum(flat[:, i])
                     for i in range(flat.shape[1])]).reshape(terms[0].shape)


def _columns(*columns: list[float]) -> list[np.ndarray]:
    """Equally long ``columns`` as terms: term i holds each column's i-th."""
    return [np.array(row) for row in zip(*columns)]


@pytest.mark.parametrize("terms", [
    pytest.param(_columns([1.0, np.inf, 2.0], [0.5, 0.25, -1.0]), id="inf"),
    pytest.param(_columns([1e308, 1e308, -1e308], [0.1, 0.2, 0.3],
                          [1e308, -1e308, 1e308]), id="partials-overflow"),
    pytest.param(_columns([-0.0] * 3, [-0.0] * 3), id="all-negative-zero"),
    pytest.param([np.random.default_rng(0).normal(size=(2, 3)) * 10.0 ** k
                  for k in np.random.default_rng(1).integers(-300, 300, 2048)],
                 id="2048-terms"),
])
def test_fsum_arrays_column_pass_has_the_per_component_bits(terms):
    got = fsum_arrays(terms)
    assert got.shape == terms[0].shape
    assert got.tobytes() == _per_component(terms).tobytes()


def test_fsum_arrays_column_pass_raises_on_inf_minus_inf():
    terms = _columns([1.0, 2.0, 3.0], [np.inf, 1.0, -np.inf])
    with pytest.raises(ValueError):
        numerics._exact_sum(np.array([np.inf, 1.0, -np.inf]))
    with pytest.raises(NonFiniteSum, match="inf"):
        fsum_arrays(terms)
