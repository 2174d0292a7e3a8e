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

# Lengths on both sides of the math.fsum crossover and of the block size.
LENGTHS = sorted({0, 1, 2, 7, numerics._FSUM_BELOW - 1, numerics._FSUM_BELOW,
                  numerics._FSUM_BELOW + 1, numerics._BLOCK - 1,
                  numerics._BLOCK, numerics._BLOCK + 1,
                  2 * numerics._BLOCK + 3})
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
    where it raises, whether math.fsum or the superaccumulator sums them."""
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
    n = 2 * numerics._BLOCK + 1
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
    long = np.tile([1e308, -1e308], numerics._BLOCK)
    long[0] = 1.5e308
    assert exact_sum(long) == 0.5e308
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
