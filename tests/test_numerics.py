"""Exact accumulation helpers: order independence and correct rounding."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pcgraph.errors import GraphError, NonFiniteSum
from pcgraph.numerics import (
    angle_degrees,
    as_f64,
    fsum_arrays,
    l2_norm,
)


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
