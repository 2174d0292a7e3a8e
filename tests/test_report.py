"""Update reports: canonical ordering and the divergence metric."""

import math

import numpy as np
import pytest

from pcgraph import models
from pcgraph.autodiff import backprop
from pcgraph.errors import ShapeMismatch
from pcgraph.report import UpdateReport, divergence, make_report


def test_flat_concatenates_in_key_order():
    rep = UpdateReport("bp", {("group", "k"): np.array([1.0, 2.0]),
                              ("leaf", 5): np.asarray(3.0)})
    assert np.array_equal(rep.flat(), [1.0, 2.0, 3.0])


def test_flat_of_empty_report():
    rep = UpdateReport("bp", {})
    assert rep.flat().shape == (0,)


def test_divergence_zero_iff_identical():
    a = {("leaf", 0): np.array([0.1, -0.2])}
    b = {("leaf", 0): np.array([0.1, -0.2])}
    assert divergence(a, b) == 0.0
    b[("leaf", 0)] = np.array([0.1, -0.2 + 1e-15])
    assert divergence(a, b) > 0.0


def test_divergence_is_euclidean():
    a = {("leaf", 0): np.array([0.0, 0.0]), ("leaf", 1): np.asarray(0.0)}
    b = {("leaf", 0): np.array([3.0, 0.0]), ("leaf", 1): np.asarray(4.0)}
    assert divergence(a, b) == 5.0


def test_divergence_accepts_reports_and_dicts():
    a = UpdateReport("bp", {("leaf", 0): np.asarray(1.0)})
    b = {("leaf", 0): np.asarray(1.0)}
    assert divergence(a, b) == 0.0
    assert divergence(b, a) == 0.0


def test_divergence_rejects_key_mismatch():
    a = {("leaf", 0): np.asarray(1.0)}
    b = {("leaf", 1): np.asarray(1.0)}
    with pytest.raises(ShapeMismatch, match="keys"):
        divergence(a, b)


def test_divergence_rejects_key_reordering():
    # same keys, different order: vectors are not comparable
    a = {("leaf", 0): np.asarray(1.0), ("leaf", 1): np.asarray(2.0)}
    b = {("leaf", 1): np.asarray(2.0), ("leaf", 0): np.asarray(1.0)}
    with pytest.raises(ShapeMismatch):
        divergence(a, b)


def test_divergence_rejects_shape_mismatch():
    a = {("leaf", 0): np.array([1.0, 2.0])}
    b = {("leaf", 0): np.asarray(1.0)}
    with pytest.raises(ShapeMismatch, match="shape"):
        divergence(a, b)


def test_make_report_folds_tie_groups():
    g, params = models.build_model(models.ModelSpec("conv1d", (6, 2), "tanh", 0))
    bp = backprop(g, params, y=0.3, lr=0.1)
    rep = make_report(g, "bp", bp.per_leaf)
    assert rep.algorithm == "bp"
    assert list(rep.updates) == [("group", "kernel0"), ("group", "kernel1")]
    assert np.array_equal(rep.updates[("group", "kernel0")],
                          bp.updates[("group", "kernel0")])


def test_make_report_shares_read_only_deltas_and_copies_writable_ones():
    g, params = models.build_model(models.ModelSpec("mlp", (4, 8, 1), "tanh", 0))
    bp = backprop(g, params, y=0.3, lr=0.1)
    shared = make_report(g, "bp", bp.per_leaf)
    mine = {v: np.array(delta) for v, delta in bp.per_leaf.items()}
    copied = make_report(g, "mine", mine)
    for key, delta in copied.updates.items():
        v = key[1]
        assert shared.updates[key] is bp.per_leaf[v]
        assert delta.tobytes() == mine[v].tobytes()
        assert not np.shares_memory(delta, mine[v])


def test_divergence_has_the_bits_of_a_per_component_sum_of_squares():
    """The vector pass squares each difference with the same IEEE
    multiplication as a Python float, overflow to inf included."""
    def per_component(a, b):
        diffs = [x - y for k in a for x, y in zip(np.ravel(a[k]).tolist(),
                                                  np.ravel(b[k]).tolist())]
        return math.sqrt(math.fsum(v * v for v in diffs))

    rng = np.random.default_rng(0)
    special = np.array([0.0, -0.0, 5e-324, -2.2e-308, 1e-160, 1e200, -1e200,
                        1.5, np.nan])
    cases = [(rng.standard_normal(n) * 10.0 ** rng.integers(-200, 200, n),
              rng.standard_normal(n)) for n in (1, 7, 10_000)]
    cases += [(special, np.zeros_like(special)),
              (special[:-1], special[::-1][1:]),
              (np.array([-0.0, 5e-324]), np.array([0.0, -5e-324])),
              (rng.standard_normal(5000), rng.standard_normal(5000))]
    for va, vb in cases:
        a = {("leaf", 0): va[:1].reshape(()), ("leaf", 1): va[1:]}
        b = {("leaf", 0): vb[:1].reshape(()), ("leaf", 1): vb[1:]}
        got, want = divergence(a, b), per_component(a, b)
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), (va, vb)


def test_divergence_beyond_the_float_range_is_inf():
    """One rule: inf whenever the exact sum of squares overflows, whether
    one square overflows or only their sum does."""
    zero = {"a": np.zeros(2)}
    assert divergence({"a": np.array([1.3e154, 1.3e154])}, zero) == math.inf
    assert divergence({"a": np.array([1e155, 0.0])}, zero) == math.inf
    assert divergence({"a": np.array([1e154, 1e154])}, zero) == math.sqrt(2e308)
