"""Suite orchestration: configs, provenance, determinism, and exit logic."""

import json

import pytest

from pcgraph import harness
from pcgraph.errors import GraphError
from pcgraph.zil import ABLATIONS


def small_config(**overrides):
    base = dict(families=("mlp", "residual"), seeds=(0, 1),
                repetitions=3, warmup=1)
    base.update(overrides)
    return harness.ExperimentConfig(**base)


# -- configuration --------------------------------------------------------

def test_config_round_trips_through_dict():
    cfg = small_config(lr=0.05)
    again = harness.ExperimentConfig.from_dict(cfg.to_dict())
    assert again == cfg


def test_config_rejects_unknown_keys():
    with pytest.raises(GraphError, match="unknown config"):
        harness.ExperimentConfig.from_dict({"learning_rate": 0.1})


@pytest.mark.parametrize("name", ["tolerance_zero", "tolerance_positive"])
def test_config_rejects_a_negative_tolerance(name):
    with pytest.raises(GraphError, match=f"'{name}' must be >= 0"):
        harness.ExperimentConfig.from_dict({name: -1e-12})
    assert getattr(harness.ExperimentConfig.from_dict({name: 0.0}), name) == 0.0


def test_config_from_json_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"families": ["mlp"], "seeds": [3], "lr": 0.2}))
    cfg = harness.ExperimentConfig.from_json(path)
    assert cfg.families == ("mlp",)
    assert cfg.seeds == (3,)
    assert cfg.lr == 0.2


def test_config_from_missing_file(tmp_path):
    with pytest.raises(GraphError, match="cannot read"):
        harness.ExperimentConfig.from_json(tmp_path / "none.json")


def test_code_version_is_a_short_stable_hash():
    a, b = harness.code_version(), harness.code_version()
    assert a == b
    assert len(a) == 12
    int(a, 16)  # hex


# -- equivalence suite ----------------------------------------------------

def test_equivalence_suite_rows_and_exit():
    cfg = small_config()
    rows, code = harness.run_equivalence_suite(cfg)
    assert code == 0
    # mlp sweeps three depths, residual one; two rows per model/seed
    assert len(rows) == (3 + 1) * 2 * 2
    for row in rows:
        assert row["ok"]
        assert row["code_hash"] == harness.code_version()
        assert json.loads(row["config"])["seeds"] == [0, 1]
    variants = {row["variant"] for row in rows}
    assert variants == {"layer_indexed", "level_structured+levelled"}
    assert all(row["wall_time"] > 0.0 for row in rows)


def test_equivalence_expectations_by_family():
    rows, _ = harness.run_equivalence_suite(small_config(seeds=(0,)))
    for row in rows:
        if row["variant"] == "layer_indexed":
            expected = "zero" if row["model"].startswith("mlp") else "positive"
            assert row["expected"] == expected
        else:
            assert row["expected"] == "zero"


def test_equivalence_suite_is_deterministic():
    cfg = small_config(families=("residual",), seeds=(0,))
    a, _ = harness.run_equivalence_suite(cfg)
    b, _ = harness.run_equivalence_suite(cfg)
    assert [r["divergence"] for r in a] == [r["divergence"] for r in b]


def test_equivalence_suite_flags_misconfigured_tolerance():
    # an impossible zero tolerance must flip the exit code, not crash
    cfg = small_config(families=("mlp",), seeds=(0,), tolerance_zero=0.0)
    rows, code = harness.run_equivalence_suite(cfg)
    assert code == 1
    assert any(not r["ok"] for r in rows)


# -- ablation suite -------------------------------------------------------

def test_ablation_suite_covers_all_conditions():
    cfg = small_config(seeds=(0,))
    rows, code = harness.run_ablation_suite(cfg)
    assert code == 0
    assert {r["variant"] for r in rows} == set(ABLATIONS)
    assert all(r["ok"] for r in rows)
    assert all(r["expected"] == "positive" for r in rows)


# -- benchmark ------------------------------------------------------------

def test_benchmark_reports_and_never_fails(capsys):
    cfg = small_config(repetitions=3, warmup=1)
    rows, code = harness.run_benchmark(cfg)
    assert code == 0  # advisory only, even when ratios are off target
    names = [r["algorithm"] for r in rows]
    assert names == ["bp", "il", "zil"]
    for r in rows:
        assert r["median_s"] > 0
        assert r["repetitions"] == 3
    assert rows[1]["steps"] == cfg.T_il
    # mlp(4,8,1)'s first weight reads at step 4: four relaxations
    assert rows[2]["steps"] == 4


# -- row serialization ----------------------------------------------------

def test_write_rows_csv():
    rows = [{"a": 1, "b": 2.5}, {"a": 3, "b": -1.0}]
    text = harness.write_rows(rows)
    lines = text.strip().splitlines()
    assert lines[0] == "a,b"
    assert lines[1] == "1,2.5"


def test_write_rows_json():
    rows = [{"a": 1}]
    text = harness.write_rows(rows, fmt="json")
    assert json.loads(text) == [{"a": 1}]


def test_write_rows_empty_and_bad_format():
    assert harness.write_rows([], fmt="csv") == ""
    with pytest.raises(GraphError):
        harness.write_rows([], fmt="yaml")
