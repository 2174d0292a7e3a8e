"""End-to-end exercise of the command-line surface via ``main(argv)``."""

import json

import numpy as np
import pytest

from pcgraph import functions as fns
from pcgraph import serial
from pcgraph.cli import main
from pcgraph.graph import GraphBuilder
from pcgraph.models import ModelSpec, build_model


@pytest.fixture
def skipchain_file(tmp_path):
    g, params = build_model(ModelSpec("skipchain"))
    path = tmp_path / "skipchain.json"
    serial.save_graph(path, g, params)
    return path


def test_build_writes_loadable_graph(tmp_path):
    out = tmp_path / "mlp.json"
    code = main(["build", "--family", "mlp", "--dims", "3", "4", "1",
                 "--activation", "tanh", "--out", str(out)])
    assert code == 0
    g, params = serial.load_graph(out)  # construction re-validates
    assert params is not None
    assert set(params) >= set(g.trainable_leaves())


def test_build_to_stdout(capsys):
    assert main(["build", "--family", "sqrtsquare"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["format"] == serial.FORMAT


def test_build_rejects_bad_family(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["build", "--family", "transformer"])
    assert exc.value.code == 2


@pytest.mark.parametrize("description", [
    {"output": 1, "vertices": [{"id": 0, "leaf": True},
                               {"id": 1, "children": [0]}]},
    [{"id": 0, "leaf": True}],
    {"output": 0, "vertices": [{"id": 0, "leaf": True}], "params": [1.0]},
    {"output": 1, "vertices": [{"id": 0, "leaf": True, "trainable": "false"},
                               {"id": 1, "kind": "square", "children": [0]}]},
])
def test_malformed_graph_file_is_a_usage_error(tmp_path, capsys, description):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(description))
    assert main(["export-dot", "--graph", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    '{"output": 1e400, "vertices": [{"id": 0, "leaf": true}]}',
    '{"output": 0, "vertices": [{"id": 1e400, "leaf": true}]}',
], ids=["output", "vertex-id"])
def test_overflowing_graph_ids_are_a_usage_error(tmp_path, capsys, text):
    path = tmp_path / "huge.json"
    path.write_text(text)
    assert main(["level", "--graph", str(path)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


def test_grad_check_rejects_a_non_finite_param(tmp_path, capsys):
    g, params = build_model(ModelSpec("skipchain"))
    path = tmp_path / "inf.json"
    serial.save_graph(path, g, {**params, g.trainable_leaves()[0]: 1e400})
    assert main(["grad-check", "--graph", str(path)]) == 2
    err = capsys.readouterr().err
    assert "non-finite" in err and "Traceback" not in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow itself
def test_grad_check_fails_when_a_finite_param_overflows(tmp_path, capsys):
    g, params = build_model(ModelSpec("sqrtsquare"))
    path = tmp_path / "huge.json"
    serial.save_graph(path, g, {**params, max(g.leaves): 1e300})
    assert main(["grad-check", "--graph", str(path)]) == 1
    assert "FAILED: max relative error nan" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow itself
def test_grad_check_fails_when_a_sum_reduce_overflows(tmp_path, capsys):
    b = GraphBuilder()
    w = b.leaf()
    g = b.build(b.vertex(fns.sum_reduce(), [w]))
    path = tmp_path / "overflow.json"
    serial.save_graph(path, g, {w: np.array([1e308, 1e308])})
    assert main(["grad-check", "--graph", str(path)]) == 1
    err = capsys.readouterr().err
    assert "FAILED: max relative error nan" in err and "Traceback" not in err


def test_grad_check_rejects_a_non_finite_target(skipchain_file, capsys):
    assert main(["grad-check", "--graph", str(skipchain_file), "--y", "nan"]) == 2
    err = capsys.readouterr().err
    assert "finite" in err and "Traceback" not in err


@pytest.mark.parametrize("step", ["nan", "inf", "-1"])
def test_grad_check_rejects_a_bad_step(skipchain_file, capsys, step):
    assert main(["grad-check", "--graph", str(skipchain_file), "--h", step]) == 2
    err = capsys.readouterr().err
    assert "finite-difference step" in err and "Traceback" not in err


def test_export_dot(skipchain_file, capsys):
    assert main(["export-dot", "--graph", str(skipchain_file)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    assert "->" in out


def test_level_with_report_and_dot(skipchain_file, tmp_path, capsys):
    report = tmp_path / "report.json"
    dot = tmp_path / "levelled.dot"
    out = tmp_path / "levelled.json"
    code = main(["level", "--graph", str(skipchain_file), "--out", str(out),
                 "--report", str(report), "--dot", str(dot)])
    assert code == 0

    summary = json.loads(report.read_text())
    assert summary["inserted"] == 2
    assert summary["max_level"] == 4
    assert all(pad > 0 for pad in summary["edge_paddings"].values())

    levelled, _ = serial.load_graph(out)
    assert len(levelled) == 10  # 8 original + 2 identities
    assert "style=dashed" in dot.read_text()


def test_grad_check_passes_at_default_tolerance(skipchain_file, capsys):
    assert main(["grad-check", "--graph", str(skipchain_file), "--y", "1.5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("param,")
    assert len(lines) == 4  # header + z1, z2, z3


def test_grad_check_fails_at_absurd_tolerance(skipchain_file, capsys):
    code = main(["grad-check", "--graph", str(skipchain_file),
                 "--tolerance", "1e-18"])
    assert code == 1
    assert "FAILED" in capsys.readouterr().err


@pytest.mark.parametrize("tolerance", ["nan", "-1", "inf"])
def test_grad_check_rejects_a_bad_tolerance(skipchain_file, capsys, tolerance):
    assert main(["grad-check", "--graph", str(skipchain_file),
                 "--tolerance", tolerance]) == 2
    err = capsys.readouterr().err
    assert "--tolerance" in err and "Traceback" not in err


def test_grad_check_needs_params(tmp_path, capsys):
    g, _ = build_model(ModelSpec("skipchain"))
    bare = tmp_path / "bare.json"
    serial.save_graph(bare, g)  # no params recorded
    assert main(["grad-check", "--graph", str(bare)]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_graph_file_is_a_usage_error(tmp_path, capsys):
    assert main(["export-dot", "--graph", str(tmp_path / "nope.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


def _tiny_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "families": ["mlp"], "seeds": [0], "repetitions": 2, "warmup": 1}))
    return path


@pytest.mark.parametrize("config", [
    {"seeds": 5},
    {"lr": "a"},
    {"families": ["nope"]},
    {"families": "mlp"},
    {"seeds": [0.5]},
    {"activation": ["tanh"]},
    {"lr": float("nan")},
    {"repetitions": 0},
    {"T_il": True},
    [1, 2],
    {"tolerance_zero": -1e-9},
    {"tolerance_positive": -1},
])
def test_bad_config_types_are_a_usage_error(tmp_path, capsys, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["equiv", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


def test_build_rejects_a_negative_seed(capsys):
    assert main(["build", "--family", "mlp", "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert "seed" in err and "Traceback" not in err


def test_equiv_rejects_a_negative_seed_override(tmp_path, capsys):
    assert main(["equiv", "--config", str(_tiny_config(tmp_path)),
                 "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert "'seeds'" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["ablate", "bench"])
def test_a_negative_config_seed_is_a_usage_error(tmp_path, capsys, command):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"families": ["mlp"], "seeds": [-3]}))
    assert main([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "'seeds'" in err and "Traceback" not in err


def test_equiv_subcommand(tmp_path):
    out = tmp_path / "rows.csv"
    code = main(["equiv", "--config", str(_tiny_config(tmp_path)),
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].split(",")[:4] == ["model", "seed", "variant", "divergence"]
    assert len(lines) == 1 + 3 * 2  # three mlp depths, two variants


def test_equiv_single_seed_override(tmp_path):
    out = tmp_path / "rows.json"
    code = main(["equiv", "--config", str(_tiny_config(tmp_path)),
                 "--seed", "7", "--format", "json", "--out", str(out)])
    assert code == 0
    rows = json.loads(out.read_text())
    assert {r["seed"] for r in rows} == {7}


def test_equiv_tolerance_override(tmp_path, capsys):
    config = str(_tiny_config(tmp_path))
    assert main(["equiv", "--config", config, "--tolerance", "1e-3",
                 "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert {json.loads(r["config"])["tolerance_zero"] for r in rows} == {1e-3}
    assert main(["equiv", "--config", config, "--tolerance", "-1"]) == 2
    assert "'tolerance_zero' must be >= 0" in capsys.readouterr().err


def test_ablate_subcommand(tmp_path, capsys):
    code = main(["ablate", "--config", str(_tiny_config(tmp_path)),
                 "--format", "json"])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)
    assert all(r["ok"] for r in rows)


def test_bench_subcommand(tmp_path, capsys):
    code = main(["bench", "--config", str(_tiny_config(tmp_path)),
                 "--repetitions", "2", "--format", "json"])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["algorithm"] for r in rows] == ["bp", "il", "zil"]


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
