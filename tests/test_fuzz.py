"""Fuzzing the exit-code contract with mutated graph and config JSON.

Each example takes a valid description (``serial.graph_to_dict`` of a
zoo model, or an experiment config) and applies a few mutations: a
dropped key or list entry, a value of the wrong type, a huge or
non-finite number, or an id out of range.  The CLI must answer with an
exit code from its contract and never let an exception escape.
"""

import copy
import json
import math
import os
import tempfile

from hypothesis import given, settings, strategies as st

from pcgraph import serial
from pcgraph.cli import main
from pcgraph.errors import GraphError
from pcgraph.harness import ExperimentConfig
from pcgraph.models import FAMILIES, ModelSpec, build_model

GRAPHS = {family: serial.graph_to_dict(*build_model(ModelSpec(family, (), "tanh", 0)))
          for family in FAMILIES}

# Exit codes each subcommand may answer with: 0 success, 1 criterion
# failed (grad-check only), 2 usage or input error.
EXIT_CODES = {"level": {0, 2}, "export-dot": {0, 2}, "grad-check": {0, 1, 2}}

# One family and one seed, so an equivalence run stays cheap.
EQUIV_CONFIG = {**ExperimentConfig().to_dict(), "families": ["mlp"],
                "seeds": [0]}

ODD_VALUES = (None, True, "x", [], {}, [1, "a"], {"id": 0}, 1.5, -1, 10**30,
              -10**400, 1e300, -1e300, math.inf, -math.inf, math.nan)


def _paths(node, path=()):
    """Every (container path, key) pair inside a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path, key
        if isinstance(value, (dict, list)):
            yield from _paths(value, path + (key,))


def _mutate(doc, data, n_ids):
    """Apply one to three drawn mutations to a deep copy of ``doc``."""
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        path, key = data.draw(st.sampled_from(paths))
        parent = doc
        for step in path:
            parent = parent[step]
        kind = data.draw(st.sampled_from(("drop", "odd", "id")))
        if kind == "drop":
            del parent[key]
        elif kind == "odd":
            parent[key] = copy.deepcopy(data.draw(st.sampled_from(ODD_VALUES)))
        else:
            parent[key] = data.draw(st.sampled_from((-1, n_ids, n_ids + 7)))
    return doc


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(FAMILIES), st.data())
def test_mutated_graph_files_keep_the_exit_code_contract(family, data):
    base = GRAPHS[family]
    doc = _mutate(base, data, len(base["vertices"]))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        for command, allowed in EXIT_CODES.items():
            code = main([command, "--graph", path, "--out", os.devnull])
            assert code in allowed, (command, code, doc)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_mutated_configs_build_or_raise_graph_error(data):
    doc = _mutate(ExperimentConfig().to_dict(), data, len(FAMILIES))
    try:
        cfg = ExperimentConfig.from_dict(doc)
    except GraphError:
        return
    assert isinstance(cfg, ExperimentConfig)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_mutated_configs_keep_the_exit_code_contract(data):
    doc = _mutate(EQUIV_CONFIG, data, len(FAMILIES))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        code = main(["equiv", "--config", path, "--out", os.devnull])
    assert code in {0, 1, 2}, (code, doc)
