"""The byte gate runs and repeats itself on a small corpus.

``tools/bytegate.py`` prints one line per (case, run) of a fixed corpus;
a change is gated by diffing its output with the parent's.  This loads
it by file path and runs three of its cases twice on the working tree:
both passes must print the same lines, and the invalid graph must be
refused.  Its 0-d ladder case must run batches of 0-d activations.
"""

import importlib.util
from pathlib import Path

import pytest

import pcgraph
from pcgraph import pc

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bytegate.py"
PICKED = ("residual/tanh/0", "random/7", "invalid/0")


def bytegate():
    spec = importlib.util.spec_from_file_location("bytegate", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # x 1e160 overflows
def test_the_gate_repeats_itself_on_three_cases():
    gate = bytegate()

    def run():
        picked = [c for c in gate.cases(pcgraph) if c[0] in PICKED]
        return list(gate.lines(pcgraph, picked))

    first = run()
    assert first == run()
    assert all(any(line.startswith(label) for line in first)
               for label in PICKED)
    refused = [line for line in first if line.startswith("invalid/0\t")]
    assert len(refused) == 1 and "raise CycleDetected" in refused[0]
    # The refusal, then per graph built: two forms, each with 5 graph
    # runs and 11 engine runs per params scale.
    assert len(first) == 1 + 2 * 2 * (5 + 2 * 11)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # x 1e160 overflows
def test_the_gate_runs_batches_of_scalar_activations(monkeypatch):
    """The 0-d ladder case: its tanh and logistic vertices run as step
    engine groups, so the gate covers batch calls on 0-d rows."""
    gate = bytegate()
    names = []
    predict = pc._Group.predict

    def named(grp, *args):
        names.append(grp.fn.name)
        return predict(grp, *args)

    monkeypatch.setattr(pc._Group, "predict", named)
    picked = [c for c in gate.cases(pcgraph) if c[0] == "ladder0d/0"]
    lines = list(gate.lines(pcgraph, picked))
    assert len(lines) == 2 * (5 + 2 * 11)
    assert {"tanh", "logistic"} <= set(names)
