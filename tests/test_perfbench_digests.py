"""Every benchmark operation still gives its recorded bytes.

``perfbench/digests.json`` holds, per workload and operation, the
sha256 of the update vectors that ``perfbench/ops.py`` produces at the
benchmark's default seed, 0.  This loads ``ops.py`` by file path,
without importing the benchmark package, as ``test_perfbench_spans``
loads ``spans.py``; it builds each workload's seed-0 instances, runs
each operation on them and compares the digest with the recorded one.
Both files are only read.
"""

import functools
import importlib.util
import json
import sys
from pathlib import Path

import pytest

import pcgraph

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
RECORDED = json.loads((PERFBENCH / "digests.json").read_text())


@functools.cache
def ops():
    spec = importlib.util.spec_from_file_location("perfbench_ops",
                                                  PERFBENCH / "ops.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look it up there
    spec.loader.exec_module(module)
    return module


@functools.cache
def instances(workload):
    return ops().build_instances(pcgraph, workload, 0)


def test_every_workload_and_operation_has_a_digest():
    assert {(w, op) for w, digests in RECORDED.items() for op in digests} \
        == {(w, op) for w in ops().WORKLOADS for op in ops().OPS}


@pytest.mark.parametrize("workload, op", [
    (workload, op) for workload, digests in sorted(RECORDED.items())
    for op in sorted(digests)])
def test_operation_matches_its_recorded_digest(workload, op):
    result = ops().RUN[op](pcgraph, instances(workload))
    assert ops().gate(op, result, instances(workload)) == []
    assert ops().digest(op, result) == RECORDED[workload][op]
