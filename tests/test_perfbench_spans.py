"""The benchmark still finds every function it wraps and calls.

``perfbench/spans.py`` rebinds the pcgraph functions named in its
``TRACED`` table, and ``perfbench/ops.py`` calls the package as ``pg``;
a rename or a dropped keyword in the package would break either only
when the benchmark runs.  This loads the table without importing the
benchmark package and resolves each name on the imported ``pcgraph``,
and binds each ``pg.<name>(...)`` call in ``ops.py`` to the signature
of ``pcgraph.<name>``.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import pcgraph

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"
OPS = PERFBENCH / "ops.py"


def traced_table():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("span, target", sorted(traced_table().items()))
def test_every_traced_name_resolves_on_the_package(span, target):
    module, attr = target
    owner = importlib.import_module(f"pcgraph.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner), span


def package_calls():
    """(line, name, positional count, keywords) of every ``pg.<name>(...)``."""
    calls = []
    for node in ast.walk(ast.parse(OPS.read_text())):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "pg"):
            assert not any(isinstance(a, ast.Starred) for a in node.args)
            assert all(kw.arg is not None for kw in node.keywords)
            calls.append((node.lineno, node.func.attr, len(node.args),
                          tuple(kw.arg for kw in node.keywords)))
    return sorted(calls)


def test_the_benchmark_makes_package_calls():
    assert len(package_calls()) >= 20


@pytest.mark.parametrize("line, name, positional, keywords", package_calls())
def test_every_benchmark_call_binds_to_the_package(line, name, positional,
                                                   keywords):
    signature = inspect.signature(getattr(pcgraph, name))
    signature.bind(*[None] * positional, **dict.fromkeys(keywords))
