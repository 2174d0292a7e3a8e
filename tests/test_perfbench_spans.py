"""The traced benchmark still finds every function it wraps.

``perfbench/spans.py`` rebinds the pcgraph functions named in its
``TRACED`` table; a rename in the package would break it only when the
benchmark runs.  This loads the table without importing the benchmark
package and resolves each name on the imported ``pcgraph``.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


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
