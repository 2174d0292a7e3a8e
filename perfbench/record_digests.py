"""Write digests.json: sha256 of every operation's update vectors on
each workload at the default seed.

    python3 perfbench/record_digests.py

The benchmark fails an operation whose digest differs from the stored
one, so rewrite the file only when updates are meant to change bits.
"""

from __future__ import annotations

import json
import sys

import run  # pins BLAS threads before numpy loads
import ops


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    digests = {}
    for workload in ops.WORKLOADS:
        pg, instances = run.setup(workload, run.DEFAULT_SEED)
        digests[workload] = {op: ops.digest(op, ops.RUN[op](pg, instances))
                             for op in ops.OPS}
    run.DIGESTS.write_text(json.dumps(digests, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
