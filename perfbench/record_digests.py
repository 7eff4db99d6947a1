"""Record the seed-0 output digests that ``run.py`` checks each op against.

    python3 perfbench/record_digests.py [workload ...]

Run it only when an output change is intended, and name that change in
CHANGES.md: the digests pin the sweep CSV byte for byte.
"""

from __future__ import annotations

import itertools
import json
import sys

import run
import workloads

# Ops recorded per workload: more than a run at seed 0 completes today.
RECORDED_OPS = {"sweep-d23": 300, "sweep-d4": 100, "audit": 300}


def record(workload: str) -> list[str]:
    ops, inputs = run.prepare(workload, 0)
    digests = []
    for op in itertools.islice(inputs, RECORDED_OPS[workload]):
        lines = ops.run(op)
        error = ops.check(lines)
        if error:
            sys.exit(f"{workload} op {op.index}: {error}")
        digests.append(workloads.digest(lines))
    return digests


def main(argv: list[str]) -> int:
    table = json.loads(run.DIGESTS.read_text()) if run.DIGESTS.is_file() else {}
    for workload in argv or workloads.WORKLOADS:
        table[workload] = record(workload)
        print(f"{workload}: {len(table[workload])} ops", flush=True)
    run.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
