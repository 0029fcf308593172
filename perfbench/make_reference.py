"""Regenerate perfbench/reference/ from the current source tree.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs each workload's study once, untraced, and stores the data the
oracle reads from its output files. The committed references were made
from the code the benchmark was defined on; regenerate them only when a
change is meant to alter study results, and say so in the change.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import oracle
from study import WORKLOADS


def main(names) -> int:
    run.WORK.mkdir(parents=True, exist_ok=True)
    oracle.REFERENCE_DIR.mkdir(exist_ok=True)
    try:
        for name in names or sorted(WORKLOADS):
            child = run.Child(name, "study", 0, f"{name}-reference", run.child_env())
            if child.result is None:
                print("; ".join(child.problems), file=sys.stderr)
                return 1
            data = oracle.read_outputs(name, child.out)
            child.cleanup()
            path = oracle.REFERENCE_DIR / f"{name}.json"
            path.write_text(json.dumps(data, indent=1) + "\n")
            print(f"wrote {path.relative_to(run.ROOT)}")
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
