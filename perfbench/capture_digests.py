"""Record the expected stdout sha256 of every pool command in digests.json.

    python3 perfbench/capture_digests.py

Each command runs once against an empty cache and once more against the
entry it wrote; both must exit 0 and print the same bytes.  Rerun this only
when a change is meant to alter the program's output, and say so.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import tempfile

from run import DIGESTS_PATH, ENTRY, ROOT, Runner, command_args
from workloads import WORKLOADS, Step, pool


def main() -> int:
    parent = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(parent, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=parent)
    digests = {}
    try:
        runner = Runner(workdir, {})
        for workload in sorted(WORKLOADS):
            for i, argv in enumerate(pool(workload)):
                step = Step(argv, f"{workload}{i}", False)
                outputs = []
                for _ in range(2):
                    _, code, _ = runner.spawn(["-c", ENTRY, *command_args(step, workdir)])
                    if code != 0:
                        print(f"{step.key}: exit {code}: {runner.stderr()}", file=sys.stderr)
                        return 1
                    outputs.append(runner.stdout())
                if outputs[0] != outputs[1]:
                    print(f"{step.key}: cached output differs", file=sys.stderr)
                    return 1
                digests[step.key] = hashlib.sha256(outputs[0]).hexdigest()
                print(f"{digests[step.key][:12]}  {step.key}", flush=True)
    finally:
        shutil.rmtree(workdir)
    with open(DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
