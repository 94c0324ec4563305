"""Record ``reference.json``: digests of every builtin-model job.

    python3 perfbench/record_reference.py

Runs each workload's builtin-model jobs once through ``magbottle.cli.main``
and stores their digests (see ``checks.py``).  The benchmark compares later
runs with them, so record only from a commit whose outputs are trusted.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import checks, harness  # noqa: E402
from perfbench.workloads import WORKLOADS, jobs, write_inputs  # noqa: E402


def main():
    cli = harness.load_program()
    work = harness.ROOT / ".bench_work" / "record"
    shutil.rmtree(work, ignore_errors=True)
    reference = {}
    for workload in WORKLOADS:
        files = write_inputs(workload, 0, work / workload / "inputs")
        for job in jobs(workload, files, work / workload / "out"):
            if job.potential != "builtin":
                continue
            # an empty recorded digest: only the invariants are checked
            failures = harness.run_job(cli, job, {job.name: {}})
            if failures:
                sys.exit(f"{job.name}: {failures}")
            reference[job.name] = checks.digest(job)
            print(job.name, flush=True)
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(reference.items())]
    checks.REFERENCE.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main()
