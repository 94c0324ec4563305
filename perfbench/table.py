"""Run every workload once and print one row of end-to-end metrics each.

    python3 perfbench/table.py [--seed N] [--seconds S]

Each workload runs in its own process (``run.py --trace 0``), so
``peak_rss_mb`` is that workload's own.  Times are in s, memory in MiB;
``n`` is the number of timed passes (set-up: fresh interpreters).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("series", "remainder", "portrait")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    run_seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    parser.add_argument("--seconds", type=int, default=run_seconds)
    args = parser.parse_args()
    header = (f"{'workload':<10} {'wall_s [s]':>11} {'cpu_s [s]':>10} {'n':>3} "
              f"{'setup_s [s]':>12} {'n':>3} {'peak_rss_mb [MiB]':>18} {'failed_frac':>12}")
    rows = []
    for workload in WORKLOADS:
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            check=True,
            stdout=subprocess.DEVNULL,
            cwd=HERE.parent,
        )
        result = json.loads(
            (HERE.parent / ".bench_work" / f"{workload}-{args.seed}-0" / "result.json").read_text()
        )
        m = {k: v["value"] for k, v in result["metrics"].items()}
        s = result["samples"]
        rows.append(
            f"{workload:<10} {m['wall_s']:>11.4f} {m['cpu_s']:>10.4f} {len(s['wall_s']):>3} "
            f"{m['setup_s']:>12.4f} {len(s['setup_s']):>3} {m['peak_rss_mb']:>18.1f} "
            f"{result['failed'] / result['attempted']:>12.4f}"
        )
    print(header)
    print("\n".join(rows))


if __name__ == "__main__":
    main()
