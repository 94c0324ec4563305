"""Benchmark of magbottle, driven through its command-line interface.

    python3 perfbench/run.py --workload {series,remainder,portrait} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The run

1. times ``SETUP_REPEATS`` fresh interpreters that import ``magbottle.cli``
   and write the seeded inputs (``setup_s``, median);
2. writes the inputs, then runs the workload's job list through
   ``magbottle.cli.main`` in this process, one job at a time (a closed
   loop with one client), in as many passes as end within ``--seconds``;
3. checks every artifact of every pass (see ``checks.py``);
4. prints a summary, then one JSON line with ``correct``, ``attempted``,
   ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones: ``wall_s`` and
``cpu_s`` of one pass over the job list (the sum over its jobs of each
job's median across passes), the median ``setup_s``, and the process's
``peak_rss_mb``.  With ``--trace 1`` untraced and traced passes alternate,
and the metrics are the per-layer ones of the traced passes, the tracing
overhead (traced minus untraced ``wall_s``) and ``failed_frac``.  The spans
go to ``.bench_work/<run>/spans.jsonl``; samples and the library versions
go to ``.bench_work/<run>/result.json``.

Exits with code 1 and prints no result when the checkout holds no program.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import checks, harness  # noqa: E402
from perfbench.workloads import WORKLOADS, jobs, write_inputs  # noqa: E402

SETUP_REPEATS = 3

#: a fresh interpreter's share of set-up: import the CLI, write the inputs
_SETUP_CODE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import magbottle.cli; "
    "from pathlib import Path; from perfbench.workloads import write_inputs; "
    "write_inputs(sys.argv[3], int(sys.argv[4]), Path(sys.argv[5]))"
)

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def declared_units(section):
    """{metric name: unit} of one metric list in BENCHMARK.json."""
    return {m["name"]: m["unit"] for m in json.loads(BENCHMARK.read_text())[section]}


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded (None if unknown)."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def environment():
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
    }


def measure_setup(workload, seed, work):
    times = []
    for k in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(harness.ROOT), str(harness.SRC),
             workload, str(seed), str(work / f"setup{k}")],
            check=True,
            timeout=120,
        )
        times.append(time.perf_counter() - start)
    return times


def measure(cli, job_list, reference, seconds, trace):
    """Passes over the job list, as many as end within ``seconds`` (at least one).

    Returns (untraced passes, traced passes, tracer).  The first pass also
    warms the process up (allocator arenas, lazy imports); the per-job
    medians of ``harness.list_time`` damp that.
    """
    tracer = harness.new_tracer() if trace else None
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(harness.run_list(cli, job_list, reference))
        if trace:
            traced.append(harness.run_list(cli, job_list, reference, tracer))
        elapsed = time.perf_counter() - start
        # stop where the next round would end past the budget
        if elapsed + elapsed / len(plain) > seconds:
            return plain, traced, tracer


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        cli = harness.load_program()
    except harness.MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    work = harness.ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    setup = measure_setup(args.workload, args.seed, work)
    files = write_inputs(args.workload, args.seed, work / "inputs")
    job_list = jobs(args.workload, files, work / "out")
    reference = checks.load_reference()
    plain, traced, tracer = measure(cli, job_list, reference, args.seconds, args.trace)

    passes = plain + traced
    attempted = sum(len(p.failures) for p in passes)
    failed = sum(p.failed for p in passes)
    samples = {
        "wall_s": [p.wall_s for p in plain],
        "cpu_s": [p.cpu_s for p in plain],
        "setup_s": setup,
    }
    samples.update(
        (f"{name}.wall_s", [p.job_wall_s[name] for p in plain]) for name in plain[0].job_wall_s
    )
    if args.trace:
        layers = harness.median_metrics([p.layers for p in traced])
        layers["untraced_wall_s"] = harness.list_time(plain, "job_wall_s")
        layers["trace_overhead_s"] = layers["traced_wall_s"] - layers["untraced_wall_s"]
        layers["failed_frac"] = failed / attempted
        values = layers
        tracer.write(work / "spans.jsonl")
    else:
        values = {
            "wall_s": harness.list_time(plain, "job_wall_s"),
            "cpu_s": harness.list_time(plain, "job_cpu_s"),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": harness.peak_rss_mib(),
        }
    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    env = environment()
    failures = {name: f for p in passes for name, f in p.failures.items() if f}
    (work / "result.json").write_text(
        json.dumps(
            {"workload": args.workload, "seed": args.seed, "trace": args.trace,
             "environment": env, "attempted": attempted, "failed": failed,
             "samples": samples, "failures": failures, "metrics": metrics},
            indent=1,
        )
        + "\n"
    )
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, values in samples.items():
        print(f"# {name}: median {statistics.median(values):.4f} s, "
              f"max {max(values):.4f} s, n={len(values)}")
    print(f"# failed_frac: {failed}/{attempted}")
    for name, messages in failures.items():
        for message in messages[:3]:
            print(f"# FAIL {name}: {message}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
