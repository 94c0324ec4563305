"""Runs job lists through ``magbottle.cli.main`` in this process.

The program is imported from ``src/`` of the checkout this file sits in,
never from an installed copy.
"""

from __future__ import annotations

import contextlib
import gc
import io
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from . import checks
from .tracing import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingProgram(RuntimeError):
    """The checkout holds no program source to benchmark."""


def load_program():
    """Import ``magbottle.cli`` from the checkout's ``src/``."""
    if not (SRC / "magbottle" / "cli.py").is_file():
        raise MissingProgram(f"no program source at {SRC / 'magbottle'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import magbottle.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise MissingProgram(f"magbottle imported from {cli.__file__}, not {SRC}")
    return cli


def cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class ListResult:
    """One pass over a workload's job list."""

    wall_s: float
    cpu_s: float
    failures: dict  # job name -> list of failure messages
    job_wall_s: dict  # job name -> s, from command line to checked artifacts
    job_cpu_s: dict
    artifact_bytes: int
    layers: dict = field(default_factory=dict)  # per-layer metrics if traced

    @property
    def failed(self):
        return sum(1 for f in self.failures.values() if f)


def run_job(cli, job, reference):
    """Run one command line and check its artifacts; returns failures."""
    captured = io.StringIO()
    with contextlib.redirect_stderr(captured), contextlib.redirect_stdout(captured):
        try:
            code = cli.main(list(job.argv))
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    if code != 0:
        return [f"exit code {code}: {captured.getvalue().strip()[-400:]}"]
    return checks.check(job, reference)


def run_list(cli, jobs, reference, tracer=None) -> ListResult:
    """Run and check every job once; timed from inputs to checked artifacts."""
    for job in jobs:
        shutil.rmtree(job.out, ignore_errors=True)
    gc.collect()
    if tracer is not None:
        tracer.reset_totals()
        tracer.install()
    failures, job_wall, job_cpu = {}, {}, {}
    try:
        start, cpu0 = time.perf_counter(), cpu_seconds()
        for job in jobs:
            if tracer is not None:
                tracer.job = job.name
            t0, c0 = time.perf_counter(), cpu_seconds()
            failures[job.name] = run_job(cli, job, reference)
            job_wall[job.name] = time.perf_counter() - t0
            job_cpu[job.name] = cpu_seconds() - c0
        wall, cpu = time.perf_counter() - start, cpu_seconds() - cpu0
    finally:
        if tracer is not None:
            tracer.remove()
    written = sum(
        p.stat().st_size for job in jobs for p in job.out.rglob("*") if p.is_file()
    )
    result = ListResult(wall, cpu, failures, job_wall, job_cpu, written)
    if tracer is not None:
        result.layers = layer_metrics(tracer, wall, written)
    return result


# ------------------------------------------------------------------ tracing


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _count_pairs(counts, args, kwargs, result):
    f, g = _arg(args, kwargs, 0, "f"), _arg(args, kwargs, 1, "g")
    counts["polyalg.poisson_bracket.pairs"] += f.nterms * g.nterms


def _count_normalize(counts, args, kwargs, result):
    counts["normform.normalize.out_terms"] += result.hamiltonian.nterms


def _count_back_transform(counts, args, kwargs, result):
    counts["invariants.back_transform.out_terms"] += result.poly.nterms


def _count_cells(counts, args, kwargs, result):
    integral = _arg(args, kwargs, 0, "integral")
    grid = _arg(args, kwargs, 3, "grid")
    points = 400 * 400 if grid is None else grid.n_z * grid.n_pz
    section_terms = {
        (key.l1, key.k2, key.l2) for key, _c, _bk in integral.poly.term_items() if not key.k1
    }
    counts["invariants.section_levels.cells"] += points * len(section_terms)


def _count_crossings(counts, args, kwargs, result):
    seeds = _arg(args, kwargs, 0, "seeds")
    n = _arg(args, kwargs, 2, "n_crossings")
    counts["dynamics.poincare_section.requested"] += len(seeds) * n
    counts["dynamics.poincare_section.returned"] += len(result.points)


HOOKS = {
    "polyalg.poisson_bracket": _count_pairs,
    "normform.normalize": _count_normalize,
    "invariants.back_transform": _count_back_transform,
    "invariants.section_levels": _count_cells,
    "dynamics.poincare_section": _count_crossings,
}


def new_tracer():
    return Tracer(HOOKS)


def layer_metrics(tracer, wall, artifact_bytes) -> dict:
    """Per-layer metrics of one traced pass (times in s)."""
    inc, own, calls, counts = tracer.inclusive, tracer.self_time, tracer.calls, tracer.counts
    m = {}
    for name in ("polyalg.poisson_bracket", "polyalg.lie_transform",
                 "normform.normalize", "dynamics.central_orbit_monodromy"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.s"] = inc[name]
    for name in ("polyalg.poisson_bracket", "normform.normalize",
                 "analysis.capture_remainder_profile"):
        m[f"{name}.self_s"] = own[name]
    # main and the subcommand it dispatches to: parsing, serialization, writing
    m["cli.main.self_s"] = sum(v for k, v in own.items() if k.startswith(("cli.main", "cli.cmd_")))
    for name in ("polyalg.compose", "polyalg.evaluate", "analysis.capture_remainder_profile",
                 "analysis.optimal_order_scan", "analysis.bifurcation_energy",
                 "analysis.chaos_threshold_convergence", "invariants.back_transform",
                 "invariants.section_levels", "invariants.level_set_components",
                 "dynamics.poincare_section"):
        m[f"{name}.s"] = inc[name]
    m["model.prepare.s"] = sum(
        inc[f"model.{n}"]
        for n in ("parse_potential", "complexify_nonresonant", "prepare_resonant")
    )
    m["normform.solve_homological.s"] = sum(
        inc[f"normform.solve_homological_{v}"] for v in ("nonresonant", "resonant")
    )
    m["polyalg.poisson_bracket.pairs"] = counts["polyalg.poisson_bracket.pairs"]
    m["normform.normalize.out_terms"] = counts["normform.normalize.out_terms"]
    m["invariants.back_transform.out_terms"] = counts["invariants.back_transform.out_terms"]
    m["invariants.section_levels.cells"] = counts["invariants.section_levels.cells"]
    requested = counts["dynamics.poincare_section.requested"]
    # no section requested means none came back short
    m["dynamics.poincare_section.crossings_ratio"] = (
        counts["dynamics.poincare_section.returned"] / requested if requested else 1.0
    )
    m["cli.artifact_bytes"] = artifact_bytes
    layer_self = defaultdict(float)
    for name, seconds in own.items():
        layer_self[name.split(".", 1)[0]] += seconds
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    m["traced_wall_s"] = wall
    m["unattributed_s"] = wall - inc["cli.main"]
    return m


def list_time(passes, attribute) -> float:
    """Sum over the jobs of each job's median time across ``passes``.

    A burst of load from outside slows one job of one pass; the per-job
    median drops it, where the median of whole-pass times would not when
    bursts hit most passes.
    """
    per_job = [getattr(p, attribute) for p in passes]
    return sum(statistics.median(d[name] for d in per_job) for name in per_job[0])


def median_metrics(dicts) -> dict:
    """Key-wise median of per-pass metric dicts."""
    return {key: statistics.median(d[key] for d in dicts) for key in dicts[0]}
