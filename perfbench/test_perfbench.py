"""Checks of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

Traced passes must repeat their counts exactly and leave every artifact
byte-identical to an untraced pass; the checker must catch a wrong
artifact.  Takes about a minute.
"""

from __future__ import annotations

import json
import shutil

import pytest

from perfbench import checks, harness
from perfbench.tracing import LAYERS
from perfbench.workloads import WORKLOADS, jobs, write_inputs

#: per-layer metrics that count work; they must repeat exactly
COUNTS = (
    "polyalg.poisson_bracket.calls",
    "polyalg.poisson_bracket.pairs",
    "polyalg.lie_transform.calls",
    "normform.normalize.calls",
    "normform.normalize.out_terms",
    "invariants.back_transform.out_terms",
    "invariants.section_levels.cells",
    "dynamics.central_orbit_monodromy.calls",
    "dynamics.poincare_section.crossings_ratio",
    "cli.artifact_bytes",
)


@pytest.fixture(scope="module")
def cli():
    return harness.load_program()


def _work(name):
    path = harness.ROOT / ".bench_work" / f"test-{name}"
    shutil.rmtree(path, ignore_errors=True)
    return path


def _artifacts(job_list):
    return {
        p.relative_to(job.out.parent): p.read_bytes()
        for job in job_list
        for p in sorted(job.out.rglob("*"))
        if p.is_file()
    }


def test_inputs_follow_the_seed():
    work = _work("inputs")
    for workload in WORKLOADS:
        a = write_inputs(workload, 3, work / "a" / workload)
        b = write_inputs(workload, 3, work / "b" / workload)
        c = write_inputs(workload, 4, work / "c" / workload)
        assert [p.read_bytes() for p in a.values()] == [p.read_bytes() for p in b.values()]
        assert [p.read_bytes() for p in a.values()] != [p.read_bytes() for p in c.values()]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_passes_repeat_counts_and_artifacts(cli, workload):
    work = _work(workload)
    job_list = jobs(workload, write_inputs(workload, 7, work / "inputs"), work / "out")
    reference = checks.load_reference()

    plain = harness.run_list(cli, job_list, reference)
    assert plain.failed == 0, plain.failures
    untraced = _artifacts(job_list)

    first = harness.run_list(cli, job_list, reference, harness.new_tracer())
    assert first.failed == 0, first.failures
    traced = _artifacts(job_list)
    assert sorted(traced) == sorted(untraced)
    changed = [str(p) for p in untraced if traced[p] != untraced[p]]
    assert not changed, f"tracing changed {changed}"

    second = harness.run_list(cli, job_list, reference, harness.new_tracer())
    for key in COUNTS:
        assert first.layers[key] == second.layers[key], key

    layers = first.layers
    attributed = sum(layers[f"{layer}.self_s"] for layer in LAYERS)
    assert attributed + layers["unattributed_s"] == pytest.approx(layers["traced_wall_s"])
    assert layers["unattributed_s"] >= 0.0
    # the tracer put every binding back
    assert not hasattr(cli.main, "__wrapped__")
    assert not any(hasattr(f, "__wrapped__") for f in cli._COMMANDS.values())


def test_checker_rejects_a_wrong_artifact(cli):
    work = _work("wrong")
    job_list = jobs("series", write_inputs("series", 1, work / "inputs"), work / "out")
    (job,) = [j for j in job_list if j.name == "bifurcation_builtin"]
    reference = checks.load_reference()
    assert harness.run_job(cli, job, reference) == []
    path = job.out / "bifurcations.json"
    data = json.loads(path.read_text())
    data["bifurcations"][1]["energy"] += 1e-6
    path.write_text(json.dumps(data))
    failures = checks.check(job, reference)
    assert any(f.startswith("energy[1]") for f in failures), failures


def test_checker_rejects_a_short_section(cli):
    work = _work("short")
    job_list = jobs("portrait", write_inputs("portrait", 1, work / "inputs"), work / "out")
    job = job_list[0]
    assert harness.run_job(cli, job, checks.load_reference()) == []
    path = job.out / "numeric_E0.1.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    failures = checks.check(job, {})
    assert any("short Poincare section" in f for f in failures), failures
