"""Seeded inputs and job lists of the three benchmark workloads.

Every job is one ``magbottle`` command line.  The program sees only the
files written here (potential expression files and ``z p_z`` seed files)
and the flags of its command line.

Workloads, and the layer each one leaves idle:

``series``
    ``chaos-threshold`` from order 10 to ``SERIES_ORDER`` with the
    numerical bisection, then ``bifurcation --pair 3:1 --pair 2:1``, on
    the builtin model and on one seeded perturbed potential.  Nearly all
    the time is deep nonresonant normalization, and every output reads
    only the terms of transverse degree <= 2.  Idle: ``compose``,
    ``evaluate``, the section field and orbit integration on the section.
``remainder``
    Resonant 2:1 (order cap 11) and nonresonant (cap 14) ``asymptotics``
    at E=0.2, then a resonant 3:1 ``normalize`` with the truncation above
    the order, on the same two potentials.  This is the full-polynomial
    path: the
    remainder norm reads every transverse degree, and ``remainder.json``
    is large.  Idle: orbit integration and the monodromy bisection.
``portrait``
    Nonresonant ``section`` at E=0.1 (order 5) and resonant 2:1 ``section``
    at E=0.2 (order 6) on the builtin model, on a 200 x 200 grid with 30
    crossings per seed: a fixed anchor seed at E=0.1, a seeded one at
    E=0.2.  The normalizations are cheap; the time goes to orbit
    integration, the back-transform, the section field and the CSV writer.
    Idle: deep brackets and the monodromy bisection.

Sizes are chosen so that one pass over a job list takes 3 to 7 s on a
2-core x86 machine and no job takes more than about 3 s: the timings are
per-job medians over the passes of a run, and shorter jobs give a run
more samples to take them over.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("series", "remainder", "portrait")

#: the builtin model of the program, V = sum c rho^a z^b over {(a, b): c}
BUILTIN_TERMS = {
    (2, 0): 0.5,
    (2, 2): 0.5,
    (4, 0): -0.125,
    (2, 4): 0.125,
    (4, 2): -0.0625,
    (6, 0): 1.0 / 128.0,
}

#: non-quadratic coefficients are scaled by a factor in [1 - JITTER, 1 + JITTER]
JITTER = 0.05

#: deepest order of the ``series`` chaos-threshold table
SERIES_ORDER = 15

N_CROSSINGS = 30

#: (energy, extra CLI flags, seeded seeds) of the two ``portrait``
#: sections; a section without seeded seeds integrates the anchor seed
SECTIONS = (
    (0.1, ("--order", "5"), 0),
    (0.2, ("--mode", "res", "--m1", "2", "--m2", "1", "--order", "6"), 1),
)

GRID_N = 200

#: a fixed section seed whose crossings are compared with the recorded
#: reference; crossings of seeded seeds are checked for completeness
ANCHOR_SEED = (0.3, 0.0)

#: seeded section seeds lie at this share of the accessible (z, p_z) box
SEED_RADIUS = 0.5


@dataclass(frozen=True)
class Job:
    """One command line and what its checker needs to know."""

    name: str
    kind: str
    argv: tuple
    out: Path
    potential: str  # "builtin" or "perturbed"
    meta: dict = field(default_factory=dict)


def potential_text(terms) -> str:
    """Expression-file text of ``{(a, b): c}`` in the program's grammar."""
    parts = []
    for (a, b), c in sorted(terms.items(), key=lambda kv: (sum(kv[0]), kv[0])):
        factors = [repr(abs(c))]
        factors += [f"{v}^{e}" for v, e in (("rho", a), ("z", b)) if e]
        sign = "-" if c < 0 else "+"
        parts.append(f"{sign} {'*'.join(factors)}")
    return " ".join(parts).lstrip("+ ") + "\n"


def perturbed_terms(rng: random.Random) -> dict:
    """Builtin monomials with every non-quadratic coefficient jittered."""
    return {
        key: c if key == (2, 0) else c * (1.0 + rng.uniform(-JITTER, JITTER))
        for key, c in BUILTIN_TERMS.items()
    }


def section_seeds(rng: random.Random, E: float, n: int):
    """``n`` points of the accessible section box at E, at a random angle.

    The box is the one ``GridSpec.from_energy`` uses, |z| <= 2.4 sqrt(2E);
    on the section V(0, z) = 0, so |p_z| < sqrt(2E) is accessible.  The
    points sit at ``SEED_RADIUS`` of the box from its center: the cost of
    integrating an orbit grows with that distance and hardly depends on
    the angle, so the seed moves the orbit but not the work.
    """
    width = math.sqrt(2.0 * E)
    angles = [rng.uniform(0.0, 2.0 * math.pi) for _ in range(n)]
    return [
        (SEED_RADIUS * 2.4 * width * math.cos(a), SEED_RADIUS * width * math.sin(a))
        for a in angles
    ]


def write_inputs(workload: str, seed: int, directory: Path) -> dict:
    """Write the seeded input files; returns {label: path}."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    directory.mkdir(parents=True, exist_ok=True)
    files = {}
    if workload in ("series", "remainder"):
        path = directory / "perturbed.txt"
        path.write_text(potential_text(perturbed_terms(rng)))
        files["perturbed"] = path
    else:
        for k, (E, _flags, n_seeded) in enumerate(SECTIONS):
            seeds = section_seeds(rng, E, n_seeded) if n_seeded else [ANCHOR_SEED]
            path = directory / f"seeds_{k}.txt"
            path.write_text("".join(f"{z!r} {pz!r}\n" for z, pz in seeds))
            files[f"seeds_{k}"] = path
    return files


def _potentials(files):
    yield "builtin", ()
    yield "perturbed", ("--potential", str(files["perturbed"]))


def jobs(workload: str, files: dict, out_root: Path) -> list:
    """The workload's job list, in the order it runs."""
    out = []

    def add(name, kind, argv, potential="builtin", **meta):
        path = out_root / name
        out.append(
            Job(
                name=name,
                kind=kind,
                argv=tuple(argv) + ("--out", str(path)),
                out=path,
                potential=potential,
                meta=meta,
            )
        )

    if workload == "series":
        for label, flag in _potentials(files):
            add(
                f"chaos_{label}",
                "chaos",
                ("chaos-threshold", "--order-min", "10",
                 "--order-max", str(SERIES_ORDER)) + flag,
                label,
            )
            add(
                f"bifurcation_{label}",
                "bifurcation",
                ("bifurcation", "--pair", "3:1", "--pair", "2:1") + flag,
                label,
            )
    elif workload == "remainder":
        for label, flag in _potentials(files):
            add(
                f"asym_res21_{label}",
                "asymptotics",
                ("asymptotics", "--mode", "res", "--m1", "2", "--m2", "1",
                 "--energy", "0.2", "--order-cap", "11") + flag,
                label,
                m1=2, m2=1,
            )
            add(
                f"asym_nonres_{label}",
                "asymptotics",
                ("asymptotics", "--energy", "0.2", "--order-cap", "14") + flag,
                label,
            )
            add(
                f"normalize_res31_{label}",
                "normalize",
                ("normalize", "--mode", "res", "--m1", "3", "--m2", "1",
                 "--order", "8", "--trunc", "10") + flag,
                label,
                m1=3, m2=1, order=8, trunc=10,
            )
    elif workload == "portrait":
        for k, (E, flags, n_seeded) in enumerate(SECTIONS):
            add(
                f"section_{k}",
                "section",
                ("section", "--energy", repr(E), "--seed-file",
                 str(files[f"seeds_{k}"]), "--n-crossings", str(N_CROSSINGS),
                 "--grid-n", str(GRID_N))
                + flags,
                energy=E, anchor=not n_seeded, n_seeds=max(n_seeded, 1),
            )
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out
