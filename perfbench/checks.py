"""Output checks for every benchmark job.

Two kinds of check run on each job's artifacts:

* ``digest`` reduces the artifacts to named number lists.  For jobs on
  the builtin model, :func:`check` compares them with ``reference.json``,
  recorded from the program by ``record_reference.py``.  Tolerances allow
  rounding changes (a reordered sum, a fused kernel) but not a different
  result.
* invariants that hold for every potential: series and numerical
  bifurcation energies agree, resonance parameters satisfy the resonance
  condition, normal forms sit in their kernel, every Poincare section
  returns the crossings it was asked for, and so on.  For the builtin
  model the paper's pins that the program meets are checked too.  The red
  pin E_t = 0.36688 of the acceptance gate is left to that gate.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from .workloads import N_CROSSINGS

REFERENCE = Path(__file__).with_name("reference.json")

#: paper pins the program meets on the builtin model: (value, tolerance)
PIN_CHAOS_R10 = (0.39550, 5e-4)
PIN_E13 = (0.097279, 2e-5)
PIN_E12 = (0.188036, 2e-5)

#: series and numerical bifurcation energies agree to this
BIFURCATION_AGREEMENT = 1e-4

#: |E_series(r) - E_numeric| stays below this on the chaos table
CHAOS_ERROR_MAX = 0.05

#: default relative and absolute tolerance of a reference comparison
RTOL = 1e-8
ATOL = 1e-12

#: (rtol, atol) for digest keys that need their own
_TOLERANCES = {
    # bisection to xtol 1e-10 in energy
    "numeric_energy": (0.0, 1e-8),
    "numeric_E_t": (0.0, 1e-8),
    # least-squares fits on log data
    "fit_alpha": (1e-6, 1e-9),
    "fit_d": (1e-6, 1e-9),
    "fit_alpha_rms": (1e-6, 1e-9),
    "fit_d_rms": (1e-6, 1e-9),
    # orbit integration at tol 1e-11 over 30 crossings of a regular orbit
    "anchor_z": (0.0, 1e-7),
    "anchor_pz": (0.0, 1e-7),
    "anchor_t": (0.0, 1e-6),
    # functionals normalized by the L1 norm of what they reduce
    "normalform_f": (0.0, 1e-9),
    "generators_f": (0.0, 1e-9),
    "remainder_f": (0.0, 1e-9),
    "field_f": (0.0, 1e-9),
    "normalform_coeffs": (0.0, 1e-10),
}

_EXACT = ("table_r", "fit_r_opt", "rows", "valid_points", "anchor_shape",
          "islands", "rings", "normalform_keys", "m")


# ------------------------------------------------------------------ reading


def _json(path):
    return json.loads(Path(path).read_text())


def _csv(path):
    """(columns, rows) of a CSV artifact, header comment skipped."""
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    reader = csv.reader(lines)
    columns = next(reader)
    return columns, list(reader)


def _numeric_csv(path):
    """Float array of a numeric CSV artifact."""
    text = Path(path).read_text()
    body = text.split("\n", 2)[2]
    return np.fromstring(body.replace("\n", ","), sep=",").reshape(-1, 4)


def _poly(records):
    """{(k1, l1, k2, l2, bk): complex} of serialized polynomial records."""
    return {
        (r["k1"], r["l1"], r["k2"], r["l2"], r["bk"]): complex(r["re"], r["im"])
        for r in records
    }


def _functionals(keys, coeffs):
    """L1 norm and six normalized linear functionals of a polynomial."""
    if len(coeffs) == 0:
        return 0.0, [0.0] * 6
    keys = np.asarray(keys, dtype=float)
    coeffs = np.asarray(coeffs)
    l1 = float(np.abs(coeffs).sum())
    phase = keys @ np.array([0.7, 1.3, 2.1, 2.9, 0.37])
    out = []
    for j in range(3):
        s = complex((coeffs * np.cos(phase + j)).sum()) / l1
        out += [s.real, s.imag]
    return l1, out


def _poly_digest(prefix, records):
    poly = _poly(records)
    l1, f = _functionals(list(poly), list(poly.values()))
    return {f"{prefix}_l1": [l1], f"{prefix}_f": f}


# ------------------------------------------------------------------ digests


def _digest_chaos(out):
    data = _json(out / "chaos_threshold.json")
    return {
        "numeric_E_t": [data["numeric_E_t"]],
        "table_r": [row["r"] for row in data["table"]],
        "table_energy": [row["energy"] for row in data["table"]],
    }


def _digest_bifurcation(out):
    entries = _json(out / "bifurcations.json")["bifurcations"]
    digest = {"m": [v for e in entries for v in (e["m1"], e["m2"])]}
    for key in ("energy", "numeric_energy", "I1_star", "omega1", "omega2"):
        digest[key] = [e[key] for e in entries]
    return digest


def _digest_asymptotics(out):
    columns, rows = _csv(out / "asymptotics.csv")
    col = {name: i for i, name in enumerate(columns)}
    digest = {
        "rows": [len(rows)],
        "norm": [float(row[col["norm"]]) for row in rows],
    }
    fits = _json(out / "fits.json")
    for _E, fit in sorted(fits["fits"].items()):
        for key in ("alpha", "d", "alpha_rms", "d_rms"):
            digest.setdefault(f"fit_{key}", []).append(fit[key])
        digest.setdefault("fit_r_opt", []).extend(v for _k, v in sorted(fit["r_opt"].items()))
        digest.setdefault("fit_optimal_norms", []).extend(
            v for _k, v in sorted(fit["optimal_norms"].items())
        )
    if "resonance" in fits:
        digest["resonance"] = [
            fits["resonance"][k] for k in ("I1_star", "omega1", "omega2", "energy")
        ]
    return digest


def _digest_normalize(out):
    nf = _json(out / "normalform.json")
    poly = _poly(nf["terms"])
    keys = sorted(k for k, c in poly.items() if abs(c) > 1e-12)
    digest = {
        "normalform_keys": [v for k in keys for v in k],
        "normalform_coeffs": [v for k in keys for v in (poly[k].real, poly[k].imag)],
    }
    digest.update(_poly_digest("normalform", nf["terms"]))
    generators = _json(out / "generators.json")["generators"]
    digest.update(_poly_digest("generators", [r for g in generators for r in g]))
    digest.update(_poly_digest("remainder", _json(out / "remainder.json")["terms"]))
    if "resonance" in nf:
        digest["resonance"] = [
            nf["resonance"][k] for k in ("I1_star", "omega1", "omega2", "energy")
        ]
    return digest


def _digest_section(out, energy, anchored):
    tag = f"E{energy:g}"
    (field_path,) = sorted(out.glob(f"theoretical_{tag}_r*.csv"))
    field = _numeric_csv(field_path)
    valid = field[:, 3] == 1
    z, pz, phi = field[valid, 0], field[valid, 1], field[valid, 2]
    l1 = float(np.abs(phi).sum())
    functionals = [
        float((phi * w).sum()) / l1
        for w in (np.ones_like(phi), np.cos(3.0 * z + 2.0 * pz), np.sin(5.0 * z - pz))
    ]
    digest = {"valid_points": [int(valid.sum())], "field_l1": [l1], "field_f": functionals}
    if anchored:
        numeric = _numeric_csv(out / f"numeric_{tag}.csv")
        anchor = numeric[numeric[:, 0] == 0]
        level = _json(out / f"levels_{tag}.json")["levels"][0]
        digest.update(
            anchor_shape=list(anchor.shape),
            anchor_z=anchor[:, 1].tolist(),
            anchor_pz=anchor[:, 2].tolist(),
            anchor_t=anchor[:, 3].tolist(),
            anchor_level=[level["level"]],
            islands=[level["islands"]],
            rings=[level["rings"]],
        )
    return digest


def digest(job):
    """Named number lists summarizing the artifacts of ``job``."""
    if job.kind == "chaos":
        return _digest_chaos(job.out)
    if job.kind == "bifurcation":
        return _digest_bifurcation(job.out)
    if job.kind == "asymptotics":
        return _digest_asymptotics(job.out)
    if job.kind == "normalize":
        return _digest_normalize(job.out)
    if job.kind == "section":
        return _digest_section(job.out, job.meta["energy"], job.meta["anchor"])
    raise ValueError(f"unknown job kind {job.kind!r}")


def compare(actual: dict, expected: dict) -> list:
    """Failures of ``actual`` against the recorded ``expected`` digest."""
    failures = []
    for key, want in expected.items():
        got = actual.get(key)
        if got is None or len(got) != len(want):
            failures.append(f"{key}: shape {None if got is None else len(got)} != {len(want)}")
            continue
        if key in _EXACT:
            if list(got) != list(want):
                failures.append(f"{key}: {got} != recorded {want}")
            continue
        rtol, atol = _TOLERANCES.get(key, (RTOL, ATOL))
        g, w = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        bad = ~(np.abs(g - w) <= atol + rtol * np.abs(w))
        if bad.any():
            i = int(np.argmax(bad))
            failures.append(f"{key}[{i}]: {g[i]!r} vs recorded {w[i]!r}")
    return failures


# --------------------------------------------------------------- invariants


def _resonant(m1, m2, omega1, omega2, energy, label):
    failures = []
    if not math.isclose(m2 * omega1, m1 * omega2, rel_tol=1e-9):
        failures.append(f"{label}: {m2}*omega1 != {m1}*omega2 ({omega1}, {omega2})")
    # below the escape energy 16/27 of the builtin model, with room for jitter
    if not 0.0 < energy < 16.0 / 27.0 * 1.2:
        failures.append(f"{label}: resonance energy {energy} out of range")
    return failures


def _invariants(job, d):
    meta = job.meta
    failures = []
    if job.kind == "chaos":
        energies = d["table_energy"]
        errors = [abs(e - d["numeric_E_t"][0]) for e in energies]
        if d["table_r"] != list(range(10, 10 + len(energies))):
            failures.append(f"chaos table orders {d['table_r']}")
        if not all(0.0 < e < CHAOS_ERROR_MAX for e in errors):
            failures.append(f"chaos table errors {errors}")
        if errors and errors[-1] >= errors[0]:
            failures.append("chaos estimate does not approach the numerical value")
        if job.potential == "builtin":
            value, tol = PIN_CHAOS_R10
            if abs(energies[0] - value) > tol:
                failures.append(f"E_t(r=10) = {energies[0]} vs pin {value} +- {tol}")
    elif job.kind == "bifurcation":
        ms = d["m"]
        for i, (series, numeric) in enumerate(zip(d["energy"], d["numeric_energy"])):
            if not abs(series - numeric) <= BIFURCATION_AGREEMENT:
                failures.append(f"series {series} vs numeric {numeric} bifurcation")
            failures += _resonant(ms[2 * i], ms[2 * i + 1], d["omega1"][i],
                                  d["omega2"][i], series, "bifurcation")
        if job.potential == "builtin":
            for (value, tol), series in zip((PIN_E13, PIN_E12), d["energy"]):
                if abs(series - value) > tol:
                    failures.append(f"series energy {series} vs pin {value} +- {tol}")
    elif job.kind == "asymptotics":
        norms = np.asarray(d["norm"])
        if not (norms.size and np.all(np.isfinite(norms)) and np.all(norms > 0.0)):
            failures.append("remainder norms not all finite and positive")
        fits = [d[f"fit_{k}"] for k in ("alpha", "d", "alpha_rms", "d_rms")]
        if not all(math.isfinite(v) for f in fits for v in f):
            failures.append(f"non-finite fit {fits}")
        if "m1" in meta:
            _I1, w1, w2, energy = d["resonance"]
            failures += _resonant(meta["m1"], meta["m2"], w1, w2, energy, "asymptotics")
    elif job.kind == "normalize":
        keys = np.asarray(d["normalform_keys"]).reshape(-1, 5)
        m1, m2 = meta["m1"], meta["m2"]
        off = (keys[:, 0] - keys[:, 1]) * m1 + (keys[:, 2] - keys[:, 3]) * m2
        if np.any(off != 0) or np.any(keys[:, 4] > meta["order"]):
            failures.append("normal form has terms outside the resonant kernel")
        generators = _json(job.out / "generators.json")["generators"]
        if len(generators) != meta["order"]:
            failures.append(f"{len(generators)} generators for order {meta['order']}")
        bks = {r["bk"] for r in _json(job.out / "remainder.json")["terms"]}
        if bks and not (min(bks) > meta["order"] and max(bks) <= meta["trunc"]):
            failures.append(f"remainder orders {sorted(bks)}")
        _I1, w1, w2, energy = d["resonance"]
        failures += _resonant(m1, m2, w1, w2, energy, "normalize")
    elif job.kind == "section":
        failures += _section_invariants(job, meta)
    return failures


def _section_invariants(job, meta):
    energy = meta["energy"]
    numeric = _numeric_csv(job.out / f"numeric_E{energy:g}.csv")
    failures = []
    counts = np.bincount(numeric[:, 0].astype(int), minlength=meta["n_seeds"])
    short = [i for i, c in enumerate(counts) if c != N_CROSSINGS]
    if short:
        failures.append(
            f"short Poincare section: seeds {short} returned "
            f"{[int(counts[i]) for i in short]} of {N_CROSSINGS} crossings"
        )
    if np.any(numeric[:, 2] ** 2 >= 2.0 * energy):
        failures.append("crossing outside the accessible section domain")
    levels = _json(job.out / f"levels_E{energy:g}.json")["levels"]
    if len(levels) != meta["n_seeds"]:
        failures.append(f"{len(levels)} level entries for {meta['n_seeds']} seeds")
    return failures


def check(job, reference: dict) -> list:
    """All failures of one finished job (empty when it is correct)."""
    try:
        d = digest(job)
        failures = _invariants(job, d)
    except Exception as exc:  # a malformed artifact fails the job, not the run
        return [f"malformed artifacts: {type(exc).__name__}: {exc}"]
    if job.potential == "builtin":
        if job.name not in reference:
            failures.append(f"no reference recorded for {job.name}")
        else:
            failures += compare(d, reference[job.name])
    return failures


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())
