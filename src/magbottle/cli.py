"""Batch command-line interface orchestrating the pipelines.

Five subcommands cover the workflows end to end: ``normalize`` builds a
normal form and serializes it, ``section`` compares numerically integrated
surface-of-section crossings against theoretical level sets, ``asymptotics``
scans remainder norms over (r, delta E), ``bifurcation`` locates equatorial
resonances on the series and numerically, and ``chaos-threshold`` estimates
the 1:1 transition energy both ways.

Every run directory is self-describing: the validated configuration is
persisted verbatim to ``run_config.json``, its SHA-256 is embedded in every
output header, and re-running with ``--config run_config.json`` reproduces
byte-identical JSON and CSV outputs.  Exit codes: 0 on success, 2 on a
configuration error, 3 on a computation error (the error name goes to
stderr).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import re
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    DEFAULT_DELTA_E_GRID,
    FIT_DELTA_E_MAX,
    bifurcation_energy,
    capture_remainder_profile,
    chaos_threshold_convergence,
    optimal_order_scan,
)
from .dynamics import numerical_bifurcation_energy, poincare_section
from .errors import (
    InvalidFrequencyError,
    MissingQuadraticError,
    ModeError,
    NonPolynomialError,
    ParseError,
    UnsupportedPotentialError,
)
from .invariants import GridSpec, back_transform, level_set_components, section_levels
from .model import (
    build_builtin_model,
    complexify_nonresonant,
    parse_potential,
    prepare_resonant,
)
from .normform import normalize
from .polyalg import MAX_TRUNC_ORDER, CanonicalPolynomial

SCHEMA = "magbottle/1"

#: the resonance locators and the 1:1 threshold read only the equatorial
#: energy and omega2^2 series, i.e. the terms of transverse degree <= 2,
#: which a capped normalization reproduces exactly
SERIES_TRANSVERSE_CAP = 2

#: errors that mean the request was malformed rather than the computation
#: failing; they map to exit code 2
_CONFIG_ERRORS = (
    ParseError,
    NonPolynomialError,
    MissingQuadraticError,
    UnsupportedPotentialError,
    InvalidFrequencyError,
    ModeError,
)


class ConfigError(Exception):
    """Invalid run configuration (exit code 2)."""


@dataclass(frozen=True)
class RunConfig:
    """One validated batch request; persisted verbatim for provenance.

    Fields not used by the requested subcommand stay at their defaults so
    a persisted config can be replayed without special-casing.  An omitted
    option takes the default here, with one exception: ``section`` without
    ``--energy`` gets ``energies = (0.1,)`` from :func:`_config_from_args`.
    """

    subcommand: str
    potential: str | None = None
    mode: str = "nonres"
    m1: int = 2
    m2: int = 1
    order: int = 5
    trunc: int | None = None
    locator_order: int = 8
    energies: tuple = (0.2,)
    delta_e: tuple | None = None
    beta: float = 0.0
    order_cap: int = 20
    seed_file: str | None = None
    out: str = "magbottle_out"
    grid_n: int = 400
    n_crossings: int = 60
    pairs: tuple = ((3, 1), (2, 1))
    order_min: int = 10
    order_max: int = 10
    numeric: bool = True
    tol: float = 1e-11

    def validate(self):
        if self.subcommand not in _COMMANDS:
            raise ConfigError(f"unknown subcommand {self.subcommand!r}")
        if self.mode not in ("nonres", "res"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.mode == "res" and (self.m1 < 1 or self.m2 < 1):
            raise ConfigError("resonant mode needs m1 >= 1 and m2 >= 1")
        if self.order < 0:
            raise ConfigError("--order must be >= 0")
        if self.trunc is not None and self.trunc < max(self.order, 1):
            raise ConfigError("--trunc must be at least max(order, 1)")
        if self.order_cap < 2:
            raise ConfigError("--order-cap must be >= 2")
        if self.locator_order < 0:
            raise ConfigError("--locator-order must be >= 0")
        for option, needed in (
            ("--order/--trunc", self.r_trunc),
            ("--locator-order", self.locator_order + 1),
            ("--order-cap", self.order_cap),
            ("--order-max", self.order_max),
        ):
            if needed > MAX_TRUNC_ORDER:
                raise ConfigError(
                    f"{option} needs truncation order {needed} > {MAX_TRUNC_ORDER}"
                )
        # a NaN fails every comparison, so each bound is one it cannot pass
        if not self.energies or not all(0.0 < E < np.inf for E in self.energies):
            raise ConfigError(
                f"--energy must be positive and finite, got {self.energies}"
            )
        if not all(0.0 < d < np.inf for d in self.delta_e or ()):
            raise ConfigError(
                f"--delta-e must be positive and finite, got {self.delta_e}"
            )
        if not np.isfinite(self.beta):
            raise ConfigError(f"--beta must be finite, got {self.beta}")
        if not 0 < self.order_min <= self.order_max:
            raise ConfigError("need 0 < order-min <= order-max")
        if self.grid_n < 16:
            raise ConfigError("--grid-n must be >= 16")
        if self.n_crossings < 0:
            raise ConfigError("--n-crossings must be >= 0")
        if not 0.0 < self.tol < np.inf:
            raise ConfigError(f"--tol must be positive and finite, got {self.tol}")
        for m1, m2 in self.pairs:
            if m1 < 1 or m2 < 1:
                raise ConfigError(f"--pair {m1}:{m2} needs m1 >= 1 and m2 >= 1")
        return self

    @property
    def r_trunc(self) -> int:
        """The truncation order of the normal form: ``trunc``, or order + 1."""
        return self.trunc if self.trunc is not None else self.order + 1

    def canonical_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True, indent=2) + "\n"

    def sha256(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


# ------------------------------------------------------------- serialization


#: a polynomial's placeholder string "\0<n>" as ``json.dumps`` writes it; no
#: other payload value holds a NUL
_PLACEHOLDER = re.compile(r'"\\u0000(\d+)"')


def _json_floats(values):
    """json's spelling of each float64: its repr, or NaN, Infinity, -Infinity."""
    text = list(map(float.__repr__, values.tolist()))
    if np.isfinite(values).all():
        return text
    spelling = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
    return [spelling.get(t, t) for t in text]


def _records_json(poly, depth):
    """``to_records(poly)`` as ``json.dumps(..., sort_keys=True, indent=2)``
    writes it in a list that opens at nesting ``depth``, rendered straight
    from the term arrays."""
    if poly.nterms == 0:
        return "[]"
    k1, l1, k2, l2, bk, coeffs = poly.term_arrays(lexicographic=True)
    columns = {
        "k1": k1.tolist(),
        "l1": l1.tolist(),
        "k2": k2.tolist(),
        "l2": l2.tolist(),
        "re": _json_floats(coeffs.real),
        "im": _json_floats(coeffs.imag),
        "bk": bk.tolist(),
    }
    names = sorted(columns)  # the order sort_keys writes them in
    outer, inner = "  " * (depth + 1), "  " * (depth + 2)
    lines = ",\n".join(f'{inner}"{name}": %s' for name in names)
    record = f"{outer}{{\n{lines}\n{outer}}}"
    body = ",\n".join(record % row for row in zip(*(columns[n] for n in names)))
    return f"[\n{body}\n{'  ' * depth}]"


def _write_json(path: Path, payload: dict, config_hash: str):
    """Write ``payload`` under the schema header as ``json.dumps(...,
    sort_keys=True, indent=2)`` does. A polynomial in it, at any depth, is
    written as its :func:`to_records` list, rendered from its arrays."""
    polys = []

    def stub(value):
        if isinstance(value, CanonicalPolynomial):
            polys.append(value)
            return f"\0{len(polys) - 1}"
        if isinstance(value, list):
            return [stub(v) for v in value]
        if isinstance(value, dict):
            return {k: stub(v) for k, v in value.items()}
        return value

    body = stub({"schema": SCHEMA, "config_sha256": config_hash, **payload})
    text = json.dumps(body, sort_keys=True, indent=2)

    def splice(match):
        # the placeholder's nesting depth is its line's indent
        line = text[text.rfind("\n", 0, match.start()) + 1 : match.start()]
        depth = (len(line) - len(line.lstrip(" "))) // 2
        return _records_json(polys[int(match[1])], depth)

    if polys:
        text = _PLACEHOLDER.sub(splice, text)
    path.write_text(text + "\n")


def _write_csv(path: Path, columns, rows, config_hash: str):
    """Write a header and ``rows`` one at a time (``rows`` may be lazy).

    A row is a tuple of cells, or a string of already formatted lines,
    which is written unchanged.
    """
    with path.open("w") as fh:
        fh.write(f"# schema={SCHEMA} config_sha256={config_hash}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            if isinstance(row, str):
                fh.write(row)
                continue
            cells = (repr(float(v)) if isinstance(v, float) else str(v) for v in row)
            fh.write(",".join(cells) + "\n")


def _read_input(option, path):
    """The text of the file ``path`` given as ``option``; a file that cannot
    be read or decoded is a configuration error naming both and the error
    class."""
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(
            f"cannot read {option} {path}: {type(exc).__name__}: {exc}"
        ) from None


def _load_seeds(config: RunConfig):
    if config.seed_file is None:
        raise ConfigError("this subcommand needs --seed-file")
    seeds = []
    for line in _read_input("--seed-file", config.seed_file).splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.replace(",", " ").split()
        try:
            z, p_z = map(float, parts)
        except ValueError:
            raise ConfigError(f"seed line {line!r} is not 'z p_z'") from None
        seeds.append((z, p_z))
    return seeds


# -------------------------------------------------------------- construction


def _load_potential(config: RunConfig):
    if config.potential is None:
        return build_builtin_model()
    return parse_potential(_read_input("--potential", config.potential))


def _series_state(spec, r_max, r_trunc):
    """Nonresonant normalization capped to what the series readers use."""
    return normalize(
        complexify_nonresonant(spec),
        r_max=r_max,
        r_trunc=r_trunc,
        transverse_cap=SERIES_TRANSVERSE_CAP,
    )


def _locator(config: RunConfig, spec):
    """The nonresonant run that resonances are located on."""
    return _series_state(spec, config.locator_order, config.locator_order + 1)


def _prepare(config: RunConfig, spec):
    """Prepared Hamiltonian for the requested mode.

    The resonant mode chains a nonresonant locator run: normalize to
    ``locator_order``, solve the resonance condition on its series, and
    detune the quadratic at the resulting (I1*, omega1*, omega2*).
    """
    if config.mode == "nonres":
        return complexify_nonresonant(spec)
    resonance = bifurcation_energy(_locator(config, spec), config.m1, config.m2)
    return prepare_resonant(spec, resonance)


def _normal_form(config: RunConfig, prepared):
    """Uncapped normalization to ``--order``, truncated at ``--trunc``
    (default order + 1)."""
    return normalize(prepared, r_max=config.order, r_trunc=config.r_trunc)


# ---------------------------------------------------------------- subcommands


def cmd_normalize(config: RunConfig, out: Path, config_hash: str):
    spec = _load_potential(config)
    prepared = _prepare(config, spec)
    state = _normal_form(config, prepared)
    meta = {
        "mode": prepared.mode,
        "order": state.r,
        "trunc": state.r_trunc,
        "omega10": prepared.omega10,
    }
    if prepared.resonance is not None:
        meta["resonance"] = dataclasses.asdict(prepared.resonance)
    _write_json(out / "normalform.json", dict(meta, terms=state.normal_form), config_hash)
    _write_json(
        out / "generators.json", dict(meta, generators=state.generators), config_hash
    )
    _write_json(out / "remainder.json", dict(meta, terms=state.remainder), config_hash)


def cmd_section(config: RunConfig, out: Path, config_hash: str):
    spec = _load_potential(config)
    seeds = _load_seeds(config)
    if not seeds:
        print("seed file is empty; nothing to integrate", file=sys.stderr)
        return
    state = _normal_form(config, _prepare(config, spec))
    integral = back_transform(state)
    for E in config.energies:
        tag = f"E{E:g}"
        sect = poincare_section(
            seeds, E, config.n_crossings, tol=config.tol, potential=spec
        )
        _write_csv(
            out / f"numeric_{tag}.csv",
            ("seed_id", "z", "p_z", "t"),
            ((int(i), z, pz, t) for i, z, pz, t in sect.points),
            config_hash,
        )
        grid = GridSpec.from_energy(E, config.grid_n)
        levels = section_levels(integral, E, seeds, grid=grid, potential=spec)
        _write_csv(
            out / f"theoretical_{tag}_r{state.r}.csv",
            ("z", "p_z", "phi", "valid"),
            _field_rows(levels[0]),
            config_hash,
        )
        per_seed = []
        for level in levels:
            components = level_set_components(level)
            per_seed.append(
                {
                    "seed": list(level.seed),
                    "level": level.level,
                    "islands": sum(1 for c in components if not c.encircles_center),
                    "rings": sum(1 for c in components if c.encircles_center),
                }
            )
        _write_json(
            out / f"levels_{tag}.json",
            {"energy": E, "order": state.r, "levels": per_seed},
            config_hash,
        )


def _field_rows(field):
    """Yield the (z, p_z, phi, valid) lines of a section field, one text
    block per z value; each axis value is formatted once."""
    pz_cells = [f",{pz!r}," for pz in field.pz_axis.tolist()]
    flags = (",0\n", ",1\n")
    for z, values, valid in zip(field.z_axis.tolist(), field.values, field.valid):
        head = repr(z)
        yield "".join(
            [
                f"{head}{pz}{phi!r}{flags[ok]}"
                for pz, phi, ok in zip(pz_cells, values.tolist(), valid.tolist())
            ]
        )


def cmd_asymptotics(config: RunConfig, out: Path, config_hash: str):
    spec = _load_potential(config)
    prepared = _prepare(config, spec)
    profile = capture_remainder_profile(prepared, N=config.order_cap)
    grid = config.delta_e if config.delta_e is not None else DEFAULT_DELTA_E_GRID
    rows = []
    fits = {}
    for E in config.energies:
        table, fit = optimal_order_scan(
            profile, E, beta=config.beta, delta_E_grid=grid
        )
        rows.extend(
            (prepared.mode, E, config.beta, dE, r, N, value)
            for dE, r, N, value in table.rows
        )
        if fit is None:
            print(
                f"fewer than two delta-E values at or below {FIT_DELTA_E_MAX:g} "
                f"at E={E:g}: curve written, fits skipped",
                file=sys.stderr,
            )
            continue
        fits[f"{E:g}"] = {
            "alpha": fit.alpha,
            "alpha_rms": fit.alpha_rms,
            "d": fit.d,
            "d_rms": fit.d_rms,
            "delta_E_0": fit.delta_E_0,
            "fit_max": fit.fit_max,
            "r_opt": {f"{dE:.6e}": r for dE, r in sorted(fit.r_opt.items())},
            "optimal_norms": {
                f"{dE:.6e}": v for dE, v in sorted(fit.optimal_norms.items())
            },
        }
    _write_csv(
        out / "asymptotics.csv",
        ("mode", "E", "beta", "deltaE", "r", "N", "norm"),
        rows,
        config_hash,
    )
    if fits:
        payload = {"mode": prepared.mode, "fits": fits}
        if prepared.resonance is not None:
            payload["resonance"] = dataclasses.asdict(prepared.resonance)
        _write_json(out / "fits.json", payload, config_hash)


def cmd_bifurcation(config: RunConfig, out: Path, config_hash: str):
    spec = _load_potential(config)
    locator = _locator(config, spec)
    results = []
    # every pair scans the same energy grid, so each trace is computed once
    traces = {}
    for m1, m2 in config.pairs:
        resonance = bifurcation_energy(locator, m1, m2)
        entry = dict(dataclasses.asdict(resonance), order=locator.r)
        if config.numeric:
            entry["numeric_energy"] = numerical_bifurcation_energy(
                m1, m2, potential=spec, tol=config.tol, traces=traces
            )
        results.append(entry)
    _write_json(out / "bifurcations.json", {"bifurcations": results}, config_hash)


def cmd_chaos_threshold(config: RunConfig, out: Path, config_hash: str):
    spec = _load_potential(config)
    payload = {}
    reference = None
    if config.numeric:
        reference = numerical_bifurcation_energy(1, 1, potential=spec, tol=config.tol)
        payload["numeric_E_t"] = reference
    state = _series_state(spec, config.order_max, max(config.order_max, 1))
    table = chaos_threshold_convergence(
        state, range(config.order_min, config.order_max + 1), reference_energy=reference
    )
    payload["reference"] = reference
    payload["table"] = [
        {"r": r, "energy": energy, "error": error} for r, energy, error in table
    ]
    _write_json(out / "chaos_threshold.json", payload, config_hash)


_COMMANDS = {
    "normalize": cmd_normalize,
    "section": cmd_section,
    "asymptotics": cmd_asymptotics,
    "bifurcation": cmd_bifurcation,
    "chaos-threshold": cmd_chaos_threshold,
}


# --------------------------------------------------------------------- parser


def _add_common(sub):
    sub.add_argument("--out", help="output directory")
    sub.add_argument(
        "--potential",
        help="potential definition file (default: builtin magnetic bottle)",
    )


def _add_mode(sub):
    sub.add_argument("--mode", choices=("nonres", "res"), help="normal-form mode")
    sub.add_argument("--m1", type=int, help="resonance numerator")
    sub.add_argument("--m2", type=int, help="resonance denominator")
    sub.add_argument(
        "--locator-order",
        type=int,
        help="nonresonant order used to locate the resonance (res mode)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magbottle",
        description=__doc__.split("\n\n")[0],
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument(
        "--config",
        help="replay a persisted run_config.json (overrides the subcommand line)",
    )
    subs = parser.add_subparsers(dest="subcommand")

    p = subs.add_parser("normalize", help="build and serialize a normal form")
    _add_common(p)
    _add_mode(p)
    p.add_argument("--order", type=int, help="normalization order r")
    p.add_argument("--trunc", type=int, help="truncation order (default order+1)")

    p = subs.add_parser(
        "section", help="numeric crossings vs theoretical level sets"
    )
    _add_common(p)
    _add_mode(p)
    p.add_argument("--tol", type=float, help="integrator tolerance")
    p.add_argument(
        "--seed-file",
        help="text file of 'z p_z' section seeds, one per line, # comments",
    )
    p.add_argument("--order", type=int, help="normalization order r")
    p.add_argument("--trunc", type=int)
    p.add_argument(
        "--energy",
        type=float,
        action="append",
        dest="energies",
        help="section energy (repeatable; default 0.1)",
    )
    p.add_argument("--n-crossings", type=int)
    p.add_argument("--grid-n", type=int, help="level-set grid resolution")

    p = subs.add_parser("asymptotics", help="remainder-norm scan and fits")
    _add_common(p)
    _add_mode(p)
    p.add_argument("--order-cap", type=int, help="truncation cap N of the scan")
    p.add_argument(
        "--energy",
        type=float,
        action="append",
        dest="energies",
        help="scan energy (repeatable; default 0.2)",
    )
    p.add_argument("--beta", type=float, help="magnetic moment parameter")
    p.add_argument(
        "--delta-e",
        type=float,
        action="append",
        dest="delta_e",
        help="delta-E value (repeatable; default log grid 1e-5..1e-1)",
    )

    p = subs.add_parser(
        "bifurcation", help="equatorial resonance energies, series and numeric"
    )
    _add_common(p)
    p.add_argument("--tol", type=float, help="monodromy bisection tolerance")
    p.add_argument(
        "--pair",
        action="append",
        dest="pairs",
        help="resonance m1:m2 (repeatable; default 3:1 and 2:1)",
    )
    p.add_argument("--locator-order", type=int, help="series order for the solve")
    p.add_argument(
        "--no-numeric",
        action="store_false",
        dest="numeric",
        help="skip the monodromy-based numerical counterpart",
    )

    p = subs.add_parser(
        "chaos-threshold", help="1:1 transition energy, numeric and per order"
    )
    _add_common(p)
    p.add_argument("--tol", type=float, help="monodromy bisection tolerance")
    p.add_argument("--order-min", type=int)
    p.add_argument("--order-max", type=int)
    p.add_argument(
        "--no-numeric",
        action="store_false",
        dest="numeric",
        help="skip the monodromy bisection",
    )

    return parser


def _parse_pairs(raw):
    pairs = []
    for item in raw:
        parts = item.split(":")
        if len(parts) != 2:
            raise ConfigError(f"--pair wants m1:m2, got {item!r}")
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ConfigError(f"--pair wants integers, got {item!r}") from None
    return tuple(pairs)


def _config_from_args(args) -> RunConfig:
    if args.subcommand is None:
        raise ConfigError("no subcommand given (see --help)")
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    values = {"subcommand": args.subcommand}
    for key, value in vars(args).items():
        if key not in fields or value is None:
            continue
        values[key] = value
    if "pairs" in values:
        values["pairs"] = _parse_pairs(values["pairs"])
    if "energies" in values:
        values["energies"] = tuple(values["energies"])
    elif args.subcommand == "section":
        values["energies"] = (0.1,)
    if values.get("delta_e") is not None:
        values["delta_e"] = tuple(values["delta_e"])
    return RunConfig(**values)


def _is_int(value):
    # bool is an int to isinstance, and only a bool field takes one
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value):
    return _is_int(value) or isinstance(value, float)


#: the JSON values a config file may hold for a field of each type, and for
#: each item of each tuple field
_JSON_CHECKS = {
    "str": lambda v: isinstance(v, str),
    "int": _is_int,
    "float": _is_number,
    "bool": lambda v: isinstance(v, bool),
    "energies": _is_number,
    "delta_e": _is_number,
    "pairs": lambda v: isinstance(v, list) and len(v) == 2 and all(map(_is_int, v)),
}


def _json_fits(key, value, kind):
    """Whether a config file's ``value`` fits field ``key`` of type ``kind``."""
    if value is None:
        return kind.endswith(" | None")
    if kind.startswith("tuple"):
        return isinstance(value, list) and all(map(_JSON_CHECKS[key], value))
    return _JSON_CHECKS[kind.removesuffix(" | None")](value)


def _config_from_file(path: str) -> RunConfig:
    text = _read_input("--config", path)
    try:
        raw = json.loads(text)
    except ValueError as exc:
        raise ConfigError(f"{path} is not JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path} holds a JSON {type(raw).__name__}, not an object")
    kinds = {f.name: f.type for f in dataclasses.fields(RunConfig)}
    unknown = set(raw) - set(kinds)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "subcommand" not in raw:
        raise ConfigError("config key 'subcommand' is missing")
    for key, value in raw.items():
        if not _json_fits(key, value, kinds[key]):
            raise ConfigError(
                f"config key {key!r} holds {json.dumps(value)}, not a {kinds[key]}"
            )
        if isinstance(value, list):
            raw[key] = tuple(tuple(v) if isinstance(v, list) else v for v in value)
    return RunConfig(**raw)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config is not None:
            config = _config_from_file(args.config)
        else:
            config = _config_from_args(args)
        config.validate()
    except _CONFIG_ERRORS + (ConfigError,) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    out = Path(config.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        (out / "run_config.json").write_text(config.canonical_json())
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            _COMMANDS[config.subcommand](config, out, config.sha256())
    except _CONFIG_ERRORS + (ConfigError,) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # computation failure: name the error for scripts
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
