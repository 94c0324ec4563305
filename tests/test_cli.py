"""End-to-end tests of the batch command-line interface."""

import argparse
import dataclasses
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from magbottle import cli, polyalg
from magbottle.cli import (
    SCHEMA,
    RunConfig,
    _config_from_args,
    _field_rows,
    _records_json,
    _write_csv,
    _write_json,
    build_parser,
)
from magbottle.invariants import SectionLevelSet
from magbottle.polyalg import CanonicalPolynomial, to_records

from oracles import per_cell_field_lines

CLI = (sys.executable, "-m", "magbottle.cli")


def run_cli(*args, check=True):
    proc = subprocess.run(
        [*CLI, *(str(a) for a in args)], capture_output=True, text=True
    )
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


def test_normalize_order0_emits_quadratic_only(tmp_path):
    out = tmp_path / "run"
    run_cli("normalize", "--order", 0, "--out", out)
    payload = json.loads((out / "normalform.json").read_text())
    assert payload["order"] == 0
    assert sorted(
        (t["k1"], t["l1"], t["k2"], t["l2"]) for t in payload["terms"]
    ) == [(0, 0, 0, 2), (1, 1, 0, 0)]
    assert json.loads((out / "generators.json").read_text())["generators"] == []


def test_normalize_writes_consistent_artifacts(tmp_path):
    out = tmp_path / "run"
    run_cli("normalize", "--order", 3, "--out", out)
    config_bytes = (out / "run_config.json").read_bytes()
    want_hash = hashlib.sha256(config_bytes).hexdigest()
    for name in ("normalform.json", "generators.json", "remainder.json"):
        payload = json.loads((out / name).read_text())
        assert payload["schema"] == "magbottle/1"
        assert payload["config_sha256"] == want_hash
    nf = json.loads((out / "normalform.json").read_text())
    assert all(rec["bk"] <= 3 for rec in nf["terms"])
    rem = json.loads((out / "remainder.json").read_text())
    assert all(rec["bk"] == 4 for rec in rem["terms"])
    assert len(json.loads((out / "generators.json").read_text())["generators"]) == 3


def test_section_replay_is_byte_identical(tmp_path):
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("0.0 0.05\n0.1, 0.0  # comma and comment both fine\n")
    out = tmp_path / "run"
    run_cli(
        "section", "--order", 2, "--energy", 0.1, "--n-crossings", 3,
        "--grid-n", 41, "--seed-file", seeds, "--out", out,
    )
    files = sorted(p.name for p in out.iterdir())
    assert files == [
        "levels_E0.1.json",
        "numeric_E0.1.csv",
        "run_config.json",
        "theoretical_E0.1_r2.csv",
    ]
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    run_cli("--config", out / "run_config.json")
    after = {p.name: p.read_bytes() for p in out.iterdir()}
    assert before == after


def test_cli_runs_without_scipy(tmp_path):
    # scipy serves the test oracles only: a section (its level-set flood
    # fill), a bifurcation with the numeric scan and a resonant asymptotics
    # run (the two Brent roots) import none of it, eagerly or lazily
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("0.0 0.05\n")
    jobs = [
        ["section", "--order", "2", "--energy", "0.1", "--n-crossings", "3",
         "--grid-n", "41", "--seed-file", str(seeds)],
        ["bifurcation", "--pair", "2:1", "--locator-order", "6"],
        ["asymptotics", "--mode", "res", "--order-cap", "6", "--locator-order", "6",
         "--delta-e", "1e-4", "--delta-e", "1e-3"],
    ]
    argvs = [job + ["--out", str(tmp_path / job[0])] for job in jobs]
    code = (
        "import json, sys\n"
        "import magbottle.cli as cli\n"
        "codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(json.dumps([codes, loaded]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(argvs)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0, 0, 0]
    assert loaded == []


def test_normalize_replay_is_byte_identical(tmp_path):
    out = tmp_path / "run"
    run_cli(
        "normalize", "--mode", "res", "--m1", 2, "--m2", 1, "--order", 3,
        "--trunc", 5, "--out", out,
    )
    names = ["generators.json", "normalform.json", "remainder.json"]
    assert sorted(p.name for p in out.iterdir()) == [*names, "run_config.json"]
    before = {name: (out / name).read_bytes() for name in names}
    run_cli("--config", out / "run_config.json")
    assert {name: (out / name).read_bytes() for name in names} == before


def _awkward_poly():
    """Terms with -0.0, subnormal, 1e17-scale and non-finite coefficients,
    stored out of their record order."""
    terms = {
        (0, 0, 0, 2, 0): complex(-0.0, 5e-324),
        (1, 1, 0, 0, 0): complex(1.2345678901234567e17, -3e-17),
        (3, 1, 0, 2, 1): complex(float("nan"), 0.0),
        (1, 0, 4, 0, 2): complex(float("inf"), float("-inf")),
        (0, 2, 1, 1, 2): complex(1 / 3, -0.0),
        (2, 0, 0, 0, 1): complex(-1e-300, 7.0),
    }
    keys = [polyalg._pack(*key) for key in terms]
    order = np.argsort(keys)
    coeffs = np.array(list(terms.values()))
    return CanonicalPolynomial(
        np.array(keys)[order], coeffs[order], trunc_order=2, _canonical=True
    )


@pytest.mark.parametrize("empty", [False, True])
def test_records_json_equals_json_dumps_at_depths_1_and_2(empty):
    poly = CanonicalPolynomial.zero(2) if empty else _awkward_poly()
    records = to_records(poly)
    terms = json.dumps({"terms": records}, sort_keys=True, indent=2)
    assert terms == '{\n  "terms": ' + _records_json(poly, 1) + "\n}"
    generators = json.dumps({"generators": [records]}, sort_keys=True, indent=2)
    assert generators == (
        '{\n  "generators": [\n    ' + _records_json(poly, 2) + "\n  ]\n}"
    )


def test_write_json_splices_records_into_the_payload(tmp_path):
    poly, zero = _awkward_poly(), CanonicalPolynomial.zero(2)
    payload = {"order": 2, "terms": poly, "generators": [poly, zero, poly]}
    _write_json(tmp_path / "out.json", payload, "abc")
    want = {
        "schema": SCHEMA,
        "config_sha256": "abc",
        "order": 2,
        "terms": to_records(poly),
        "generators": [to_records(p) for p in (poly, zero, poly)],
    }
    text = (tmp_path / "out.json").read_text()
    assert text == json.dumps(want, sort_keys=True, indent=2) + "\n"


def test_field_rows_match_per_cell_formatting(tmp_path):
    # each axis value is formatted once and each z row written as one
    # block; the bytes equal a per-cell repr of every value
    z_axis = np.array([-0.5, -0.0, 1.0 / 3.0, 2.5e-7])
    pz_axis = np.array([0.1, -1e16, 0.0, 123.456, 5e-324])
    values = np.array(
        [
            [1.0, -0.0, np.nan, 0.1 + 0.2, -1e300],
            [np.nan, np.nan, 2.0 / 3.0, 0.0, -7.25e-17],
            [-0.0, 1e16, 3.0, np.nan, 1.5],
            [4.0, -4.0, 0.0, -0.0, np.nan],
        ]
    )
    valid = ~np.isnan(values)
    valid[0, 2] = True  # a NaN inside the accessible region keeps its flag
    field = SectionLevelSet(
        energy=0.1,
        seed=(0.0, 0.0),
        level=0.0,
        z_axis=z_axis,
        pz_axis=pz_axis,
        values=values,
        valid=valid,
    )
    path = tmp_path / "field.csv"
    _write_csv(path, ("z", "p_z", "phi", "valid"), _field_rows(field), "abc")
    want = (
        f"# schema={SCHEMA} config_sha256=abc\nz,p_z,phi,valid\n"
        + per_cell_field_lines(field)
    )
    assert path.read_bytes() == want.encode()
    for cell in ("\n-0.0,", ",-0.0,1\n", ",nan,0\n", ",nan,1\n"):
        assert cell in want


def test_section_empty_seed_file_warns_and_exits_zero(tmp_path):
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("# nothing here\n")
    out = tmp_path / "run"
    proc = run_cli("section", "--seed-file", seeds, "--out", out)
    assert "empty" in proc.stderr
    assert not list(out.glob("*.csv"))


def test_missing_seed_file_is_config_error(tmp_path):
    proc = run_cli(
        "section", "--seed-file", tmp_path / "absent.txt",
        "--out", tmp_path / "run", check=False,
    )
    assert proc.returncode == 2
    assert "FileNotFoundError" in proc.stderr


@pytest.mark.parametrize(
    "argv, option",
    [
        (["section", "--seed-file"], "--seed-file"),
        (["normalize", "--potential"], "--potential"),
        (["--config"], "--config"),
    ],
    ids=["seed-file", "potential", "config"],
)
@pytest.mark.parametrize("error", ["IsADirectoryError", "UnicodeDecodeError"])
def test_unreadable_input_file_is_config_error(
    tmp_path, monkeypatch, capsys, argv, option, error
):
    # a directory given as --seed-file or --potential raised
    # IsADirectoryError, and a file that is not UTF-8 UnicodeDecodeError
    # (exit 3; from --config it read as "not JSON"); the run writes under
    # tmp_path
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "inputs"
    if error == "IsADirectoryError":
        path.mkdir()
    else:
        path.write_bytes(b"\xff 0.1 0.0\n")
    assert cli.main(argv + [str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"ConfigError: cannot read {option} {path}: {error}")


def test_oversized_potential_exponent_is_config_error(tmp_path):
    potential = tmp_path / "potential.txt"
    potential.write_text("0.5*rho^2 + 0.1*(rho^2)^70\n")
    proc = run_cli(
        "normalize", "--potential", potential, "--out", tmp_path / "run",
        check=False,
    )
    assert proc.returncode == 2
    assert "UnsupportedPotentialError" in proc.stderr


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(["asymptotics", "--order-cap", "1"], "--order-cap must be >= 2",
                     id="order-cap"),
        # --tol 0 divided by zero, a negative --tol ran as its absolute
        # value, and a zero pair index found no root (all exit 3)
        pytest.param(["section", "--tol", "0"], "--tol must be positive", id="tol-0"),
        pytest.param(["section", "--tol=-1e-11"], "--tol must be positive",
                     id="tol-negative"),
        pytest.param(["bifurcation", "--pair", "0:1"], "--pair 0:1 needs m1 >= 1",
                     id="pair-0:1"),
        pytest.param(["bifurcation", "--pair", "3:0"], "--pair 3:0 needs m1 >= 1",
                     id="pair-3:0"),
        # a NaN passed every comparison and an infinity every bound: the
        # norm raised RangeError (exit 3), a NaN beta or an infinite energy
        # wrote NaN or overflowed results (exit 0), and an infinite --tol
        # made the integrator's error norm non-finite (exit 3)
        pytest.param(["asymptotics", "--energy", "nan"],
                     "--energy must be positive and finite", id="energy-nan"),
        pytest.param(["asymptotics", "--energy", "inf"],
                     "--energy must be positive and finite", id="energy-inf"),
        pytest.param(["asymptotics", "--delta-e", "nan"],
                     "--delta-e must be positive and finite", id="delta-e-nan"),
        pytest.param(["asymptotics", "--beta", "nan"], "--beta must be finite",
                     id="beta-nan"),
        pytest.param(["asymptotics", "--beta=-inf"], "--beta must be finite",
                     id="beta-inf"),
        pytest.param(["section", "--tol", "inf"], "--tol must be positive and finite",
                     id="tol-inf"),
        # normalize raised ValueError on the negative order (exit 3)
        pytest.param(["normalize", "--mode", "res", "--locator-order", "-1"],
                     "--locator-order must be >= 0", id="locator-order-negative"),
    ],
)
def test_invalid_option_value_is_config_error(tmp_path, capsys, argv, message):
    out = tmp_path / "run"
    assert cli.main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ConfigError") and message in err
    assert not out.exists()


def test_negative_crossing_count_is_config_error(tmp_path):
    proc = run_cli(
        "section", "--n-crossings", -1, "--out", tmp_path / "run", check=False
    )
    assert proc.returncode == 2
    assert "--n-crossings must be >= 0" in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["normalize", "--order", "126"],
        ["normalize", "--order", "5", "--trunc", "127"],
        ["bifurcation", "--locator-order", "126"],
        ["asymptotics", "--order-cap", "127"],
        ["chaos-threshold", "--order-max", "127"],
    ],
)
def test_truncation_past_the_packing_is_config_error(tmp_path, capsys, argv):
    # each request needs truncation order 127, whose terms of degree 256
    # the polynomial packing cannot hold
    out = tmp_path / "run"
    assert cli.main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "ConfigError" in err and "127" in err
    assert not out.exists()
    # one order less fits
    config = _config_from_args(build_parser().parse_args(argv))
    field, value = {
        "--order": ("order", 125), "--trunc": ("trunc", 126),
        "--locator-order": ("locator_order", 125),
        "--order-cap": ("order_cap", 126), "--order-max": ("order_max", 126),
    }[argv[-2]]
    dataclasses.replace(config, **{field: value}).validate()


def test_computation_failure_names_error(tmp_path):
    # delta_E above the scan energy violates the norm's domain
    proc = run_cli(
        "asymptotics", "--order-cap", 6, "--delta-e", 0.3,
        "--out", tmp_path / "run", check=False,
    )
    assert proc.returncode == 3
    assert "RangeError" in proc.stderr


def test_asymptotics_single_delta_e_skips_fits(tmp_path):
    out = tmp_path / "run"
    proc = run_cli(
        "asymptotics", "--order-cap", 6, "--delta-e", 1e-3, "--out", out
    )
    assert "fits skipped" in proc.stderr
    assert not (out / "fits.json").exists()
    rows = (out / "asymptotics.csv").read_text().splitlines()
    assert rows[1] == "mode,E,beta,deltaE,r,N,norm"
    assert len(rows) == 2 + 5  # header lines plus orders 1..5


def test_asymptotics_without_fit_points_skips_fits(tmp_path):
    # both delta-E values lie above the fit window: no fit, curve written
    out = tmp_path / "run"
    proc = run_cli(
        "asymptotics", "--order-cap", 6, "--delta-e", 0.01, "--delta-e", 0.1,
        "--out", out,
    )
    assert "fits skipped" in proc.stderr
    assert "DegenerateFitWarning" in proc.stderr
    assert not (out / "fits.json").exists()
    rows = (out / "asymptotics.csv").read_text().splitlines()
    assert len(rows) == 2 + 2 * 5  # header lines plus orders 1..5 per delta-E


def test_asymptotics_grid_writes_fits(tmp_path):
    out = tmp_path / "run"
    run_cli(
        "asymptotics", "--order-cap", 8,
        "--delta-e", 1e-4, "--delta-e", 1e-3, "--delta-e", 1e-2, "--out", out,
    )
    fits = json.loads((out / "fits.json").read_text())
    entry = fits["fits"]["0.2"]
    assert set(entry["r_opt"]) == set(entry["optimal_norms"])
    assert len(entry["r_opt"]) == 3
    # a 2-point fit on a truncated capture is structural, not meaningful
    assert all(
        isinstance(entry[key], float) for key in ("alpha", "alpha_rms", "d", "d_rms")
    )


def test_bifurcation_locates_2to1(tmp_path):
    out = tmp_path / "run"
    run_cli(
        "bifurcation", "--pair", "2:1", "--no-numeric",
        "--locator-order", 6, "--out", out,
    )
    payload = json.loads((out / "bifurcations.json").read_text())
    (entry,) = payload["bifurcations"]
    assert entry["m1"] == 2 and entry["m2"] == 1
    assert abs(entry["energy"] - 0.188) < 5e-3
    assert "numeric_energy" not in entry


def test_bifurcation_pairs_share_the_monodromy_scan(tmp_path, monkeypatch):
    # both pairs scan one energy grid; each energy is integrated once per
    # command, and the energies are the ones each pair finds on its own
    from magbottle import dynamics

    energies = []
    monodromy = dynamics.central_orbit_monodromy

    def counted(E, *args, **kwargs):
        energies.append(E)
        return monodromy(E, *args, **kwargs)

    monkeypatch.setattr(dynamics, "central_orbit_monodromy", counted)
    out = tmp_path / "run"
    argv = ["bifurcation", "--pair", "3:1", "--pair", "2:1", "--out", str(out)]
    assert cli.main(argv) == 0
    shared = list(energies)
    energies.clear()
    payload = json.loads((out / "bifurcations.json").read_text())
    for entry in payload["bifurcations"]:
        alone = dynamics.numerical_bifurcation_energy(entry["m1"], entry["m2"])
        assert entry["numeric_energy"] == alone
    # the separate scans repeat grid energies; the shared one does not
    assert len(energies) > len(shared) == len(set(shared))
    assert set(shared) == set(energies)


def test_bifurcation_rejects_malformed_pair(tmp_path):
    proc = run_cli(
        "bifurcation", "--pair", "2-1", "--out", tmp_path / "run", check=False
    )
    assert proc.returncode == 2
    assert "ConfigError" in proc.stderr


def test_chaos_threshold_table(tmp_path):
    out = tmp_path / "run"
    run_cli(
        "chaos-threshold", "--order-min", 2, "--order-max", 3,
        "--no-numeric", "--out", out,
    )
    payload = json.loads((out / "chaos_threshold.json").read_text())
    assert payload["reference"] is None
    assert [row["r"] for row in payload["table"]] == [2, 3]
    energies = [row["energy"] for row in payload["table"]]
    assert energies[0] > energies[1] > 0.3


@pytest.mark.parametrize(
    "subcommand",
    ["normalize", "section", "asymptotics", "bifurcation", "chaos-threshold"],
)
def test_bare_command_line_takes_the_run_config_defaults(subcommand):
    config = _config_from_args(build_parser().parse_args([subcommand]))
    want = RunConfig(subcommand=subcommand)
    if subcommand == "section":
        want = dataclasses.replace(want, energies=(0.1,))
    assert config == want


def test_each_subcommand_accepts_only_the_options_it_reads():
    # --seed-file is read by section alone, and --tol by section, bifurcation
    # and chaos-threshold
    common = {"-h", "--help", "--out", "--potential"}
    mode = {"--mode", "--m1", "--m2", "--locator-order"}
    want = {
        "normalize": common | mode | {"--order", "--trunc"},
        "section": common | mode | {"--seed-file", "--tol", "--order", "--trunc",
                                    "--energy", "--n-crossings", "--grid-n"},
        "asymptotics": common | mode | {"--order-cap", "--energy", "--beta",
                                        "--delta-e"},
        "bifurcation": common | {"--tol", "--pair", "--locator-order",
                                 "--no-numeric"},
        "chaos-threshold": common | {"--tol", "--order-min", "--order-max",
                                     "--no-numeric"},
    }
    (subparsers,) = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    got = {
        name: {s for action in sub._actions for s in action.option_strings}
        for name, sub in subparsers.choices.items()
    }
    assert got == want


def test_config_with_an_unknown_key_is_refused(tmp_path, capsys):
    # threads was recorded by earlier versions and is no longer a field
    raw = json.loads(RunConfig("normalize", out=str(tmp_path / "run")).canonical_json())
    raw["threads"] = 1
    path = tmp_path / "run_config.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "ConfigError" in err and "threads" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["bifurcation", "--pair", "2:1", "--locator-order", "4"],
        ["chaos-threshold", "--order-min", "2", "--order-max", "2"],
    ],
)
def test_tol_reaches_the_monodromy_bisection(tmp_path, monkeypatch, argv):
    seen = []

    def bisection(m1, m2, potential=None, tol=None, traces=None):
        seen.append(tol)
        return 0.3

    monkeypatch.setattr(cli, "numerical_bifurcation_energy", bisection)
    assert cli.main(argv + ["--tol", "1e-9", "--out", str(tmp_path / "run")]) == 0
    assert seen == [1e-9]


def test_non_numeric_seed_line_is_config_error(tmp_path, capsys):
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("0.0 0.05\na b\n")
    argv = ["section", "--seed-file", str(seeds), "--out", str(tmp_path / "run")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("ConfigError") and "'a b'" in err


@pytest.mark.parametrize(
    "text, message",
    [
        (None, "cannot read"),
        ("{not json", "is not JSON"),
        ('["normalize"]', "holds a JSON list, not an object"),
        ('{"order": 5}', "'subcommand' is missing"),
        ('{"subcommand": "normalise"}', "unknown subcommand 'normalise'"),
        ('{"subcommand": "normalize", "order": "5"}', "'order' holds \"5\""),
        ('{"subcommand": "normalize", "order": 5.0}', "'order' holds 5.0"),
        ('{"subcommand": "normalize", "mode": null}', "'mode' holds null"),
        ('{"subcommand": "section", "numeric": 1}', "'numeric' holds 1"),
        ('{"subcommand": "section", "tol": true}', "'tol' holds true"),
        ('{"subcommand": "section", "energies": 0.1}', "'energies' holds 0.1"),
        ('{"subcommand": "section", "energies": ["0.1"]}', "'energies' holds"),
        ('{"subcommand": "bifurcation", "pairs": [[2, 1, 1]]}', "'pairs' holds"),
    ],
    ids=["directory", "not-json", "list", "no-subcommand", "unknown-subcommand",
         "order-str", "order-float", "mode-null", "numeric-int", "tol-bool",
         "energies-scalar", "energies-str", "pairs-triple"],
)
def test_malformed_config_file_is_config_error(tmp_path, capsys, text, message):
    path = tmp_path / "run_config.json"
    if text is None:
        path.mkdir()
    else:
        path.write_text(text)
    assert cli.main(["--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ConfigError") and message in err


def test_config_file_with_null_and_integer_values_loads(tmp_path):
    # None is valid for the optional fields, and a whole number for a float
    config = RunConfig("asymptotics", delta_e=(1e-3,), beta=0.5)
    raw = dict(json.loads(config.canonical_json()), potential=None, beta=1)
    path = tmp_path / "run_config.json"
    path.write_text(json.dumps(raw))
    assert cli._config_from_file(str(path)) == dataclasses.replace(config, beta=1)


RESONANCE_KEYS = {"m1", "m2", "I1_star", "omega1", "omega2", "energy"}


def test_resonance_block_keeps_its_keys(tmp_path):
    # the artifacts write a resonance as the dataclass's fields: a field
    # added to it would change every resonant artifact
    common = ["--mode", "res", "--locator-order", "6"]
    jobs = {
        "normalize": ["normalize", *common, "--order", "2"],
        "asymptotics": ["asymptotics", *common, "--order-cap", "6",
                        "--delta-e", "5e-4", "--delta-e", "1e-3"],
        "bifurcation": ["bifurcation", "--pair", "2:1", "--no-numeric",
                        "--locator-order", "6"],
    }
    for name, argv in jobs.items():
        assert cli.main(argv + ["--out", str(tmp_path / name)]) == 0

    def read(name, artifact):
        return json.loads((tmp_path / name / artifact).read_text())

    (entry,) = read("bifurcation", "bifurcations.json")["bifurcations"]
    blocks = [
        read("normalize", "normalform.json")["resonance"],
        read("asymptotics", "fits.json")["resonance"],
        {k: v for k, v in entry.items() if k != "order"},
    ]
    for block in blocks:
        assert set(block) == RESONANCE_KEYS
    assert blocks[0] == blocks[1]
