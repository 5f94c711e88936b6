"""End-to-end CLI behavior: outputs, exit codes, reproducibility."""

import csv
import hashlib
import json
import math
import os
import platform
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from annulus_harmonics import cli, extremal_map, reports, save_series
from annulus_harmonics.cli import EXIT_USAGE, main
from annulus_harmonics.series import (
    MAX_JSON_ORDER,
    SERIES_PER_CHUNK,
    HarmonicSeries,
    from_json_dict,
)
from test_batched import spoil_operator


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def test_bounds_single_radius(capsys):
    code, out = run(capsys, "bounds", "--R", "2.0")
    assert code == 0
    payload = json.loads(out)
    row = payload["rows"][0]
    assert row["nitsche"] == 1.25
    assert row["cosh_modulus"] == pytest.approx(1.25, abs=1e-15)
    assert row["modulus"] == pytest.approx(math.log(2.0))
    assert payload["manifest"]["command"] == "bounds"


@pytest.mark.parametrize("R", ["1e200", "1e308"])
def test_bounds_at_huge_radius_gives_weitsman_one(capsys, R):
    code, out = run(capsys, "bounds", "--R", R)
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["weitsman"] == 1.0
    assert row["nitsche"] == 0.5 * float(R)


def test_bounds_csv_matches_json(capsys):
    code_j, out_j = run(capsys, "bounds", "--R", "3.0")
    code_c, out_c = run(capsys, "bounds", "--R", "3.0", "--format", "csv")
    assert code_j == code_c == 0
    row = json.loads(out_j)["rows"][0]
    lines = [l for l in out_c.splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    values = [float(v) for v in lines[1].split(",")]
    for key, val in zip(header, values):
        assert val == row[key]  # bit-identical through repr round-trip


def test_bounds_sweep(capsys):
    code, out = run(capsys, "bounds", "--R-min", "2.0", "--R-max", "4.0",
                    "--steps", "3")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["R"] for r in rows] == [2.0, 3.0, 4.0]


def test_bounds_single_step_sweep_equals_single(capsys):
    _, out_sweep = run(capsys, "bounds", "--R-min", "2.0", "--R-max", "9.0",
                       "--steps", "1")
    _, out_single = run(capsys, "bounds", "--R", "2.0")
    assert json.loads(out_sweep)["rows"] == json.loads(out_single)["rows"]


def test_bounds_usage_errors(capsys):
    assert run(capsys, "bounds", "--R", "0.5")[0] == 1
    assert run(capsys, "bounds")[0] == 1


def fresh_env(**extra) -> dict:
    """The environment of a fresh interpreter that imports this package."""
    import annulus_harmonics

    src = os.path.dirname(os.path.dirname(annulus_harmonics.__file__))
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def loaded_after(argv, *modules) -> list:
    """Those of `modules` that are loaded after cli.main(argv) exits 0, in
    a fresh interpreter, since this one has loaded them already."""
    code = ("import contextlib, io, json, sys\n"
            "import annulus_harmonics\n"
            "from annulus_harmonics import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main({list(argv)!r}) == 0\n"
            f"print(json.dumps([m for m in {list(modules)!r} if m in sys.modules]))\n")
    done = subprocess.run([sys.executable, "-c", code], env=fresh_env(), capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_bounds_leaves_numpy_random_unloaded():
    """Commands that draw nothing do not pay for importing numpy.random: the
    stream kernel loads it on first use.  Nor for hashlib, which numpy.random
    loads, and reports.digest on first use."""
    assert loaded_after(["bounds", "--R", "2"], "numpy.random", "hashlib") == []


def test_verify_leaves_numpy_ma_unloaded():
    """verify does not pay for importing numpy.ma, which np.unique loads on
    its first call (numpy 2.4): the stack paths group by sorted(set())."""
    assert loaded_after(["verify", "all", "--trials", "100"], "numpy.ma") == []


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

def test_sample_deterministic(tmp_path, capsys):
    out1 = tmp_path / "s1.json"
    out2 = tmp_path / "s2.json"
    assert run(capsys, "sample", "--seed", "42", "--N", "5", "--out", str(out1))[0] == 0
    assert run(capsys, "sample", "--seed", "42", "--N", "5", "--out", str(out2))[0] == 0
    assert out1.read_bytes() == out2.read_bytes()
    data = json.loads(out1.read_text())
    assert data["N"] == 5


def test_sample_order_over_the_bound_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "s.json"
    err = rejected(capsys, "sample", "--seed", "0", "--N",
                   str(MAX_JSON_ORDER + 1), "--out", str(out))
    assert str(MAX_JSON_ORDER) in err
    assert not out.exists()


# Bytes written by `sample` before the sampler drew its uniforms in one
# call; the stream and the JSON text must not change.  An empty N or decay
# leaves its flag out: the defaults are SamplerConfig's N = 8 and
# decay = 0.6, which the CLI once spelled out itself.
SAMPLE_SHA256 = {
    ("7", "", ""): "2c76be8626a6d9acf22dd275cab77b4e715e827e9dceecbd4e02f792b4aea66e",
    ("0", "8", "0.6"): "6daf118af7d1780ae57cc9e82171c084535608a2515fceab43c1f1984f849235",
    ("7", "1", "0.6"): "0471b9dd1f32b467219cc741d8eb5611c87f380f44a35857ed5be0f9790ff0e0",
    ("42", "12", "0.6"): "5db350a58a758cef8f00980ab4b7d9d031bcfb54c1ad383c27b11a1a079c1401",
    ("123", "40", "0.6"): "cc1f93fdb00052b4c22f7d3962de1242b3eef4f00812daf9d79723ab89e2f054",
    ("5", "3", "0.25"): "9015d32956a20c56775d5561cc50f7938f94662c1189394d3db00abc6db8f345",
}


@pytest.mark.parametrize("seed,N,decay", sorted(SAMPLE_SHA256))
def test_sample_bytes_are_pinned(tmp_path, capsys, seed, N, decay):
    out = tmp_path / "s.json"
    options = [arg for flag, value in (("--N", N), ("--decay", decay)) if value
               for arg in (flag, value)]
    assert run(capsys, "sample", "--seed", seed, *options, "--out", str(out))[0] == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == SAMPLE_SHA256[(seed, N, decay)]


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def test_check_critical_configuration(tmp_path, capsys):
    path = tmp_path / "critical.json"
    save_series(extremal_map(1.0), path)
    code, out = run(capsys, "check", "--series", str(path), "--R", "2.0")
    assert code == 0
    report = json.loads(out)["report"]
    assert report["verdict"] == "pass"
    assert abs(report["margin"]) < 1e-12


def test_check_failing_series(tmp_path, capsys):
    path = tmp_path / "inverse.json"
    save_series(HarmonicSeries.from_coeffs(a={-1: 1.0}), path)
    code, out = run(capsys, "check", "--series", str(path), "--R", "2.0")
    assert code == 2
    assert json.loads(out)["report"]["verdict"] == "fail"


def test_check_not_applicable(tmp_path, capsys):
    path = tmp_path / "na.json"
    save_series(HarmonicSeries.from_coeffs(a={1: 1.0}, a0=0.3, b0=0.2), path)
    code, out = run(capsys, "check", "--series", str(path), "--R", "5.0")
    assert code == 3
    assert json.loads(out)["report"]["verdict"] == "not-applicable"


@pytest.mark.parametrize("N", [1, 4096])
def test_check_the_identity_saved_with_padding(tmp_path, capsys, N):
    """The identity saved at N = 4096 passes as at N = 1: its 4095 modes of
    zero weight add 0 to U(R), not 0 times an overflowed R^(2k)."""
    path = tmp_path / "identity.json"
    save_series(HarmonicSeries.from_coeffs(N=N, a={1: 1.0}), path)
    code, out = run(capsys, "check", "--series", str(path), "--R", "1.1")
    assert code == 0
    assert json.loads(out)["report"]["verdict"] == "pass"


def test_evolve_series_of_negative_speed_is_not_applicable(tmp_path, capsys):
    """z^-1 has U = rho^-2 and initial speed -1: no speed bound applies."""
    path = tmp_path / "inverse.json"
    save_series(HarmonicSeries.from_coeffs(a={-1: 1.0}), path)
    code = main(["evolve", "--series", str(path), "--R", "2.0"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == "not applicable: negative initial speed\n"


def test_check_missing_file(tmp_path, capsys):
    code, _ = run(capsys, "check", "--series", str(tmp_path / "nope.json"),
                  "--R", "2.0")
    assert code == 1


# ---------------------------------------------------------------------------
# malformed input: a typed error and exit 1, never a traceback
# ---------------------------------------------------------------------------

def rejected(capsys, *argv):
    code = main(list(argv))
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and "Traceback" not in err
    assert err.count("\n") == 1, err
    return err


# A malformed order, decay, seed, radius, lambda or trial count, or a
# missing series file: exit 1, one error line, no traceback.
REFUSED = {
    "sample-N-0": ("sample", "--seed", "7", "--N", "0", "--out", "{tmp}/refused.json"),
    "sample-N-5000": ("sample", "--seed", "7", "--N", "5000", "--out", "{tmp}/refused.json"),
    "sample-decay-1.5": ("sample", "--seed", "7", "--decay", "1.5", "--out",
                         "{tmp}/refused.json"),
    "sample-seed--1": ("sample", "--seed", "-1", "--out", "{tmp}/refused.json"),
    "bounds-R-1": ("bounds", "--R", "1.0"),
    "bounds-R-nan": ("bounds", "--R", "nan"),
    "evolve-lambda-nan": ("evolve", "--lambda", "nan", "--R", "2.0"),
    "verify-trials-0": ("verify", "all", "--trials", "0"),
    "check-missing-file": ("check", "--series", "{tmp}/missing.json", "--R", "2.0"),
}


@pytest.mark.parametrize("argv", REFUSED.values(), ids=REFUSED.keys())
def test_malformed_command_line_is_refused(tmp_path, capsys, argv):
    rejected(capsys, *(arg.format(tmp=tmp_path) for arg in argv))
    assert not (tmp_path / "refused.json").exists()


def test_module_entry_point_refuses_a_malformed_command_line():
    """python -m annulus_harmonics.cli runs main and exits with its code."""
    done = subprocess.run([sys.executable, "-m", "annulus_harmonics.cli", "bounds", "--R", "nan"],
                          env=fresh_env(PYTHONWARNINGS="error::RuntimeWarning"),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == EXIT_USAGE and done.stdout == ""
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1, done.stderr


@pytest.mark.parametrize("text", [
    '{"N": 2, "a_pos": [[1.0, 0.0]]',                 # truncated JSON
    b"\xff\xfe{",                                      # not UTF-8
    '[1, 2]',                                          # not an object
    '{"N": 2.7}',                                      # non-integral N
    '{"N": true}',                                     # boolean N
    '{"N": "3"}',                                      # N as a string
    '{"N": 1e999}',                                    # infinite N
    f'{{"N": {MAX_JSON_ORDER + 1}}}',                 # over the order bound
    '{"N": 1' + 400 * '0' + '}',                       # over it, no float
    '{"N": 1, "a0": [1' + 400 * '0' + ', 0]}',         # coefficient overflows
    '{"N": 1, "a_pos": 5}',                            # array not a list
    '{"N": 1, "a_pos": [["x", 0.0]]}',                 # pair not numbers
])
def test_malformed_series_file_is_a_usage_error(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    rejected(capsys, "profile", "--series", str(path), "--R", "2.0")


def test_series_order_bound_and_integral_float(tmp_path, capsys):
    assert from_json_dict({"N": MAX_JSON_ORDER}).N == MAX_JSON_ORDER
    path = tmp_path / "s.json"
    path.write_text('{"N": 2.0, "a_pos": [[1.0, 0.0]]}')
    code, _ = run(capsys, "profile", "--series", str(path), "--R", "2.0",
                  "--steps", "2")
    assert code == 0


def test_series_path_that_is_a_directory_is_a_usage_error(tmp_path, capsys):
    rejected(capsys, "check", "--series", str(tmp_path), "--R", "2.0")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_certificates(capsys):
    code, out = run(capsys, "verify", "certificates", "--trials", "1")
    payload = json.loads(out)
    assert code == 0
    assert payload["all_passed"]
    names = {c["name"] for c in payload["checks"]}
    assert "wide-certificate-positive" in names
    assert all(c["residual"] <= c["tolerance"] for c in payload["checks"])


@pytest.mark.parametrize("argv", [
    ("profile", "--lambda", "0.5", "--R", "2.0", "--steps", "0"),
    ("evolve", "--lambda", "0.5", "--R", "2.0", "--steps", "0"),
    ("bounds", "--R-min", "2.0", "--R-max", "3.0", "--steps", "0"),
    ("profile", "--lambda", "0.5", "--R", "2.0", "--steps", str(cli.MAX_STEPS + 1)),
    ("evolve", "--lambda", "0.5", "--R", "2.0", "--steps", str(cli.MAX_STEPS + 1)),
    ("bounds", "--R-min", "2.0", "--R-max", "3.0", "--steps", str(cli.MAX_STEPS + 1)),
    ("verify", "all", "--trials", "0"),
    ("verify", "all", "--trials", "-3"),
    ("verify", "all", "--trials", str(reports.MAX_TRIALS + 1)),
    ("verify", "all", "--trials", str(10**18)),
    ("sample", "--seed", "-1", "--N", "3", "--out", "{tmp}/s.json"),
], ids=["profile-steps-0", "evolve-steps-0", "bounds-steps-0",
        "profile-steps-above-cap", "evolve-steps-above-cap", "bounds-steps-above-cap",
        "verify-trials-0", "verify-trials-negative", "verify-trials-above-cap",
        "verify-trials-huge", "sample-seed-negative"])
def test_out_of_range_integer_is_a_usage_error(tmp_path, capsys, argv):
    # argparse rejects --steps itself (exit via SystemExit); the others
    # reach a typed error that main reports; both give one error line
    try:
        code = main([arg.format(tmp=tmp_path) for arg in argv])
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and captured.out == ""
    assert "Traceback" not in captured.err
    assert len([l for l in captured.err.splitlines() if "error: " in l]) == 1
    assert not (tmp_path / "s.json").exists()


@pytest.mark.parametrize("argv", [
    ("bounds", "--R-min", "1.5", "--R-max", "3.0"),
    ("evolve", "--lambda", "0.5", "--R", "2.0"),
    ("profile", "--lambda", "0.5", "--R", "2.0"),
], ids=lambda argv: argv[0])
def test_steps_at_the_cap_run(tmp_path, argv):
    """--steps takes up to MAX_STEPS rows (one more is a usage error, in
    test_out_of_range_integer_is_a_usage_error)."""
    out = tmp_path / "rows.json"
    assert main([*argv, "--steps", str(cli.MAX_STEPS), "--format", "json",
                 "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["rows"]) >= cli.MAX_STEPS


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1e-9"])
def test_tolerance_override_must_be_finite_and_nonnegative(monkeypatch, capsys, value):
    """A --tol-* override that is not a finite number >= 0 is a usage error
    before any draw, not a traceback from the JSON writer after the run."""
    monkeypatch.setattr(cli, "run_suite", lambda *args: pytest.fail("drew"))
    with pytest.raises(SystemExit) as exc:
        main(["verify", "certificates", "--trials", "1", f"--tol-certificate={value}"])
    captured = capsys.readouterr()
    assert exc.value.code == EXIT_USAGE and captured.out == ""
    assert "Traceback" not in captured.err
    assert "finite number >= 0" in captured.err


def test_one_parser_serves_every_call_of_a_process(monkeypatch, capsys):
    """main builds its parser once; a run of calls with different commands
    and flags, and a usage error between them, prints what fresh parsers
    print (the manifest timestamps aside)."""
    calls = [
        ("verify", "schottky", "--seed", "3", "--trials", "2",
         "--tol-schottky-radius", "1e-8"),
        ("bounds", "--R-min", "2.0", "--R-max", "3.0", "--steps", "0"),
        ("bounds", "--R-min", "1.5", "--R-max", "3.0", "--steps", "4"),
    ]

    def outputs():
        seen = []
        for argv in calls:
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            payload = json.loads(captured.out) if captured.out else None
            if payload is not None:
                del payload["manifest"]["timestamp"]
            seen.append((code, payload, captured.err))
        return seen

    assert cli._build_parser() is cli._build_parser()
    memoised = outputs()
    assert [code for code, _, _ in memoised] == [0, EXIT_USAGE, 0]
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    assert outputs() == memoised


def test_verify_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 1


def test_verify_tolerance_override_can_fail(capsys):
    # An impossible tolerance flips the suite to failing, exit code 2.
    code, out = run(capsys, "verify", "certificates", "--trials", "1",
                    "--tol-certificate-rel", "1e-30")
    payload = json.loads(out)
    assert code == 2
    assert not payload["all_passed"]


def test_verify_embeds_manifest(capsys):
    _, out = run(capsys, "verify", "subsolution", "--trials", "2", "--seed", "9")
    manifest = json.loads(out)["manifest"]
    assert manifest["command"] == "verify"
    assert manifest["seed"] == 9
    assert "tolerances" in manifest and manifest["tolerances"]
    assert "timestamp" in manifest and "version" in manifest
    assert manifest["environment"] == {"python": platform.python_version(),
                                       "numpy": np.__version__,
                                       "platform": platform.platform()}


@pytest.mark.parametrize("argv", [
    ("verify", "certificates", "--trials", "1"),
    ("verify", "certificates", "--trials", "1", "--tol-certificate-rel", "1e-30"),
], ids=["pass", "fail"])
def test_verify_csv_writes_one_row_per_check(capsys, argv):
    code_j, out_j = run(capsys, *argv)
    code_c, out_c = run(capsys, *argv, "--format", "csv")
    assert code_c == code_j
    payload = json.loads(out_j)
    comments = [l[2:] for l in out_c.splitlines() if l.startswith("# ")]
    manifest = {k: json.loads(v) for k, v in (l.split(": ", 1) for l in comments)}
    assert manifest["flags"]["format"] == "csv"
    assert manifest["tolerances"] == payload["manifest"]["tolerances"]
    assert (manifest["suite"], manifest["all_passed"]) == (payload["suite"],
                                                           payload["all_passed"])
    rows = list(csv.DictReader(l for l in out_c.splitlines() if not l.startswith("#")))
    assert len(rows) == len(payload["checks"])
    for row, check in zip(rows, payload["checks"]):
        assert (row["name"], row["statement"]) == (check["name"], check["statement"])
        assert float(row["residual"]) == check["residual"]  # repr round-trip
        assert float(row["tolerance"]) == check["tolerance"]
        assert row["passed"] == str(check["passed"])


def nan_on_call(monkeypatch, name, call, pick=lambda x: math.nan):
    """Replace reports.<name> by a wrapper whose `call`-th result (1-based)
    goes through `pick`."""
    real = getattr(reports, name)
    calls = []

    def flaky(*args, **kwargs):
        calls.append(None)
        result = real(*args, **kwargs)
        return pick(result) if len(calls) == call else result

    monkeypatch.setattr(reports, name, flaky)


def nan_on_last_member(pair):
    """The (gradient, angular) residuals of a C02 chunk with the gradient
    residuals of its last member NaN."""
    grad, ang = pair
    grad[-1] = math.nan
    return grad, ang


# One full chunk of series and 3 more: the NaN goes on the last member of the
# second chunk.
TWO_CHUNKS = SERIES_PER_CHUNK + 3


def test_nan_after_first_draw_fails_the_check(monkeypatch, capsys):
    nan_on_call(monkeypatch, "identity_residuals_stack", 2, pick=nan_on_last_member)
    checks = {c.name: c for c in reports.run_suite("identities", 0, TWO_CHUNKS)}
    assert math.isnan(checks["gradient-form-identity"].residual)
    assert not checks["gradient-form-identity"].passed
    assert checks["angular-form-identity"].passed


def test_nan_floor_fails_the_clamped_check(monkeypatch):
    # max(0.0, -nan) is 0.0 in Python: the clamp must keep the NaN.  L_lam
    # of the second draw's variance reads NaN (the operator of the second
    # criterion, variance_subsolution), so its floor is NaN.
    nan_on_call(monkeypatch, "LambdaOperator", 2, pick=spoil_operator)
    checks = {c.name: c for c in reports.run_suite("subsolution", 0, 3)}
    assert math.isnan(checks["variance-floor"].residual)
    assert not checks["variance-floor"].passed


def test_verify_nan_residual_exits_1_with_report(monkeypatch, capsys):
    nan_on_call(monkeypatch, "identity_residuals_stack", 2, pick=nan_on_last_member)
    code = main(["verify", "identities", "--trials", str(TWO_CHUNKS)])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    payload = json.loads(captured.out)
    assert payload["all_passed"] is False
    by_name = {c["name"]: c for c in payload["checks"]}
    assert by_name["gradient-form-identity"]["residual"] == "nan"
    assert by_name["gradient-form-identity"]["passed"] is False
    assert "gradient-form-identity" in captured.err


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------

def test_evolve_extremal_zero_margin(capsys):
    code, out = run(capsys, "evolve", "--lambda", "1.0", "--R", "2.0",
                    "--steps", "10", "--format", "csv")
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    idx = header.index("margin")
    for line in lines[1:]:
        assert abs(float(line.split(",")[idx])) < 1e-12


def test_evolve_identity_mean_radius(capsys):
    code, out = run(capsys, "evolve", "--lambda", "0.0", "--R", "3.0",
                    "--steps", "4", "--format", "json")
    rows = json.loads(out)["rows"]
    assert code == 0
    for row in rows:
        assert row["mean_radius"] == pytest.approx(row["rho"], abs=1e-13)


def test_evolve_bound_is_the_speed_bound(capsys):
    code, out = run(capsys, "evolve", "--lambda", "0.37", "--R", "2.5",
                    "--steps", "5", "--format", "json")
    assert code == 0
    for row in json.loads(out)["rows"]:
        rho = row["rho"]
        assert row["bound"] == (rho**2 + 0.37) / ((1.0 + 0.37) * rho)


def test_evolve_perturbed_series_positive_margin(tmp_path, capsys):
    from annulus_harmonics import perturb_extremal

    path = tmp_path / "perturbed.json"
    save_series(perturb_extremal(1.0, 2, 1e-3, renormalize=True), path)
    code, out = run(capsys, "evolve", "--series", str(path), "--R", "2.0",
                    "--format", "json")
    rows = json.loads(out)["rows"]
    assert code == 0
    assert all(row["margin"] > 0.0 for row in rows)


def test_json_output_round_trips(capsys):
    _, out = run(capsys, "bounds", "--R", "1.7320508075688772")
    row = json.loads(out)["rows"][0]
    again = json.loads(json.dumps(row))
    assert again == row


def test_verify_all_passes(capsys):
    code, out = run(capsys, "verify", "all", "--seed", "1", "--trials", "20")
    payload = json.loads(out)
    assert code == 0
    assert payload["all_passed"]
    assert len(payload["checks"]) == 31


# The report contract: every check of `verify all` with its tolerance.
REPORT_CONTRACT = [
    ("angular-form-identity", 1e-09),
    ("area-bound", 1e-06),
    ("bound-ordering", 1e-12),
    ("divergence-form-agreement", 1e-05),
    ("endpoint-match", 1e-06),
    ("equality-family", 1e-11),
    ("extremal-annihilation", 1e-09),
    ("extremal-zero", 1e-08),
    ("gradient-form-identity", 1e-09),
    ("gz-weight-positive", 1e-12),
    ("gzbar-gate-samples", 1e-12),
    ("injectivity-certified", 0.0),
    ("inner-area-limit", 1e-08),
    ("inner-circle-identity", 1e-10),
    ("mode-certificate-expansion", 1e-06),
    ("mode-certificate-monotone", 1e-09),
    ("mode-certificate-n2-factored", 1e-06),
    ("mode-certificate-positive", 0.0),
    ("mode-chain", 1e-10),
    ("mode-form", 1e-06),
    ("mode-sum-bound", 1e-09),
    ("outer-radius-bound", 1e-09),
    ("probes-applicable", 0.0),
    ("unit-initial-speed", 1e-06),
    ("variance-deriv2-match", 1e-12),
    ("variance-deriv2-positive", 0.0),
    ("variance-floor", 1e-10),
    ("variance-lower-bound", 1e-06),
    ("wide-certificate-concavity", 1e-06),
    ("wide-certificate-endpoints", 1e-09),
    ("wide-certificate-positive", 1e-09),
]


def test_report_contract_names_and_tolerances():
    checks = reports.run_suite("all", 0, 2)
    assert [(c.name, c.tolerance) for c in checks] == REPORT_CONTRACT


def test_verify_negative_seed_is_usage_error(capsys):
    rejected(capsys, "verify", "schottky", "--seed", "-1", "--trials", "1")


@pytest.mark.parametrize("command", ["profile", "evolve"])
@pytest.mark.parametrize("radius", ["nan", "inf"])
def test_nonfinite_outer_radius_is_usage_error(capsys, command, radius):
    rejected(capsys, command, "--lambda", "0.5", "--R", radius)


def test_evolve_defaults_to_csv(capsys):
    code, out = run(capsys, "evolve", "--lambda", "0.5", "--R", "2.0",
                    "--steps", "3")
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert lines[0] == "rho,mean_radius,bound,margin"


def test_profile_critical_map(capsys):
    code, out = run(capsys, "profile", "--lambda", "1.0", "--R", "2.0",
                    "--steps", "4")
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert lines[0] == "rho,value,deriv1,deriv2"
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 1.0
    assert first[1] == pytest.approx(1.0)   # U(1) of the critical map
    assert first[2] == pytest.approx(0.0)   # zero initial slope


def test_profile_variance_of_series(tmp_path, capsys):
    from annulus_harmonics import HarmonicSeries

    path = tmp_path / "series.json"
    save_series(HarmonicSeries.from_coeffs(a={1: 1.0}, b0=3.0), path)
    code, out = run(capsys, "profile", "--series", str(path), "--R", "2.0",
                    "--variance", "--format", "json")
    rows = json.loads(out)["rows"]
    assert code == 0
    for row in rows:
        assert row["value"] == pytest.approx(row["rho"] ** 2)  # |z|^2 variance


def test_evolve_series_csv_writes_plain_floats(tmp_path, capsys):
    from annulus_harmonics import perturb_extremal

    path = tmp_path / "perturbed.json"
    save_series(perturb_extremal(1.0, 2, 1e-3, renormalize=True), path)
    argv = ("evolve", "--series", str(path), "--R", "2.0", "--steps", "3")
    _, out_json = run(capsys, *argv, "--format", "json")
    code, out_csv = run(capsys, *argv)
    assert code == 0
    lines = [l for l in out_csv.splitlines() if l and not l.startswith("#")]
    assert lines[1:] == [",".join(repr(v) for v in row.values())
                         for row in json.loads(out_json)["rows"]]


# ---------------------------------------------------------------------------
# overflow: a typed error on one line, exit 1
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ("check", "--series", "{series}", "--R", "1e20"),
    ("check", "--series", "{series}", "--R", "1e200"),
    ("evolve", "--lambda", "0.5", "--R", "1e300"),
    ("evolve", "--series", "{series}", "--R", "1e300"),
    ("profile", "--series", "{series}", "--R", "1e300"),
    ("profile", "--lambda", "0.5", "--R", "1e300"),
], ids=lambda argv: "-".join(argv).replace("{series}", "series"))
def test_overflow_is_a_usage_error(tmp_path, capsys, argv):
    path = tmp_path / "s7.json"
    assert main(["sample", "--seed", "7", "--N", "8", "--out", str(path)]) == 0
    err = rejected(capsys, *(arg.format(series=path) for arg in argv))
    assert "overflows" in err or "not finite" in err


def test_check_rejects_an_initial_speed_too_large_for_its_lambda(tmp_path, capsys):
    path = tmp_path / "fast.json"
    save_series(HarmonicSeries.from_coeffs(a0=1.0, b0=1e-160), path)
    err = rejected(capsys, "check", "--series", str(path), "--R", "2.0")
    assert "initial speed" in err


# ---------------------------------------------------------------------------
# the README's command-line examples
# ---------------------------------------------------------------------------

def readme_command_lines() -> list[list[str]]:
    """The argv of every `annulus-harmonics ...` line of README.md's sh
    blocks, once each, in the README's order, without its comment."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = [tuple(shlex.split(line, comments=True)[1:])
             for block in text.split("```sh\n")[1:]
             for line in block.split("```", 1)[0].splitlines()
             if line.startswith("annulus-harmonics ")]
    return [list(argv) for argv in dict.fromkeys(lines)]


README_LINES = readme_command_lines()


def test_readme_command_lines_run_top_to_bottom(tmp_path, monkeypatch, capsys):
    """The README's command lines, run in the order written in one fresh
    directory, each exit 0: a line that reads a file comes after the line
    that writes it."""
    monkeypatch.chdir(tmp_path)
    assert [main(argv) for argv in README_LINES] == [0] * len(README_LINES)


@pytest.mark.parametrize("argv", README_LINES, ids=" ".join)
def test_readme_command_line_exits_0(tmp_path, monkeypatch, argv):
    """Each command line of the README exits 0 in a fresh directory, after
    the README's sample line has written the series file the others read."""
    [sample] = [line for line in README_LINES if line[0] == "sample"]
    monkeypatch.chdir(tmp_path)
    assert main(sample) == 0
    assert main(argv) == 0
