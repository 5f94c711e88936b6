"""Command-line interface.

Commands:
    bounds   print the sharp and classical lower bounds for one R or a sweep
    verify   run a named verification suite and emit a JSON (or CSV) report
    evolve   tabulate mean radius against the speed bound along the radii
    profile  sample a radial mean profile with its derivatives
    check    gate one series file against the applicable bound
    sample   write a deterministic pseudo-random series to JSON

Exit codes: 0 pass, 1 usage error or numeric fault, 2 failed checks, 3 not
applicable.  A verification report whose residual is NaN or infinite is a
numeric fault: it is still written, with that residual as the string
"nan", "inf" or "-inf" (JSON has no such numbers), and exits with 1.
All floating-point output is written in round-trip precision, so re-reading
emitted JSON reproduces bit-identical values.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import math
import platform
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import kalaj_bound, nitsche_bound, theorem_gate, weitsman_bound
from .errors import ToolkitError
from .means import (
    initial_speed,
    mean_outer_radius,
    quadratic_mean_profile,
    variance_profile,
)
from .operators import lambda_from_speed, speed_bound
from .reports import DEFAULT_TOLERANCES, MAX_TRIALS, SUITES, run_suite
from .sampling import SamplerConfig, normalize_inner, random_series
from .series import _in_float_range, _within, extremal_map, load_series, require_outer, save_series

EXIT_PASS = 0
EXIT_USAGE = 1
EXIT_FAIL = 2
EXIT_NOT_APPLICABLE = 3


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage failures exit with code 1."""

    def error(self, message: str):  # noqa: D102
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


# Most --steps a table takes: bounds, evolve and profile hold every row
# until they write the output, about 2 KiB per row.
MAX_STEPS = 10_000


def _count(text: str) -> int:
    """argparse type of --steps: an integer in 1..MAX_STEPS."""
    if not 1 <= int(text) <= MAX_STEPS:
        raise argparse.ArgumentTypeError(f"must lie in 1..{MAX_STEPS}, got {text}")
    return int(text)


def _tolerance(text: str) -> float:
    """argparse type of the --tol-* overrides: a finite number >= 0."""
    value = float(text)
    if not _within(value, 0.0, math.inf, lo_closed=True):
        raise argparse.ArgumentTypeError(
            f"must be a finite number >= 0, got {text}")
    return value


@functools.lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    """The command-line parser, built once per process: building it takes
    about 2 ms, and parse_args leaves it unchanged."""
    parser = _Parser(prog="annulus-harmonics",
                     description="Harmonic-annulus bounds and verification.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p: _Parser, default_format: str = "json") -> None:
        p.add_argument("--out", type=Path, default=None,
                       help="write to this file instead of stdout")
        p.add_argument("--format", choices=("json", "csv"), default=default_format)

    p_bounds = sub.add_parser("bounds", help="lower bounds for one R or a sweep")
    p_bounds.add_argument("--R", type=float, default=None)
    p_bounds.add_argument("--R-min", type=float, default=None)
    p_bounds.add_argument("--R-max", type=float, default=None)
    p_bounds.add_argument("--steps", type=_count, default=1)
    add_output(p_bounds)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=(*sorted(SUITES), "all"))
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--trials", type=int, default=100,
                          help=f"draws per criterion, 1..{MAX_TRIALS}")
    add_output(p_verify)
    for key in sorted(DEFAULT_TOLERANCES):
        p_verify.add_argument(
            f"--tol-{key.replace('_', '-')}", type=_tolerance, default=None,
            dest=f"tol_{key}", help=f"override tolerance {key!r}",
        )

    p_evolve = sub.add_parser("evolve",
                              help="mean radius vs. speed bound along radii")
    group = p_evolve.add_mutually_exclusive_group(required=True)
    group.add_argument("--series", type=Path, default=None)
    group.add_argument("--lambda", dest="lam", type=float, default=None)
    p_evolve.add_argument("--R", type=float, required=True)
    p_evolve.add_argument("--steps", type=_count, default=50)
    add_output(p_evolve, "csv")

    p_profile = sub.add_parser(
        "profile", help="sample a radial mean profile (value and derivatives)")
    pgroup = p_profile.add_mutually_exclusive_group(required=True)
    pgroup.add_argument("--series", type=Path, default=None)
    pgroup.add_argument("--lambda", dest="lam", type=float, default=None)
    p_profile.add_argument("--R", type=float, required=True)
    p_profile.add_argument("--steps", type=_count, default=50)
    p_profile.add_argument("--variance", action="store_true",
                           help="sample the variance instead of the full mean")
    add_output(p_profile, "csv")

    p_check = sub.add_parser("check", help="gate a series file on A(1, R)")
    p_check.add_argument("--series", type=Path, required=True)
    p_check.add_argument("--R", type=float, required=True)
    p_check.add_argument("--out", type=Path, default=None,
                         help="write the JSON report here instead of stdout")

    p_sample = sub.add_parser("sample", help="write a pseudo-random series")
    p_sample.add_argument("--seed", type=int, required=True)
    p_sample.add_argument("--N", type=int, default=8)
    p_sample.add_argument("--decay", type=float, default=0.6)
    p_sample.add_argument("--out", type=Path, required=True)
    return parser


@functools.lru_cache(maxsize=1)
def _environment() -> dict:
    """The Python and numpy versions and the platform, read once per process
    (platform.platform() takes milliseconds the first time)."""
    return {"python": platform.python_version(), "numpy": np.__version__,
            "platform": platform.platform()}


def _manifest(args: argparse.Namespace, tolerances: dict | None = None) -> dict:
    flags = {
        k: (str(v) if isinstance(v, Path) else v)
        for k, v in vars(args).items()
        if k != "command" and v is not None
    }
    return {
        "command": args.command,
        "flags": flags,
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "environment": dict(_environment()),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "tolerances": tolerances or {},
    }


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text, encoding="utf-8")


def _as_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _csv_field(v) -> str:
    """A float in round-trip precision; text with a comma, quote or line
    break quoted as in RFC 4180."""
    if isinstance(v, float):
        return repr(float(v))
    text = str(v)
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _as_csv(rows: list[dict], manifest: dict) -> str:
    lines = [f"# {k}: {json.dumps(v)}" for k, v in manifest.items()]
    if rows:
        cols = list(rows[0])
        lines.append(",".join(cols))
        for row in rows:
            lines.append(",".join(_csv_field(row[c]) for c in cols))
    return "\n".join(lines) + "\n"


def _emit_rows(rows: list[dict], args: argparse.Namespace, manifest: dict) -> None:
    if args.format == "csv":
        _emit(_as_csv(rows, manifest), args.out)
    else:
        _emit(_as_json({"manifest": manifest, "rows": rows}), args.out)


def _cmd_bounds(args: argparse.Namespace) -> int:
    if args.R is not None:
        radii = [args.R]
    elif args.R_min is not None and args.R_max is not None:
        if args.steps == 1:
            radii = [args.R_min]
        else:
            span = (args.R_max - args.R_min) / (args.steps - 1)
            radii = [args.R_min + i * span for i in range(args.steps)]
    else:
        print("error: provide --R or both --R-min and --R-max", file=sys.stderr)
        return EXIT_USAGE
    for r in radii:
        require_outer(r)
    rows = [
        {
            "R": r,
            "modulus": math.log(r),
            "nitsche": nitsche_bound(r),
            "cosh_modulus": math.cosh(math.log(r)),
            "kalaj": kalaj_bound(r),
            "weitsman": weitsman_bound(r),
        }
        for r in radii
    ]
    _emit_rows(rows, args, _manifest(args))
    return EXIT_PASS


def _cmd_verify(args: argparse.Namespace) -> int:
    tolerances = dict(DEFAULT_TOLERANCES)
    for key in DEFAULT_TOLERANCES:
        override = getattr(args, f"tol_{key}", None)
        if override is not None:
            tolerances[key] = override
    checks = run_suite(args.suite, args.seed, args.trials, tolerances)
    nonfinite = [c.name for c in checks if not math.isfinite(c.residual)]
    manifest = _manifest(args, tolerances)
    all_passed = all(c.passed for c in checks)
    if args.format == "csv":  # one row per check; a non-finite residual reads nan/inf
        _emit(_as_csv([c.to_dict() for c in checks],
                      {**manifest, "suite": args.suite, "all_passed": all_passed}),
              args.out)
    else:
        _emit(_as_json({
            "manifest": manifest,
            "suite": args.suite,
            "checks": [
                {**c.to_dict(), "residual": repr(c.residual)}
                if c.name in nonfinite else c.to_dict()
                for c in checks
            ],
            "all_passed": all_passed,
        }), args.out)
    if nonfinite:
        print(f"error: non-finite residual in {', '.join(nonfinite)}",
              file=sys.stderr)
        return EXIT_USAGE
    return EXIT_PASS if all_passed else EXIT_FAIL


def _cmd_evolve(args: argparse.Namespace) -> int:
    require_outer(args.R)
    normalized = False
    if args.lam is not None:
        h = extremal_map(args.lam)
        lam = args.lam
    else:
        # the speed bound presumes the inner normalization, so series files
        # are normalized before tabulation (recorded in the manifest)
        h = normalize_inner(load_series(args.series))
        normalized = True
        speed = initial_speed(h)
        if speed < 0.0:
            print("not applicable: negative initial speed", file=sys.stderr)
            return EXIT_NOT_APPLICABLE
        lam = lambda_from_speed(speed)
    rows = []
    for i in range(1, args.steps + 1):
        rho = 1.0 + (args.R - 1.0) * i / args.steps
        measured = mean_outer_radius(h, rho)
        bound = speed_bound(rho, lam)
        rows.append({
            "rho": rho,
            "mean_radius": measured,
            "bound": bound,
            "margin": measured - bound,
        })
    manifest = _manifest(args)
    manifest["lambda"] = lam
    manifest["normalized"] = normalized
    _emit_rows(rows, args, manifest)
    return EXIT_PASS


def _cmd_profile(args: argparse.Namespace) -> int:
    require_outer(args.R)
    h = extremal_map(args.lam) if args.lam is not None else load_series(args.series)
    profile = variance_profile(h) if args.variance else quadratic_mean_profile(h)
    rows = []
    for i in range(args.steps + 1):
        rho = 1.0 + (args.R - 1.0) * i / args.steps
        value, d1, d2 = _in_float_range(f"profile {profile.label} at rho", rho, profile.jet, rho)
        rows.append({"rho": rho, "value": value, "deriv1": d1, "deriv2": d2})
    manifest = _manifest(args)
    manifest["profile"] = profile.label
    _emit_rows(rows, args, manifest)
    return EXIT_PASS


def _cmd_check(args: argparse.Namespace) -> int:
    report = theorem_gate(load_series(args.series), args.R)
    payload = {"manifest": _manifest(args), "report": report.to_dict()}
    _emit(_as_json(payload), args.out)
    if report.verdict == "pass":
        return EXIT_PASS
    if report.verdict == "fail":
        return EXIT_FAIL
    return EXIT_NOT_APPLICABLE


def _cmd_sample(args: argparse.Namespace) -> int:
    config = SamplerConfig(seed=args.seed, N=args.N, decay=args.decay)
    save_series(random_series(config), args.out)
    return EXIT_PASS


_COMMANDS = {
    "bounds": _cmd_bounds,
    "verify": _cmd_verify,
    "evolve": _cmd_evolve,
    "profile": _cmd_profile,
    "check": _cmd_check,
    "sample": _cmd_sample,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
