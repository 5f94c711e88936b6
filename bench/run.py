"""Benchmark of annulus_harmonics: one command, one workload per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see `workloads.py` and `BENCHMARK.json` for why each exists):
`verify-sweep`, `circle-dense`, `radial-profile`.

With `--trace 0` the run starts nine fresh worker processes one after the
other.  Each sets the workload up (imports numpy and the package from
`src/`, generates the inputs from the seed, warms up); `setup_s` is the
median time from starting a worker to its ready signal.  The fifth of them
then runs the closed-loop timed run with tracing off and reports op
throughput (ops per second of program time, the oracle excluded), median
and tail latency and its peak resident memory; the other eight only set
up, four before it and four after.

Every time is scaled to a host on which the reference kernel of
`worker.py` takes `worker.REF_S`: the measuring worker times the kernel
between ops and multiplies each op's latency by REF_S / the median of the
kernel samples nearest it; each set-up worker times the kernel right
after its ready signal, and its set-up time is multiplied by REF_S / its
median kernel time.  This takes out the drift of the host's speed, which
moves the program and the kernel alike.  The unscaled figures are on the
detail line.

With `--trace 1` a single worker times the workload for half the run with
tracing off, then runs the same ops again with the tracer installed and
reports the per-layer metrics; its spans are written to
`.bench_out/spans-<workload>-seed<N>.npz`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it holds
the details (failure ratio and reasons, tail percentile, the oracle's
share of the loop's wall time, the kernel's time, the unscaled figures,
set-up samples, Python, numpy, platform,
core and BLAS thread counts).  Worker processes use one BLAS thread each,
keep to one CPU and run one at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from specs import contract, with_units
from worker import BLAS_ENV, REF_S

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().parent / "worker.py"
# Set-up-only workers started before and after the measuring worker, whose
# own set-up is one more sample: the samples span the whole run, so a slow
# or fast spell of the machine moves fewer of them.
SETUP_BEFORE = 4
SETUP_AFTER = 4
# The whole command must end within 180 s; leave room to kill a worker.
BUDGET_S = 170.0


class WorkerError(RuntimeError):
    pass


class _Lines:
    """Line reader on a pipe that honours a deadline."""

    def __init__(self, stream) -> None:
        self.fd = stream.fileno()
        self.buffer = b""

    def next(self, deadline: float) -> dict:
        while b"\n" not in self.buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise WorkerError("worker ran past the time budget")
            ready, _, _ = select.select([self.fd], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(self.fd, 1 << 16)
            if not chunk:
                raise WorkerError("worker exited without reporting")
            self.buffer += chunk
        line, self.buffer = self.buffer.split(b"\n", 1)
        try:
            return json.loads(line)
        except ValueError as exc:
            raise WorkerError(f"unreadable worker output: {line[:200]!r}") from exc


def _run_worker(args, mode: str, deadline: float) -> tuple[float, dict | None]:
    """Start one worker; return (seconds until it was ready, its last line:
    the reference kernel's time from a `setup` worker, else the result)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    env = {**os.environ, **{key: "1" for key in BLAS_ENV}, "PYTHONHASHSEED": "0"}
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE)
    try:
        lines = _Lines(proc.stdout)
        if lines.next(deadline).get("event") != "ready":
            raise WorkerError("worker did not report ready")
        ready_s = time.perf_counter() - start
        result = lines.next(deadline)
        proc.wait(timeout=max(0.1, deadline - time.monotonic()))
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return ready_s, result


def _measure(args, deadline: float) -> tuple[dict, dict]:
    setups = []
    raw_setups = []
    result = None
    for mode in ["setup"] * SETUP_BEFORE + ["measure"] + ["setup"] * SETUP_AFTER:
        ready_s, out = _run_worker(args, mode, deadline)
        raw_setups.append(ready_s)
        setups.append(ready_s * REF_S / out["ref_s"])
        if mode == "measure":
            result = out
    values = {
        "ops_per_s": result["ops_per_s"],
        "op_p50_ms": result["op_p50_ms"],
        "op_tail_ms": result["op_tail_ms"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    metrics = with_units(values, contract()["end_to_end"])
    detail = {
        "failed_ratio": result["failed"] / result["attempted"],
        "failure_reasons": result["reasons"],
        "tail_percentile": result["tail_percentile"],
        "tail_defined": result["tail_defined"],
        "wall_s": result["wall_s"],
        "program_s": result["program_s"],
        "oracle_share": result["oracle_s"] / result["wall_s"],
        "ref_s": result["ref_s"],
        "ref_samples": result["ref_samples"],
        "unscaled": {**result["raw"], "setup_s": statistics.median(raw_setups)},
        "setup_samples_s": setups,
        "environment": result["environment"],
    }
    summary = {"correct": result["silent"] == 0, "attempted": result["attempted"],
               "failed": result["failed"], "metrics": metrics}
    return summary, detail


def _trace(args, deadline: float) -> tuple[dict, dict]:
    _, result = _run_worker(args, "trace", deadline)
    plain, traced = result["plain"], result["traced"]
    keys = ("attempted", "wall_s", "program_s", "oracle_s", "ref_s", "op_p50_ms")
    detail = {
        "untraced": {k: plain[k] for k in keys},
        "traced": {k: traced[k] for k in keys},
        "span_self_sum_s": result["self_sum_s"],
        "traced_op_s": result["op_s"],
        "failure_reasons": traced["reasons"],
        "spans_file": result["spans_file"],
        "environment": result["environment"],
    }
    summary = {"correct": plain["silent"] == 0 and traced["silent"] == 0,
               "attempted": traced["attempted"], "failed": traced["failed"],
               "metrics": result["layers"]}
    return summary, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in contract()["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "annulus_harmonics" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 1
    deadline = time.monotonic() + BUDGET_S
    try:
        summary, detail = (_trace if args.trace else _measure)(args, deadline)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"detail": {"workload": args.workload, "seed": args.seed,
                                 "seconds": args.seconds, **detail}}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
