"""One benchmark process: set up a workload, then optionally measure it.

Run by `run.py` in a fresh interpreter per role:

    python3 bench/worker.py --workload NAME --seed N --seconds S --mode MODE

MODE is `setup` (set up, report ready, time the reference kernel, exit),
`measure` (closed-loop timed run with tracing off) or `trace` (a timed run
with tracing off, then the same ops again under the tracer, whose spans go
to `.bench_out/spans-<workload>-seed<N>.npz`).  The worker writes one JSON
object per line to stdout: `{"event": "ready"}` once set-up and warm-up
are done, then the kernel's median time (`setup`) or the result.  Anything else written to stdout goes to stderr
instead, so it cannot garble those lines.  The package is imported from `src/` of the
checkout this file sits in, never from anywhere else.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from array import array
from collections import Counter
from collections.abc import Sequence
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# A run that goes on this many times longer than asked (or this many
# seconds) stops after the op in progress, so a pathological slowdown still
# ends the run in time.
HARD_STOP_FACTOR = 3.0
HARD_STOP_S = 110.0

# Thread pools of the numerical libraries; `run.py` sets each to 1 so the
# measured worker is the only busy thread.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# The reference kernel: fixed numpy work of the same kind as the program's
# (a 256 x 25 table of phases, as on a circle of a series), independent of
# the package, and small enough to leave the caches to the program.  The
# host's speed drifts by tens of percent over seconds to minutes, alike for
# the program and this kernel, so each run times the kernel between ops and
# scales each op's time by REF_S / (the kernel's median time over the
# REF_WINDOW samples nearest the op): the reported times are those of a
# host on which the kernel takes REF_S.
REF_S = 0.008
REF_EVERY_S = 0.25
REF_WINDOW = 5
# Kernel timings taken by a set-up-only worker once it is ready.
SETUP_REF_SAMPLES = 9


def reference_s() -> float:
    """Seconds the reference kernel takes once."""
    import numpy as np

    t0 = time.perf_counter()
    theta = np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False)
    modes = np.arange(-12, 13)
    acc = 0.0
    for k in range(1, 31):
        acc += float(np.abs(np.exp(1j * k * np.outer(theta, modes))).sum())
    elapsed = time.perf_counter() - t0
    if not math.isfinite(acc):
        raise FloatingPointError("reference kernel produced a non-finite value")
    return elapsed


def reference_median(samples: int) -> float:
    return statistics.median(reference_s() for _ in range(samples))


# CPUs this process may run on when it starts.  The worker then keeps to the
# last of them, away from the first CPU, which takes most of the machine's
# housekeeping: a worker that runs there or moves between CPUs waits for it
# for milliseconds now and then, and those stalls set the tail latency.
CPUS = sorted(os.sched_getaffinity(0))


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS loaded in this process, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({line.split()[-1] for line in maps
                            if "openblas" in line.lower() and "/" in line})
    except OSError:
        return None
    getters = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
               "openblas_get_num_threads")
    for path in paths:
        lib = ctypes.CDLL(path)
        for getter in getters:
            if hasattr(lib, getter):
                return int(getattr(lib, getter)())
    return None


def environment() -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": len(CPUS),
        "pinned_cpu": CPUS[-1],
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def reference_scaled(latencies_s: Sequence[float], ref_at: Sequence[int],
                     refs: Sequence[float]) -> list[float]:
    """Each latency times REF_S / the median of the REF_WINDOW kernel
    samples nearest it.  `ref_at[i]` is the number of samples taken before
    op i; the samples around it are those half a window before and after."""
    half = REF_WINDOW // 2
    n = len(refs)
    out = []
    for latency, j in zip(latencies_s, ref_at):
        lo = min(max(0, j - half), max(0, n - REF_WINDOW))
        out.append(latency * REF_S / statistics.median(refs[lo:lo + REF_WINDOW]))
    return out


def latency_stats(latencies_s: Sequence[float]) -> dict:
    """Median and tail latency in ms.  The tail is the highest percentile
    with at least ten ops beyond it: the 11th-slowest op, at percentile
    100 * (n - 10) / n.  With ten ops or fewer it is the slowest op, and
    `tail_defined` is false."""
    lat = sorted(latencies_s)
    n = len(lat)
    mid = n // 2
    p50 = lat[mid] if n % 2 else 0.5 * (lat[mid - 1] + lat[mid])
    if n > 10:
        tail, pct = lat[n - 11], 100.0 * (n - 10) / n
    else:
        tail, pct = lat[-1], 100.0
    return {"op_p50_ms": 1e3 * p50, "op_tail_ms": 1e3 * tail,
            "tail_percentile": pct, "tail_defined": n > 10}


def run_loop(workload, seconds: float | None = None, items: list | None = None,
             op=None, tracer=None, keep_items: bool = False) -> dict:
    """Closed loop, one client: each op starts when the previous one ends.

    With `seconds`, the ops are those of `workload.blocks(seconds)`, a
    fixed amount of work; a run that lasts HARD_STOP_FACTOR times longer
    (or HARD_STOP_S) is cut short.  With `items`, exactly those ops run.
    Only the call into the program is timed: the oracle runs between ops,
    and `ops_per_s` is ops per second of program time (the sum of op
    latencies), so the oracle's time (`oracle_s`) does not dilute it.
    Between ops, at least every `REF_EVERY_S`, the reference kernel is
    timed; `ops_per_s` and the latencies are scaled to a kernel time of
    `REF_S` (see `reference_scaled`; the unscaled figures are returned
    beside them).  A failed op makes the run incorrect (counts as silent)
    on a workload whose program reports no verdict of its own.  The ops run
    are returned as "items" only with `keep_items`, so that a measured
    run's memory does not grow with the number of ops it completes.
    """
    op = op or workload.run
    latencies = array("d")
    refs = array("d")
    ref_at = array("l")
    done: list = []
    attempted = failed = silent = 0
    oracle_s = 0.0
    reasons: Counter[str] = Counter()
    blocks = workload.blocks(seconds) if items is None else [items]
    start = time.perf_counter()
    hard_stop = start + min(HARD_STOP_FACTOR * (seconds or 0.0), HARD_STOP_S)
    stop = False
    refs.append(reference_s())
    last_ref = time.perf_counter()
    for block in blocks:
        for item in block:
            if tracer is not None:
                tracer.op = attempted
            t0 = time.perf_counter()
            try:
                out = op(item)
                error = None
            except Exception as exc:  # an op that raises is a failed op
                error = f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.op = -1
            verdict = workload.check(item, out) if error is None else None
            oracle_s += time.perf_counter() - t1
            latencies.append(t1 - t0)
            ref_at.append(len(refs))
            attempted += 1
            if keep_items:
                done.append(item)
            bad = error is not None or verdict.failed
            if bad:
                failed += 1
                reasons[error or verdict.reason] += 1
            if (bad and not workload.REPORTS_VERDICT) or (verdict is not None and verdict.silent):
                silent += 1
            if time.perf_counter() - last_ref >= REF_EVERY_S:
                refs.append(reference_s())
                last_ref = time.perf_counter()
            if seconds is not None and t1 >= hard_stop:
                stop = True
                break
        if stop:
            break
    refs.append(reference_s())
    wall = time.perf_counter() - start
    program = math.fsum(latencies)
    scaled = reference_scaled(latencies, ref_at, refs)
    scaled_program = math.fsum(scaled)
    raw = latency_stats(latencies)
    return {
        "attempted": attempted, "failed": failed, "silent": silent,
        "reasons": dict(reasons.most_common(8)), "wall_s": wall,
        "program_s": program, "scaled_program_s": scaled_program, "oracle_s": oracle_s,
        "ref_s": statistics.median(refs), "ref_samples": len(refs),
        "ops_per_s": attempted / scaled_program, **latency_stats(scaled),
        "raw": {"ops_per_s": attempted / program,
                "op_p50_ms": raw["op_p50_ms"], "op_tail_ms": raw["op_tail_ms"]},
        **({"items": done} if keep_items else {}),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    args = parser.parse_args(argv)
    os.sched_setaffinity(0, {CPUS[-1]})
    with os.fdopen(os.dup(sys.stdout.fileno()), "w") as channel:
        os.dup2(sys.stderr.fileno(), sys.stdout.fileno())

        def emit(payload: dict) -> None:
            channel.write(json.dumps(payload) + "\n")
            channel.flush()

        return _work(args, emit)


def _work(args: argparse.Namespace, emit) -> int:
    sys.path.insert(0, str(SRC))
    import annulus_harmonics

    if not Path(annulus_harmonics.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported {annulus_harmonics.__file__}, not the package "
              f"under {SRC}", file=sys.stderr)
        return 1
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.warm_up()
    emit({"event": "ready"})
    if args.mode == "setup":
        emit({"event": "reference", "ref_s": reference_median(SETUP_REF_SAMPLES)})
        return 0

    if args.mode == "measure":
        result = run_loop(workload, seconds=args.seconds)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        emit({"event": "result", "environment": environment(), **result})
        return 0

    from spans import OP_SPAN, Tracer
    import specs

    plain = run_loop(workload, seconds=args.seconds / 2.0, keep_items=True)
    items = plain.pop("items")
    tracer = Tracer()
    with tracer:
        traced = run_loop(workload, items=items, op=tracer.wrap(OP_SPAN, workload.run),
                          tracer=tracer)
    summary = tracer.summary()
    overhead = traced["scaled_program_s"] / plain["scaled_program_s"]
    env = environment()
    spans_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
    tracer.save(spans_file, {"workload": args.workload, "seed": args.seed,
                             "environment": env, "plain": plain, "traced": traced})
    emit({"event": "result", "environment": env,
           "spans_file": str(spans_file.relative_to(ROOT)),
           "plain": plain, "traced": traced,
           "layers": specs.per_layer_values(summary, overhead),
           "self_sum_s": summary["self_sum_s"], "op_s": summary["op_s"]})
    return 0


if __name__ == "__main__":
    sys.exit(main())
