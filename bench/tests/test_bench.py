"""Tests of the benchmark itself.

Run from the repository root with

    python -m pytest bench/tests -q

They cover the span self-time arithmetic, the Dirichlet-energy oracle, that
a wrong output makes a run incorrect, the tracer's installation and
removal, and that short runs of every workload print every metric named in
BENCHMARK.json.
"""

from __future__ import annotations

import inspect
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import specs  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from annulus_harmonics import cli, extremal_map, operators, quadrature, reports  # noqa: E402
from annulus_harmonics import sampling  # noqa: E402


def test_self_times_subtract_children_and_merge_overlaps():
    # root [0, 10] has children A [1, 4], B [5, 9] and C [8, 9.5], which
    # overlaps B; A has a child [2, 3].
    starts = [0.0, 1.0, 2.0, 5.0, 8.0]
    ends = [10.0, 4.0, 3.0, 9.0, 9.5]
    parents = [-1, 0, 1, 0, 0]
    selfs = spans.self_times(starts, ends, parents)
    # root: covered by [1, 4] and [5, 9.5] -> 7.5, so 2.5 remains
    assert selfs == pytest.approx([2.5, 2.0, 1.0, 4.0, 1.5], abs=1e-12)


def test_self_times_clip_children_to_parent_and_sum_to_root():
    starts = [0.0, 0.5, 1.0, 3.0, 20.0]
    ends = [4.0, 2.5, 2.0, 5.0, 21.0]
    parents = [-1, 0, 1, 0, -1]
    selfs = spans.self_times(starts, ends, parents)
    # [3, 5] counts only as [3, 4] against the root [0, 4]: 4 - 2 - 1 = 1
    assert selfs == pytest.approx([1.0, 1.0, 1.0, 2.0, 1.0], abs=1e-12)
    nested = spans.self_times([0.0, 1.0, 2.0], [6.0, 5.0, 3.0], [-1, 0, 1])
    assert float(np.sum(nested)) == pytest.approx(6.0, abs=1e-12)


def test_dirichlet_closed_form_is_6pi_for_identity_on_A12():
    coeffs = workloads.Coeffs.of(extremal_map(0.0))
    assert coeffs.dirichlet_energy(1.0, 2.0) == pytest.approx(6.0 * math.pi, rel=1e-15)


def test_closed_forms_agree_with_the_package():
    h = sampling.random_series(sampling.SamplerConfig(seed=5, N=6, decay=0.3))
    coeffs = workloads.Coeffs.of(h)
    ref = coeffs.dirichlet_energy(1.2, 1.8)
    assert quadrature.dirichlet_energy(h, 1.2, 1.8) == pytest.approx(ref, rel=1e-9)
    assert quadrature.quadratic_mean_numeric(h, 1.4) == pytest.approx(
        coeffs.quadratic_mean(1.4), rel=1e-12)
    assert quadrature.enclosed_area(h, 1.4) == pytest.approx(
        coeffs.enclosed_area(1.4), rel=1e-12)


def _bindings() -> list[tuple]:
    """Every (owner, key, object) a tracer could rebind, by identity."""
    found = []
    for module in spans._package_modules():
        for attr, value in vars(module).items():
            found.append((module, attr, value))
            if isinstance(value, dict) and not attr.startswith("__"):
                found.extend((value, key, item) for key, item in value.items())
            if inspect.isclass(value) and value.__module__ == module.__name__:
                found.extend((value, k, v) for k, v in vars(value).items())
    return found


def test_tracer_wraps_every_namespace_and_restores_originals():
    before = _bindings()
    original_main = cli.main
    original_suite = reports.SUITES["identities"]
    original_apply = operators.LambdaOperator.__dict__["apply"]
    tracer = spans.Tracer()
    with tracer:
        assert cli.main is not original_main
        assert getattr(reports.SUITES["identities"], "__traced__", False)
        assert operators.LambdaOperator.__dict__["apply"] is not original_apply
        tracer.op = 0
        wrapped_op = tracer.wrap(spans.OP_SPAN, lambda: reports.run_suite("identities", 0, 1))
        wrapped_op()
        tracer.op = -1
    summary = tracer.summary()
    assert summary["names"]["reports.run_identities"]["calls"] == 1
    assert summary["names"]["series.circle_fields"]["calls"] == 3
    assert summary["self_sum_s"] == pytest.approx(summary["op_s"], rel=1e-9)
    assert cli.main is original_main
    assert reports.SUITES["identities"] is original_suite
    assert operators.LambdaOperator.__dict__["apply"] is original_apply
    after = _bindings()
    assert len(after) == len(before)
    assert all(a[0] is b[0] and a[1] == b[1] and a[2] is b[2]
               for a, b in zip(before, after))


def _smallest_item(workload):
    return min(next(workload.blocks(1.0)), key=lambda item: item[0].N)


def _nudge_energy(out):
    identities, mean, quad_mean, area, energy = out
    return identities, mean, quad_mean, area, energy * (1.0 + 1e-6)


def _nudge_profile(out):
    k_pairs, mode_forms, variance_k, floor, table = out
    (value, d1, d2), *rest = table
    return k_pairs, mode_forms, variance_k, floor, [(value * (1.0 + 1e-6), d1, d2), *rest]


def _nan_mode_form(out):
    k_pairs, mode_forms, variance_k, floor, table = out
    return k_pairs, [math.nan, *mode_forms[1:]], variance_k, floor, table


def _raise(out):
    raise FloatingPointError("boom")


@pytest.mark.parametrize("name, spoil", [
    ("circle-dense", _nudge_energy),
    ("circle-dense", _raise),
    ("radial-profile", _nudge_profile),
    ("radial-profile", _nan_mode_form),
])
def test_a_wrong_output_makes_the_run_incorrect(name, spoil):
    workload = workloads.WORKLOADS[name](7)
    item = _smallest_item(workload)
    good = worker.run_loop(workload, items=[item])
    assert (good["attempted"], good["failed"], good["silent"]) == (1, 0, 0)
    bad = worker.run_loop(workload, items=[item], op=lambda it: spoil(workload.run(it)))
    assert (bad["attempted"], bad["failed"], bad["silent"]) == (1, 1, 1)


def _report(residual: float, passed: bool, rc: int):
    check = {"name": "c", "residual": residual, "tolerance": 1e-9, "passed": passed}
    return rc, json.dumps({"checks": [check], "all_passed": passed})


def test_verify_sweep_tells_honest_failures_from_silent_ones():
    check = workloads.VerifySweep(0).check
    assert check(0, _report(1e-12, True, cli.EXIT_PASS)) == workloads.PASS
    honest = check(0, _report(1.0, False, cli.EXIT_FAIL))
    assert honest.failed and not honest.silent
    for out in (_report(math.nan, True, cli.EXIT_PASS), _report(1.0, True, cli.EXIT_PASS),
                _report(1e-12, True, cli.EXIT_FAIL)):
        verdict = check(0, out)
        assert verdict.failed and verdict.silent


def test_verify_sweep_runs_the_same_seeds_for_every_workload_seed():
    pools = [workloads.VerifySweep(seed).seeds(25.0) for seed in (0, 1, 7, 101)]
    assert len(pools[0]) == 32
    assert all(sorted(pool) == list(range(32)) for pool in pools)
    assert pools[2][:3] == [7, 8, 9]
    assert workloads.VerifySweep(3).blocks(0.8) == [[0]]
    assert workloads.VerifySweep(3).blocks(3.2) == [[3], [0], [1], [2]]


def test_runs_of_a_given_length_do_the_same_ops():
    for name in ("circle-dense", "radial-profile"):
        cls = workloads.WORKLOADS[name]
        count = workloads.block_count(30.0, cls.BLOCK_S)
        assert len(list(cls(4).blocks(30.0))) == count
        first, again = cls(4).blocks(1.0), cls(4).blocks(1.0)
        for x, y in zip(first, again):
            assert [item[2:] for item in x] == [item[2:] for item in y]


def test_times_are_scaled_by_the_reference_kernel_near_each_op():
    ref = worker.REF_S
    # kernel at the reference speed, then a spell at half speed
    refs = [ref] * 6 + [2.0 * ref] * 6
    scaled = worker.reference_scaled([0.1, 0.1, 0.2, 0.2], [1, 2, 9, 10], refs)
    assert scaled == pytest.approx([0.1, 0.1, 0.1, 0.1])
    assert worker.reference_scaled([0.3], [0], [ref / 3.0]) == pytest.approx([0.9])
    stats = worker.latency_stats([0.001 * i for i in range(1, 22)])
    assert stats["op_p50_ms"] == pytest.approx(11.0)
    assert stats["op_tail_ms"] == pytest.approx(11.0)
    assert stats["tail_percentile"] == pytest.approx(100.0 * 11 / 21)
    result = worker.run_loop(workloads.WORKLOADS["radial-profile"](7), seconds=0.5)
    assert result["ref_samples"] >= 2
    assert result["ops_per_s"] == pytest.approx(result["attempted"] / result["scaled_program_s"])


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=175)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in specs.contract()["workloads"]])
def test_short_run_prints_every_metric(workload, trace):
    out = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    listed = specs.contract()["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_run_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, "--workload", "radial-profile", "--seed", "1", "--seconds", "1")
    assert out.returncode != 0
    assert out.stdout.strip() == ""
