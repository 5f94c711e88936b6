"""The benchmark's contract file and the spans behind its layer metrics.

`BENCHMARK.json` at the repository root names the workloads and every
metric with its unit; `contract()` reads it.  This module holds only what
that file cannot: the layer modules and the wrapped function behind each
per-layer metric.
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

LAYERS = ("series", "quadrature", "means", "operators", "bounds", "sampling",
          "reports", "cli")

# Metric prefix -> span name of the wrapped function.  Each gets `.calls`,
# `.self_s` and `.raised`, averaged per traced op.
LAYER_FUNCTIONS = {
    "series.circle_fields": "series.circle_fields",
    "series.from_coeffs": "series.HarmonicSeries.from_coeffs",
    "quadrature.radial_integrate": "quadrature.radial_integrate",
    "quadrature.dirichlet_energy": "quadrature.dirichlet_energy",
    "quadrature.winding_number": "quadrature.winding_number",
    "means.quadratic_mean_profile": "means.quadratic_mean_profile",
    "operators.identity_residuals": "operators.identity_residuals",
    "operators.LambdaOperator.apply": "operators.LambdaOperator.apply",
    "operators.k_functional": "operators.k_functional",
    "bounds.schottky_check": "bounds.schottky_check",
    "bounds.mode_quadratic_form_residual": "bounds.mode_quadratic_form_residual",
    "bounds.inner_circle_identity_residual": "bounds.inner_circle_identity_residual",
    "sampling.random_series": "sampling.random_series",
    "sampling.injectivity_probe": "sampling.injectivity_probe",
    "reports.run_identities": "reports.run_identities",
    "reports.run_subsolution": "reports.run_subsolution",
    "reports.run_kfunctional": "reports.run_kfunctional",
    "reports.run_certificates": "reports.run_certificates",
    "reports.run_schottky": "reports.run_schottky",
    "cli.main": "cli.main",
}

_PER_CALL = ("calls", "self_s", "raised")


def contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def with_units(values: dict, listed: list[dict]) -> dict:
    """{name: {"value", "unit"}} for every metric in `listed`, a metric list
    of BENCHMARK.json; a listed metric missing from `values` is an error."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 when the base is 0 (the function was never called)."""
    return num / den if den else 0.0


def per_layer_values(summary: dict, overhead: float) -> dict:
    """Per-layer metrics of BENCHMARK.json, as {name: {"value", "unit"}},
    from a tracer summary (see `spans.Tracer.summary`) and the traced /
    untraced program-time ratio."""
    ops = summary["ops"]
    names, counts, distinct = summary["names"], summary["counts"], summary["distinct"]
    empty = {"calls": 0, "self_s": 0.0, "raised": 0}
    values: dict[str, float] = {}
    for prefix, span in LAYER_FUNCTIONS.items():
        record = names.get(span, empty)
        for field in _PER_CALL:
            values[f"{prefix}.{field}"] = _ratio(record[field], ops)
    circle_calls = names.get("series.circle_fields", empty)["calls"]
    profile_calls = names.get("means.quadratic_mean_profile", empty)["calls"]
    evals = names.get("means.profile_eval", empty)
    values.update({
        "series.circle_fields.mode_angle_products":
            _ratio(counts.get("series.circle_fields.mode_angle_products", 0), ops),
        "series.circle_fields.distinct_ratio":
            _ratio(distinct.get("series.circle_fields", 0), circle_calls),
        "quadrature.radial_integrate.nodes_evaluated":
            _ratio(counts.get("quadrature.radial_integrate.nodes_evaluated", 0), ops),
        "quadrature.radial_integrate.useful_node_ratio":
            _ratio(counts.get("quadrature.radial_integrate.nodes_accepted", 0),
                   counts.get("quadrature.radial_integrate.nodes_evaluated", 0)),
        "means.quadratic_mean_profile.distinct_ratio":
            _ratio(distinct.get("means.quadratic_mean_profile", 0), profile_calls),
        "means.profile_eval.calls": _ratio(evals["calls"], ops),
        "means.profile_eval.radii": _ratio(counts.get("means.profile_eval.radii", 0), ops),
        "means.profile_eval.self_s": _ratio(evals["self_s"], ops),
    })
    for layer in LAYERS:
        values[f"{layer}.self_s"] = _ratio(
            sum(r["self_s"] for n, r in names.items() if n.startswith(layer + ".")), ops)
    values["trace.overhead_ratio"] = overhead
    values["trace.top_span_coverage"] = _ratio(summary["top_s"], summary["op_s"])
    values["trace.ops"] = ops
    return with_units(values, contract()["per_layer"])
