"""Metric tables and the per-layer numbers derived from a traced run.

``E2E`` and ``PER_LAYER`` are the names in ``BENCHMARK.json``; the
benchmark's tests keep the two in step.  Per-layer counts and times are
per pass (one run of every seeded op of the workload), so counts repeat
exactly for a given seed however many passes fit in the run.  A layer a
workload never calls reports 0 calls and 0 ms there: the workload
bypasses it.
"""

from __future__ import annotations

# name, unit, better, bound
E2E = (
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("throughput_per_s", "1/s", "higher", 0.15),
    ("latency_ms_p50", "ms", "lower", 0.15),
    ("latency_ms_tail", "ms", "lower", 0.25),
)

# What each end-to-end metric means on each workload, with its
# workload-prefixed name (as in the README).
E2E_MEANING = {
    "scan": {
        "throughput_per_s": ("scan.points_per_s", "grid points/s over reality_scan calls"),
        "latency_ms_p50": ("scan.boundary_ms_p50", "lambda_max wall time, median"),
        "latency_ms_tail": ("scan.boundary_ms_tail", "lambda_max wall time, tail"),
    },
    "pipeline": {
        "throughput_per_s": ("pipeline.problems_per_s", "problems/s"),
        "latency_ms_p50": ("pipeline.latency_ms_p50", "ms per problem, median"),
        "latency_ms_tail": ("pipeline.latency_ms_tail", "ms per problem, tail"),
    },
    "cli": {
        "throughput_per_s": ("cli.invocations_per_s", "cold invocations/s"),
        "latency_ms_p50": ("cli.wall_ms_p50", "ms per cold invocation, median"),
        "latency_ms_tail": ("cli.wall_ms_tail", "ms per cold invocation, tail"),
    },
}

# span name -> fields reported as "<span>.<field>"
SPAN_FIELDS = {
    "spectra.diagonalize": ("calls", "self_ms", "failed"),
    "spectra.ep_proximity": ("self_ms",),
    "spectra.require_real_nondegenerate": ("self_ms",),
    "metric.MetricFamily": ("calls", "self_ms", "failed"),
    "metric.assemble_metric": ("self_ms",),
    "metric.fix_ambiguity": ("calls", "self_ms"),
    "metric.quasi_hermiticity_residual": ("self_ms",),
    "dyson.dyson_map": ("self_ms",),
    "dyson.hermitize": ("self_ms",),
    "perturbation.PerturbationProblem.build": ("self_ms",),
    "perturbation.metric_series": ("self_ms",),
    "perturbation.solve_order": ("calls",),
    "perturbation.dyson_from_metric": ("self_ms",),
    "perturbation.leading_delta": ("self_ms",),
    "perturbation.hidden_hermiticity_test": ("self_ms",),
    "stability.reality_scan": ("self_ms",),
    "stability.lambda_max": ("self_ms",),
    "stability.series_vs_exact": ("self_ms",),
    "stability.exact_matched_metric": ("calls",),
    "matrixio.read_matrix": ("calls", "self_ms"),
    "matrixio.matrix_to_doc": ("self_ms",),
}
FIELD_UNITS = {"calls": ("count", "lower"), "failed": ("count", "lower"), "self_ms": ("ms", "lower")}

NOTES = ("Defective", "SpectrumNotReal", "DegenerateSpectrum")

DERIVED = (
    ("perturbation.solve_order.ms_per_order", "ms", "lower"),
    ("stability.reality_scan.point_us", "us", "lower"),
    ("stability.reality_scan.points", "count", "higher"),
    ("stability.reality_scan.useful_ratio", "ratio", "higher"),
    *((f"stability.reality_scan.note.{n}", "count", "lower") for n in NOTES),
    ("stability.reality_scan.note.other", "count", "lower"),
    ("stability.reality_scan.point_us.workers2", "us", "lower"),
    ("stability.lambda_max.probes", "count", "lower"),
    ("matrixio.read_matrix.bytes", "bytes", "lower"),
    ("cli.interpreter_ms_p50", "ms", "lower"),
    ("cli.import_ms_p50", "ms", "lower"),
    ("cli.main_ms_p50", "ms", "lower"),
    *((f"cli.{s}.wall_ms_p50", "ms", "lower")
      for s in ("diag", "metric", "hermitize", "perturb", "scan")),
    ("trace.overhead_frac", "ratio", "lower"),
)

PER_LAYER = tuple(
    (f"{span}.{field}", *FIELD_UNITS[field])
    for span, fields in SPAN_FIELDS.items() for field in fields
) + DERIVED

# Spans each workload must record; an empty one means a hook stopped
# seeing calls, and the traced run fails rather than report 0 ms.
EXPECTED_SPANS = {
    "scan": ("spectra.diagonalize", "spectra.require_real_nondegenerate", "metric.MetricFamily",
             "metric.assemble_metric", "stability.reality_scan", "stability.lambda_max"),
    "pipeline": ("spectra.diagonalize", "spectra.ep_proximity",
                 "spectra.require_real_nondegenerate", "metric.MetricFamily",
                 "metric.fix_ambiguity", "metric.assemble_metric",
                 "metric.quasi_hermiticity_residual", "dyson.dyson_map", "dyson.hermitize",
                 "perturbation.PerturbationProblem.build", "perturbation.metric_series",
                 "perturbation.solve_order", "perturbation.dyson_from_metric",
                 "perturbation.leading_delta", "perturbation.hidden_hermiticity_test",
                 "stability.series_vs_exact", "stability.exact_matched_metric"),
    "cli": ("cli.main", "matrixio.read_matrix", "matrixio.matrix_to_doc", "spectra.diagonalize",
            "metric.fix_ambiguity", "dyson.hermitize", "perturbation.metric_series",
            "stability.reality_scan", "stability.lambda_max"),
}


def span_metrics(summary: dict, passes: int) -> dict:
    """Per-pass span metrics; spans the workload never entered read 0."""
    out = {}
    for span, fields in SPAN_FIELDS.items():
        s = summary.get(span, {"calls": 0, "failed": 0, "self_ns": 0})
        for field in fields:
            value = s["self_ns"] / 1e6 if field == "self_ms" else s[field]
            out[f"{span}.{field}"] = value / passes
    so = summary.get("perturbation.solve_order")
    out["perturbation.solve_order.ms_per_order"] = (
        so["total_ns"] / 1e6 / so["calls"] if so else 0.0)
    return out


def missing_spans(workload: str, summary: dict) -> list:
    return [s for s in EXPECTED_SPANS[workload] if not summary.get(s, {}).get("calls")]
