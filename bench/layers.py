"""Per-layer metrics of one traced operation, built from the tracer's spans.

Every ``*_s`` metric of a function is its self time: the span's duration
minus the spans of traced functions it called. Self times of all spans in
one operation add up to the operation's traced wall time, so each second is
counted in exactly one layer (``bench.glue_s`` is the benchmark's own code
between calls). Times and counts are per operation, averaged over the
traced operations; counts repeat exactly for a given seed.
"""

from __future__ import annotations

from tracer import OP_SPAN, Tracer

# metric -> (span name, field of Tracer.summary())
SPAN_METRICS = {
    "problems.validate_s": ("validate_problem", "self_s"),
    "problems.order_draw_s": ("chunk_indices", "self_s"),
    "problems.order_draw_calls": ("chunk_indices", "calls"),
    "engine.solve_self_s": ("solve", "self_s"),
    "engine.sweep_self_s": ("run_sweep", "self_s"),
    "engine.sweeps": ("run_sweep", "calls"),
    "engine.block_solve_s": ("solve_block", "self_s"),
    "engine.block_solves": ("solve_block", "calls"),
    "engine.residuals_s": ("compute_residuals", "self_s"),
    "engine.dual_update_s": ("dual_update", "self_s"),
    "linalg.cholesky_s": ("cholesky", "self_s"),
    "linalg.cholesky_calls": ("cholesky", "calls"),
    "linalg.cho_solve_s": ("cho_solve", "self_s"),
    "linalg.cho_solve_calls": ("cho_solve", "calls"),
    "svm.train_self_s": ("train", "self_s"),
    "svm.assemble_s": ("assemble_kernel_block", "self_s"),
    "svm.kernel_cross_s": ("kernel_cross", "self_s"),
    "svm.bias_s": ("compute_bias", "self_s"),
    "elastic_net.fit_self_s": ("fit", "self_s"),
    "elastic_net.z_update_s": ("z_update", "self_s"),
    "spectral.certify_s": ("certify", "self_s"),
    "spectral.expected_operators_s": ("expected_operators", "self_s"),
    "spectral.iteration_map_s": ("iteration_map", "self_s"),
    "spectral.iteration_map_calls": ("iteration_map", "calls"),
    "spectral.gauss_seidel_s": ("gauss_seidel_matrix", "self_s"),
    "spectral.gauss_seidel_calls": ("gauss_seidel_matrix", "calls"),
    "bench.glue_s": (OP_SPAN, "self_s"),
}


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_us"):
        return "us"
    return "count"


def per_layer(tracer: Tracer, build_tracer: Tracer, ops: int):
    """Metrics and units for ``ops`` traced operations and one traced build."""
    summary = tracer.summary()
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    metrics = {name: summary.get(span, empty)[field] / ops
               for name, (span, field) in SPAN_METRICS.items()}
    units = {name: unit_of(name) for name in metrics}

    sweep = summary.get("run_sweep", empty)
    metrics["engine.sweep_us"] = \
        1e6 * sweep["total_s"] / sweep["calls"] if sweep["calls"] else 0.0
    units["engine.sweep_us"] = "us"

    counters = tracer.counters
    block_vars = counters.get("block_vars", 0)
    metrics["engine.bound_active_frac"] = \
        counters.get("block_vars_at_bound", 0) / block_vars if block_vars else 0.0
    units["engine.bound_active_frac"] = "ratio"

    metrics["svm.kernel_rows_computed"] = counters.get("kernel_rows", 0) / ops
    units["svm.kernel_rows_computed"] = "count"
    hits, misses = tracer.cache_hits()
    metrics["svm.row_cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    units["svm.row_cache_hit_ratio"] = "ratio"

    metrics["elastic_net.block_elems"] = counters.get("enet_block_elems", 0) / ops
    units["elastic_net.block_elems"] = "count"
    metrics["elastic_net.gram_builds"] = tracer.child_calls("cholesky", "fit") / ops
    units["elastic_net.gram_builds"] = "count"

    build = build_tracer.summary()
    metrics["data_io.gen_s"] = sum(build.get(name, empty)["total_s"]
                                   for name in ("gen_regression", "gen_blobs"))
    units["data_io.gen_s"] = "s"
    metrics["trace.spans_per_op"] = len(tracer.spans) / ops
    units["trace.spans_per_op"] = "count"
    return metrics, units
