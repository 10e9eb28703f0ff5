"""Per-layer metrics of the traced run, and the core/geodist split.

Every traced run prints every name below; a layer the workload bypasses
reads 0, which is the prediction for it ("should not move").  Times are
per operation of the workload (per map, per request, per sweep) unless
the name says otherwise, so they do not scale with run length.
"""

from __future__ import annotations

from contextlib import ExitStack

from .tracing import SpanTotals, descendants_time, spanned

#: (name, unit, better) for every per-layer metric, in print order.
LAYER_METRICS: tuple[tuple[str, str, str], ...] = (
    ("core.feasibility_s", "s", "lower"),
    ("core.validate_s", "s", "lower"),
    ("core.cost_s", "s", "lower"),
    ("core.cost_calls", "count", "lower"),
    ("core.grouping_s", "s", "lower"),
    ("geodist.solve_s", "s", "lower"),
    ("geodist.orders", "count", "lower"),
    ("geodist.memo_hit_ratio", "ratio", "higher"),
    ("geodist.fill_picks", "count", "lower"),
    ("geodist.fallback_picks", "count", "lower"),
    ("multilevel.match_s", "s", "lower"),
    ("multilevel.contract_s", "s", "lower"),
    ("multilevel.inner_s", "s", "lower"),
    ("multilevel.refine_s", "s", "lower"),
    ("cost.move_delta_matrix_s", "s", "lower"),
    ("cost.move_delta_matrix_calls", "count", "lower"),
    ("multilevel.levels", "count", "lower"),
    ("multilevel.coarsest_n", "count", "lower"),
    ("multilevel.refine_moves", "count", "higher"),
    ("multilevel.inner_fallback", "count", "lower"),
    ("apps.profile_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("simmpi.run_s", "s", "lower"),
    ("simmpi.messages", "count", "lower"),
    ("simmpi.msgs_per_s", "1/s", "higher"),
    ("simmpi.transfer_calls", "count", "lower"),
    ("simmpi.comm_wait_s", "sim_s", "lower"),
    ("serve.encode_s", "s", "lower"),
    ("serve.decode_s", "s", "lower"),
    ("serve.fingerprint_s", "s", "lower"),
    ("serve.cold_p50_s", "s", "lower"),
    ("serve.hit_p50_s", "s", "lower"),
    ("serve.coalesced_p50_s", "s", "lower"),
    ("serve.queue_wait_s", "s", "lower"),
    ("serve.solve_s", "s", "lower"),
    ("serve.batch_size_mean", "count", "higher"),
    ("serve.batch_s", "s", "lower"),
    ("serve.cache_hit_ratio", "ratio", "higher"),
    ("serve.coalesced_ratio", "ratio", "higher"),
    ("serve.rejected", "count", "lower"),
    ("serve.degraded", "count", "lower"),
    ("serve.gen_lag_s", "s", "lower"),
    ("fabric.write_sweep_s", "s", "lower"),
    ("fabric.task_s", "s", "lower"),
    ("fabric.busy_frac", "ratio", "higher"),
    ("fabric.overhead_s", "s", "lower"),
    ("fabric.retries", "count", "lower"),
    ("fabric.worker_restarts", "count", "lower"),
    ("fabric.merge_s", "s", "lower"),
    ("repair.cost_ratio", "ratio", "lower"),
    ("repair.migrated", "count", "lower"),
    ("obs.trace_overhead_frac", "ratio", "lower"),
)

COST_SPAN = "bench.total_cost"
GROUPING_SPAN = "bench.group_sites"


def core_wrappers(stack: ExitStack, geodist_metas: list[dict]) -> None:
    """Span ``total_cost`` and ``group_sites`` where the mappers call them,
    and collect the meta of every geodist mapping, inner ones included."""
    import repro.core.cost as cost_mod
    import repro.core.geodist as geodist_mod

    # Mapper.map imports total_cost from the cost module at call time;
    # geodist bound its own reference at import.
    stack.enter_context(spanned(cost_mod, "total_cost", COST_SPAN))
    stack.enter_context(spanned(geodist_mod, "total_cost", COST_SPAN))
    stack.enter_context(spanned(geodist_mod, "group_sites", GROUPING_SPAN))
    stack.enter_context(
        spanned(
            geodist_mod.GeoDistributedMapper,
            "map",
            None,
            on_result=lambda m: geodist_metas.append(m.meta),
        )
    )


def core_layers(spans: SpanTotals, geodist_metas: list[dict], ops: int) -> dict[str, float]:
    """core.* and geodist.* per operation from the traced forest."""
    geo_solve = 0.0
    for span in spans.find("mapper.map"):
        if span.attrs.get("mapper") != "geo-distributed":
            continue
        for child in span.children:
            if child.name == "solve":
                geo_solve += (child.duration_s or 0.0) - descendants_time(
                    child, COST_SPAN
                ) - descendants_time(child, GROUPING_SPAN)
    hits = sum(m["memo"]["hits"] for m in geodist_metas)
    misses = sum(m["memo"]["misses"] for m in geodist_metas)
    fill = [m["fill"] for m in geodist_metas]
    return {
        "core.feasibility_s": spans.total("feasibility") / ops,
        "core.validate_s": spans.total("validate") / ops,
        "core.cost_s": spans.total(COST_SPAN) / ops,
        "core.cost_calls": spans.count(COST_SPAN) / ops,
        "core.grouping_s": spans.total(GROUPING_SPAN) / ops,
        "geodist.solve_s": geo_solve / ops,
        "geodist.orders": sum(m["orders_evaluated"] for m in geodist_metas) / ops,
        "geodist.memo_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "geodist.fill_picks": sum(
            f["seed_picks"] + f["affinity_picks"] + f["fallback_picks"] for f in fill
        ) / ops,
        "geodist.fallback_picks": sum(f["fallback_picks"] for f in fill) / ops,
    }


def all_layers(measured: dict[str, float]) -> dict[str, float]:
    """Every declared metric, 0.0 where this workload bypasses the layer."""
    unknown = set(measured) - {name for name, _, _ in LAYER_METRICS}
    if unknown:
        raise KeyError(f"undeclared per-layer metrics: {sorted(unknown)}")
    return {name: float(measured.get(name, 0.0)) for name, _, _ in LAYER_METRICS}

