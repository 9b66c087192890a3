"""Turn client samples and layer records into the reported metrics."""

from __future__ import annotations

from typing import Any

import numpy as np

from layers import FLEET, PROBES
from plan import BUDGETED, READ, SCAN, STEP


class CoverageError(RuntimeError):
    """A layer wrapper recorded no calls on a workload it serves."""


def _metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": float(value), "unit": unit}


def _pct(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def end_to_end(result, setup_s: float, rss_mb: float) -> dict[str, dict]:
    step = [s.client_ms for s in result.ok(STEP)]
    read = [s.client_ms for s in result.ok(READ)]
    budgeted = [s.client_ms for s in result.ok(BUDGETED)]
    scan = [s.client_ms for s in result.ok(SCAN)]
    return {
        "step_p50_ms": _metric(_pct(step, 50), "ms"),
        "step_p90_ms": _metric(_pct(step, 90), "ms"),
        "steps_per_s": _metric(len(step) / result.wall_s, "1/s"),
        "read_p50_ms": _metric(_pct(read, 50), "ms"),
        "read_p95_ms": _metric(_pct(read, 95), "ms"),
        "budgeted_p50_ms": _metric(_pct(budgeted, 50), "ms"),
        "budgeted_p90_ms": _metric(_pct(budgeted, 90), "ms"),
        "scan_p50_ms": _metric(_pct(scan, 50), "ms"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
        "setup_s": _metric(setup_s, "s"),
    }


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(
    workload: str,
    untraced,
    traced,
    front: dict[str, Any],
    workers: list[dict[str, Any]],
) -> dict[str, dict]:
    """Per-layer metrics of one traced run; raises :class:`CoverageError`."""
    records = [front, *workers]
    out: dict[str, dict] = {}
    silent = []
    for probe in PROBES:
        seconds = [x for r in records for x in r["samples"].get(probe.name, ())]
        if workload in probe.serves and not seconds:
            silent.append(probe.name)
        out[f"{probe.name}_ms"] = _metric(_pct(seconds, 50) * 1000.0, "ms")
        out[f"{probe.name}_calls"] = _metric(len(seconds), "count")
        out[f"{probe.name}_total_ms"] = _metric(sum(seconds) * 1000.0, "ms")

    counters: dict[str, float] = {}
    for record in records:
        for key, value in record["counters"].items():
            counters[key] = counters.get(key, 0.0) + value
    candidates = [n for r in records for n in r["candidates"]]
    routes = [n for r in records for n in r["routes"].values()]
    if workload == FLEET and not routes:
        silent.append("cluster.route")
    if silent:
        raise CoverageError(
            f"layer wrappers recorded no calls on {workload!r}: "
            + ", ".join(silent)
            + " (renamed or re-bound function?)"
        )

    answered = traced.ok(STEP) + traced.ok(READ)
    windowed = [s for s in traced.ok(READ) if s.server_ms is not None]
    attributed = front["attributed"]
    budgeted = traced.ok(BUDGETED)
    qualities = [s.quality for s in budgeted if s.quality is not None]
    untraced_step = _pct([s.client_ms for s in untraced.ok(STEP)], 50)
    traced_step = _pct([s.client_ms for s in traced.ok(STEP)], 50)

    out.update({
        "server.unwindowed_ms": _metric(
            _pct([s.client_ms - s.server_ms for s in windowed], 50), "ms"),
        "server.window_ms": _metric(
            _pct([s.server_ms for s in windowed], 50), "ms"),
        "caching.result_hit_rate": _metric(_share(
            counters["result_hits"],
            counters["result_hits"] + counters["result_misses"]), "share"),
        "caching.group_hit_rate": _metric(_share(
            counters["group_hits"],
            counters["group_hits"] + counters["group_misses"]), "share"),
        "recommend.candidates": _metric(
            float(np.mean(candidates)) if candidates else 0.0, "count"),
        "recommend.batched_share": _metric(_share(
            counters["batch_batched"], counters["batch_candidates"]), "share"),
        "recommend.pruned_share": _metric(_share(
            counters["batch_pruned"],
            counters["batch_pruned"] + counters["batch_evaluated"]), "share"),
        "index.posting_hit_rate": _metric(_share(
            counters["posting_hits"],
            counters["posting_hits"] + counters["posting_misses"]), "share"),
        "index.posting_bytes": _metric(counters["posting_bytes"], "bytes"),
        "anytime.partial_share": _metric(_share(
            sum(1 for q in qualities if not q["complete"]), len(qualities)),
            "share"),
        "anytime.snapshots_mean": _metric(
            float(np.mean([q["snapshots"] for q in qualities]))
            if qualities else 0.0, "count"),
        "anytime.overrun_ms": _metric(
            _pct([s.client_ms - s.budget_ms for s in budgeted], 50), "ms"),
        "cluster.route_skew": _metric(
            _share(max(routes), sum(routes)) if routes else 0.0, "share"),
        "unattributed_ms": _metric(_pct([
            s.client_ms - attributed.get(s.trace_id, 0.0) * 1000.0
            for s in answered
        ], 50), "ms"),
        "trace_overhead_share": _metric(
            _share(traced_step, untraced_step) - 1.0, "share"),
    })
    return out
