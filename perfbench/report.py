"""Turn one run's observations into the metrics BENCHMARK.json names."""

from __future__ import annotations

import statistics

import measure
from workloads import STAGE_NAMES


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(tally, ex_acc: float, setups, rss_mb: float) -> dict:
    """Every end-to-end metric; ``setups`` holds (seconds, cold_first) per set-up."""
    completed = len(tally.latencies)
    cold_first: dict[str, list[float]] = {}
    for _, probes in setups:
        for db_id, samples in probes.items():
            cold_first.setdefault(db_id, []).extend(samples)
    # Each database's fastest first request, averaged over databases: a
    # shared host only ever adds time to a probe, and the median of the
    # pooled probes sat between the databases' clusters, so it swung by
    # a fifth from run to run.
    cold_first_ms = 1000 * measure.mean(min(samples) for samples in cold_first.values())
    return {
        "setup_s": _metric(statistics.median([seconds for seconds, _ in setups]), "s"),
        "throughput_rps": _metric(completed / (tally.ended - tally.started), "1/s"),
        "latency_p50_ms": _metric(1000 * measure.nearest_rank(tally.latencies, 50), "ms"),
        "latency_p95_ms": _metric(1000 * measure.nearest_rank(tally.latencies, 95), "ms"),
        "cpu_ms_per_req": _metric(1000 * tally.cpu_s / completed, "ms"),
        "ex_acc": _metric(ex_acc, "frac"),
        "success_frac": _metric(completed / tally.sent, "frac"),
        "cold_first_min_ms": _metric(cold_first_ms, "ms"),
        "peak_rss_mb": _metric(rss_mb, "MiB"),
    }


def per_layer(setup, tally) -> dict:
    """Every per-layer metric, from the traced half of a ``--trace 1`` run."""
    sharded = setup.workload.loop == "open"
    deltas = tally.server_deltas
    completed = sum(delta["completed"] for delta in deltas)
    batches = sum(delta["batches"] for delta in deltas)

    def per_req(key: str) -> float:
        return sum(delta[key] for delta in deltas) / completed

    # Engine time against service time net of the emulated model
    # latency: the share of the blocking path the nine stages cover.
    emulated_ms = 1000 * setup.workload.service_s
    if sharded:
        stage_ms = {
            stage: 1000 * sum(d["stage_wall_s"][stage] for d in deltas) / completed
            for stage in STAGE_NAMES
        }
        service_ms = 1000 * tally.service_s / tally.traced_requests
        step_ms = service_ms * sum(d["batched"] for d in deltas) / batches
    else:
        stage_ms = {
            stage: 1000 * tally.stage_s.get(stage, 0.0) / tally.staged_requests
            for stage in STAGE_NAMES
        }
        service_ms = 1000 * sum(tally.step_s) / tally.step_items
        step_ms = 1000 * measure.mean(tally.step_s)
    metrics = {f"engine.{stage}.ms": _metric(ms, "ms") for stage, ms in stage_ms.items()}
    metrics["engine.stage_sum_frac"] = _metric(
        sum(stage_ms.values()) / (service_ms - emulated_ms), "frac"
    )
    for stage in ("candidate_gen", "rank", "equiv_dedup"):
        metrics[f"engine.{stage}.cand_out"] = _metric(
            tally.cand_out.get(stage, 0) / tally.staged_requests, "count/req"
        )
    hits, misses = per_req("cache_hits"), per_req("cache_misses")
    metrics["engine.cache.hit_ratio"] = _metric(hits / (hits + misses), "frac")
    metrics["engine.cache.misses"] = _metric(misses, "count/req")
    metrics["engine.cache.evictions"] = _metric(per_req("cache_evictions"), "count/req")
    metrics["engine.execute_beam.exec_used"] = _metric(
        tally.exec_used / tally.staged_requests, "count/req"
    )
    metrics["engine.execute_beam.exec_avoided"] = _metric(
        tally.exec_avoided / tally.staged_requests, "count/req"
    )
    metrics["providers.calls_per_req"] = _metric(per_req("provider_requests"), "count/req")
    metrics["providers.retries"] = _metric(per_req("provider_retries"), "count/req")
    metrics["providers.failovers"] = _metric(per_req("provider_failovers"), "count/req")
    metrics["serving.queue_wait_p50_ms"] = _metric(
        1000 * measure.nearest_rank(tally.queue_waits, 50), "ms"
    )
    metrics["serving.queue_wait_p95_ms"] = _metric(
        1000 * measure.nearest_rank(tally.queue_waits, 95), "ms"
    )
    metrics["serving.batch_occupancy"] = _metric(
        sum(d["batched"] for d in deltas) / batches, "count"
    )
    metrics["serving.submit_us"] = _metric(1e6 * measure.mean(tally.submit_s), "us")
    metrics["serving.step_ms"] = _metric(step_ms, "ms")
    metrics["sharding.ipc_ms_p50"] = _metric(
        1000 * measure.nearest_rank(tally.delivery, 50), "ms"
    )
    metrics["sharding.ipc_ms_p95"] = _metric(
        1000 * measure.nearest_rank(tally.delivery, 95), "ms"
    )
    front_requests = len(tally.latencies) if sharded else tally.step_items
    metrics["sharding.loop_ms"] = _metric(1000 * tally.front_s / front_requests, "ms")
    metrics["sharding.incidents"] = _metric(tally.extra.get("incidents", 0), "count")
    metrics["sharding.shard_skew"] = _metric(tally.extra.get("shard_skew", 1.0), "ratio")
    for step in ("dataset_s", "fit_s", "warm_s", "fork_s"):
        metrics[f"setup.{step}"] = _metric(setup.timings[step], "s")
    metrics["loadgen.lag_p95_ms"] = _metric(
        1000 * measure.nearest_rank(tally.lags, 95), "ms"
    )
    if sharded:
        latencies = tally.mode_latencies
        traced, untraced = (statistics.median(latencies[mode]) for mode in (True, False))
        overhead = traced / untraced - 1.0
    else:
        rps = {mode: tally.mode_done[mode] / tally.mode_s[mode] for mode in (True, False)}
        overhead = 1.0 - rps[True] / rps[False]
    metrics["trace.overhead_frac"] = _metric(overhead, "frac")
    return metrics
