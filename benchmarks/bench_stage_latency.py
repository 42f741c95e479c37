"""Staged engine observability: where does inference time go?

Two tables from the engine's per-stage traces (timing via the
injectable Clock, aggregated by the eval harness):

1. per-stage mean latency per CodeS tier — which stage dominates as
   the tier's search budget grows (slot depth, beam width) — as the
   median and interquartile range of ``REPEATS`` runs;
2. StageCache savings — cold (a fresh engine, and thus a fresh cache,
   per question) vs. the harness (one engine per database), showing
   which stages stop paying resource-construction costs — also as the
   median and interquartile range of ``REPEATS`` runs.
"""

from repro.config import CODES_TIERS
from repro.engine import STAGE_NAMES
from repro.eval.harness import evaluate_parser

LIMIT = 16
REPEATS = 5


def _mean_ms(result) -> dict[str, float]:
    return {
        stage: 1000 * agg["wall_s"] / max(1, agg["calls"])
        for stage, agg in result.stage_timings.items()
    }


def test_stage_latency_per_tier(benchmark, spider, parsers, report, median_iqr):
    def run():
        runs = {tier: [] for tier in CODES_TIERS}
        for tier in CODES_TIERS:
            parser = parsers.sft(tier, spider)
            for _ in range(REPEATS):
                # The harness builds fresh engines, so each repeat starts
                # from the same cold per-database caches.
                result = evaluate_parser(parser, spider, limit=LIMIT)
                means = _mean_ms(result)
                means["total"] = sum(means.values())
                runs[tier].append(means)
        rows = []
        for stage in (*STAGE_NAMES, "total"):
            row: dict[str, object] = {"stage": stage}
            for tier in CODES_TIERS:
                median, iqr = median_iqr([means.get(stage, 0.0) for means in runs[tier]])
                row[f"{tier} ms"] = round(median, 3)
                row[f"{tier} IQR"] = round(iqr, 3)
            rows.append(row)
        report(
            "stage_latency_per_tier",
            rows,
            "staged engine — per-stage mean latency per tier (batch mode), "
            f"median and IQR of {REPEATS} runs",
        )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    by_stage = {row["stage"]: row for row in rows}
    # Every tier exercises all nine stages.
    assert all(
        by_stage[stage][f"{tier} ms"] > 0
        for stage in STAGE_NAMES
        for tier in CODES_TIERS
    )
    # Bigger tiers search more: median total stage time grows with tier size.
    first, last = CODES_TIERS[0], CODES_TIERS[-1]
    assert by_stage["total"][f"{last} ms"] >= by_stage["total"][f"{first} ms"] * 0.8


def _cold_and_batch_ms(parser, spider):
    """Per-stage wall ms (plus ``TOTAL``) with a fresh engine, and thus
    a fresh StageCache, per question, then through the harness (one
    engine per database); also the harness's stage timings."""
    cold = dict.fromkeys(STAGE_NAMES, 0.0)
    for example in spider.dev[:LIMIT]:
        engine = parser.build_engine()
        result = parser.generate(
            example.question, spider.database_of(example), engine=engine
        )
        for stage_trace in result.trace.stages:
            cold[stage_trace.stage] += 1000 * stage_trace.wall_s
    timings = evaluate_parser(parser, spider, limit=LIMIT, name="batch").stage_timings
    batch = {stage: 1000 * agg["wall_s"] for stage, agg in timings.items()}
    for per_stage in (cold, batch):
        per_stage["TOTAL"] = sum(per_stage.values())
    return cold, batch, timings


def test_stage_cache_batch_savings(benchmark, spider, parsers, report, median_iqr):
    def run():
        parser = parsers.sft("codes-1b", spider)
        runs = [_cold_and_batch_ms(parser, spider) for _ in range(REPEATS)]
        timings = runs[-1][2]  # cache hits and misses repeat exactly
        rows = []
        for stage in (*STAGE_NAMES, "TOTAL"):
            cold_ms, cold_iqr = median_iqr([cold[stage] for cold, _, _ in runs])
            batch_ms, batch_iqr = median_iqr([batch[stage] for _, batch, _ in runs])
            aggs = list(timings.values()) if stage == "TOTAL" else [timings[stage]]
            rows.append(
                {
                    "stage": stage,
                    "cold ms": round(cold_ms, 2),
                    "cold IQR": round(cold_iqr, 2),
                    "batch ms": round(batch_ms, 2),
                    "batch IQR": round(batch_iqr, 2),
                    "saved %": round(100 * (1 - batch_ms / cold_ms), 1)
                    if cold_ms > 0
                    else 0.0,
                    "cache hits": sum(int(agg["cache_hits"]) for agg in aggs),
                    "cache misses": sum(int(agg["cache_misses"]) for agg in aggs),
                }
            )
        report(
            "stage_cache_savings",
            rows,
            f"staged engine — StageCache savings in batch mode "
            f"(spider, {LIMIT} questions), median and IQR of {REPEATS} runs",
        )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    total = rows[-1]
    # Reusing per-database resources must not be slower overall, and
    # the cache must actually be exercised.
    assert total["batch ms"] <= total["cold ms"] * 1.1
    assert total["cache hits"] > 0
