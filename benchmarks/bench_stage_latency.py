"""Staged engine observability: where does inference time go?

Two tables from the engine's per-stage traces (timing via the
injectable Clock, aggregated by the eval harness):

1. per-stage mean latency per CodeS tier — which stage dominates as
   the tier's search budget grows (slot depth, beam width) — as the
   median and interquartile range of ``REPEATS`` runs;
2. StageCache savings — cold (a fresh engine, and thus a fresh cache,
   per question) vs. the harness (one engine per database), showing
   which stages stop paying resource-construction costs.
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


def test_stage_cache_batch_savings(benchmark, spider, parsers, report):
    def run():
        parser = parsers.sft("codes-1b", spider)
        examples = spider.dev[:LIMIT]

        # Cold: a fresh engine (fresh StageCache) per question — every
        # builder, analyzer, estimator and value index is rebuilt.
        cold: dict[str, float] = {stage: 0.0 for stage in STAGE_NAMES}
        for example in examples:
            engine = parser.build_engine()
            result = parser.generate(
                example.question, spider.database_of(example), engine=engine
            )
            for stage_trace in result.trace.stages:
                cold[stage_trace.stage] += stage_trace.wall_s

        # Batch: the harness holds one engine per database.
        batch = evaluate_parser(parser, spider, limit=LIMIT, name="batch")

        rows = []
        for stage in STAGE_NAMES:
            agg = batch.stage_timings[stage]
            cold_ms = 1000 * cold[stage]
            batch_ms = 1000 * agg["wall_s"]
            rows.append(
                {
                    "stage": stage,
                    "cold ms": round(cold_ms, 2),
                    "batch ms": round(batch_ms, 2),
                    "saved %": round(100 * (1 - batch_ms / cold_ms), 1)
                    if cold_ms > 0
                    else 0.0,
                    "cache hits": int(agg["cache_hits"]),
                    "cache misses": int(agg["cache_misses"]),
                }
            )
        rows.append(
            {
                "stage": "TOTAL",
                "cold ms": round(1000 * sum(cold.values()), 2),
                "batch ms": round(
                    1000
                    * sum(a["wall_s"] for a in batch.stage_timings.values()),
                    2,
                ),
                "saved %": round(
                    100
                    * (
                        1
                        - sum(a["wall_s"] for a in batch.stage_timings.values())
                        / sum(cold.values())
                    ),
                    1,
                ),
                "cache hits": sum(
                    int(a["cache_hits"]) for a in batch.stage_timings.values()
                ),
                "cache misses": sum(
                    int(a["cache_misses"]) for a in batch.stage_timings.values()
                ),
            }
        )
        report(
            "stage_cache_savings",
            rows,
            f"staged engine — StageCache savings in batch mode "
            f"(spider, {LIMIT} questions)",
        )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    total = rows[-1]
    # Reusing per-database resources must not be slower overall, and
    # the cache must actually be exercised.
    assert total["batch ms"] <= total["cold ms"] * 1.1
    assert total["cache hits"] > 0
