"""Provider failover under chaos: availability, hedging, SQL drift.

Two experiments, both seeded and run on a FakeClock:

1. **Router loadgen** — 2,000 score requests against a
   healthy/flaky/dead provider mix (the primary is a latency-realistic
   remote with a 30% injected failure rate and a heavy latency tail;
   the backup is a healthy remote; the standby is a dead endpoint),
   with and without hedged requests.  Reported per leg: availability,
   p50/p95 effective latency, failovers and retries per 1k requests,
   and hedge accounting.  The acceptance bar: ≥99% availability under
   the 30%-failure primary, and hedging must reduce p95 latency in the
   same scenario.

2. **End-to-end SQL drift** — the full parser answering Spider dev
   questions with its LM prior routed through a flaky-primary router
   (30% injected failures, local failover target), compared
   byte-for-byte against the default single-local-provider parser.
   Every simulated provider wraps the same local LM, so failover must
   never change an answer: drift is asserted to be zero on every
   request that succeeds.
"""

from repro.config import get_model_config
from repro.errors import ReproError
from repro.lm.providers import ProviderSpec, RouterConfig, build_router
from repro.lm.registry import DEFAULT_LM_REGISTRY
from repro.reliability import FakeClock
from repro.serving import nearest_rank

from repro import CodeSParser, pair_samples

N_REQUESTS = 2000
FAILURE_RATE = 0.3
HEDGE_DELAY_S = 0.06
DRIFT_LIMIT = 24


def _chaos_config(hedge_delay_s):
    return RouterConfig(
        providers=(
            ProviderSpec(
                name="primary",
                kind="remote",
                priority=0,
                failure_rate=FAILURE_RATE,
                latency_median_s=0.03,
                latency_tail_p=0.10,
                latency_tail_mult=10.0,
                timeout_s=1.0,
                seed=11,
            ),
            ProviderSpec(
                name="backup",
                kind="remote",
                priority=1,
                latency_median_s=0.03,
                seed=12,
            ),
            ProviderSpec(name="standby", kind="dead", priority=2),
        ),
        retry_max_attempts=2,
        hedge_delay_s=hedge_delay_s,
        probe_interval_s=0.5,
        breaker_failure_threshold=3,
        breaker_recovery_timeout_s=2.0,
        name="failover-bench",
    )


PAYLOADS = (
    "SELECT name FROM singer WHERE age > 30",
    "SELECT count(*) FROM concert",
    "SELECT avg(capacity) FROM stadium",
    "SELECT name FROM singer ORDER BY age DESC",
)


def _run_leg(lm, hedge_delay_s):
    clock = FakeClock()
    router = build_router(_chaos_config(hedge_delay_s), lm, clock=clock)
    texts = lm.seen_sql[:8] or list(PAYLOADS)
    succeeded = 0
    for index in range(N_REQUESTS):
        try:
            router.score(texts[index % len(texts)])
            succeeded += 1
        except ReproError:
            pass
        clock.advance(0.005)
    counters = router.counters
    per_k = 1000.0 / N_REQUESTS
    return {
        "leg": "hedged" if hedge_delay_s is not None else "no hedge",
        "availability": round(succeeded / N_REQUESTS, 4),
        "p50 s": round(nearest_rank(router.effective_latencies, 50), 4),
        "p95 s": round(nearest_rank(router.effective_latencies, 95), 4),
        "failovers/1k": round(counters["failovers"] * per_k, 2),
        "retries/1k": round(counters["retries"] * per_k, 2),
        "hedges": counters["hedges_fired"],
        "hedge wins": counters["hedge_wins"],
        "discarded": counters["hedge_discarded"],
    }


def test_failover_availability_and_hedging(benchmark, report):
    lm = DEFAULT_LM_REGISTRY.lm_for(get_model_config("codes-7b"))

    def run():
        return [_run_leg(lm, None), _run_leg(lm, HEDGE_DELAY_S)]

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "provider_failover",
        rows,
        title=(
            f"Provider failover: {FAILURE_RATE:.0%}-failure flaky primary, "
            f"{N_REQUESTS} requests (seeded FakeClock)"
        ),
    )
    no_hedge, hedged = rows
    assert no_hedge["availability"] >= 0.99
    assert hedged["availability"] >= 0.99
    # hedging exists to cut the tail: p95 must improve.
    assert hedged["p95 s"] < no_hedge["p95 s"]
    assert no_hedge["failovers/1k"] > 0


def test_zero_sql_drift_under_flaky_primary(benchmark, spider, report):
    flaky_providers = RouterConfig(
        providers=(
            ProviderSpec(
                name="primary",
                kind="flaky",
                priority=0,
                failure_rate=FAILURE_RATE,
                seed=13,
            ),
            ProviderSpec(name="fallback", kind="local", priority=1),
        ),
        retry_max_attempts=2,
        breaker_failure_threshold=3,
        breaker_recovery_timeout_s=2.0,
        name="drift-bench",
    )

    def run():
        baseline = CodeSParser("codes-1b")
        chaotic = CodeSParser("codes-1b", providers=flaky_providers)
        pairs = pair_samples(spider)
        baseline.fit(pairs)
        chaotic.fit(pairs)
        examples = spider.dev[:DRIFT_LIMIT]
        succeeded = 0
        drifted = 0
        for example in examples:
            database = spider.database_of(example)
            expected = baseline.generate(example.question, database).sql
            try:
                actual = chaotic.generate(example.question, database).sql
            except ReproError:
                continue
            succeeded += 1
            if actual != expected:
                drifted += 1
        router = chaotic.router
        return {
            "requests": len(examples),
            "succeeded": succeeded,
            "drifted": drifted,
            "injected failures": router.as_rows()[0]["fail"],
            "router retries": router.counters["retries"],
            "failovers": router.counters["failovers"],
        }

    row = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "provider_sql_drift",
        [row],
        title=(
            f"End-to-end SQL drift: {FAILURE_RATE:.0%}-failure flaky primary "
            "vs default parser (Spider dev)"
        ),
    )
    assert row["succeeded"] / row["requests"] >= 0.99
    assert row["drifted"] == 0
    # the chaos was real: faults were injected and routed around.
    assert row["injected failures"] > 0
