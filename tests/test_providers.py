"""LM provider layer — protocol, router, failover, hedging, breakers.

Everything here runs on a :class:`FakeClock` with seeded RNGs, so
routing decisions are byte-stable across runs: same config, same
seeds, same call order → identical events, counters, and effective
latencies.  Run with ``pytest -m providers``.
"""

import json

import pytest

from repro.config import get_model_config
from repro.core import CodeSParser
from repro.errors import (
    AllProvidersOpenError,
    GenerationError,
    ProviderFaultError,
    ProviderTimeoutError,
)
from repro.lm.providers import (
    DeadProvider,
    FlakyProvider,
    LatencyModel,
    LocalLMProvider,
    Provider,
    ProviderCapabilities,
    ProviderResponse,
    ProviderRouter,
    ProviderSpec,
    RemoteProvider,
    RouterConfig,
    build_router,
    local_router,
)
from repro.lm.registry import DEFAULT_LM_REGISTRY, LMRegistry
from repro.reliability import FakeClock, FaultDecider, FlakyLLM, RetryPolicy
from repro.reliability.breaker import OPEN

pytestmark = pytest.mark.providers


@pytest.fixture(scope="module")
def lm():
    return DEFAULT_LM_REGISTRY.lm_for(get_model_config("codes-7b"))


SQL = "SELECT name FROM users WHERE age > 30"


class _ScriptedProvider:
    """A provider whose per-call latency/failure sequence is scripted.

    Each entry in ``script`` is a float (success with that reported
    latency) or an exception instance (raised).  The script wraps
    around when exhausted.
    """

    def __init__(self, name, script, value="SELECT 1"):
        self.name = name
        self.capabilities = ProviderCapabilities()
        self.script = list(script)
        self.value = value
        self.calls = 0

    def _next(self):
        step = self.script[self.calls % len(self.script)]
        self.calls += 1
        if isinstance(step, BaseException):
            raise step
        return ProviderResponse(value=self.value, latency_s=step, provider=self.name)

    def generate(self, prompt):
        return self._next()

    def score(self, text):
        return self._next()

    def health(self):
        from repro.lm.providers import HealthReport

        return HealthReport(provider=self.name, healthy=True)


def _chaos_router(lm, clock, hedge_delay_s=0.02):
    config = RouterConfig(
        providers=(
            ProviderSpec(
                name="primary", kind="flaky", priority=0, failure_rate=0.3, seed=1
            ),
            ProviderSpec(
                name="backup",
                kind="remote",
                priority=1,
                latency_median_s=0.03,
                latency_tail_p=0.05,
                seed=2,
            ),
            ProviderSpec(name="standby", kind="dead", priority=2),
        ),
        retry_max_attempts=2,
        hedge_delay_s=hedge_delay_s,
        probe_interval_s=0.5,
        name="chaos",
    )
    return build_router(config, lm, clock=clock)


class TestProviderProtocol:
    def test_adapters_satisfy_protocol(self, lm):
        local = LocalLMProvider(lm)
        assert isinstance(local, Provider)
        assert isinstance(FlakyProvider(local), Provider)
        assert isinstance(RemoteProvider(local), Provider)
        assert isinstance(DeadProvider(), Provider)

    def test_local_score_matches_lm_exactly(self, lm):
        provider = LocalLMProvider(lm)
        response = provider.score(SQL)
        assert response.value == lm.score(SQL)
        assert response.latency_s == 0.0

    def test_local_generate_returns_seen_sql(self, lm):
        provider = LocalLMProvider(lm)
        response = provider.generate("how many users are there")
        assert response.value in lm.seen_sql

    def test_capabilities_reject_unknown_op(self, lm):
        with pytest.raises(ValueError):
            LocalLMProvider(lm).capabilities.supports("translate")

    def test_flaky_injects_fault_and_timeout(self, lm):
        provider = FlakyProvider(LocalLMProvider(lm), failure_rate=1.0)
        with pytest.raises(ProviderFaultError):
            provider.score(SQL)
        assert provider.injected_failures == 1
        timeouts = FlakyProvider(
            LocalLMProvider(lm), timeout_rate=1.0, timeout_s=2.5
        )
        with pytest.raises(ProviderTimeoutError) as excinfo:
            timeouts.score(SQL)
        assert excinfo.value.latency_s == 2.5

    def test_flaky_health_probe_consumes_fault_draw(self, lm):
        provider = FlakyProvider(LocalLMProvider(lm), failure_rate=1.0)
        report = provider.health()
        assert not report.healthy
        assert provider.injected_failures == 1

    def test_remote_latency_sequence_is_seeded(self, lm):
        def latencies(seed):
            provider = RemoteProvider(
                LocalLMProvider(lm),
                latency=LatencyModel(median_s=0.05, sigma=0.4),
                seed=seed,
            )
            return [provider.score(SQL).latency_s for _ in range(20)]

        assert latencies(7) == latencies(7)
        assert latencies(7) != latencies(8)

    def test_remote_natural_timeout(self, lm):
        provider = RemoteProvider(
            LocalLMProvider(lm),
            latency=LatencyModel(median_s=50.0, sigma=0.01),
            timeout_s=1.0,
        )
        with pytest.raises(ProviderTimeoutError) as excinfo:
            provider.score(SQL)
        assert excinfo.value.latency_s == 1.0
        assert provider.natural_timeouts == 1

    def test_dead_provider_always_fails(self):
        provider = DeadProvider(latency_s=0.2)
        with pytest.raises(ProviderFaultError) as excinfo:
            provider.generate("anything")
        assert excinfo.value.latency_s == 0.2
        assert not provider.health().healthy


class TestRouterParity:
    def test_local_router_score_is_exact(self, lm):
        clock = FakeClock()
        router = local_router(lm, clock=clock)
        assert router.score(SQL) == lm.score(SQL)
        # zero-latency local provider: the clock is never charged.
        assert clock.sleeps == []

    def test_parser_default_router_preserves_lm_scores(self):
        parser = CodeSParser("codes-1b")
        assert parser.router.score(SQL) == parser.lm.score(SQL)


class TestRouterDeterminism:
    def test_routing_history_is_byte_stable_across_runs(self, lm):
        def run():
            clock = FakeClock()
            router = _chaos_router(lm, clock)
            outcomes = []
            for index in range(150):
                try:
                    outcomes.append(router.score(SQL))
                except AllProvidersOpenError:
                    outcomes.append("all-open")
                except (ProviderFaultError, ProviderTimeoutError) as exc:
                    outcomes.append(type(exc).__name__)
                clock.advance(0.01)
            stats = router.stats_dict()
            return (
                json.dumps(stats, sort_keys=True),
                list(router.events),
                list(router.effective_latencies),
                outcomes,
            )

        assert run() == run()

    def test_chaos_mix_reaches_high_availability(self, lm):
        clock = FakeClock()
        router = _chaos_router(lm, clock)
        succeeded = 0
        for _ in range(500):
            try:
                router.score(SQL)
                succeeded += 1
            except (AllProvidersOpenError, ProviderFaultError, ProviderTimeoutError):
                pass
            clock.advance(0.01)
        assert succeeded / 500 >= 0.99
        # failover actually engaged — the mix is not just the primary.
        assert router.failovers > 0


class TestRetriesAndFailover:
    def test_retry_then_success_accounting(self, lm):
        clock = FakeClock()
        fail = ProviderFaultError("boom", latency_s=0.05)
        provider = _ScriptedProvider("p", [fail, 0.01])
        router = ProviderRouter(
            [provider],
            clock=clock,
            retry=RetryPolicy(max_attempts=2, base_delay_s=0.1, jitter=0.0),
        )
        assert router.score(SQL) == "SELECT 1"
        assert router.total_retries == 1
        # effective latency = failed latency + backoff + success latency
        assert router.effective_latencies == [
            pytest.approx(0.05 + 0.1 + 0.01)
        ]
        assert clock.sleeps == [pytest.approx(0.16)]

    def test_failover_to_backup_on_exhausted_retries(self, lm):
        clock = FakeClock()
        router = ProviderRouter(
            [
                (DeadProvider(name="dead", latency_s=0.02), 0),
                (_ScriptedProvider("ok", [0.01]), 1),
            ],
            clock=clock,
            retry=RetryPolicy(max_attempts=2, base_delay_s=0.1, jitter=0.0),
        )
        result = router.route("score", SQL)
        assert result.value == "SELECT 1"
        assert result.provider == "ok"
        assert result.failovers == 1
        assert router.failovers == 1
        # both dead attempts + backoff + backup latency are charged.
        assert result.effective_latency_s == pytest.approx(
            0.02 + 0.1 + 0.02 + 0.01
        )

    def test_breaker_open_skips_primary_entirely(self, lm):
        clock = FakeClock()
        dead = DeadProvider(name="dead")
        ok = _ScriptedProvider("ok", [0.0])
        router = ProviderRouter(
            [(dead, 0), (ok, 1)],
            clock=clock,
            breaker_failure_threshold=2,
            breaker_recovery_timeout_s=60.0,
        )
        for _ in range(2):
            router.score(SQL)
        assert router.entries[0].breaker.stats.state == OPEN
        calls_before = dead.calls
        router.score(SQL)
        # the open breaker kept the dead provider out of the candidates.
        assert dead.calls == calls_before
        assert router.failovers == 2

    def test_all_providers_open_raises(self, lm):
        clock = FakeClock()
        router = ProviderRouter(
            [DeadProvider(name="d1"), DeadProvider(name="d2")],
            clock=clock,
            breaker_failure_threshold=1,
            breaker_recovery_timeout_s=60.0,
        )
        with pytest.raises(ProviderFaultError):
            router.score(SQL)
        with pytest.raises(AllProvidersOpenError):
            router.score(SQL)
        assert router.all_open_sheds == 1

    def test_generate_requires_capable_provider(self, lm):
        score_only = _ScriptedProvider("scorer", [0.0])
        score_only.capabilities = ProviderCapabilities(can_generate=False)
        router = ProviderRouter([score_only], clock=FakeClock())
        assert router.score(SQL) == "SELECT 1"
        with pytest.raises(ValueError):
            router.generate("question")


class TestHedging:
    def test_backup_wins_slow_primary(self, lm):
        clock = FakeClock()
        router = ProviderRouter(
            [
                (_ScriptedProvider("slow", [0.10], value="A"), 0),
                (_ScriptedProvider("fast", [0.01], value="A"), 1),
            ],
            clock=clock,
            hedge_delay_s=0.02,
        )
        result = router.route("score", SQL)
        assert result.hedged and result.hedge_won
        assert result.provider == "fast"
        # winner completes at hedge_delay + backup latency.
        assert result.effective_latency_s == pytest.approx(0.03)
        assert router.hedges_fired == 1
        assert router.hedge_wins == 1
        assert router.hedge_discarded == 1  # the primary's result

    def test_primary_wins_when_backup_is_slower(self, lm):
        clock = FakeClock()
        router = ProviderRouter(
            [
                (_ScriptedProvider("slowish", [0.05]), 0),
                (_ScriptedProvider("slower", [0.20]), 1),
            ],
            clock=clock,
            hedge_delay_s=0.02,
        )
        result = router.route("score", SQL)
        assert result.hedged and not result.hedge_won
        assert result.provider == "slowish"
        assert result.effective_latency_s == pytest.approx(0.05)
        assert router.hedge_wins == 0
        assert router.hedge_discarded == 1  # the backup's result

    def test_fast_primary_fires_no_hedge(self, lm):
        clock = FakeClock()
        router = ProviderRouter(
            [
                (_ScriptedProvider("fast", [0.01]), 0),
                (_ScriptedProvider("backup", [0.01]), 1),
            ],
            clock=clock,
            hedge_delay_s=0.02,
        )
        result = router.route("score", SQL)
        assert not result.hedged
        assert router.hedges_fired == 0

    def test_failed_hedge_leaves_primary_result(self, lm):
        clock = FakeClock()
        router = ProviderRouter(
            [
                (_ScriptedProvider("slow", [0.10], value="A"), 0),
                (DeadProvider(name="dead"), 1),
            ],
            clock=clock,
            hedge_delay_s=0.02,
        )
        result = router.route("score", SQL)
        assert result.hedged and not result.hedge_won
        assert result.value == "A"
        assert router.hedges_fired == 1
        assert router.hedge_discarded == 0  # the backup produced nothing

    def test_hedging_reduces_p95_on_tail_latency(self, lm):
        def run(hedge_delay_s):
            clock = FakeClock()
            config = RouterConfig(
                providers=(
                    ProviderSpec(
                        name="a",
                        kind="remote",
                        priority=0,
                        latency_median_s=0.03,
                        latency_tail_p=0.10,
                        latency_tail_mult=10.0,
                        seed=3,
                    ),
                    ProviderSpec(
                        name="b",
                        kind="remote",
                        priority=1,
                        latency_median_s=0.03,
                        seed=4,
                    ),
                ),
                hedge_delay_s=hedge_delay_s,
                name="tail",
            )
            router = build_router(config, lm, clock=clock)
            for _ in range(300):
                router.score(SQL)
                clock.advance(0.001)
            return router.latency_quantile(0.95)

        assert run(0.06) < run(None)


class TestProviderBreakerConcurrency:
    def test_half_open_provider_breaker_admits_one_probe_under_race(self, lm):
        # Mirror of the reliability-layer regression test, but on a
        # breaker the router built for a provider: worker threads
        # racing at a freshly half-open provider circuit win exactly
        # one probe between them.
        import threading

        clock = FakeClock()
        router = ProviderRouter(
            [DeadProvider(name="dead")],
            clock=clock,
            breaker_failure_threshold=1,
            breaker_recovery_timeout_s=1.0,
        )
        with pytest.raises(ProviderFaultError):
            router.score(SQL)
        breaker = router.entries[0].breaker
        assert breaker.stats.state == OPEN
        clock.advance(1.0)  # OPEN -> eligible for HALF_OPEN on next admit

        n_threads = 8
        barrier = threading.Barrier(n_threads)
        admitted = []
        admitted_lock = threading.Lock()

        def race():
            barrier.wait()
            if breaker.admit():
                with admitted_lock:
                    admitted.append(threading.current_thread().name)

        threads = [threading.Thread(target=race) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(admitted) == 1


class TestServingIntegration:
    def _server(self, generate):
        from repro.serving import Server, ServeRequest

        class _StubDb:
            pass

        class _StubParser:
            def __init__(self):
                self.generate = generate

        from repro.serving import ServerConfig

        server = Server(
            _StubParser(),
            {"db": _StubDb()},
            config=ServerConfig(),
            clock=FakeClock(),
        )
        return server, ServeRequest(
            request_id="r1", question="q", db_id="db"
        )

    def test_all_providers_open_maps_to_provider_shed(self):
        from repro.serving import ProviderShed

        def generate(question, database, engine=None, effort="full"):
            raise AllProvidersOpenError("router 'x': all providers open")

        server, request = self._server(generate)
        assert server.submit(request) is None
        outcomes = server.drain()
        assert len(outcomes) == 1
        assert isinstance(outcomes[0], ProviderShed)
        assert outcomes[0].status == "provider_shed"
        metrics = server.metrics()
        assert metrics.provider_sheds == 1
        assert metrics.shed.get("provider_shed") == 1
        # the *database* breaker is not charged for a provider outage.
        assert server._breakers["db"].stats.consecutive_failures == 0

    def test_server_metrics_surface_router_stats(self, lm):
        from repro.serving import Server, ServeRequest

        clock = FakeClock()
        parser = CodeSParser("codes-1b", clock=clock)

        class _StubDb:
            pass

        server = Server(parser, {"db": _StubDb()}, clock=clock)
        parser.router.score(SQL)
        metrics = server.metrics()
        assert metrics.provider_requests >= 1
        assert metrics.providers[0]["breaker"]["state"] == "closed"
        rows = metrics.as_rows()
        assert any(row["metric"].startswith("provider ") for row in rows)


class TestRegistryLifecycle:
    def test_router_for_caches_per_config(self):
        registry = LMRegistry()
        config = get_model_config("codes-1b")
        first = registry.router_for(config)
        assert registry.router_for(config) is first
        hedged = registry.router_for(
            config, RouterConfig(hedge_delay_s=0.05)
        )
        assert hedged is not first
        assert registry.stats["routers"] == 2

    def test_router_clear(self):
        registry = LMRegistry()
        registry.router_for(get_model_config("codes-1b"))
        assert registry.stats["routers"] == 1
        registry.clear()
        assert registry.stats["routers"] == 0

    def test_clock_identity_isolates_routers(self):
        registry = LMRegistry()
        config = get_model_config("codes-1b")
        shared = registry.router_for(config)
        isolated = registry.router_for(config, clock=FakeClock())
        assert isolated is not shared


class TestRouterConfig:
    def test_from_dict_roundtrip(self):
        raw = {
            "providers": [
                {"name": "p", "kind": "flaky", "failure_rate": 0.2},
                {"name": "q", "kind": "remote", "priority": 1},
            ],
            "hedge_delay_s": 0.05,
            "retry_max_attempts": 2,
            "name": "parsed",
        }
        config = RouterConfig.from_dict(raw)
        assert config.providers[0].failure_rate == 0.2
        assert config.providers[1].kind == "remote"
        assert config.hedge_delay_s == 0.05

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError):
            RouterConfig.from_dict({"hedge": 1})
        with pytest.raises(ValueError):
            ProviderSpec.from_dict({"name": "p", "kid": "local"})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ProviderSpec(name="p", kind="quantum")


class TestFlakyLLMShim:
    def test_shim_sequence_matches_shared_decider(self):
        # The shim keeps the pre-port RNG label, so its fault sequence
        # is exactly what a bare FaultDecider with the same label
        # predicts — the eval harness and router chaos share one core.
        class _Gen:
            def generate(self, question, database, **kwargs):
                return "ok"

        flaky = FlakyLLM(_Gen(), failure_rate=0.4, timeout_rate=0.2, seed=2)
        oracle = FaultDecider(
            failure_rate=0.4, timeout_rate=0.2, seed=2, label="flaky-llm"
        )
        observed = []
        for _ in range(50):
            try:
                flaky.generate("q", None)
                observed.append(None)
            except GenerationError:
                observed.append("failure")
            except Exception:
                observed.append("timeout")
        expected = [oracle.decide()[0] for _ in range(50)]
        assert observed == expected
        assert flaky.injected_failures == oracle.injected_failures
        assert flaky.injected_timeouts == oracle.injected_timeouts

    def test_shim_still_delegates_attributes(self):
        class _Gen:
            tier = "codes-7b"

            def generate(self, question, database, **kwargs):
                return "ok"

        flaky = FlakyLLM(_Gen(), seed=0)
        assert flaky.tier == "codes-7b"
        assert flaky.failure_rate == 0.0


class TestProvidersCLI:
    def test_providers_command_is_byte_stable(self, capsys):
        from repro.cli import main

        argv = ["providers", "--n", "120", "--seed", "3"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "Providers" in first
        assert "availability" in first
