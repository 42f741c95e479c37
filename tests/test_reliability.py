"""Reliability layer: deadlines, retries, breakers, fault injection.

Everything here is deterministic: time flows through ``FakeClock``
(no real sleeps), fault injection is seeded, and the two-run identity
tests assert byte-identical failure accounting.
"""

import pytest

from repro.datasets.base import Text2SQLDataset, Text2SQLExample
from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    ExecutionError,
    GenerationError,
    PromptBudgetError,
    ReproError,
)
from repro.eval.execution import (
    GOLD_TIMEOUT,
    GOLD_UNEXECUTABLE,
    PREDICTION_TIMEOUT,
    PREDICTION_UNEXECUTABLE,
    execution_match_outcome,
)
from repro.eval.harness import GENERATION_FAILED, SENTINEL_SQL, evaluate_parser
from repro.eval.reporting import format_failure_report
from repro.reliability import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    Deadline,
    ExecutionGuard,
    FakeClock,
    FaultyDatabase,
    FlakyLLM,
    RetryPolicy,
)

from tests.fixtures import bank_database

pytestmark = pytest.mark.reliability

#: A 13-way self-join: cheap to parse, far too heavy to finish quickly.
HEAVY_SQL = (
    "SELECT COUNT(*) FROM client a, client b, client c, client d, "
    "client e, client f, client g, client h, client i, client j, "
    "client k, client l, client m"
)


class StubResult:
    def __init__(self, sql, tier="beam"):
        self.sql = sql
        self.tier = tier


class StubParser:
    """Cycles through a fixed list of SQL answers (or exceptions)."""

    def __init__(self, answers):
        self.answers = list(answers)
        self.calls = 0

    def generate(self, question, database, **kwargs):
        answer = self.answers[self.calls % len(self.answers)]
        self.calls += 1
        if isinstance(answer, BaseException):
            raise answer
        return StubResult(answer)


def _dataset(database, golds, db_id="mini_bank"):
    return Text2SQLDataset(
        name="mini",
        databases={db_id: database},
        dev=[
            Text2SQLExample(f"question {i}", sql, db_id)
            for i, sql in enumerate(golds)
        ],
    )


COUNT_CLIENTS = "SELECT COUNT(*) FROM client"


class TestDeadline:
    def test_expiry_follows_fake_clock(self):
        clock = FakeClock()
        deadline = Deadline.after(2.0, clock=clock)
        assert not deadline.expired()
        assert deadline.remaining() == pytest.approx(2.0)
        clock.advance(3.0)
        assert deadline.expired()
        with pytest.raises(DeadlineExceededError):
            deadline.check("test op")

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ValueError):
            Deadline.after(0.0)

    def test_error_carries_budget_and_elapsed(self):
        clock = FakeClock()
        deadline = Deadline.after(1.0, clock=clock)
        clock.advance(4.0)
        with pytest.raises(DeadlineExceededError) as excinfo:
            deadline.check()
        assert excinfo.value.budget_s == pytest.approx(1.0)
        assert excinfo.value.elapsed_s == pytest.approx(4.0)

    def test_deadline_error_is_execution_and_timeout_error(self):
        # Legacy except ExecutionError paths and generic timeout
        # handling must both see the new error.
        assert issubclass(DeadlineExceededError, ExecutionError)
        assert issubclass(DeadlineExceededError, TimeoutError)
        assert issubclass(DeadlineExceededError, ReproError)

    def test_execute_aborts_runaway_query_by_wall_clock(self):
        database = bank_database()
        with pytest.raises(DeadlineExceededError):
            database.execute(HEAVY_SQL, deadline=Deadline.after(0.05))

    def test_execute_fine_within_budget(self):
        database = bank_database()
        rows = database.execute(COUNT_CLIENTS, deadline=Deadline.after(5.0))
        assert rows == [(4,)]

    def test_pre_expired_deadline_raises_before_executing(self):
        database = bank_database()
        clock = FakeClock()
        deadline = Deadline.after(1.0, clock=clock)
        clock.advance(2.0)
        with pytest.raises(DeadlineExceededError):
            database.execute(COUNT_CLIENTS, deadline=deadline)

    def test_is_executable_treats_timeout_as_not_executable(self):
        database = bank_database()
        assert not database.is_executable(HEAVY_SQL, deadline=Deadline.after(0.05))
        assert database.is_executable(COUNT_CLIENTS, deadline=Deadline.after(5.0))


class TestExecutionGuard:
    def test_restores_pre_existing_handler(self):
        database = bank_database()
        polls = []
        database._push_progress_handler(lambda: polls.append(1) and 0, 10)
        with ExecutionGuard(database, Deadline.after(5.0)):
            assert len(database._handler_stack) == 2
        # The outer handler is back on top, not cleared.
        assert len(database._handler_stack) == 1
        database._pop_progress_handler()
        assert database._handler_stack == []

    def test_nested_execute_restores_guard(self):
        database = bank_database()
        with ExecutionGuard(database, Deadline.after(5.0)) as guard:
            database.execute(COUNT_CLIENTS)  # pushes and pops its own handler
            assert database._handler_stack[-1][0] == guard._on_progress
        assert database._handler_stack == []

    def test_outer_guard_interrupts_nested_statement(self):
        # The satellite fix: an outer wall-clock guard must still bite
        # while a *nested* execute() runs under the VM-step budget.
        database = bank_database()
        with pytest.raises(DeadlineExceededError):
            with ExecutionGuard(database, Deadline.after(0.05)):
                database.execute(HEAVY_SQL)


class TestRetryPolicy:
    def test_schedule_is_deterministic_per_seed(self):
        assert RetryPolicy(seed=3).delays() == RetryPolicy(seed=3).delays()
        assert RetryPolicy(seed=3).delays() != RetryPolicy(seed=4).delays()

    def test_schedule_is_bounded_and_backs_off(self):
        policy = RetryPolicy(
            max_attempts=6, base_delay_s=0.1, max_delay_s=0.5,
            multiplier=2.0, jitter=0.0,
        )
        assert policy.delays() == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_attempts_bounded_and_last_error_reraised(self):
        clock = FakeClock()
        calls = []

        def always_fails():
            calls.append(1)
            raise ExecutionError(f"failure {len(calls)}")

        policy = RetryPolicy(max_attempts=3, seed=0)
        with pytest.raises(ExecutionError, match="failure 3"):
            policy.call(always_fails, clock=clock)
        assert len(calls) == 3
        assert len(clock.sleeps) == 2  # no sleep after the final attempt

    def test_transient_failure_recovers(self):
        clock = FakeClock()
        state = {"calls": 0}

        def flaky():
            state["calls"] += 1
            if state["calls"] < 3:
                raise ExecutionError("transient")
            return "ok"

        assert RetryPolicy(max_attempts=4).call(flaky, clock=clock) == "ok"
        assert state["calls"] == 3

    def test_non_retryable_error_propagates_immediately(self):
        calls = []

        def raises_value_error():
            calls.append(1)
            raise ValueError("not a library failure")

        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=5).call(raises_value_error, clock=FakeClock())
        assert len(calls) == 1

    def test_no_real_sleep_with_fake_clock(self):
        clock = FakeClock()
        policy = RetryPolicy(max_attempts=4, base_delay_s=100.0, seed=1)
        with pytest.raises(ExecutionError):
            policy.call(lambda: (_ for _ in ()).throw(ExecutionError("x")), clock=clock)
        assert clock.sleeps == policy.delays()

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3, clock=FakeClock())
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(failure_threshold=2, clock=FakeClock())
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED

    def test_open_rejects_calls(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, recovery_timeout_s=10.0, clock=clock, name="db1"
        )
        breaker.record_failure()
        with pytest.raises(CircuitOpenError, match="db1"):
            breaker.call(lambda: "never runs")

    def test_half_open_after_recovery_then_closes_on_success(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, recovery_timeout_s=10.0, clock=clock
        )
        breaker.record_failure()
        assert breaker.state == OPEN
        clock.advance(10.0)
        assert breaker.state == HALF_OPEN
        assert breaker.call(lambda: "probe ok") == "probe ok"
        assert breaker.state == CLOSED

    def test_half_open_failure_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, recovery_timeout_s=5.0, clock=clock
        )
        breaker.record_failure()
        clock.advance(5.0)
        with pytest.raises(ExecutionError):
            breaker.call(lambda: (_ for _ in ()).throw(ExecutionError("still bad")))
        assert breaker.state == OPEN
        # and it stays open until another recovery window elapses
        with pytest.raises(CircuitOpenError):
            breaker.call(lambda: "rejected")

    def test_half_open_probe_budget(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, recovery_timeout_s=1.0, clock=clock,
        )
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.admit()  # first probe admitted
        assert not breaker.admit()  # second rejected while probe in flight
        assert breaker.total_rejections == 1

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(recovery_timeout_s=-1.0)

    def test_half_open_admits_exactly_one_probe_under_racing_threads(self):
        # Regression: admit() used to read state and consume the probe
        # slot non-atomically, so threads racing at a freshly half-open
        # circuit could all win the single probe.  A barrier lines the
        # threads up on the same admit() call; exactly one may pass.
        import threading

        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, recovery_timeout_s=1.0, clock=clock,
        )
        breaker.record_failure()
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
        assert breaker.total_rejections == n_threads - 1


class TestFaultyDatabase:
    def test_zero_rates_is_transparent(self):
        faulty = FaultyDatabase(bank_database(), seed=0)
        assert faulty.execute(COUNT_CLIENTS) == [(4,)]
        assert faulty.injected_faults == 0

    def test_error_injection_and_counters(self):
        faulty = FaultyDatabase(bank_database(), error_rate=1.0, seed=0)
        with pytest.raises(ExecutionError):
            faulty.execute(COUNT_CLIENTS)
        assert faulty.injected_errors == 1

    def test_timeout_injection_raises_deadline_error(self):
        faulty = FaultyDatabase(bank_database(), timeout_rate=1.0, seed=0)
        with pytest.raises(DeadlineExceededError):
            faulty.execute(COUNT_CLIENTS)
        assert faulty.injected_timeouts == 1

    def test_corruption_changes_rows(self):
        clean = bank_database()
        faulty = FaultyDatabase(bank_database(), corrupt_rate=1.0, seed=0)
        clean_rows = clean.execute("SELECT name FROM client")
        corrupt_rows = faulty.execute("SELECT name FROM client")
        assert corrupt_rows != clean_rows
        assert faulty.injected_corruptions == 1

    def test_same_seed_same_fault_sequence(self):
        def fault_trace(seed):
            faulty = FaultyDatabase(
                bank_database(), error_rate=0.3, timeout_rate=0.2, seed=seed
            )
            trace = []
            for _ in range(30):
                try:
                    faulty.execute(COUNT_CLIENTS)
                    trace.append("ok")
                except DeadlineExceededError:
                    trace.append("timeout")
                except ExecutionError:
                    trace.append("error")
            return trace

        assert fault_trace(11) == fault_trace(11)
        assert fault_trace(11) != fault_trace(12)

    def test_delegates_to_wrapped_database(self):
        database = bank_database()
        faulty = FaultyDatabase(database, seed=0)
        assert faulty.schema is database.schema
        assert faulty.row_count("client") == 4

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            FaultyDatabase(bank_database(), error_rate=1.5)


class TestFlakyLLM:
    def test_injects_generation_failures(self):
        flaky = FlakyLLM(StubParser([COUNT_CLIENTS]), failure_rate=1.0, seed=0)
        with pytest.raises(GenerationError):
            flaky.generate("q", bank_database())
        assert flaky.injected_failures == 1

    def test_injects_timeouts(self):
        flaky = FlakyLLM(StubParser([COUNT_CLIENTS]), timeout_rate=1.0, seed=0)
        with pytest.raises(DeadlineExceededError):
            flaky.generate("q", bank_database())

    def test_delegates_when_lucky(self):
        stub = StubParser([COUNT_CLIENTS])
        flaky = FlakyLLM(stub, failure_rate=0.0, seed=0)
        result = flaky.generate("q", bank_database())
        assert result.sql == COUNT_CLIENTS
        assert stub.calls == 1


class TestClassifiedExecutionMatch:
    def test_clean_match(self):
        outcome = execution_match_outcome(
            bank_database(), COUNT_CLIENTS, COUNT_CLIENTS
        )
        assert outcome.matched and outcome.failure is None

    def test_prediction_unexecutable(self):
        outcome = execution_match_outcome(
            bank_database(), "SELECT nope FROM nothing", COUNT_CLIENTS
        )
        assert not outcome.matched
        assert outcome.failure == PREDICTION_UNEXECUTABLE

    def test_gold_unexecutable_does_not_raise(self):
        outcome = execution_match_outcome(
            bank_database(), COUNT_CLIENTS, "BROKEN GOLD"
        )
        assert not outcome.matched
        assert outcome.failure == GOLD_UNEXECUTABLE
        assert outcome.detail

    def test_prediction_timeout_classified(self):
        outcome = execution_match_outcome(
            bank_database(), HEAVY_SQL, COUNT_CLIENTS, deadline_s=0.05
        )
        assert outcome.failure == PREDICTION_TIMEOUT

    def test_gold_timeout_classified(self):
        outcome = execution_match_outcome(
            bank_database(), COUNT_CLIENTS, HEAVY_SQL, deadline_s=0.05
        )
        assert outcome.failure == GOLD_TIMEOUT

    def test_retry_recovers_transient_gold_failure(self):
        # Fault draws for seed 0: first execute fails, later ones pass,
        # so a retried gold query succeeds within the attempt budget.
        faulty = FaultyDatabase(bank_database(), error_rate=0.4, seed=0)
        clock = FakeClock()
        outcome = execution_match_outcome(
            faulty, COUNT_CLIENTS, COUNT_CLIENTS,
            retry_policy=RetryPolicy(max_attempts=5, seed=0),
            clock=clock,
        )
        assert outcome.matched
        assert faulty.injected_errors >= 1


class TestFaultTolerantHarness:
    def test_broken_gold_is_skipped_and_recorded(self):
        database = bank_database()
        dataset = _dataset(
            database, [COUNT_CLIENTS, "SELECT nope FROM nothing", COUNT_CLIENTS]
        )
        result = evaluate_parser(StubParser([COUNT_CLIENTS]), dataset)
        assert result.n_examples == 3
        assert result.n_scored == 2
        assert result.ex == 1.0
        assert result.failures == {GOLD_UNEXECUTABLE: 1}
        assert len(result.quarantined) == 1
        assert result.quarantined[0].failure == GOLD_UNEXECUTABLE

    def test_acceptance_broken_gold_plus_prediction_timeout(self):
        # The issue's acceptance scenario: one unexecutable gold query
        # AND a parser that times out on one example; the run completes
        # and reports both failure classes.
        database = bank_database()
        dataset = _dataset(
            database,
            [COUNT_CLIENTS, "SELECT nope FROM nothing", COUNT_CLIENTS],
        )
        parser = StubParser([COUNT_CLIENTS, COUNT_CLIENTS, HEAVY_SQL])
        result = evaluate_parser(parser, dataset, deadline_s=0.05)
        assert result.failures[GOLD_UNEXECUTABLE] == 1
        assert result.failures[PREDICTION_TIMEOUT] == 1
        assert result.n_scored == 2

    def test_two_runs_identical_failure_counts(self):
        def run():
            faulty = FaultyDatabase(
                bank_database(), error_rate=0.25, timeout_rate=0.15, seed=5
            )
            dataset = _dataset(faulty, [COUNT_CLIENTS] * 12)
            flaky = FlakyLLM(
                StubParser([COUNT_CLIENTS]), failure_rate=0.2, seed=5
            )
            return evaluate_parser(flaky, dataset, clock=FakeClock())

        first, second = run(), run()
        assert first.failures == second.failures
        assert first.failures  # the rates above must actually inject
        assert first.predictions == second.predictions

    def test_all_repro_errors_from_generation_are_captured(self):
        # The satellite fix: a PromptBudgetError must be recorded, not
        # kill the run as it did when only GenerationError was caught.
        database = bank_database()
        dataset = _dataset(database, [COUNT_CLIENTS] * 3)
        parser = StubParser(
            [
                PromptBudgetError("prompt too large"),
                GenerationError("no candidates"),
                COUNT_CLIENTS,
            ]
        )
        result = evaluate_parser(parser, dataset)
        assert result.failures[GENERATION_FAILED] == 2
        assert result.predictions[0] == SENTINEL_SQL
        assert result.predictions[2] == COUNT_CLIENTS
        details = [r.detail for r in result.quarantined]
        assert any("PromptBudgetError" in detail for detail in details)

    def test_circuit_breaker_stops_hammering_corrupt_database(self):
        faulty = FaultyDatabase(bank_database(), error_rate=1.0, seed=0)
        dataset = _dataset(faulty, [COUNT_CLIENTS] * 8)
        # static_eval off: prediction and gold are textually identical,
        # so the equivalence short-circuit would skip every execution
        # and the injected gold faults this test exists to observe.
        result = evaluate_parser(
            StubParser([COUNT_CLIENTS]), dataset,
            breaker_threshold=2, clock=FakeClock(), static_eval=False,
        )
        assert result.failures[GOLD_UNEXECUTABLE] == 8
        # Only the first two examples hit the database; the rest were
        # rejected by the open circuit without consuming attempts.
        assert faulty.injected_errors == 2
        assert any("circuit open" in r.detail for r in result.quarantined)

    def test_retries_recover_flaky_generation(self):
        database = bank_database()
        dataset = _dataset(database, [COUNT_CLIENTS] * 6)
        flaky = FlakyLLM(StubParser([COUNT_CLIENTS]), failure_rate=0.4, seed=2)
        clean = evaluate_parser(flaky, dataset, clock=FakeClock(), max_retries=8)
        assert clean.failures.get(GENERATION_FAILED, 0) == 0
        assert clean.ex == 1.0

    def test_mean_latency_over_actual_measurements(self):
        database = bank_database()
        dataset = _dataset(database, [COUNT_CLIENTS] * 4)
        empty = evaluate_parser(StubParser([COUNT_CLIENTS]), dataset, limit=0)
        assert empty.n_examples == 0
        assert empty.mean_latency_s == 0.0
        partial = evaluate_parser(StubParser([COUNT_CLIENTS]), dataset, limit=2)
        assert partial.mean_latency_s > 0.0

    def test_negative_max_retries_rejected(self):
        dataset = _dataset(bank_database(), [COUNT_CLIENTS])
        with pytest.raises(ValueError):
            evaluate_parser(StubParser([COUNT_CLIENTS]), dataset, max_retries=-1)

    def test_negative_demonstrations_per_question_rejected(self):
        dataset = _dataset(bank_database(), [COUNT_CLIENTS])
        with pytest.raises(ValueError, match="demonstrations_per_question"):
            evaluate_parser(
                StubParser([COUNT_CLIENTS]), dataset, demonstrations_per_question=-2
            )

    def test_failure_report_rendering(self):
        dataset = _dataset(
            bank_database(), [COUNT_CLIENTS, "SELECT nope FROM nothing"]
        )
        result = evaluate_parser(StubParser([COUNT_CLIENTS]), dataset)
        report = format_failure_report(result)
        assert GOLD_UNEXECUTABLE in report
        assert "question 1" in report
        clean = evaluate_parser(StubParser([COUNT_CLIENTS]), dataset, limit=1)
        assert format_failure_report(clean) == ""

    def test_as_row_reports_failure_total(self):
        dataset = _dataset(
            bank_database(), [COUNT_CLIENTS, "SELECT nope FROM nothing"]
        )
        result = evaluate_parser(StubParser([COUNT_CLIENTS]), dataset)
        assert result.as_row()["failures"] == 1
        clean = evaluate_parser(StubParser([COUNT_CLIENTS]), dataset, limit=1)
        assert "failures" not in clean.as_row()


class TestGracefulDegradation:
    def test_fitted_parser_reports_beam_tier(self):
        from repro import CodeSParser

        parser = CodeSParser("codes-1b")
        database = bank_database()
        result = parser.generate(
            "How many clients are there?", database, demonstrations=[]
        )
        assert result.tier in ("beam", "skeleton", "sentinel")
        assert database.is_executable(result.sql)

    def test_sentinel_when_beam_cannot_execute(self):
        from repro import CodeSParser, Column, Database, Schema, Table

        # A schema whose only table has one untyped column exercises
        # the lower degradation tiers without any fitted index.
        schema = Schema(
            name="degenerate",
            tables=(Table(name="t", columns=(Column("c", "TEXT"),)),),
        )
        database = Database.from_schema(schema)
        parser = CodeSParser("codes-1b")
        result = parser.generate("completely unrelated gibberish",
                                 database, demonstrations=[])
        assert result.tier in ("beam", "skeleton", "sentinel")
        assert database.is_executable(result.sql)
