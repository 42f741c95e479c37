"""End-to-end evaluation harness: run a parser over a benchmark split.

The harness is fault-tolerant: per-example failures are captured and
classified (see the taxonomy in :mod:`repro.eval.execution` plus
``generation_failed`` here) instead of aborting the run.  Examples
whose *gold* query cannot execute are skipped-and-recorded on a
quarantine list — one broken benchmark entry no longer kills an entire
evaluation — and a per-database circuit breaker stops a corrupted
database from consuming the retry budget of every example that
references it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Protocol

from repro.analysis.analyzer import SemanticAnalyzer
from repro.analysis.catalog import SchemaCatalog
from repro.analysis.diagnostics import has_errors
from repro.analysis.equivalence import Verdict, prove_equivalent
from repro.core.ranking import SENTINEL_SQL
from repro.datasets.base import Text2SQLDataset, Text2SQLExample
from repro.db.backends import backend_for_dialect, create_backend
from repro.db.backends.sqlite import Database
from repro.errors import ReproError, SQLSyntaxError
from repro.sqlgen.dialects import transpile
from repro.eval.execution import (
    GOLD_TIMEOUT,
    GOLD_UNEXECUTABLE,
    PREDICTION_TIMEOUT,
    PREDICTION_UNEXECUTABLE,
    MatchOutcome,
    execution_match_outcome,
)
from repro.eval.testsuite import TestSuite
from repro.eval.ves import valid_efficiency_score
from repro.reliability.breaker import CircuitBreaker
from repro.reliability.clock import SYSTEM_CLOCK, Clock
from repro.reliability.retry import RetryPolicy

#: Generation-side failure class (the parser raised before producing SQL).
GENERATION_FAILED = "generation_failed"

#: The prediction executed but carries error-tier semantic diagnostics
#: (hallucinated schema, aggregate misuse, incompatible types) and did
#: not match gold — the silent-wrong-result class executability hides.
PREDICTION_SEMANTIC_ERROR = "prediction_semantic_error"

#: All failure classes a run can report, in reporting order.
FAILURE_CLASSES = (
    GENERATION_FAILED,
    PREDICTION_UNEXECUTABLE,
    PREDICTION_TIMEOUT,
    PREDICTION_SEMANTIC_ERROR,
    GOLD_UNEXECUTABLE,
    GOLD_TIMEOUT,
)


class SQLGenerator(Protocol):
    """Anything that maps (question, database) to SQL."""

    def generate(self, question: str, database: Database, **kwargs):  # pragma: no cover
        ...


@dataclass(frozen=True)
class FailureRecord:
    """One captured per-example failure (quarantine entry)."""

    index: int
    db_id: str
    question: str
    failure: str
    detail: str = ""


@dataclass
class EvalResult:
    """Aggregate metrics of one evaluation run.

    ``n_scored`` counts the examples whose gold query executed — the
    denominator of EX/TS/VES.  ``failures`` holds nonzero per-class
    failure counts, ``quarantined`` the skipped-and-recorded examples
    (gold-side failures), and ``tiers`` how many answers each
    generation tier produced (``beam`` / ``skeleton`` / ``sentinel``).

    Engine observability: ``stage_timings`` aggregates the per-stage
    traces of every generation (wall time from the injectable Clock,
    cache traffic, executions) — one entry per pipeline stage, empty
    for parsers that do not emit traces.  :meth:`stage_rows` renders
    it for :func:`repro.eval.reporting.format_table`.

    Semantic-analysis accounting: ``diagnostics`` maps analyzer rule
    codes to how often they fired across all predictions, and
    ``executions_avoided`` totals the execution round-trips the static
    passes saved — lint-gate and equivalence-dedup savings inside the
    beam plus two per EX short-circuit (0 for parsers without them).
    ``static_equivalent`` counts predictions proven equivalent to gold
    by the equivalence engine and scored as hits without executing
    either query, and ``beam_deduped`` totals the beam candidates the
    parser collapsed into an already-seen equivalence class.
    """

    name: str
    n_examples: int
    ex: float
    ts: float | None = None
    ves: float | None = None
    mean_latency_s: float = 0.0
    predictions: list[str] = field(default_factory=list, repr=False)
    n_scored: int = 0
    failures: dict[str, int] = field(default_factory=dict)
    quarantined: list[FailureRecord] = field(default_factory=list, repr=False)
    tiers: dict[str, int] = field(default_factory=dict, repr=False)
    diagnostics: dict[str, int] = field(default_factory=dict, repr=False)
    executions_avoided: int = 0
    static_equivalent: int = 0
    beam_deduped: int = 0
    stage_timings: dict[str, dict[str, float]] = field(
        default_factory=dict, repr=False
    )

    @property
    def n_failures(self) -> int:
        return sum(self.failures.values())

    def stage_rows(self) -> list[dict[str, object]]:
        """Per-stage timing rows (pipeline order) for table rendering."""
        rows: list[dict[str, object]] = []
        for stage, agg in self.stage_timings.items():
            calls = int(agg["calls"]) or 1
            rows.append(
                {
                    "stage": stage,
                    "calls": int(agg["calls"]),
                    "total_ms": round(1000 * agg["wall_s"], 2),
                    "mean_ms": round(1000 * agg["wall_s"] / calls, 3),
                    "cache_hit": int(agg["cache_hits"]),
                    "cache_miss": int(agg["cache_misses"]),
                    "exec_used": int(agg["executions_used"]),
                    "exec_avoided": int(agg["executions_avoided"]),
                }
            )
        return rows

    def as_row(self) -> dict[str, object]:
        row: dict[str, object] = {
            "name": self.name,
            "n": self.n_examples,
            "EX%": round(100 * self.ex, 1),
        }
        if self.ts is not None:
            row["TS%"] = round(100 * self.ts, 1)
        if self.ves is not None:
            row["VES%"] = round(100 * self.ves, 1)
        row["latency_s"] = round(self.mean_latency_s, 3)
        if self.failures:
            row["failures"] = self.n_failures
        return row


def evaluate_parser(
    parser,
    dataset: Text2SQLDataset,
    split: str = "dev",
    demonstrations_per_question: int | None = None,
    demonstration_retriever=None,
    use_external_knowledge: bool = False,
    compute_ts: bool = False,
    ts_variants: int = 3,
    suites: dict[str, TestSuite] | None = None,
    compute_ves: bool = False,
    ves_runs: int = 3,
    limit: int | None = None,
    name: str = "",
    deadline_s: float | None = None,
    retry_policy: RetryPolicy | None = None,
    max_retries: int | None = None,
    breaker_threshold: int = 5,
    breaker_recovery_s: float = 30.0,
    clock: Clock | None = None,
    static_eval: bool = True,
    dialect: str = "sqlite",
) -> EvalResult:
    """Evaluate ``parser`` on one split of ``dataset``.

    ``demonstrations_per_question`` switches the protocol: ``None``
    runs supervised (the parser must be fitted), ``0`` runs zero-shot
    prompting, and ``k > 0`` runs k-shot ICL via the required
    ``demonstration_retriever``.  External knowledge, when enabled, is
    appended to the question exactly as the paper does for BIRD w/ EK.

    Reliability knobs: ``deadline_s`` bounds each query's wall-clock
    execution time, ``max_retries`` (or an explicit ``retry_policy``)
    retries transient generation/execution failures with seeded
    backoff, and each database gets a circuit breaker that opens after
    ``breaker_threshold`` consecutive gold-side failures.  The
    injectable ``clock`` drives deadlines, backoff sleeps, and breaker
    recovery, so tests run without real time passing.

    With ``static_eval`` (the default) a prediction the equivalence
    prover marks EQUIVALENT to gold scores as a hit without executing
    either query (two round-trips saved, counted in
    ``executions_avoided``; occurrences in ``static_equivalent``).
    Sound because EQUIVALENT is rewrite-closed — and audited against
    real execution by the ``-m equivalence`` test suite.  Pass
    ``static_eval=False`` (CLI ``--no-static-eval``) to keep the
    executed path authoritative; note the static path also skips the
    gold-executability probe, so a gold query that both matches the
    prediction canonically *and* fails to execute would score instead
    of quarantining (bundled gold sets are audited executable).

    A parser exposing ``build_engine`` (:class:`repro.core.CodeSParser`)
    runs on one staged engine per database, built for this call with
    its own :class:`~repro.engine.cache.StageCache`: prompt builders,
    analyzers, cost estimators and linking scores are reused across
    every question on that database, and each call starts cold.
    Per-stage traces are aggregated into ``stage_timings`` whenever the
    parser emits them.

    ``dialect`` (CLI ``--dialect``) runs the whole evaluation on the
    registered backend that speaks it: every database is adapted via
    :func:`repro.db.backends.create_backend`, gold queries are
    transpiled into the dialect, and generation/lint/equivalence all
    operate on that backend's SQL.  Gold queries outside the
    transpilable subset are passed through verbatim (the backend
    classifies them ``gold_unexecutable`` and quarantines the example).
    The default ``"sqlite"`` is the identity: byte-for-byte the
    historical behaviour.
    """
    examples = dataset.dev if split == "dev" else dataset.train
    if limit is not None:
        examples = examples[:limit]
    backend_name = backend_for_dialect(dialect)
    if dialect != "sqlite" and (compute_ts or compute_ves):
        raise ValueError(
            "test-suite and VES scoring require the reference sqlite "
            f"dialect, not {dialect!r}"
        )
    fewshot = demonstrations_per_question is not None
    if fewshot and demonstrations_per_question < 0:
        raise ValueError(
            "demonstrations_per_question must be >= 0, "
            f"got {demonstrations_per_question}"
        )
    if fewshot and demonstrations_per_question > 0 and demonstration_retriever is None:
        raise ValueError("few-shot evaluation needs a demonstration retriever")
    if max_retries is not None and max_retries < 0:
        raise ValueError(f"max_retries must be >= 0, got {max_retries}")
    if retry_policy is None and max_retries:
        retry_policy = RetryPolicy(max_attempts=max_retries + 1)

    clock = clock or SYSTEM_CLOCK
    suites = suites if suites is not None else {}
    # db_id -> (backend, breaker, analyzer, engine), built on first
    # sight: each database is adapted once (a content snapshot, not per
    # example) and gets one engine for all of its questions.
    per_database: dict[str, tuple] = {}
    stage_timings: dict[str, dict[str, float]] = {}
    hits = 0
    ts_hits = 0
    ves_total = 0.0
    n_scored = 0
    executions_avoided = 0
    static_equivalent = 0
    beam_deduped = 0
    latencies: list[float] = []
    predictions: list[str] = []
    failures: Counter[str] = Counter()
    quarantined: list[FailureRecord] = []
    tiers: Counter[str] = Counter()
    diagnostics: Counter[str] = Counter()

    for index, example in enumerate(examples):
        if example.db_id not in per_database:
            backend = create_backend(backend_name, dataset.database_of(example))
            per_database[example.db_id] = (
                backend,
                CircuitBreaker(
                    failure_threshold=breaker_threshold,
                    recovery_timeout_s=breaker_recovery_s,
                    clock=clock,
                    name=example.db_id,
                ),
                SemanticAnalyzer(
                    SchemaCatalog.from_database(backend),
                    capabilities=getattr(backend, "capabilities", None),
                ),
                parser.build_engine() if hasattr(parser, "build_engine") else None,
            )
        database, breaker, analyzer, engine = per_database[example.db_id]
        gold_sql = example.sql
        if dialect != "sqlite":
            try:
                gold_sql = transpile(example.sql, dialect)
            except SQLSyntaxError:
                # Outside the transpilable subset: hand the backend the
                # verbatim text, which classifies it gold_unexecutable.
                gold_sql = example.sql
        kwargs: dict[str, object] = {}
        if engine is not None:
            kwargs["engine"] = engine
        if use_external_knowledge and example.external_knowledge:
            kwargs["external_knowledge"] = example.external_knowledge
        if fewshot:
            if demonstrations_per_question > 0:
                # Rows of the retriever's pool index: the engine searches
                # them as they are, with no re-parse and no re-embed.
                kwargs["demonstrations"] = demonstration_retriever.templates_for(
                    example.question, k=demonstrations_per_question
                )
            else:
                kwargs["demonstrations"] = []

        # -- generation, degrading to the sentinel on any library error --
        start = clock.now()
        try:
            if retry_policy is not None:
                result = retry_policy.call(
                    lambda: parser.generate(example.question, database, **kwargs),
                    retry_on=(ReproError,),
                    clock=clock,
                )
            else:
                result = parser.generate(example.question, database, **kwargs)
            predicted = result.sql
            tiers[getattr(result, "tier", "beam")] += 1
            executions_avoided += getattr(result, "executions_avoided", 0)
            beam_deduped += getattr(result, "beam_deduped", 0)
            trace = getattr(result, "trace", None)
            if trace is not None:
                for stage_trace in trace.stages:
                    agg = stage_timings.setdefault(
                        stage_trace.stage,
                        {
                            "calls": 0,
                            "wall_s": 0.0,
                            "cache_hits": 0,
                            "cache_misses": 0,
                            "executions_used": 0,
                            "executions_avoided": 0,
                        },
                    )
                    agg["calls"] += 1
                    agg["wall_s"] += stage_trace.wall_s
                    agg["cache_hits"] += stage_trace.cache_hits
                    agg["cache_misses"] += stage_trace.cache_misses
                    agg["executions_used"] += stage_trace.executions_used
                    agg["executions_avoided"] += stage_trace.executions_avoided
        except ReproError as exc:
            predicted = SENTINEL_SQL
            tiers["sentinel"] += 1
            failures[GENERATION_FAILED] += 1
            quarantined.append(
                FailureRecord(
                    index=index,
                    db_id=example.db_id,
                    question=example.question,
                    failure=GENERATION_FAILED,
                    detail=f"{type(exc).__name__}: {exc}",
                )
            )
        latencies.append(clock.now() - start)
        predictions.append(predicted)

        # -- static semantic audit of the prediction --------------------------
        prediction_diags = analyzer.analyze_sql(predicted)
        for diagnostic in prediction_diags:
            diagnostics[diagnostic.code] += 1
        semantically_dirty = has_errors(prediction_diags)

        # -- static EX short-circuit -------------------------------------------
        # A prediction provably equivalent to gold needs no execution:
        # both queries would return identical results by construction.
        if (
            static_eval
            and prove_equivalent(
                predicted, gold_sql, analyzer.catalog, dialect=dialect
            )
            is Verdict.EQUIVALENT
        ):
            static_equivalent += 1
            executions_avoided += 2  # skipped prediction + gold round-trips
            outcome = MatchOutcome(True)
        # -- classified scoring behind the database's circuit breaker --
        elif breaker.admit():
            outcome = execution_match_outcome(
                database,
                predicted,
                gold_sql,
                deadline_s=deadline_s,
                retry_policy=retry_policy,
                clock=clock,
            )
            if outcome.failure in (GOLD_UNEXECUTABLE, GOLD_TIMEOUT):
                breaker.record_failure()
            else:
                breaker.record_success()
        else:
            outcome = MatchOutcome(
                False,
                GOLD_UNEXECUTABLE,
                f"circuit open for database {example.db_id!r} "
                f"after repeated gold failures",
            )

        if outcome.failure in (GOLD_UNEXECUTABLE, GOLD_TIMEOUT):
            # A broken gold query says nothing about the parser: skip
            # the example from every denominator, record why.
            failures[outcome.failure] += 1
            quarantined.append(
                FailureRecord(
                    index=index,
                    db_id=example.db_id,
                    question=example.question,
                    failure=outcome.failure,
                    detail=outcome.detail,
                )
            )
            continue

        n_scored += 1
        if outcome.failure is not None:
            failures[outcome.failure] += 1
        elif semantically_dirty and not outcome.matched:
            # Executed, missed, and the analyzer saw why coming: the
            # silent-wrong-result class plain executability cannot flag.
            failures[PREDICTION_SEMANTIC_ERROR] += 1
        hits += int(outcome.matched)
        if compute_ts:
            if example.db_id not in suites:
                suites[example.db_id] = TestSuite(database, n_variants=ts_variants)
            ts_hits += int(suites[example.db_id].check(predicted, example.sql))
        if compute_ves:
            ves_total += valid_efficiency_score(
                database, predicted, example.sql, runs=ves_runs, clock=clock
            )

    count = max(1, n_scored)
    return EvalResult(
        name=name or dataset.name,
        n_examples=len(examples),
        ex=hits / count,
        ts=(ts_hits / count) if compute_ts else None,
        ves=(ves_total / count) if compute_ves else None,
        mean_latency_s=sum(latencies) / len(latencies) if latencies else 0.0,
        predictions=predictions,
        n_scored=n_scored,
        failures={key: failures[key] for key in FAILURE_CLASSES if failures[key]},
        quarantined=quarantined,
        tiers=dict(tiers),
        diagnostics=dict(diagnostics),
        executions_avoided=executions_avoided,
        static_equivalent=static_equivalent,
        beam_deduped=beam_deduped,
        stage_timings=stage_timings,
    )


def pair_samples(
    dataset: Text2SQLDataset, split: str = "train"
) -> list[tuple[Text2SQLExample, Database]]:
    """(example, database) pairs for parser fine-tuning."""
    examples = dataset.train if split == "train" else dataset.dev
    return [(example, dataset.database_of(example)) for example in examples]
