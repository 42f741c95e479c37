"""Staged inference engine: unit tests + golden parity (``-m engine``).

The parity suite replays the staged pipeline over every bundled gold
set and compares against ``tests/golden/engine_parity.json``, which was
captured from the pre-refactor ``generate()`` monolith — any
behavioural drift in the decomposition shows up as a golden mismatch.
"""

from __future__ import annotations

import importlib.util
import inspect
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.core import CodeSParser
from repro.core.parser import pretrained_lm_for
from repro.config import get_model_config
from repro.datasets import build_bank_financials
from repro.engine import (
    STAGE_NAMES,
    Engine,
    InferenceContext,
    StageCache,
    StageFaultInjector,
    StageLatencyInjector,
    TraceRecorder,
)
from repro.errors import GenerationError
from repro.eval.harness import evaluate_parser, pair_samples
from repro.eval.reporting import format_stage_report
from repro.core import slotfill
from repro.linking.classifier import SchemaScores
from repro.lm.registry import DEFAULT_LM_REGISTRY, LMRegistry
from repro.reliability.clock import FakeClock
from repro.sqlgen.ast import identifier_key
from repro.sqlgen.dialects import emitter_for

pytestmark = pytest.mark.engine

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PATH = REPO_ROOT / "tests" / "golden" / "engine_parity.json"

QUESTION = "How many clients are there?"


@pytest.fixture(scope="module")
def bank():
    dataset = build_bank_financials()
    parser = CodeSParser("codes-1b")
    parser.fit(pair_samples(dataset))
    database = dataset.database_of(dataset.dev[0])
    return parser, dataset, database


# -- golden parity ------------------------------------------------------------


def test_staged_engine_matches_prerefactor_goldens():
    """The staged pipeline reproduces the monolith on every gold set."""
    spec = importlib.util.spec_from_file_location(
        "gen_engine_golden", REPO_ROOT / "scripts" / "gen_engine_golden.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules["gen_engine_golden"] = module
    spec.loader.exec_module(module)

    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    fresh = module.generate_golden()
    assert fresh["model"] == golden["model"]
    assert set(fresh["datasets"]) == set(golden["datasets"])
    for name, rows in golden["datasets"].items():
        new_rows = fresh["datasets"][name]
        assert len(new_rows) == len(rows), name
        for old, new in zip(rows, new_rows):
            assert new == old, (
                f"{name}[{old['index']}] drifted from the pre-refactor "
                f"monolith:\n  golden: {old}\n  staged: {new}"
            )


# -- engine composition -------------------------------------------------------


class _LogStage:
    def __init__(self, name: str, log: list):
        self.name = name
        self.log = log

    def run(self, ctx: InferenceContext) -> None:
        self.log.append(("run", self.name))


def _logging_middleware(tag: str, log: list):
    def middleware(stage, ctx, call_next):
        log.append((f"{tag}:before", stage.name))
        call_next()
        log.append((f"{tag}:after", stage.name))

    return middleware


def test_engine_runs_stages_in_order_with_wrapping_middleware():
    log: list = []
    engine = Engine(
        [_LogStage("a", log), _LogStage("b", log)],
        middleware=(_logging_middleware("outer", log), _logging_middleware("inner", log)),
    )
    engine.run(InferenceContext(question="", database=None))
    assert log == [
        ("outer:before", "a"),
        ("inner:before", "a"),
        ("run", "a"),
        ("inner:after", "a"),
        ("outer:after", "a"),
        ("outer:before", "b"),
        ("inner:before", "b"),
        ("run", "b"),
        ("inner:after", "b"),
        ("outer:after", "b"),
    ]


def test_engine_rejects_duplicate_stage_names():
    log: list = []
    with pytest.raises(ValueError):
        Engine([_LogStage("a", log), _LogStage("a", log)])


def test_default_engine_exposes_canonical_stage_order(bank):
    parser, _, _ = bank
    assert parser.engine.stage_names == STAGE_NAMES


# -- tracing ------------------------------------------------------------------


def test_generate_records_one_trace_entry_per_stage(bank):
    parser, _, database = bank
    result = parser.generate(QUESTION, database)
    assert result.trace is not None
    assert tuple(s.stage for s in result.trace.stages) == STAGE_NAMES
    assert all(s.wall_s >= 0 for s in result.trace.stages)
    assert result.trace.total_s == sum(s.wall_s for s in result.trace.stages)


def test_fake_clock_drives_stage_timing():
    # Timing flows exclusively through the injectable Clock (ARCH001):
    # a clock that never advances reports zero wall time everywhere.
    dataset = build_bank_financials()
    parser = CodeSParser("codes-1b", clock=FakeClock())
    parser.fit(pair_samples(dataset))
    database = dataset.database_of(dataset.dev[0])
    result = parser.generate(QUESTION, database)
    assert result.trace is not None
    assert all(s.wall_s == 0.0 for s in result.trace.stages)


def test_latency_injector_shows_up_in_the_trace():
    clock = FakeClock()
    dataset = build_bank_financials()
    parser = CodeSParser("codes-1b", clock=clock)
    parser.fit(pair_samples(dataset))
    database = dataset.database_of(dataset.dev[0])
    engine = parser.build_engine(
        middleware=(StageLatencyInjector("rank", delay_s=1.5, clock=clock),)
    )
    result = parser.generate(QUESTION, database, engine=engine)
    by_stage = result.trace.by_stage()
    assert by_stage["rank"].wall_s == pytest.approx(1.5)
    assert by_stage["lint_gate"].wall_s == 0.0


# -- stage cache --------------------------------------------------------------


def test_stage_cache_counts_hits_and_misses():
    cache = StageCache()
    assert cache.get("kind", 1, lambda: "built") == "built"
    assert cache.get("kind", 1, lambda: "rebuilt") == "built"
    assert cache.stats == {
        "hits": 1,
        "misses": 1,
        "entries": 1,
        "evictions": 0,
        "capacity": None,
    }
    cache.clear_kind("kind")
    assert cache.get("kind", 1, lambda: "rebuilt") == "rebuilt"
    cache.clear()
    assert len(cache) == 0


def test_stage_cache_absorb_never_evicts_local_entries():
    # Warm handoff must not cannibalise the working set: the receiving
    # cache's own entries are the ones serving traffic, so absorb
    # takes only what fits and files donor entries at the LRU end.
    local = StageCache(capacity=3)
    local.get("kind", "a", lambda: "local-a")
    local.get("kind", "b", lambda: "local-b")
    donor = StageCache()
    donor.get("kind", "a", lambda: "donor-a")  # duplicate: local wins
    donor.get("kind", "c", lambda: "donor-c")
    donor.get("kind", "d", lambda: "donor-d")  # donor's MRU entry
    assert local.absorb(donor) == 1  # room for one; donor's MRU taken
    assert local.get("kind", "a", lambda: "rebuilt") == "local-a"
    assert ("kind", "b") in local
    assert ("kind", "d") in local
    assert len(local) == 3
    assert local.evictions == 0
    # under later pressure the absorbed entry evicts before local ones
    local.get("kind", "e", lambda: "local-e")
    assert ("kind", "d") not in local
    assert ("kind", "a") in local and ("kind", "b") in local


def test_stage_cache_absorb_into_a_full_cache_is_a_no_op():
    local = StageCache(capacity=2)
    local.get("kind", "a", lambda: "local-a")
    local.get("kind", "b", lambda: "local-b")
    donor = StageCache()
    donor.get("kind", "c", lambda: "donor-c")
    assert local.absorb(donor) == 0
    assert ("kind", "c") not in local
    assert ("kind", "a") in local and ("kind", "b") in local


def test_repeat_questions_hit_the_per_database_cache(bank):
    parser, _, database = bank
    engine = parser.build_engine()
    parser.generate(QUESTION, database, engine=engine)
    misses_after_first = engine.cache.misses
    result = parser.generate(QUESTION, database, engine=engine)
    assert engine.cache.misses == misses_after_first  # everything reused
    assert sum(s.cache_hits for s in result.trace.stages) > 0


# -- per-request work counts -------------------------------------------------


def test_candidate_gen_does_request_invariant_work_once(bank, monkeypatch):
    """Each fill is serialized once; each table's columns are ranked once.

    Counts calls during one ``generate()`` on a golden-parity question,
    so a return to per-slot recomputation or a second serialization of
    every candidate fails here without any timing.
    """
    parser, dataset, database = bank
    example = dataset.dev[0]
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert golden["datasets"]["bank_financials"][0]["question"] == example.question
    counts: Counter = Counter()

    class CountingEmitter:
        def __init__(self, inner):
            self._inner = inner

        def __getattr__(self, name):
            return getattr(self._inner, name)

        def serialize(self, query):
            counts["serialize"] += 1
            return self._inner.serialize(query)

    monkeypatch.setattr(
        "repro.engine._stages.emitter_for",
        lambda dialect: CountingEmitter(emitter_for(dialect)),
    )

    fill = slotfill._Filler.fill
    depth = [0]

    def counting_fill(self, template):
        depth[0] += 1
        try:
            filled = fill(self, template)
        finally:
            depth[0] -= 1
        if depth[0] == 0 and filled is not None:
            counts["fills"] += 1
        return filled

    monkeypatch.setattr(slotfill._Filler, "fill", counting_fill)

    top_columns = SchemaScores.top_columns
    rankings: list[tuple[SchemaScores, str]] = []

    def counting_top_columns(self, table_name, k):
        rankings.append((self, identifier_key(table_name)))
        return top_columns(self, table_name, k)

    monkeypatch.setattr(SchemaScores, "top_columns", counting_top_columns)

    engine = parser.build_engine()
    result = parser.generate(example.question, database, engine=engine)
    assert result.sql == golden["datasets"]["bank_financials"][0]["sql"]
    assert counts["fills"] > 0
    assert counts["serialize"] == counts["fills"]
    per_table = Counter((id(scores), table) for scores, table in rankings)
    assert per_table and max(per_table.values()) == 1


# -- fault injection as middleware --------------------------------------------


def test_stage_fault_injector_raises_generation_error(bank):
    parser, _, database = bank
    injector = StageFaultInjector("candidate_gen", error_rate=1.0)
    engine = parser.build_engine(middleware=(injector,))
    with pytest.raises(GenerationError):
        parser.generate(QUESTION, database, engine=engine)
    assert injector.injected_failures == 1


def test_beam_perturber_still_applies_after_rank(bank):
    parser, _, database = bank
    clean = parser.generate(QUESTION, database)
    parser.beam_perturber = lambda beam: beam * 2
    try:
        perturbed = parser.generate(QUESTION, database)
    finally:
        parser.beam_perturber = None
    # duplicated beam entries collapse into existing equivalence
    # classes, so dedup sees strictly more collapses than the clean run.
    assert perturbed.beam_deduped > clean.beam_deduped
    assert perturbed.sql == clean.sql


# -- batch evaluation ---------------------------------------------------------


def test_batch_eval_matches_per_question_eval_and_reuses_caches(bank):
    parser, dataset, _ = bank
    plain = evaluate_parser(parser, dataset, limit=8, name="plain")
    batch = evaluate_parser(parser, dataset, limit=8, name="batch", batch=True)
    assert batch.predictions == plain.predictions
    assert batch.ex == plain.ex
    assert set(batch.stage_timings) == set(STAGE_NAMES)
    assert all(agg["calls"] == 8 for agg in batch.stage_timings.values())
    total_hits = sum(agg["cache_hits"] for agg in batch.stage_timings.values())
    assert total_hits > 0  # per-database engines reused resources
    report = format_stage_report(batch)
    assert "per-stage timing" in report and "value_retrieve" in report


# -- facade + registries ------------------------------------------------------


def test_generate_is_a_thin_facade():
    source = inspect.getsource(CodeSParser.generate)
    body = [
        line
        for line in source.splitlines()
        if line.strip() and not line.strip().startswith("#")
    ]
    docstring = inspect.getdoc(CodeSParser.generate) or ""
    assert len(body) - len(docstring.splitlines()) <= 60


def test_lm_registry_shares_and_isolates():
    config = get_model_config("codes-1b")
    shared = pretrained_lm_for(config)
    assert pretrained_lm_for(config) is shared
    assert DEFAULT_LM_REGISTRY.lm_for(config) is shared
    isolated = LMRegistry()
    assert isolated.lm_for(config) is not shared
    assert len(isolated) > 0
    isolated.clear()
    assert len(isolated) == 0


def test_representative_values_public_accessor(bank):
    parser, _, database = bank
    engine = parser.build_engine()
    parser.generate(QUESTION, database, engine=engine)
    builder = engine.cache.get(
        "builder", (id(database), id(parser.options)), lambda: None
    )
    assert builder is not None
    values = builder.representative_values("client", "name")
    assert values == database.representative_values(
        "client", "name", k=parser.options.representative_k
    )


def test_trace_cli_prints_stage_table(capsys):
    from repro.cli import main

    code = main(
        [
            "trace",
            "--dataset",
            "bank_financials",
            "--model",
            "codes-1b",
            "--question",
            QUESTION,
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "stage trace" in out
    for stage in STAGE_NAMES:
        assert stage in out
