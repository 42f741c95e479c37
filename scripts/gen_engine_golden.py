#!/usr/bin/env python
"""Regenerate the staged-engine golden parity files.

Runs the generation pipeline over every bundled gold set and records,
per dev example, the fields the engine refactor must preserve exactly:
predicted SQL, degradation ``tier``, ``beam_deduped`` and
``executions_avoided``.  The checked-in file
(``tests/golden/engine_parity.json``) was captured from the
pre-refactor ``CodeSParser.generate`` monolith; ``pytest -m engine``
replays the staged engine against it, so any behavioural drift in the
decomposition shows up as a golden mismatch.

The same pass also writes ``tests/golden/raw_candidates.json``: per
gold set, a digest of each request's ``raw_candidates`` (every scored
candidate's SQL and the hex bits of its score, in generation order),
captured by a middleware after ``candidate_gen``.  A few-shot block
adds the same digests for the first :data:`LIMIT_FEWSHOT` questions of
each primary set, with :data:`SHOTS` demonstrations from a
:class:`~repro.core.retriever.DemonstrationRetriever` over its train
split.  A change to candidate generation that is meant to be exact
must leave both files as they are.

Usage::

    PYTHONPATH=src python scripts/gen_engine_golden.py

Deterministic: fixed model tier, fixed seeds, bundled synthetic data.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core import CodeSParser  # noqa: E402
from repro.core.retriever import DemonstrationRetriever  # noqa: E402
from repro.datasets import (  # noqa: E402
    build_aminer_simplified,
    build_bank_financials,
    build_bird,
    build_dr_spider,
    build_spider,
    build_spider_variant,
)
from repro.datasets.drspider import all_perturbation_names  # noqa: E402
from repro.eval.harness import pair_samples  # noqa: E402

GOLDEN_PATH = REPO_ROOT / "tests" / "golden" / "engine_parity.json"
RAW_PATH = REPO_ROOT / "tests" / "golden" / "raw_candidates.json"

#: Model tier the parity run uses (smallest: fastest, same code paths).
MODEL = "codes-1b"

#: Dev examples recorded per primary benchmark / per Dr.Spider set.
LIMIT_PRIMARY = 24
LIMIT_DRSPIDER = 6
#: Few-shot questions per primary benchmark, and demonstrations each.
LIMIT_FEWSHOT = 6
SHOTS = 3


def raw_digest(raw_candidates: list[tuple[str, float]]) -> str:
    """Digest of one request's ``raw_candidates``: SQL and score bits."""
    pairs = [[sql, score.hex()] for sql, score in raw_candidates]
    text = json.dumps(pairs, ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _capturing_engine(parser: CodeSParser, digests: list[str]):
    """The parser's engine over its own cache, appending each request's
    raw-candidate digest to ``digests`` once ``candidate_gen`` has run."""

    def capture(stage, ctx, call_next):
        call_next()
        if stage.name == "candidate_gen":
            digests.append(raw_digest(ctx.raw_candidates))

    return parser.build_engine(middleware=(capture,), cache=parser.cache)


def _record(parser: CodeSParser, dataset, limit: int, digests: list[str]) -> list[dict]:
    rows = []
    engine = _capturing_engine(parser, digests)
    for index, example in enumerate(dataset.dev[:limit]):
        database = dataset.database_of(example)
        result = parser.generate(example.question, database, engine=engine)
        rows.append(
            {
                "index": index,
                "db_id": example.db_id,
                "question": example.question,
                "sql": result.sql,
                "tier": result.tier,
                "beam_deduped": result.beam_deduped,
                "executions_avoided": result.executions_avoided,
            }
        )
    return rows


def _record_few_shot(parser: CodeSParser, dataset, digests: list[str]) -> None:
    retriever = DemonstrationRetriever(dataset.train, parser.embedder)
    engine = _capturing_engine(parser, digests)
    for example in dataset.dev[:LIMIT_FEWSHOT]:
        parser.generate(
            example.question,
            dataset.database_of(example),
            demonstrations=retriever.templates_for(example.question, SHOTS),
            engine=engine,
        )


def generate_golden() -> tuple[dict, dict]:
    """(engine parity payload, raw-candidate digest payload)."""
    builders = {
        "spider": build_spider,
        "bird": build_bird,
        "spider-syn": lambda: build_spider_variant("spider-syn"),
        "spider-realistic": lambda: build_spider_variant("spider-realistic"),
        "spider-dk": lambda: build_spider_variant("spider-dk"),
        "bank_financials": build_bank_financials,
        "aminer_simplified": build_aminer_simplified,
    }
    payload: dict = {
        "model": MODEL,
        "limits": {"primary": LIMIT_PRIMARY, "dr_spider": LIMIT_DRSPIDER},
        "datasets": {},
    }
    raw: dict = {
        "model": MODEL,
        "shots": SHOTS,
        "limits": {
            "primary": LIMIT_PRIMARY,
            "dr_spider": LIMIT_DRSPIDER,
            "few_shot": LIMIT_FEWSHOT,
        },
        "datasets": {},
        "few_shot": {},
    }
    for name, build in builders.items():
        dataset = build()
        parser = CodeSParser(MODEL)
        parser.fit(pair_samples(dataset))
        digests = raw["datasets"][name] = []
        payload["datasets"][name] = _record(parser, dataset, LIMIT_PRIMARY, digests)
        _record_few_shot(parser, dataset, raw["few_shot"].setdefault(name, []))
        print(f"{name}: {len(payload['datasets'][name])} examples")

    # Dr.Spider perturbations have no train split: evaluated with the
    # spider-fitted parser, exactly how the robustness benches run them.
    spider = build_spider()
    parser = CodeSParser(MODEL)
    parser.fit(pair_samples(spider))
    for perturbation in all_perturbation_names():
        dataset = build_dr_spider(perturbation, spider=spider)
        key = f"dr-spider/{perturbation}"
        digests = raw["datasets"][key] = []
        payload["datasets"][key] = _record(parser, dataset, LIMIT_DRSPIDER, digests)
        print(f"{key}: {len(payload['datasets'][key])} examples")
    return payload, raw


def main() -> int:
    payload, raw = generate_golden()
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    RAW_PATH.write_text(json.dumps(raw, indent=1) + "\n", encoding="utf-8")
    total = sum(len(rows) for rows in payload["datasets"].values())
    print(f"wrote {total} golden examples to {GOLDEN_PATH}")
    print(f"wrote their raw-candidate digests to {RAW_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
