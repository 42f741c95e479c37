"""Shared fixtures for the benchmark suite.

Datasets and fitted parsers are cached at session scope: many tables
reuse the same SFT checkpoints, and fitting is the expensive step.
Every benchmark writes its table to ``benchmarks/results/<name>.txt``
as well as stdout, so results survive pytest's output capturing.
"""

from __future__ import annotations

import os
import statistics
from pathlib import Path

import pytest

from repro import (
    CodeSParser,
    DemonstrationRetriever,
    build_bird,
    build_spider,
    pair_samples,
)
from repro.datasets.bird import BirdConfig
from repro.datasets.spider import SpiderConfig
from repro.eval.reporting import format_table

RESULTS_DIR = Path(__file__).parent / "results"

#: Benchmark-scale datasets (bigger dev splits than the unit tests use).
SPIDER_CONFIG = SpiderConfig(
    n_train_databases=6, n_dev_databases=3,
    train_per_database=30, dev_per_database=16,
)
BIRD_CONFIG = BirdConfig(
    n_train_databases=5, n_dev_databases=3,
    train_per_database=30, dev_per_database=16,
)
#: The "hidden test" BIRD split: disjoint seed, same recipe.
BIRD_TEST_CONFIG = BirdConfig(
    n_train_databases=5, n_dev_databases=3,
    train_per_database=30, dev_per_database=16, seed=23,
)


@pytest.fixture(scope="session")
def spider():
    return build_spider(SPIDER_CONFIG)


@pytest.fixture(scope="session")
def bird():
    return build_bird(BIRD_CONFIG)


@pytest.fixture(scope="session")
def bird_test():
    return build_bird(BIRD_TEST_CONFIG)


class ParserCache:
    """Session cache of fitted parsers keyed by (tier, dataset, ek)."""

    def __init__(self):
        self._cache: dict[tuple[str, str, bool], CodeSParser] = {}

    def sft(self, tier: str, dataset, use_external_knowledge: bool = False):
        key = (tier, dataset.name, use_external_knowledge)
        if key not in self._cache:
            parser = CodeSParser(tier)
            parser.fit(
                pair_samples(dataset),
                use_external_knowledge=use_external_knowledge,
            )
            self._cache[key] = parser
        return self._cache[key]

    def fresh(self, tier: str):
        return CodeSParser(tier)

    def retriever(self, parser, dataset, mode: str = "pattern-aware"):
        return DemonstrationRetriever(
            dataset.train, embedder=parser.embedder, mode=mode
        )


@pytest.fixture(scope="session")
def median_iqr():
    """Median and interquartile range of repeated wall-clock readings
    (the quartiles ``perfbench`` uses)."""

    def _median_iqr(values: list[float]) -> tuple[float, float]:
        q1, _, q3 = statistics.quantiles(values, n=4)
        return statistics.median(values), q3 - q1

    return _median_iqr


@pytest.fixture(scope="session")
def parsers():
    return ParserCache()


@pytest.fixture(scope="session")
def report():
    """Write a result table to stdout and benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _report(name: str, rows, title: str) -> None:
        text = format_table(rows, title=title)
        print("\n" + text + "\n")
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

    return _report
