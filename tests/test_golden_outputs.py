"""Exact-text goldens for operator-facing reports.

Each golden under ``tests/golden/`` is the byte-for-byte output of:

- ``repro datasets``;
- ``repro shardmap --dataset spider --workers 4 --target-workers 6``;
- ``repro equiv --dataset spider``;
- ``repro loadgen --dataset bank_financials --model codes-1b --seed 7``;
- ``repro providers --seed 0``;
- ``format_serving_report(router.metrics())`` after a FakeClock replay
  on an inline 3-worker stub cluster whose parser returns staged traces
  and fails one database until its breaker opens, so the report covers
  router sheds, merged breakers and the merged stage order.

Regenerate them only on purpose, after checking the diff by hand:
``PYTHONPATH=src python -m tests.test_golden_outputs``.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass, replace
from pathlib import Path

import pytest

from repro.cli import main
from repro.eval.reporting import format_serving_report
from repro.reliability.clock import FakeClock
from repro.serving import ShardingConfig, replay
from tests.test_sharding import EngineStubParser, _arrivals, _cluster

GOLDEN = Path(__file__).parent / "golden"


@dataclass(frozen=True)
class _Stage:
    stage: str
    wall_s: float


@dataclass(frozen=True)
class _Trace:
    stages: tuple[_Stage, ...]


#: Pipeline order, deliberately not alphabetical.
_TRACE = _Trace(
    stages=(
        _Stage("value_retrieve", 0.001),
        _Stage("schema_link", 0.002),
        _Stage("candidate_gen", 0.004),
        _Stage("rank", 0.0005),
    )
)


class _TracedParser(EngineStubParser):
    def generate(self, question, database, engine=None, effort="full"):
        result = super().generate(question, database, engine=engine, effort=effort)
        return replace(result, trace=_TRACE)


def _cli(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


def _cluster_report() -> str:
    clock = FakeClock()
    router, _ = _cluster(
        clock,
        sharding=ShardingConfig(rate_per_tenant=15.0, burst_per_tenant=4.0),
        parser_factory=lambda: _TracedParser(fail_db_ids=frozenset({"db3"})),
    )
    replay(router, _arrivals(56))
    return format_serving_report(router.metrics(), title="cluster metrics") + "\n"


OUTPUTS = {
    "cli_datasets.txt": lambda: _cli("datasets"),
    "cli_shardmap_spider_4to6.txt": lambda: _cli(
        "shardmap", "--dataset", "spider", "--workers", "4",
        "--target-workers", "6",
    ),
    "cli_equiv_spider.txt": lambda: _cli("equiv", "--dataset", "spider"),
    "loadgen_bank_financials_seed7.txt": lambda: _cli(
        "loadgen", "--dataset", "bank_financials", "--model", "codes-1b",
        "--seed", "7",
    ),
    "providers_seed0.txt": lambda: _cli("providers", "--seed", "0"),
    "cluster_serving_report.txt": _cluster_report,
}


@pytest.mark.parametrize("name", sorted(OUTPUTS))
def test_output_matches_golden(name):
    assert OUTPUTS[name]() == (GOLDEN / name).read_text()


if __name__ == "__main__":
    for name, produce in OUTPUTS.items():
        (GOLDEN / name).write_text(produce())
