"""``scripts/bench_trajectory.py``: perfbench JSONL -> BENCH_<workload>.json."""

from __future__ import annotations

import importlib.util
import json
import statistics
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def trajectory():
    spec = importlib.util.spec_from_file_location(
        "bench_trajectory", REPO_ROOT / "scripts" / "bench_trajectory.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules["bench_trajectory"] = module
    spec.loader.exec_module(module)
    return module


def _record(seed, trace, cpu, sha="abc", correct=True, workload="w"):
    return {
        "workload": workload,
        "seed": seed,
        "seconds": 20.0,
        "trace": trace,
        "slow_stage": None,
        "params": {"model": "codes-1b"},
        "env": {
            "git_sha": sha,
            "python": "3",
            "numpy": "2",
            "nproc": 2,
            "platform": "linux",
            "host_speed": 100.0 + seed,
        },
        "correct": correct,
        "metrics": {
            ("cpu_ms_per_req" if trace == 0 else "sharding.loop_ms"): {
                "value": cpu,
                "unit": "ms",
            }
        },
    }


def _write(path, records):
    path.write_text("".join(json.dumps(record) + "\n" for record in records))


def test_folds_each_metric_into_median_quartiles_and_count(trajectory, tmp_path):
    cpu = [7.0, 7.4, 7.2, 9.0, 7.1]
    records = [_record(seed, 0, value) for seed, value in enumerate(cpu)]
    records.append(_record(9, 1, 0.5))
    _write(tmp_path / "r.jsonl", records)
    assert trajectory.main([str(tmp_path / "r.jsonl"), "--out-dir", str(tmp_path)]) == 0
    document = json.loads((tmp_path / "BENCH_w.json").read_text())
    q1, _, q3 = statistics.quantiles(cpu, n=4)
    assert document["metrics"]["cpu_ms_per_req"] == {
        "unit": "ms", "median": 7.2, "q1": q1, "q3": q3, "n": 5,
    }
    assert document["metrics"]["sharding.loop_ms"]["n"] == 1
    assert document["env"]["git_sha"] == "abc"
    assert document["runs"]["trace1"] == [[9, 20.0]]


def test_refuses_runs_of_two_commits(trajectory):
    with pytest.raises(ValueError):
        trajectory.fold([_record(1, 0, 7.0), _record(2, 0, 7.1, sha="def")])


def test_refuses_a_failed_run_and_writes_nothing(trajectory, tmp_path):
    _write(tmp_path / "r.jsonl", [_record(1, 0, 7.0), _record(2, 0, 7.1, correct=False)])
    assert trajectory.main([str(tmp_path / "r.jsonl"), "--out-dir", str(tmp_path)]) == 1
    assert not (tmp_path / "BENCH_w.json").exists()
