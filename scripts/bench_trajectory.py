#!/usr/bin/env python
"""Fold perfbench results into the committed trajectory files.

Reads the JSONL records ``perfbench/run.py --out`` appends (any mix of
workloads, seeds and trace modes) and writes one ``BENCH_<workload>.json``
per workload at the repository root: for every metric its median,
quartiles and run count, with the environment stamp and git sha the
runs recorded.  Untraced runs supply the end-to-end metrics and traced
runs the per-layer ones, so pass both.

Usage::

    python3 perfbench/run.py --workload sharded_2w_60ms --seed 3 --trace 0 --out R.jsonl
    ...
    python3 scripts/bench_trajectory.py R.jsonl [--out-dir DIR]

Exits 1, writing nothing, when a record failed its correctness checks
or the records of one workload come from different commits or hosts:
a trajectory point has to say what code on what machine it measured.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Stamp fields every record of one workload must agree on.
STAMP_KEYS = ("git_sha", "python", "numpy", "nproc", "platform")


def summarize(values: list[float]) -> dict:
    """Median, quartiles (the quartile method ``perfbench --compare``
    uses for its spread) and count of one metric's runs."""
    median = statistics.median(values)
    q1, q3 = (
        (median, median)
        if len(values) < 2
        else statistics.quantiles(values, n=4)[::2]
    )
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def fold(records: list[dict]) -> dict:
    """One workload's records -> its trajectory document."""
    stamps = {
        tuple(record["env"].get(key) for key in STAMP_KEYS) for record in records
    }
    if len(stamps) != 1:
        raise ValueError(f"runs from more than one commit or host: {sorted(stamps)}")
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for record in records:
        for name, metric in record["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    first = records[0]
    return {
        "workload": first["workload"],
        "env": {
            **{key: first["env"].get(key) for key in STAMP_KEYS},
            "host_speed": summarize([r["env"]["host_speed"] for r in records]),
        },
        "params": first["params"],
        "runs": {
            f"trace{trace}": sorted(
                (r["seed"], r["seconds"]) for r in records if r["trace"] == trace
            )
            for trace in sorted({r["trace"] for r in records})
        },
        "metrics": {
            name: {"unit": units[name], **summarize(values[name])}
            for name in sorted(values)
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("results", nargs="+", help="JSONL files from run.py --out")
    parser.add_argument("--out-dir", type=Path, default=REPO_ROOT)
    args = parser.parse_args(argv)
    by_workload: dict[str, list[dict]] = {}
    for path in args.results:
        for line in Path(path).read_text().splitlines():
            if not line.strip():
                continue
            record = json.loads(line)
            if not record["correct"] or record.get("slow_stage"):
                print(
                    f"bench_trajectory: {path}: a {record['workload']} run "
                    "failed its checks or was deliberately slowed",
                    file=sys.stderr,
                )
                return 1
            by_workload.setdefault(record["workload"], []).append(record)
    documents = {}
    for workload, records in sorted(by_workload.items()):
        try:
            documents[workload] = fold(records)
        except ValueError as exc:
            print(f"bench_trajectory: {workload}: {exc}", file=sys.stderr)
            return 1
    for workload, document in documents.items():
        out = args.out_dir / f"BENCH_{workload}.json"
        out.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
        print(f"wrote {out} ({len(by_workload[workload])} runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
