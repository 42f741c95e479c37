"""Diff two result sets metric by metric against BENCHMARK.json's bounds.

A result set is a JSONL file of records written by ``run.py --out``
(any mix of workloads, seeds and trace modes).  For every workload and
metric present in both sets the medians are compared:

- ``regressed``: the new median is worse than the base median by more
  than the metric's bound and by more than either set's own
  inter-quartile spread;
- ``unresolved``: a set's spread is wider than the bound, so the runs
  cannot tell a change from noise;
- ``improved`` / ``ok`` otherwise.

End-to-end metrics use their bound from BENCHMARK.json, relative to the
base median.  Per-layer metrics carry no bound there; they are compared
with ``PER_LAYER_BOUND``, relative to the base median but never to less
than the unit's floor, so a stage that takes microseconds cannot flag
on noise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

PER_LAYER_BOUND = 0.25
#: The smallest magnitude a per-layer change is measured against.
UNIT_FLOORS = {"ms": 1.0, "us": 10.0, "s": 0.01}
DEFAULT_FLOOR = 1.0


def load(path) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> every value recorded in ``path``."""
    values: dict[tuple[str, str], list[float]] = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        for name, metric in record["metrics"].items():
            values.setdefault((record["workload"], name), []).append(metric["value"])
    return values


def host_speeds(path) -> list[float]:
    """The ``host_speed`` stamps of every record in ``path``."""
    return [
        json.loads(line)["env"]["host_speed"]
        for line in Path(path).read_text().splitlines()
        if line.strip()
    ]


def _spread(values: list[float], scale: float) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / scale


def compare(spec: dict, base: dict, new: dict) -> list[dict]:
    """One row per (workload, metric) present in both sets."""
    metrics = {}
    for metric in spec["end_to_end"]:
        metrics[metric["name"]] = (metric, metric["bound"], None)
    for metric in spec["per_layer"]:
        floor = UNIT_FLOORS.get(metric["unit"], DEFAULT_FLOOR)
        metrics[metric["name"]] = (metric, PER_LAYER_BOUND, floor)
    rows = []
    for (workload, name), base_values in sorted(base.items()):
        if name not in metrics or (workload, name) not in new:
            continue
        metric, bound, floor = metrics[name]
        new_values = new[(workload, name)]
        base_median = statistics.median(base_values)
        new_median = statistics.median(new_values)
        scale = abs(base_median)
        if floor is not None:
            scale = max(scale, floor)
        if scale == 0.0:
            scale = 1.0
        sign = 1.0 if metric["better"] == "lower" else -1.0
        worse = sign * (new_median - base_median) / scale
        spread = max(_spread(base_values, scale), _spread(new_values, scale))
        if worse > bound and worse > spread:
            verdict = "regressed"
        elif spread > bound:
            verdict = "unresolved"
        elif -worse > bound and -worse > spread:
            verdict = "improved"
        else:
            verdict = "ok"
        rows.append(
            {
                "workload": workload,
                "metric": name,
                "unit": metric["unit"],
                "base": base_median,
                "new": new_median,
                "worse": worse,
                "spread": spread,
                "bound": bound,
                "verdict": verdict,
            }
        )
    return rows


def main(spec_path, base_path, new_path) -> int:
    spec = json.loads(Path(spec_path).read_text())
    rows = compare(spec, load(base_path), load(new_path))
    if not rows:
        print("compare: no metric appears in both result sets", file=sys.stderr)
        return 2
    print(
        f"{'workload':16s} {'metric':34s} {'base':>12s} {'new':>12s} "
        f"{'worse':>8s} {'spread':>7s} {'bound':>6s}  verdict"
    )
    for row in rows:
        print(
            f"{row['workload']:16s} {row['metric']:34s} {row['base']:12.4f} "
            f"{row['new']:12.4f} {row['worse']:8.3f} {row['spread']:7.3f} "
            f"{row['bound']:6.3f}  {row['verdict']}"
        )
    for label, path in (("base", base_path), ("new", new_path)):
        print(f"{label} host speed (median loops/s): {statistics.median(host_speeds(path)):.1f}")
    regressed = [row for row in rows if row["verdict"] == "regressed"]
    print(f"{len(regressed)} regressed of {len(rows)} compared")
    return 1 if regressed else 0
