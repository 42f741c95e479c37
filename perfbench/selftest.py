"""Stage-slowdown self-test of the benchmark's compare mode.

Runs ``warm_15b_30ms`` three times as a base set, three times more on other
seeds as an unchanged set, and three times on the base seeds with
``--slow-stage candidate_gen`` (every engine sleeps before candidate_gen
for as long as that stage takes on average, doubling it), interleaving
the three sets.  Each run is one untraced and one traced process.  The
test passes when comparing base with slowed flags both
``engine.candidate_gen.ms`` and ``throughput_rps``, and comparing base
with unchanged flags nothing::

    python3 perfbench/selftest.py [--seconds 20] [--workdir perfbench/selftest-results]

Exits 0 on pass, 1 on fail.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402

WORKLOAD = "warm_15b_30ms"
STAGE = "candidate_gen"
MUST_FLAG = {f"engine.{STAGE}.ms", "throughput_rps"}


def _run(path: Path, seed: int, seconds: float, slow_stage: str | None) -> None:
    for trace in (0, 1):
        command = [
            sys.executable, str(HERE / "run.py"),
            "--workload", WORKLOAD, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--out", str(path),
        ]
        if slow_stage:
            command += ["--slow-stage", slow_stage]
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL)


def _flagged(spec, base: Path, new: Path) -> set[str]:
    rows = compare.compare(spec, compare.load(base), compare.load(new))
    for row in rows:
        if row["verdict"] != "ok":
            print(
                f"  {row['metric']:34s} {row['base']:12.4f} -> {row['new']:12.4f}"
                f"  worse {row['worse']:7.3f}  {row['verdict']}"
            )
    return {row["metric"] for row in rows if row["verdict"] == "regressed"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--workdir", default=str(HERE / "selftest-results"))
    args = parser.parse_args(argv)
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    base, again, slowed = (workdir / f"{name}.jsonl" for name in ("base", "again", "slowed"))
    for path in (base, again, slowed):
        path.unlink(missing_ok=True)
    # Interleaved, so a drift in host speed lands on all three sets alike.
    for seed in (11, 12, 13):
        _run(base, seed, args.seconds, None)
        _run(slowed, seed, args.seconds, STAGE)
        _run(again, seed + 3, args.seconds, None)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print(f"base vs slowed ({STAGE} doubled):")
    slowed_flags = _flagged(spec, base, slowed)
    print("base vs unchanged re-run:")
    unchanged_flags = _flagged(spec, base, again)
    missed = MUST_FLAG - slowed_flags
    ok = not missed and not unchanged_flags
    print(
        f"slowdown flagged: {sorted(slowed_flags)}\n"
        f"missed: {sorted(missed)}\n"
        f"unchanged flagged: {sorted(unchanged_flags)}\n"
        f"self-test {'PASSED' if ok else 'FAILED'}"
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
