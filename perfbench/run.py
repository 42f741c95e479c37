"""Seeded serving benchmark for the CodeS text-to-SQL reproduction.

One workload per process::

    python3 perfbench/run.py --workload warm_15b_30ms --seed 1 --seconds 20 --trace 0

prints every end-to-end metric (``--trace 0``) or every per-layer
metric (``--trace 1``) by name and unit, checks every answer, and ends
with one JSON line ``{"correct", "attempted", "failed", "metrics"}``.
It exits 1 when a correctness check fails and 2 when the package under
``src/`` is missing.

Other modes::

    python3 perfbench/run.py --all --seed 1 --seconds 20 [--out R.jsonl]
        every workload, traced and untraced, each in a fresh interpreter
    python3 perfbench/run.py --compare BASE.jsonl NEW.jsonl
        median-vs-median diff against the bounds in BENCHMARK.json

``--out FILE`` appends the result with its environment stamp (git sha,
Python/numpy versions, nproc, seed, workload parameters) as one JSON
line.  ``--slow-stage STAGE`` makes every engine sleep before STAGE for
as long as that stage takes on average, which is the self-test's
deliberate 2x slowdown (see ``selftest.py``).

End-to-end metrics (all workloads):

- ``setup_s``: dataset build + parser fit + Server/ShardRouter
  construction (+ worker fork) + warm-up; median of several set-ups
  in the run.
- ``throughput_rps``: completed requests per second of the timed window.
- ``latency_p50_ms`` / ``latency_p95_ms``: from submit (closed loop) or
  from the due time (open loop) to the outcome reaching the caller;
  nearest-rank, sample counts printed.
- ``cpu_ms_per_req``: user+sys CPU of this process plus the shard
  workers during the timed window, per completed request.
- ``ex_acc``: execution accuracy of the returned SQL over the distinct
  timed questions (``execution_match`` against gold).
- ``success_frac``: completed / sent.  The run fails on anything else,
  so this is 1 unless a check is broken.
- ``cold_first_min_ms``: latency of each database's first request on a
  fresh engine, sent alone; observed in every set-up (fresh Servers
  after the warm-up in one process, through the router in the sharded
  workload).  Each database's fastest probe of the run, averaged over
  the databases.
- ``peak_rss_mb``: peak resident set of this process plus the workers.

Per-layer metrics come from the traced half of a ``--trace 1`` run
(``engine.*`` stage numbers from ``Completed.trace``; sharded from the
merged ``ServerMetrics`` because the process pipe drops traces, with
candidate and execution counts from the in-process reference replay).
Where a layer is absent the metric measures its nearest equivalent:
``sharding.ipc_ms_*`` is observed minus server-reported latency (pipe
and poll cadence when sharded, batch-return delay in one process),
``sharding.loop_ms`` is front-door time per request outside execution,
``setup.fork_s`` is front-end construction.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 5


def _load_package():
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def run_workload(args) -> int:
    _load_package()
    import measure
    import report
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.slow_stage is not None and args.slow_stage not in workloads.STAGE_NAMES:
        print(f"perfbench: unknown stage {args.slow_stage!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    traced = bool(args.trace)
    host_speed = measure.host_speed()
    setup = workloads.build_setup(workload, slow_stage=args.slow_stage)
    runner = workloads.run_open if workload.loop == "open" else workloads.run_closed
    tally = runner(setup, args.seconds, args.seed, traced)
    rss_mb = measure.own_peak_rss_mb() + tally.extra.get("worker_rss_mb", 0.0)
    ex_acc, problems = workloads.check(setup, tally)
    setup.close()
    setups = [(setup.seconds, setup.cold_first)]
    if not traced:
        del setup.parser, setup.front, setup.dataset
        setups += workloads.repeat_setups(workload, SETUP_REPEATS - 1)

    if traced:
        metrics = report.per_layer(setup, tally)
    else:
        metrics = report.end_to_end(tally, ex_acc, setups, rss_mb)
    samples = len(tally.latencies)
    result = {
        "correct": not problems,
        "attempted": tally.sent,
        "failed": tally.sent - samples,
        "metrics": metrics,
    }

    print(f"workload {workload.name}  seed {args.seed}  {args.seconds}s  trace {args.trace}")
    print("  " + "  ".join(f"{k}={v}" for k, v in workload.params().items()))
    print(
        f"  requests sent {tally.sent}, completed {samples}, "
        f"beyond p95 {measure.beyond(tally.latencies, 95)}"
    )
    for name, metric in metrics.items():
        print(f"  {name:34s} {metric['value']:14.6f} {metric['unit']}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    if args.out:
        record = {
            "workload": workload.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "slow_stage": args.slow_stage,
            "params": workload.params(),
            "env": {**measure.env_stamp(ROOT), "host_speed": host_speed},
            "latency_samples": samples,
            "problems": problems,
            **result,
        }
        with open(args.out, "a") as out:
            out.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0 if not problems else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh interpreter."""
    _load_package()
    import workloads

    status = 0
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            command = [
                sys.executable, str(HERE / "run.py"),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            if args.out:
                command += ["--out", args.out]
            status |= subprocess.run(command, check=False).returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload")
    mode.add_argument("--all", action="store_true")
    mode.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--slow-stage")
    args = parser.parse_args(argv)
    if args.compare:
        import compare

        return compare.main(ROOT / "BENCHMARK.json", *args.compare)
    if args.all:
        return run_all(args)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
