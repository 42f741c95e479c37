"""Command-line interface.

Subcommands::

    repro datasets                         # list the available benchmarks
    repro eval --dataset spider --model codes-7b [--mode sft|fewshot|zeroshot]
    repro ask --dataset bank_financials --question "How many clients..."
    repro trace --dataset bank_financials --question "How many clients..."
    repro augment --domain bank_financials --out pairs.json
    repro lint --dataset all                # audit gold SQL semantically
    repro equiv --dataset spider            # duplicate-ratio / verdict report
    repro serve --dataset spider < requests.jsonl   # one-shot JSONL serving
    repro serve --workers 4 --transport process < requests.jsonl  # sharded
    repro shardmap --dataset spider --workers 4 --target-workers 6
    repro loadgen --dataset spider --seed 7 # seeded open-loop load report
    repro conformance                       # cross-dialect backend audit
    repro check                             # static analysis over src/repro
    repro check --explain STAGE001          # show one rule's documentation

Each shared argument is declared once (``DATASET``, ``MODEL``, ``SEED``,
the ``SERVING`` and ``SHARDING`` groups, ...) and ``_commands()`` names
the ones every subcommand takes, with its own defaults.  Every value is
checked while the command line is parsed, by its ``choices`` or
``type``; a check that needs two arguments or a built dataset raises
:class:`UsageError`, which :func:`main` hands to the subcommand's
``parser.error``, as it hands unrecognized flags.  Flags match only in
full (no argparse prefix matching).  So every usage error exits 2
(``EXIT_USAGE``) with one ``repro <cmd>: error: ...`` line on stderr,
and no dataset is built before the checks that do not need one have
passed.

Everything runs offline and deterministically.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from collections import Counter
from pathlib import Path
from typing import Callable

from repro.analysis import (
    SchemaCatalog,
    Verdict,
    canonical_key_sql,
    format_lint_report,
    prove_equivalent,
)
from repro.augment import augment_domain
from repro.config import MODEL_REGISTRY
from repro.core import CodeSParser, DemonstrationRetriever
from repro.datasets import DATASET_BUILDERS, SPLITS
from repro.db.backends import available_backends, backend_for_dialect
from repro.errors import DeadlineExceededError, ExecutionError, ReproError
from repro.eval.conformance import REFERENCE_BACKEND, run_conformance
from repro.eval.harness import evaluate_parser, pair_samples
from repro.eval.reporting import (
    format_failure_report,
    format_serving_report,
    format_table,
)
from repro.reliability import Deadline, FakeClock, RetryPolicy
from repro.serving import (
    Arrival,
    Completed,
    InlineWorkerHandle,
    ProcessWorkerHandle,
    Server,
    ServerConfig,
    ServeRequest,
    ServiceModel,
    ShardingConfig,
    ShardMap,
    ShardRouter,
    Shed,
    default_worker_ids,
    nearest_rank,
    poisson_workload,
    replay,
    run_loadgen,
)

#: Exit codes, one contract for every subcommand (CI wrappers rely on
#: it): 0 = success, 1 = the run found problems (dirty gold SQL,
#: backend divergences, staticcheck findings), 2 = usage error.
EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2


class UsageError(Exception):
    """A bad command line that only a check across arguments or on a
    built dataset can see; :func:`main` reports it as argparse does."""


def _build_dataset(name: str):
    return DATASET_BUILDERS[name]()


def _build_datasets(name: str) -> list:
    """The datasets ``name`` selects; ``dr-spider`` expands to every
    perturbation set and ``all`` to every bundled set."""
    if name == "all":
        names = list(DATASET_BUILDERS)
    elif name == "dr-spider":
        names = [n for n in DATASET_BUILDERS if n.startswith("dr-spider-")]
    else:
        names = [name]
    return [_build_dataset(target) for target in names]


def _fitted_parser(dataset, model: str, clock=None) -> CodeSParser:
    """A ``model`` parser, fitted when ``dataset`` has a train split."""
    parser = CodeSParser(model, clock=clock)
    if dataset.train:
        parser.fit(pair_samples(dataset))
    return parser


def _cmd_datasets(args: argparse.Namespace) -> int:
    rows = [
        {
            "dataset": dataset.name,
            "databases": len(dataset.databases),
            "train": len(dataset.train),
            "dev": len(dataset.dev),
        }
        for dataset in _build_datasets("all")
    ]
    print(format_table(rows, title="Available benchmarks"))
    return EXIT_OK


def _cmd_eval(args: argparse.Namespace) -> int:
    if args.mode != "fewshot" and args.shots is not None:
        raise UsageError(
            f"--shots applies only to --mode fewshot, not --mode {args.mode}"
        )
    shots = 3 if args.shots is None else args.shots
    if args.mode == "fewshot" and shots < 1:
        raise UsageError(
            f"--mode fewshot needs --shots >= 1, got {shots} "
            "(use --mode zeroshot for no demonstrations)"
        )
    if args.ts and args.dialect != "sqlite":
        raise UsageError(
            "--ts requires the reference sqlite dialect "
            f"(test suites execute on sqlite), not {args.dialect!r}"
        )
    dataset = _build_dataset(args.dataset)
    parser = CodeSParser(args.model)
    kwargs = {}
    if args.mode == "sft":
        parser.fit(pair_samples(dataset), use_external_knowledge=args.ek)
    elif args.mode == "fewshot":
        retriever = DemonstrationRetriever(dataset.train, embedder=parser.embedder)
        kwargs = {
            "demonstrations_per_question": shots,
            "demonstration_retriever": retriever,
        }
    else:  # zeroshot
        kwargs = {"demonstrations_per_question": 0}
    result = evaluate_parser(
        parser, dataset,
        use_external_knowledge=args.ek,
        compute_ts=args.ts,
        limit=args.limit,
        deadline_s=args.deadline_s,
        max_retries=args.max_retries,
        static_eval=not args.no_static_eval,
        dialect=args.dialect,
        **kwargs,
    )
    print(format_table([result.as_row()], title=f"{args.model} on {args.dataset}"))
    if result.stage_timings:
        print(format_table(
            result.stage_rows(), title=f"per-stage timing for {result.name}"
        ))
    report = format_failure_report(result)
    if report:
        print(report)
    return EXIT_OK


def _answering(args: argparse.Namespace):
    """The fitted parser and the ``--db-id`` database (default: the
    dataset's first) that ``ask`` and ``trace`` answer on."""
    dataset = _build_dataset(args.dataset)
    db_id = args.db_id or next(iter(dataset.databases))
    if db_id not in dataset.databases:
        raise UsageError(
            f"argument --db-id: {db_id!r} is not a database of "
            f"{args.dataset} (choose from {', '.join(dataset.databases)})"
        )
    return _fitted_parser(dataset, args.model), dataset.databases[db_id]


def _cmd_ask(args: argparse.Namespace) -> int:
    parser, database = _answering(args)
    retry = (
        RetryPolicy(max_attempts=args.max_retries + 1)
        if args.max_retries
        else None
    )

    def _generate():
        return parser.generate(args.question, database)

    result = retry.call(_generate) if retry is not None else _generate()
    print(f"SQL: {result.sql}")
    if result.tier != "beam":
        print(f"(answered by the {result.tier!r} fallback tier)")

    def _execute():
        deadline = (
            Deadline.after(args.deadline_s) if args.deadline_s else None
        )
        return database.execute(result.sql, deadline=deadline)

    try:
        rows = retry.call(_execute) if retry is not None else _execute()
    except DeadlineExceededError as exc:
        print(
            f"repro ask: query exceeded the --deadline-s budget: {exc}",
            file=sys.stderr,
        )
        return EXIT_FAILED
    for row in rows[:20]:
        print(" ", row)
    if len(rows) > 20:
        print(f"  ... ({len(rows)} rows total)")
    return EXIT_OK


def _cmd_trace(args: argparse.Namespace) -> int:
    """Answer one question and print the per-stage engine trace."""
    parser, database = _answering(args)
    result = parser.generate(args.question, database)
    print(f"SQL:  {result.sql}")
    print(f"tier: {result.tier}")
    if result.trace is None:
        print("(no trace recorded)")
        return EXIT_OK
    print(
        format_table(
            result.trace.as_rows(),
            title=f"stage trace ({1000 * result.trace.total_s:.2f} ms total)",
        )
    )
    return EXIT_OK


def _cmd_lint(args: argparse.Namespace) -> int:
    rows = []
    dirty = 0
    for dataset in _build_datasets(args.dataset):
        report = dataset.lint(splits=args.splits)
        rows.append(report.as_row())
        dirty += len(report.error_findings)
        if report.findings and args.verbose:
            print(format_lint_report(report, max_findings=args.max_findings))
        elif report.error_findings:
            print(format_lint_report(report, max_findings=args.max_findings))
    title = f"Gold SQL lint audit (splits: {','.join(args.splits)})"
    print(format_table(rows, title=title))
    if dirty:
        print(f"FAIL: {dirty} gold queries carry error-tier diagnostics")
        return EXIT_FAILED
    print("OK: no error-tier diagnostics in gold SQL")
    return EXIT_OK


def _equiv_report(dataset, splits: tuple[str, ...], max_pairs: int) -> dict[str, object]:
    """Duplicate-ratio and prover-verdict histogram for one benchmark."""
    examples = [example for split in splits for example in dataset.split(split)]
    keys = [canonical_key_sql(example.sql) for example in examples]
    unique = len(set(keys))
    verdicts = {verdict: 0 for verdict in Verdict}
    catalogs: dict[str, SchemaCatalog] = {}
    pairs_checked = 0
    by_db: dict[str, list] = {}
    for example in examples:
        by_db.setdefault(example.db_id, []).append(example)
    for db_id, group in by_db.items():
        if db_id not in catalogs:
            catalogs[db_id] = SchemaCatalog.from_database(
                dataset.database_of(group[0])
            )
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                if pairs_checked >= max_pairs:
                    break
                verdicts[
                    prove_equivalent(group[i].sql, group[j].sql, catalogs[db_id])
                ] += 1
                pairs_checked += 1
    n = len(examples)
    return {
        "dataset": dataset.name,
        "n": n,
        "unique": unique,
        "dup%": round(100 * (n - unique) / n, 1) if n else 0.0,
        "pairs": pairs_checked,
        "equivalent": verdicts[Verdict.EQUIVALENT],
        "distinct": verdicts[Verdict.DISTINCT],
        "unknown": verdicts[Verdict.UNKNOWN],
    }


def _cmd_equiv(args: argparse.Namespace) -> int:
    rows = [
        _equiv_report(dataset, args.splits, args.max_pairs)
        for dataset in _build_datasets(args.dataset)
    ]
    print(
        format_table(
            rows,
            title=(
                f"Gold SQL equivalence audit (splits: {','.join(args.splits)}; "
                f"within-database pairs, capped at {args.max_pairs})"
            ),
        )
    )
    return EXIT_OK


def _cmd_augment(args: argparse.Namespace) -> int:
    dataset = _build_dataset(args.domain)
    pairs = augment_domain(
        dataset,
        n_question_to_sql=args.question_to_sql,
        n_sql_to_question=args.sql_to_question,
        seed=args.seed,
    )
    payload = [
        {"question": pair.question, "sql": pair.sql, "db_id": pair.db_id}
        for pair in pairs
    ]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {len(payload)} pairs to {args.out}")
    else:
        print(json.dumps(payload[:5], indent=2))
        print(f"... {len(payload)} pairs total (use --out to save)")
    return EXIT_OK


def _server_config(args: argparse.Namespace) -> ServerConfig:
    return ServerConfig(
        queue_capacity=args.queue_capacity,
        batch_size=args.batch_size,
        skeleton_watermark=args.skeleton_watermark,
        sentinel_watermark=args.sentinel_watermark,
        rate_per_tenant=args.rate_per_tenant,
        default_deadline_s=args.deadline_s,
    )


def _shard_map(args: argparse.Namespace, workers: int) -> ShardMap:
    """A ``workers``-worker map on ``--virtual-nodes`` and ``--shard-seed``."""
    return ShardMap(
        default_worker_ids(workers),
        virtual_nodes=args.virtual_nodes,
        seed=args.shard_seed,
    )


def _outcome_line(outcome) -> str:
    """One JSONL line per terminal outcome (stable key order)."""
    payload: dict[str, object] = {
        "id": outcome.request.request_id,
        "status": outcome.status,
    }
    if isinstance(outcome, Completed):
        payload["sql"] = outcome.sql
        payload["tier"] = outcome.tier
        payload["latency_s"] = round(outcome.latency_s, 6)
        payload["queue_s"] = round(outcome.queue_s, 6)
    elif isinstance(outcome, Shed):
        payload["reason"] = outcome.reason
    else:
        payload["error"] = outcome.error
    return json.dumps(payload, sort_keys=True)


def _build_router(args: argparse.Namespace, parser, databases) -> ShardRouter:
    """A shard router over ``--workers`` inline or process workers.

    Rate limiting stays central (the router's buckets); worker servers
    get ``rate_per_tenant=None`` so a tenant is not double-charged.
    """
    worker_config = dataclasses.replace(_server_config(args), rate_per_tenant=None)

    def handle_factory(worker_id: str):
        def build() -> Server:
            return Server(parser, databases, config=worker_config)

        if args.transport == "process":
            return ProcessWorkerHandle(worker_id, build)
        return InlineWorkerHandle(worker_id, build)

    return ShardRouter(
        _shard_map(args, args.workers),
        handle_factory,
        databases.keys(),
        config=ShardingConfig(
            virtual_nodes=args.virtual_nodes,
            rate_per_tenant=args.rate_per_tenant,
        ),
    )


def _serve_request(line: str, index: int, default_db: str) -> ServeRequest:
    """Parse one JSONL request line; ``ValueError`` says what is wrong."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON ({exc.msg})") from None
    if not isinstance(record, dict):
        raise ValueError(f"expected a JSON object, got {type(record).__name__}")
    if "question" not in record:
        raise ValueError('missing "question"')
    if not isinstance(record["question"], str):
        raise ValueError(f'"question" must be a string, got {record["question"]!r}')
    deadline_s = record.get("deadline_s")
    if deadline_s is not None and (
        isinstance(deadline_s, bool)
        or not isinstance(deadline_s, (int, float))
        or deadline_s <= 0
    ):
        raise ValueError(
            f'"deadline_s" must be a positive number, got {deadline_s!r}'
        )
    return ServeRequest(
        request_id=str(record.get("id", f"q{index:04d}")),
        question=record["question"],
        db_id=record.get("db_id") or default_db,
        tenant=record.get("tenant", "default"),
        deadline_s=deadline_s,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    """One-shot serving: JSONL requests in, JSONL outcomes out.

    Each input line is ``{"question": ..., "db_id": ..., "id"?,
    "tenant"?, "deadline_s"?}``; a malformed line or a repeated id
    exits 2 before anything is served.  Every request arrives at once
    and is replayed through the front door until it resolves — one
    server, or with ``--workers N`` a router over N shard workers — and
    one JSON line per outcome is printed in input order.  Router worker
    failures are appended as their own JSONL records after the outcomes.
    """
    dataset = _build_dataset(args.dataset)
    default_db = next(iter(dataset.databases))
    handle = open(args.input, encoding="utf-8") if args.input else sys.stdin
    try:
        requests = []
        for index, line in enumerate(handle):
            line = line.strip()
            if not line:
                continue
            try:
                requests.append(_serve_request(line, index, default_db))
            except ValueError as exc:
                print(f"repro serve: line {index + 1}: {exc}", file=sys.stderr)
                return EXIT_USAGE
    finally:
        if args.input:
            handle.close()
    ids = Counter(request.request_id for request in requests)
    repeated = [request_id for request_id, n in ids.items() if n > 1]
    if repeated:
        print(f"repro serve: duplicate request id {repeated[0]!r}", file=sys.stderr)
        return EXIT_USAGE
    parser = _fitted_parser(dataset, args.model)
    arrivals = [Arrival(at=0.0, request=request) for request in requests]
    failures: list[dict] = []
    if args.workers > 1:
        router = _build_router(args, parser, dataset.databases)
        try:
            outcomes = replay(router, arrivals)
            failures = list(router.failures)
            metrics = router.metrics() if args.metrics else None
        finally:
            router.shutdown()
    else:
        server = Server(parser, dataset.databases, config=_server_config(args))
        outcomes = replay(server, arrivals)
        metrics = server.metrics() if args.metrics else None
    by_id = {outcome.request.request_id: outcome for outcome in outcomes}
    for request in requests:
        print(_outcome_line(by_id[request.request_id]))
    for failure in failures:
        print(json.dumps({"status": "worker_failure", **failure}, sort_keys=True))
    if metrics is not None:
        print(format_serving_report(metrics), file=sys.stderr)
    return EXIT_OK


def _cmd_shardmap(args: argparse.Namespace) -> int:
    """Print the shard assignment table, plus a rebalance plan diff.

    ``--target-workers M`` diffs the current map against an M-worker
    map with the same virtual nodes and seed, listing exactly which
    databases would move — consistent hashing keeps that list minimal.
    """
    dataset = _build_dataset(args.dataset)
    db_ids = sorted(dataset.databases)
    shard_map = _shard_map(args, args.workers)
    rows = [
        {
            "worker": worker_id,
            "count": len(assigned),
            "databases": ", ".join(assigned) if assigned else "-",
        }
        for worker_id, assigned in sorted(shard_map.assignments(db_ids).items())
    ]
    print(
        format_table(
            rows,
            title=(
                f"shard map: {len(db_ids)} databases over {args.workers} "
                f"workers (vnodes={args.virtual_nodes} seed={args.shard_seed})"
            ),
        )
    )
    if args.target_workers is not None:
        moves = shard_map.moves(_shard_map(args, args.target_workers), db_ids)
        print()
        if not moves:
            print(f"rebalance to {args.target_workers} workers: nothing moves")
        else:
            print(
                format_table(
                    [
                        {"database": m.db_id, "from": m.source, "to": m.target}
                        for m in moves
                    ],
                    title=(
                        f"rebalance to {args.target_workers} workers: "
                        f"{len(moves)}/{len(db_ids)} databases move"
                    ),
                )
            )
    return EXIT_OK


def _cmd_loadgen(args: argparse.Namespace) -> int:
    """Seeded open-loop load generation on a FakeClock.

    Arrivals are Poisson at ``--rate``/s cycling through the dev split;
    service time comes from a flat per-tier model, so the printed
    throughput/latency/shed report is byte-stable for a given seed.
    """
    clock = FakeClock()
    dataset = _build_dataset(args.dataset)
    parser = _fitted_parser(dataset, args.model, clock=clock)
    server = Server(
        parser,
        dataset.databases,
        config=_server_config(args),
        clock=clock,
        service_model=ServiceModel(),
    )
    arrivals = poisson_workload(
        dataset.dev,
        n=args.n,
        rate=args.rate,
        seed=args.seed,
        deadline_s=args.deadline_s,
    )
    result = run_loadgen(
        server, arrivals, title=f"loadgen {args.dataset} seed={args.seed}"
    )
    print(result.report)
    return EXIT_OK


def _cmd_providers(args: argparse.Namespace) -> int:
    """Seeded chaos run against a provider topology on a FakeClock.

    With ``--config`` the topology comes from a JSON RouterConfig;
    otherwise a demo mix (flaky primary, latency-realistic remote
    backup, dead standby) exercises retries, failover, hedging, and
    breakers.  Everything is seeded, so the printed tables are
    byte-stable for a given invocation.
    """
    from repro.config import get_model_config
    from repro.lm.providers import ProviderSpec, RouterConfig, build_router
    from repro.lm.registry import DEFAULT_LM_REGISTRY

    if args.config:
        with open(args.config) as handle:
            config = RouterConfig.from_dict(json.load(handle))
    else:
        config = RouterConfig(
            providers=(
                ProviderSpec(
                    name="primary",
                    kind="flaky",
                    priority=0,
                    failure_rate=args.failure_rate,
                    seed=args.seed,
                ),
                ProviderSpec(
                    name="backup",
                    kind="remote",
                    priority=1,
                    latency_median_s=0.03,
                    latency_tail_p=0.05,
                    seed=args.seed + 1,
                ),
                ProviderSpec(name="standby", kind="dead", priority=2),
            ),
            retry_max_attempts=2,
            hedge_delay_s=(
                args.hedge_delay_s if args.hedge_delay_s >= 0 else None
            ),
            probe_interval_s=0.5,
            name="demo",
        )
    clock = FakeClock()
    lm = DEFAULT_LM_REGISTRY.lm_for(get_model_config(args.model))
    router = build_router(config, lm, clock=clock)
    texts = lm.seen_sql[:8] or ["SELECT 1"]
    succeeded = 0
    for index in range(args.n):
        try:
            router.score(texts[index % len(texts)])
            succeeded += 1
        except ReproError:  # staticcheck: disable=EXC001 (probe counts successes; failures are the complement)
            pass
        clock.advance(0.01)
    counters = router.counters
    summary = [
        {"metric": "requests", "value": counters["requests"]},
        {"metric": "succeeded", "value": succeeded},
        {
            "metric": "availability",
            "value": f"{succeeded / max(1, args.n):.4f}",
        },
        {"metric": "failovers", "value": counters["failovers"]},
        {"metric": "retries", "value": counters["retries"]},
        {"metric": "hedges fired", "value": counters["hedges_fired"]},
        {"metric": "hedge wins", "value": counters["hedge_wins"]},
        {"metric": "hedge discarded", "value": counters["hedge_discarded"]},
        {"metric": "all-open sheds", "value": counters["all_open_sheds"]},
    ] + [
        {
            "metric": f"p{percentile} effective latency s",
            "value": f"{nearest_rank(router.effective_latencies, percentile):.6f}",
        }
        for percentile in (50, 95)
    ]
    print(format_table(summary, title=f"Router {config.name!r} seed={args.seed}"))
    print()
    print(format_table(router.as_rows(), title="Providers"))
    return EXIT_OK


def _cmd_conformance(args: argparse.Namespace) -> int:
    """Run the cross-dialect conformance suite and print the report."""
    report = run_conformance(
        datasets=_build_datasets(args.dataset),
        backends=None if args.backend == "all" else [args.backend],
        deadline_s=args.deadline_s,
    )
    print(report.render(max_divergences=args.max_divergences))
    if report.ok:
        print("OK: every backend matches the reference on every gold set")
        return EXIT_OK
    print("FAIL: backends diverged from the reference (see report above)")
    return EXIT_FAILED


def _cmd_check(args: argparse.Namespace) -> int:
    """Run the staticcheck rule engine over a source tree.

    Imported lazily so the (pure-stdlib, but sizeable) rule registry
    only loads for this subcommand.
    """
    import repro
    from repro import staticcheck

    if args.list:
        for rule_id in staticcheck.REGISTRY.ids():
            rule_cls = staticcheck.REGISTRY.get(rule_id)
            print(f"{rule_id}  ({rule_cls.severity})  {rule_cls.title}")
        return EXIT_OK
    if args.explain:
        print(staticcheck.REGISTRY.explain(args.explain))
        return EXIT_OK

    root = args.root or Path(repro.__file__).parent
    cache = None
    if args.cache:
        rule_classes = [
            staticcheck.REGISTRY.get(rid)
            for rid in (args.rules or staticcheck.REGISTRY.ids())
        ]
        cache = staticcheck.FindingCache(
            args.cache, staticcheck.rules_fingerprint(rule_classes)
        )
    result = staticcheck.check_tree(root, rule_ids=args.rules, cache=cache)
    if cache is not None:
        cache.save()

    if args.fix:
        diff, changed = staticcheck.apply_fixes(result, root)
        if diff:
            print(diff, end="")
        print(f"fixed {changed} file(s)")
        # Findings the fixer cannot retire (anything but stale
        # suppressions) still fail the run.
        remaining = [f for f in result.findings if f.rule != "SUP001"]
        return EXIT_OK if not remaining else EXIT_FAILED

    if args.format == "json":
        print(staticcheck.render_json(result))
    elif args.format == "sarif":
        print(staticcheck.render_sarif(result))
    else:
        print(staticcheck.render_text(result))
    return EXIT_OK if result.ok() else EXIT_FAILED


# ---------------------------------------------------------------------------
# value checks: argparse ``type`` callables


def _checked(kind: type, ok: Callable[[float], bool], bound: str):
    """Parse a ``kind`` and reject it unless ``ok``; argparse reports a
    parse failure as ``invalid <kind> value`` and a rejection as
    ``must be <bound>``."""

    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text}")
        return value

    parse.__name__ = kind.__name__
    return parse


_positive_int = _checked(int, lambda v: v > 0, "a positive integer")
_count = _checked(int, lambda v: v >= 0, ">= 0")
_positive = _checked(float, lambda v: v > 0, "positive")
_fraction = _checked(float, lambda v: 0 <= v <= 1, "in [0, 1]")


def _splits(text: str) -> tuple[str, ...]:
    splits = tuple(text.split(","))
    for split in splits:
        if split not in SPLITS:
            raise argparse.ArgumentTypeError(
                f"unknown split {split!r}; choose from {', '.join(SPLITS)}"
            )
    return splits


def _dialect(name: str) -> str:
    try:
        backend_for_dialect(name)
    except ExecutionError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return name


def _directory(text: str) -> Path:
    if not Path(text).is_dir():
        raise argparse.ArgumentTypeError(f"no such directory: {text}")
    return Path(text)


def _rule_id(rule_id: str) -> str:
    from repro.staticcheck import REGISTRY

    try:
        REGISTRY.get(rule_id)
    except KeyError as exc:
        raise argparse.ArgumentTypeError(exc.args[0]) from None
    return rule_id


def _rule_ids(text: str) -> list[str] | None:
    return [_rule_id(rule_id) for rule_id in text.split(",")] if text else None


# ---------------------------------------------------------------------------
# arguments, declared once


class Arg:
    """One command-line argument: ``add_argument``'s flags and keywords.
    Calling it returns a copy with some keywords replaced, which is how
    a subcommand gives a shared argument its own default or help."""

    def __init__(self, *flags: str, **spec):
        self.flags = flags
        self.spec = spec

    def __call__(self, **overrides) -> Arg:
        return Arg(*self.flags, **{**self.spec, **overrides})


DATASET = Arg("--dataset", choices=tuple(DATASET_BUILDERS), metavar="DATASET")
#: ``--dataset`` for the audits, which also take the two groups.
DATASET_GROUP = DATASET(
    default="all", choices=(*DATASET_BUILDERS, "dr-spider", "all"),
    help="benchmark name, 'dr-spider' for all perturbations, or 'all'",
)
MODEL = Arg("--model", choices=sorted(MODEL_REGISTRY))
SEED = Arg("--seed", type=int, default=0)
DEADLINE = Arg("--deadline-s", type=float, default=None)
#: ``--deadline-s`` and ``--max-retries`` for ``eval`` and ``ask``.
RELIABILITY = (
    DEADLINE(help="wall-clock budget per SQL execution (seconds)"),
    Arg("--max-retries", type=_count, default=0,
        help="retries for transient generation/execution failures"),
)
#: ``--db-id`` and ``--question`` for ``ask`` and ``trace``.
QUESTION = (Arg("--db-id", default=None), Arg("--question", required=True))
SPLITS_ARG = Arg("--splits", type=_splits, default="train,dev",
                 help="comma-separated splits to audit (default: train,dev)")
SERVING = (
    Arg("--queue-capacity", type=_positive_int, default=64),
    Arg("--batch-size", type=_positive_int, default=4),
    Arg("--skeleton-watermark", type=int, default=8,
        help="queue depth at which batches drop to skeleton effort"),
    Arg("--sentinel-watermark", type=int, default=24,
        help="queue depth at which batches answer with the sentinel"),
    Arg("--rate-per-tenant", type=float, default=None,
        help="token-bucket refill rate per tenant (requests/s); "
             "omit to disable rate limiting"),
    DEADLINE(help="default end-to-end deadline per request (seconds)"),
)
SHARDING = (
    Arg("--workers", type=_positive_int, default=1,
        help="shard the databases over N workers behind a router "
             "(1 = single-process serving, the default)"),
    Arg("--transport", default="inline", choices=("inline", "process"),
        help="worker transport: inline (deterministic, one process) or "
             "process (forked children, real parallelism)"),
    Arg("--virtual-nodes", type=_positive_int, default=64,
        help="virtual nodes per worker on the consistent-hash ring"),
    Arg("--shard-seed", type=int, default=0,
        help="seed for the consistent-hash ring points"),
)


def _commands() -> tuple:
    """Every subcommand as (name, handler, help, arguments in ``--help``
    order).  Built per parser, so ``conformance --backend`` offers the
    backends registered at that moment."""
    backends = [b for b in available_backends() if b != REFERENCE_BACKEND]
    return (
        ("datasets", _cmd_datasets, "list available benchmarks", ()),
        ("eval", _cmd_eval, "evaluate a model on a benchmark", (
            DATASET(default="spider"),
            MODEL(default="codes-7b"),
            Arg("--mode", default="sft", choices=("sft", "fewshot", "zeroshot")),
            Arg("--shots", type=int, default=None,
                help="demonstrations per question, --mode fewshot only (default 3)"),
            Arg("--ek", action="store_true", help="use external knowledge (BIRD)"),
            Arg("--ts", action="store_true", help="also compute test-suite accuracy"),
            Arg("--limit", type=_count, default=None),
            Arg("--no-static-eval", action="store_true",
                help="disable the static EX short-circuit (execute every "
                     "prediction even when provably equivalent to gold)"),
            Arg("--dialect", type=_dialect, default="sqlite",
                help="run on the backend speaking this SQL dialect (gold queries "
                     "are transpiled); default sqlite is the reference engine"),
            *RELIABILITY,
        )),
        ("ask", _cmd_ask, "translate one question to SQL", (
            DATASET(default="bank_financials"), MODEL(default="codes-7b"),
            *QUESTION, *RELIABILITY,
        )),
        ("trace", _cmd_trace, "answer one question and show the per-stage trace", (
            DATASET(default="bank_financials"), MODEL(default="codes-7b"), *QUESTION,
        )),
        ("augment", _cmd_augment, "run bi-directional augmentation for a domain", (
            Arg("--domain", default="bank_financials",
                choices=("bank_financials", "aminer_simplified")),
            Arg("--question-to-sql", type=int, default=60),
            Arg("--sql-to-question", type=int, default=90),
            SEED,
            Arg("--out", default=None),
        )),
        ("lint", _cmd_lint, "statically audit a benchmark's gold SQL", (
            DATASET_GROUP,
            SPLITS_ARG,
            Arg("--max-findings", type=int, default=10,
                help="dirty queries to print per dataset"),
            Arg("--verbose", action="store_true",
                help="also print reports for datasets with warnings only"),
        )),
        ("equiv", _cmd_equiv, "report gold-SQL duplicate ratios and prover verdicts", (
            DATASET_GROUP,
            SPLITS_ARG,
            Arg("--max-pairs", type=int, default=2000,
                help="cap on within-database query pairs fed to the prover"),
        )),
        ("serve", _cmd_serve,
         "one-shot JSONL serving through the micro-batch scheduler", (
            DATASET(default="bank_financials"),
            MODEL(default="codes-1b"),
            Arg("--input", default=None,
                help="JSONL request file (default: stdin); each line is "
                     '{"question": ..., "db_id": ..., "id"?, "tenant"?, '
                     '"deadline_s"?}'),
            Arg("--metrics", action="store_true",
                help="print the server metrics snapshot to stderr after serving"),
            *SERVING,
            *SHARDING,
        )),
        ("shardmap", _cmd_shardmap,
         "show the consistent-hash shard assignments and a rebalance plan diff", (
            DATASET(default="bank_financials"),
            Arg("--target-workers", type=_positive_int, default=None,
                help="also print which databases move when rebalancing to "
                     "this many workers"),
            *SHARDING,
        )),
        ("loadgen", _cmd_loadgen,
         "seeded open-loop Poisson load report on a fake clock", (
            DATASET(default="bank_financials"),
            MODEL(default="codes-1b"),
            Arg("--n", type=_positive_int, default=64, help="number of arrivals"),
            Arg("--rate", type=_positive, default=30.0,
                help="Poisson arrival rate (requests/s)"),
            SEED,
            *SERVING,
        )),
        ("providers", _cmd_providers,
         "seeded chaos run against an LM provider topology", (
            Arg("--config", default=None,
                help="JSON RouterConfig file; omit for the built-in demo mix"),
            MODEL(default="codes-7b"),
            Arg("--n", type=int, default=500, help="routed requests to simulate"),
            SEED,
            Arg("--failure-rate", type=_fraction, default=0.3,
                help="demo mix: primary provider's injected failure rate"),
            Arg("--hedge-delay-s", type=float, default=0.02,
                help="fire a hedged backup after this many seconds; "
                     "negative disables hedging"),
        )),
        ("conformance", _cmd_conformance,
         "execute every bundled gold query on each backend and "
         "result-compare against the reference SQLite engine", (
            DATASET(default="all", choices=(*DATASET_BUILDERS, "all"),
                    help="one bundled gold set by name, or 'all' (the default)"),
            Arg("--backend", default="all", choices=(*backends, "all"),
                help="one registered backend to audit, or 'all' non-reference "
                     "backends (the default)"),
            DEADLINE(help="wall-clock budget per backend-side execution (seconds)"),
            Arg("--max-divergences", type=int, default=10,
                help="divergent examples to print per backend"),
        )),
        ("check", _cmd_check, "run the staticcheck rule engine over a source tree", (
            Arg("--root", type=_directory, default=None,
                help="tree to check (default: the installed repro package)"),
            Arg("--format", default="text", choices=("text", "json", "sarif")),
            Arg("--rules", type=_rule_ids, default=None,
                help="comma-separated rule ids to run (default: all registered)"),
            Arg("--explain", type=_rule_id, default=None, metavar="RULE",
                help="print one rule's documentation and exit"),
            Arg("--list", action="store_true", help="list registered rules and exit"),
            Arg("--fix", action="store_true",
                help="delete stale suppression comments, printing a unified diff"),
            Arg("--cache", default=None, metavar="PATH",
                help="incremental finding cache file; unchanged modules skip "
                     "per-module rules on warm runs"),
        )),
    )


def build_arg_parser() -> argparse.ArgumentParser:
    # No prefix matching: ``--deadline`` must not silently mean ``--deadline-s``.
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CodeS text-to-SQL reproduction CLI",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, run, help_text, arguments in _commands():
        command_parser = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for arg in arguments:
            command_parser.add_argument(*arg.flags, **arg.spec)
        command_parser.set_defaults(func=run, usage_error=command_parser.error)
    return parser


def main(argv: list[str] | None = None) -> int:
    args, unknown = build_arg_parser().parse_known_args(argv)
    if unknown:  # reported by the subcommand, as every usage error is
        args.usage_error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        return args.func(args)
    except UsageError as exc:
        args.usage_error(str(exc))  # prints usage and the error, exits 2
    except BrokenPipeError:
        # e.g. `repro check --explain RULE | head` — the reader closed
        # stdout; exit quietly instead of tracebacking.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
