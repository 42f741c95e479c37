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

Everything runs offline and deterministically.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from collections import Counter

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
from repro.datasets import DATASET_BUILDERS
from repro.errors import DeadlineExceededError, ReproError
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
    poisson_workload,
    replay,
    run_loadgen,
)

def _build_dataset(name: str):
    try:
        return DATASET_BUILDERS[name]()
    except KeyError:
        sys.exit(f"unknown dataset {name!r}; choose from {sorted(DATASET_BUILDERS)}")


def _fitted_parser(dataset, model: str, clock=None) -> CodeSParser:
    """A ``model`` parser, fitted when ``dataset`` has a train split."""
    parser = CodeSParser(model, clock=clock)
    if dataset.train:
        parser.fit(pair_samples(dataset))
    return parser


def _cmd_datasets(args: argparse.Namespace) -> int:
    rows = []
    for name, builder in DATASET_BUILDERS.items():
        dataset = builder()
        rows.append(
            {
                "dataset": name,
                "databases": len(dataset.databases),
                "train": len(dataset.train),
                "dev": len(dataset.dev),
            }
        )
    print(format_table(rows, title="Available benchmarks"))
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    if args.mode != "fewshot" and args.shots is not None:
        print(
            f"repro eval: --shots applies only to --mode fewshot, "
            f"not --mode {args.mode}",
            file=sys.stderr,
        )
        return 2
    shots = 3 if args.shots is None else args.shots
    if args.mode == "fewshot" and shots < 1:
        print(
            f"repro eval: --mode fewshot needs --shots >= 1, got {shots} "
            "(use --mode zeroshot for no demonstrations)",
            file=sys.stderr,
        )
        return 2
    if args.dialect != "sqlite":
        from repro.db.backends import backend_for_dialect
        from repro.errors import ExecutionError

        try:
            backend_for_dialect(args.dialect)
        except ExecutionError as exc:
            sys.exit(str(exc))
        if args.ts:
            sys.exit(
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
    return 0


def _cmd_ask(args: argparse.Namespace) -> int:
    dataset = _build_dataset(args.dataset)
    parser = _fitted_parser(dataset, args.model)
    db_id = args.db_id or next(iter(dataset.databases))
    database = dataset.databases[db_id]
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
        sys.exit(f"query exceeded the --deadline-s budget: {exc}")
    for row in rows[:20]:
        print(" ", row)
    if len(rows) > 20:
        print(f"  ... ({len(rows)} rows total)")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Answer one question and print the per-stage engine trace."""
    dataset = _build_dataset(args.dataset)
    parser = _fitted_parser(dataset, args.model)
    db_id = args.db_id or next(iter(dataset.databases))
    database = dataset.databases[db_id]
    result = parser.generate(args.question, database)
    print(f"SQL:  {result.sql}")
    print(f"tier: {result.tier}")
    if result.trace is None:
        print("(no trace recorded)")
        return 0
    print(
        format_table(
            result.trace.as_rows(),
            title=f"stage trace ({1000 * result.trace.total_s:.2f} ms total)",
        )
    )
    return 0


def _lint_targets(name: str) -> list:
    """The datasets ``name`` selects; ``dr-spider`` expands to every
    perturbation set and ``all`` to every bundled set."""
    if name == "all":
        names = list(DATASET_BUILDERS)
    elif name == "dr-spider":
        names = [n for n in DATASET_BUILDERS if n.startswith("dr-spider-")]
    elif name in DATASET_BUILDERS:
        names = [name]
    else:
        sys.exit(
            f"unknown dataset {name!r}; choose from "
            f"{sorted([*DATASET_BUILDERS, 'dr-spider', 'all'])}"
        )
    return [DATASET_BUILDERS[target]() for target in names]


def _cmd_lint(args: argparse.Namespace) -> int:
    splits = tuple(args.splits.split(","))
    rows = []
    dirty = 0
    for dataset in _lint_targets(args.dataset):
        report = dataset.lint(splits=splits)
        rows.append(report.as_row())
        dirty += len(report.error_findings)
        if report.findings and args.verbose:
            print(format_lint_report(report, max_findings=args.max_findings))
        elif report.error_findings:
            print(format_lint_report(report, max_findings=args.max_findings))
    print(format_table(rows, title=f"Gold SQL lint audit (splits: {args.splits})"))
    if dirty:
        print(f"FAIL: {dirty} gold queries carry error-tier diagnostics")
        return 1
    print("OK: no error-tier diagnostics in gold SQL")
    return 0


def _equiv_report(dataset, splits: tuple[str, ...], max_pairs: int) -> dict[str, object]:
    """Duplicate-ratio and prover-verdict histogram for one benchmark."""
    examples = []
    for split in splits:
        examples.extend(getattr(dataset, split, []) or [])
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
    splits = tuple(args.splits.split(","))
    rows = []
    for dataset in _lint_targets(args.dataset):
        rows.append(_equiv_report(dataset, splits, args.max_pairs))
    print(
        format_table(
            rows,
            title=(
                f"Gold SQL equivalence audit (splits: {args.splits}; "
                f"within-database pairs, capped at {args.max_pairs})"
            ),
        )
    )
    return 0


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
    return 0


def _server_config(args: argparse.Namespace) -> ServerConfig:
    return ServerConfig(
        queue_capacity=args.queue_capacity,
        batch_size=args.batch_size,
        skeleton_watermark=args.skeleton_watermark,
        sentinel_watermark=args.sentinel_watermark,
        rate_per_tenant=args.rate_per_tenant,
        default_deadline_s=args.deadline_s,
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

    shard_map = ShardMap(
        default_worker_ids(args.workers),
        virtual_nodes=args.virtual_nodes,
        seed=args.shard_seed,
    )
    return ShardRouter(
        shard_map,
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
                return 2
    finally:
        if args.input:
            handle.close()
    ids = Counter(request.request_id for request in requests)
    repeated = [request_id for request_id, n in ids.items() if n > 1]
    if repeated:
        print(f"repro serve: duplicate request id {repeated[0]!r}", file=sys.stderr)
        return 2
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
    return 0


def _cmd_shardmap(args: argparse.Namespace) -> int:
    """Print the shard assignment table, plus a rebalance plan diff.

    ``--target-workers M`` diffs the current map against an M-worker
    map with the same virtual nodes and seed, listing exactly which
    databases would move — consistent hashing keeps that list minimal.
    """
    dataset = _build_dataset(args.dataset)
    db_ids = sorted(dataset.databases)
    shard_map = ShardMap(
        default_worker_ids(args.workers),
        virtual_nodes=args.virtual_nodes,
        seed=args.shard_seed,
    )
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
        new_map = ShardMap(
            default_worker_ids(args.target_workers),
            virtual_nodes=args.virtual_nodes,
            seed=args.shard_seed,
        )
        moves = shard_map.moves(new_map, db_ids)
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
    return 0


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
    return 0


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
    stats = router.stats_dict()
    summary = [
        {"metric": "requests", "value": stats["requests"]},
        {"metric": "succeeded", "value": succeeded},
        {
            "metric": "availability",
            "value": f"{succeeded / max(1, args.n):.4f}",
        },
        {"metric": "failovers", "value": stats["failovers"]},
        {"metric": "retries", "value": stats["retries"]},
        {"metric": "hedges fired", "value": stats["hedges_fired"]},
        {"metric": "hedge wins", "value": stats["hedge_wins"]},
        {"metric": "hedge discarded", "value": stats["hedge_discarded"]},
        {"metric": "all-open sheds", "value": stats["all_open_sheds"]},
        {
            "metric": "p50 effective latency s",
            "value": f"{router.latency_quantile(0.50):.6f}",
        },
        {
            "metric": "p95 effective latency s",
            "value": f"{router.latency_quantile(0.95):.6f}",
        },
    ]
    print(format_table(summary, title=f"Router {config.name!r} seed={args.seed}"))
    print()
    print(format_table(router.as_rows(), title="Providers"))
    return 0


#: ``repro check`` exit codes — a stable contract for CI wrappers:
#: 0 = clean, 1 = findings, 2 = usage error.
CHECK_OK = 0
CHECK_FINDINGS = 1
CHECK_USAGE = 2

#: ``repro conformance`` exit codes — same contract shape as ``check``:
#: 0 = every backend matched SQLite everywhere, 1 = divergences or
#: backend errors, 2 = usage error.
CONFORMANCE_OK = 0
CONFORMANCE_DIVERGENT = 1
CONFORMANCE_USAGE = 2


def _cmd_conformance(args: argparse.Namespace) -> int:
    """Run the cross-dialect conformance suite and print the report."""
    from repro.db.backends import available_backends
    from repro.eval.conformance import REFERENCE_BACKEND, run_conformance

    if args.dataset == "all":
        datasets = None
    elif args.dataset in DATASET_BUILDERS:
        datasets = [DATASET_BUILDERS[args.dataset]()]
    else:
        print(
            f"repro conformance: unknown dataset {args.dataset!r}; choose "
            f"from {sorted([*DATASET_BUILDERS, 'all'])}",
            file=sys.stderr,
        )
        return CONFORMANCE_USAGE
    if args.backend == "all":
        backends = None
    elif args.backend in available_backends():
        if args.backend == REFERENCE_BACKEND:
            print(
                f"repro conformance: {REFERENCE_BACKEND!r} is the reference "
                f"backend; pick one to compare against it",
                file=sys.stderr,
            )
            return CONFORMANCE_USAGE
        backends = [args.backend]
    else:
        print(
            f"repro conformance: unknown backend {args.backend!r}; choose "
            f"from {sorted([*available_backends(), 'all'])}",
            file=sys.stderr,
        )
        return CONFORMANCE_USAGE
    report = run_conformance(
        datasets=datasets, backends=backends, deadline_s=args.deadline_s
    )
    print(report.render(max_divergences=args.max_divergences))
    if report.ok:
        print("OK: every backend matches the reference on every gold set")
        return CONFORMANCE_OK
    print("FAIL: backends diverged from the reference (see report above)")
    return CONFORMANCE_DIVERGENT


def _cmd_check(args: argparse.Namespace) -> int:
    """Run the staticcheck rule engine over a source tree.

    Imported lazily so the (pure-stdlib, but sizeable) rule registry
    only loads for this subcommand.
    """
    from pathlib import Path

    import repro
    from repro import staticcheck

    if args.list:
        for rule_id in staticcheck.REGISTRY.ids():
            rule_cls = staticcheck.REGISTRY.get(rule_id)
            print(f"{rule_id}  ({rule_cls.severity})  {rule_cls.title}")
        return CHECK_OK
    if args.explain:
        try:
            print(staticcheck.REGISTRY.explain(args.explain))
        except KeyError as exc:
            print(f"repro check: {exc.args[0]}", file=sys.stderr)
            return CHECK_USAGE
        return CHECK_OK

    root = Path(args.root) if args.root else Path(repro.__file__).parent
    if not root.is_dir():
        print(f"repro check: no such directory: {root}", file=sys.stderr)
        return CHECK_USAGE
    rule_ids = args.rules.split(",") if args.rules else None

    cache = None
    if args.cache:
        try:
            rule_classes = [
                staticcheck.REGISTRY.get(rid)
                for rid in (rule_ids or staticcheck.REGISTRY.ids())
            ]
        except KeyError as exc:
            print(f"repro check: {exc.args[0]}", file=sys.stderr)
            return CHECK_USAGE
        cache = staticcheck.FindingCache(
            args.cache, staticcheck.rules_fingerprint(rule_classes)
        )

    try:
        result = staticcheck.check_tree(root, rule_ids=rule_ids, cache=cache)
    except KeyError as exc:
        print(f"repro check: {exc.args[0]}", file=sys.stderr)
        return CHECK_USAGE
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
        return CHECK_OK if not remaining else CHECK_FINDINGS

    if args.format == "json":
        print(staticcheck.render_json(result))
    elif args.format == "sarif":
        print(staticcheck.render_sarif(result))
    else:
        print(staticcheck.render_text(result))
    return CHECK_OK if result.ok() else CHECK_FINDINGS


def _add_reliability_flags(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--deadline-s", type=float, default=None,
        help="wall-clock budget per SQL execution (seconds)",
    )
    subparser.add_argument(
        "--max-retries", type=int, default=0,
        help="retries for transient generation/execution failures",
    )


def _add_serving_flags(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument("--queue-capacity", type=int, default=64)
    subparser.add_argument("--batch-size", type=int, default=4)
    subparser.add_argument(
        "--skeleton-watermark", type=int, default=8,
        help="queue depth at which batches drop to skeleton effort",
    )
    subparser.add_argument(
        "--sentinel-watermark", type=int, default=24,
        help="queue depth at which batches answer with the sentinel",
    )
    subparser.add_argument(
        "--rate-per-tenant", type=float, default=None,
        help="token-bucket refill rate per tenant (requests/s); "
             "omit to disable rate limiting",
    )
    subparser.add_argument(
        "--deadline-s", type=float, default=None,
        help="default end-to-end deadline per request (seconds)",
    )


def _add_sharding_flags(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--workers", type=int, default=1,
        help="shard the databases over N workers behind a router "
             "(1 = single-process serving, the default)",
    )
    subparser.add_argument(
        "--transport", default="inline", choices=("inline", "process"),
        help="worker transport: inline (deterministic, one process) or "
             "process (forked children, real parallelism)",
    )
    subparser.add_argument(
        "--virtual-nodes", type=int, default=64,
        help="virtual nodes per worker on the consistent-hash ring",
    )
    subparser.add_argument(
        "--shard-seed", type=int, default=0,
        help="seed for the consistent-hash ring points",
    )


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="CodeS text-to-SQL reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list available benchmarks").set_defaults(
        func=_cmd_datasets
    )

    eval_parser = sub.add_parser("eval", help="evaluate a model on a benchmark")
    eval_parser.add_argument("--dataset", default="spider")
    eval_parser.add_argument(
        "--model", default="codes-7b", choices=sorted(MODEL_REGISTRY)
    )
    eval_parser.add_argument(
        "--mode", default="sft", choices=("sft", "fewshot", "zeroshot")
    )
    eval_parser.add_argument(
        "--shots", type=int, default=None,
        help="demonstrations per question, --mode fewshot only (default 3)",
    )
    eval_parser.add_argument("--ek", action="store_true",
                             help="use external knowledge (BIRD)")
    eval_parser.add_argument("--ts", action="store_true",
                             help="also compute test-suite accuracy")
    eval_parser.add_argument("--limit", type=int, default=None)
    eval_parser.add_argument(
        "--no-static-eval", action="store_true",
        help="disable the static EX short-circuit (execute every "
             "prediction even when provably equivalent to gold)",
    )
    eval_parser.add_argument(
        "--dialect", default="sqlite",
        help="run on the backend speaking this SQL dialect (gold queries "
             "are transpiled); default sqlite is the reference engine",
    )
    _add_reliability_flags(eval_parser)
    eval_parser.set_defaults(func=_cmd_eval)

    ask_parser = sub.add_parser("ask", help="translate one question to SQL")
    ask_parser.add_argument("--dataset", default="bank_financials")
    ask_parser.add_argument(
        "--model", default="codes-7b", choices=sorted(MODEL_REGISTRY)
    )
    ask_parser.add_argument("--db-id", default=None)
    ask_parser.add_argument("--question", required=True)
    _add_reliability_flags(ask_parser)
    ask_parser.set_defaults(func=_cmd_ask)

    trace_parser = sub.add_parser(
        "trace", help="answer one question and show the per-stage trace"
    )
    trace_parser.add_argument("--dataset", default="bank_financials")
    trace_parser.add_argument(
        "--model", default="codes-7b", choices=sorted(MODEL_REGISTRY)
    )
    trace_parser.add_argument("--db-id", default=None)
    trace_parser.add_argument("--question", required=True)
    trace_parser.set_defaults(func=_cmd_trace)

    augment_parser = sub.add_parser(
        "augment", help="run bi-directional augmentation for a domain"
    )
    augment_parser.add_argument(
        "--domain", default="bank_financials",
        choices=("bank_financials", "aminer_simplified"),
    )
    augment_parser.add_argument("--question-to-sql", type=int, default=60)
    augment_parser.add_argument("--sql-to-question", type=int, default=90)
    augment_parser.add_argument("--seed", type=int, default=0)
    augment_parser.add_argument("--out", default=None)
    augment_parser.set_defaults(func=_cmd_augment)

    lint_parser = sub.add_parser(
        "lint", help="statically audit a benchmark's gold SQL"
    )
    lint_parser.add_argument(
        "--dataset", default="all",
        help="benchmark name, 'dr-spider' for all perturbations, or 'all'",
    )
    lint_parser.add_argument(
        "--splits", default="train,dev",
        help="comma-separated splits to audit (default: train,dev)",
    )
    lint_parser.add_argument(
        "--max-findings", type=int, default=10,
        help="dirty queries to print per dataset",
    )
    lint_parser.add_argument(
        "--verbose", action="store_true",
        help="also print reports for datasets with warnings only",
    )
    lint_parser.set_defaults(func=_cmd_lint)

    equiv_parser = sub.add_parser(
        "equiv", help="report gold-SQL duplicate ratios and prover verdicts"
    )
    equiv_parser.add_argument(
        "--dataset", default="all",
        help="benchmark name, 'dr-spider' for all perturbations, or 'all'",
    )
    equiv_parser.add_argument(
        "--splits", default="train,dev",
        help="comma-separated splits to audit (default: train,dev)",
    )
    equiv_parser.add_argument(
        "--max-pairs", type=int, default=2000,
        help="cap on within-database query pairs fed to the prover",
    )
    equiv_parser.set_defaults(func=_cmd_equiv)

    serve_parser = sub.add_parser(
        "serve", help="one-shot JSONL serving through the micro-batch scheduler"
    )
    serve_parser.add_argument("--dataset", default="bank_financials")
    serve_parser.add_argument(
        "--model", default="codes-1b", choices=sorted(MODEL_REGISTRY)
    )
    serve_parser.add_argument(
        "--input", default=None,
        help="JSONL request file (default: stdin); each line is "
             '{"question": ..., "db_id": ..., "id"?, "tenant"?, "deadline_s"?}',
    )
    serve_parser.add_argument(
        "--metrics", action="store_true",
        help="print the server metrics snapshot to stderr after serving",
    )
    _add_serving_flags(serve_parser)
    _add_sharding_flags(serve_parser)
    serve_parser.set_defaults(func=_cmd_serve)

    shardmap_parser = sub.add_parser(
        "shardmap",
        help="show the consistent-hash shard assignments and a "
             "rebalance plan diff",
    )
    shardmap_parser.add_argument("--dataset", default="bank_financials")
    shardmap_parser.add_argument(
        "--target-workers", type=int, default=None,
        help="also print which databases move when rebalancing to "
             "this many workers",
    )
    _add_sharding_flags(shardmap_parser)
    shardmap_parser.set_defaults(func=_cmd_shardmap)

    loadgen_parser = sub.add_parser(
        "loadgen", help="seeded open-loop Poisson load report on a fake clock"
    )
    loadgen_parser.add_argument("--dataset", default="bank_financials")
    loadgen_parser.add_argument(
        "--model", default="codes-1b", choices=sorted(MODEL_REGISTRY)
    )
    loadgen_parser.add_argument("--n", type=int, default=64,
                                help="number of arrivals")
    loadgen_parser.add_argument("--rate", type=float, default=30.0,
                                help="Poisson arrival rate (requests/s)")
    loadgen_parser.add_argument("--seed", type=int, default=0)
    _add_serving_flags(loadgen_parser)
    loadgen_parser.set_defaults(func=_cmd_loadgen)

    providers_parser = sub.add_parser(
        "providers",
        help="seeded chaos run against an LM provider topology",
    )
    providers_parser.add_argument(
        "--config", default=None,
        help="JSON RouterConfig file; omit for the built-in demo mix",
    )
    providers_parser.add_argument("--model", default="codes-7b")
    providers_parser.add_argument(
        "--n", type=int, default=500, help="routed requests to simulate"
    )
    providers_parser.add_argument("--seed", type=int, default=0)
    providers_parser.add_argument(
        "--failure-rate", type=float, default=0.3,
        help="demo mix: primary provider's injected failure rate",
    )
    providers_parser.add_argument(
        "--hedge-delay-s", type=float, default=0.02,
        help="fire a hedged backup after this many seconds; "
             "negative disables hedging",
    )
    providers_parser.set_defaults(func=_cmd_providers)

    conformance_parser = sub.add_parser(
        "conformance",
        help="execute every bundled gold query on each backend and "
             "result-compare against the reference SQLite engine",
    )
    conformance_parser.add_argument(
        "--dataset", default="all",
        help="one bundled gold set by name, or 'all' (the default)",
    )
    conformance_parser.add_argument(
        "--backend", default="all",
        help="one registered backend to audit, or 'all' non-reference "
             "backends (the default)",
    )
    conformance_parser.add_argument(
        "--deadline-s", type=float, default=None,
        help="wall-clock budget per backend-side execution (seconds)",
    )
    conformance_parser.add_argument(
        "--max-divergences", type=int, default=10,
        help="divergent examples to print per backend",
    )
    conformance_parser.set_defaults(func=_cmd_conformance)

    check_parser = sub.add_parser(
        "check", help="run the staticcheck rule engine over a source tree"
    )
    check_parser.add_argument(
        "--root", default=None,
        help="tree to check (default: the installed repro package)",
    )
    check_parser.add_argument(
        "--format", default="text", choices=("text", "json", "sarif"),
    )
    check_parser.add_argument(
        "--rules", default=None,
        help="comma-separated rule ids to run (default: all registered)",
    )
    check_parser.add_argument(
        "--explain", default=None, metavar="RULE",
        help="print one rule's documentation and exit",
    )
    check_parser.add_argument(
        "--list", action="store_true",
        help="list registered rules and exit",
    )
    check_parser.add_argument(
        "--fix", action="store_true",
        help="delete stale suppression comments, printing a unified diff",
    )
    check_parser.add_argument(
        "--cache", default=None, metavar="PATH",
        help="incremental finding cache file; unchanged modules skip "
             "per-module rules on warm runs",
    )
    check_parser.set_defaults(func=_cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # e.g. `repro check --explain RULE | head` — the reader closed
        # stdout; exit quietly instead of tracebacking.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
