"""The seeded mutant corpus that scores ``repro.staticcheck``.

Each :class:`Mutant` is one edit of a real module under ``src/repro``:
its ``needle`` (which occurs exactly once in that module) is replaced
by ``replacement``.  ``bug`` names the bug class the edit plants and
``seen`` where this repository ran into that class (the CHANGES.md
entry, or the FOUND line, that records it).

``tests/golden/mutation_kills.txt`` records, for every mutant, the
rules that flag it and a tier-1 test that fails on it.
``tests/test_mutation.py`` rebuilds the rule column from this corpus
and, under ``pytest -m mutation``, runs each recorded test against a
mutated copy of the tree.  ``scripts/gen_mutation_kills.py`` rewrites
the rule column after a rule or corpus edit.
"""

from __future__ import annotations

import functools
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_REPRO = REPO_ROOT / "src" / "repro"
KILL_TABLE = REPO_ROOT / "tests" / "golden" / "mutation_kills.txt"

#: test files that run ``repro.staticcheck``: a failure there is the
#: checker speaking, not an independent tier-1 kill.
STATICCHECK_TEST_FILES = (
    "tests/test_staticcheck.py",
    "tests/test_staticcheck_flow.py",
    "tests/test_arch_lint.py",
    "tests/test_mutation.py",
)
#: the ``repro check`` CLI tests in ``tests/test_cli.py``.
STATICCHECK_CLI_TESTS = re.compile(r"tests/test_cli\.py::\w*Check")


@dataclass(frozen=True)
class Mutant:
    id: str
    #: module path relative to ``src/repro`` (the path rules scope on).
    path: str
    needle: str
    replacement: str
    bug: str
    seen: str

    def source(self) -> str:
        return (SRC_REPRO / self.path).read_text(encoding="utf-8")

    def apply(self, source: str) -> str:
        return source.replace(self.needle, self.replacement, 1)


MUTANTS = (
    # -- raw clock reads ----------------------------------------------------
    Mutant(
        "clock-server-queue-wait",
        "serving/server.py",
        "        queue_s = self.clock.now() - item.enqueued_at\n",
        "        import time\n"
        "        queue_s = time.monotonic() - item.enqueued_at\n",
        "raw clock read",
        "CHANGES 'reliability layer' (injectable Clock), ARCH001 since CHANGES 'staticcheck engine'",
    ),
    Mutant(
        "clock-harness-latency",
        "eval/harness.py",
        "        start = clock.now()\n",
        "        import time\n        start = time.perf_counter()\n",
        "raw clock read",
        "CHANGES 'reliability layer' (injectable Clock), ARCH001 since CHANGES 'staticcheck engine'",
    ),
    Mutant(
        "clock-deadline-remaining",
        "reliability/deadline.py",
        "        return self.expires_at - self.clock.now()\n",
        "        from time import monotonic\n"
        "        return self.expires_at - monotonic()\n",
        "raw clock read",
        "CHANGES 'reliability layer' (injectable Clock), ARCH001 since CHANGES 'staticcheck engine'",
    ),
    Mutant(
        "clock-loadgen-makespan",
        "serving/loadgen.py",
        "    started = front.clock.now()\n",
        "    import datetime\n"
        "    started = datetime.datetime.now().timestamp()\n",
        "raw clock read",
        "CHANGES 'one replay loop' (replay measured arrivals off the wrong clock reading)",
    ),
    # -- leaked files and connections ---------------------------------------
    Mutant(
        "leak-sqlite-spare-connection",
        "db/backends/sqlite.py",
        "        connection = sqlite3.connect(path, check_same_thread=False)\n",
        "        spare = sqlite3.connect(path)\n"
        "        connection = sqlite3.connect(path, check_same_thread=False)\n",
        "leaked file or connection",
        "CHANGES 'flow rules' (RES001's seeded mutation)",
    ),
    Mutant(
        "leak-sqlite-work-before-handoff",
        "db/backends/sqlite.py",
        "        database = cls(schema, connection)\n",
        '        connection.execute("PRAGMA user_version")\n'
        "        database = cls(schema, connection)\n",
        "leaked file or connection",
        "CHANGES 'flow rules' (Database.create hands its connection off on the next line)",
    ),
    Mutant(
        "leak-serve-input-not-closed",
        "cli.py",
        "    finally:\n        if args.input:\n            handle.close()\n",
        "    finally:\n        pass\n",
        "leaked file or connection",
        "CHANGES 'one replay loop' (serve --input closes its handle in a finally)",
    ),
    Mutant(
        "leak-providers-config-without-with",
        "cli.py",
        "        with open(args.config) as handle:\n"
        "            config = RouterConfig.from_dict(json.load(handle))\n",
        "        handle = open(args.config)\n"
        "        config = RouterConfig.from_dict(json.load(handle))\n",
        "leaked file or connection",
        "CHANGES 'flow rules' (RES001 prefers `with`)",
    ),
    Mutant(
        "leak-augment-out-without-with",
        "cli.py",
        '        with open(args.out, "w", encoding="utf-8") as handle:\n'
        "            json.dump(payload, handle, indent=2)\n",
        '        handle = open(args.out, "w", encoding="utf-8")\n'
        "        json.dump(payload, handle, indent=2)\n",
        "leaked file or connection",
        "CHANGES 'flow rules' (RES001 prefers `with`)",
    ),
    # -- swallowed ReproError -----------------------------------------------
    Mutant(
        "swallow-sqlite-pragma",
        "db/backends/sqlite.py",
        "        database = cls(schema, connection)\n",
        "        database = cls(schema, connection)\n"
        "        try:\n"
        "            connection.execute('PRAGMA user_version')\n"
        "        except ExecutionError:\n"
        "            pass\n",
        "swallowed ReproError",
        "CHANGES 'flow rules' (EXC001's seeded mutation)",
    ),
    Mutant(
        "swallow-harness-generation",
        "eval/harness.py",
        '        except ReproError as exc:\n'
        '            predicted = SENTINEL_SQL\n'
        '            tiers["sentinel"] += 1\n'
        '            failures[GENERATION_FAILED] += 1\n'
        '            quarantined.append(\n'
        '                FailureRecord(\n'
        '                    index=index,\n'
        '                    db_id=example.db_id,\n'
        '                    question=example.question,\n'
        '                    failure=GENERATION_FAILED,\n'
        '                    detail=f"{type(exc).__name__}: {exc}",\n'
        '                )\n'
        '            )\n',
        "        except ReproError:\n            pass\n",
        "swallowed ReproError",
        "CHANGES 'reliability layer' (eval degrades to the sentinel on any library error)",
    ),
    # -- ad-hoc RuntimeError ------------------------------------------------
    Mutant(
        "adhoc-server-warm",
        "serving/server.py",
        '            raise ServingError(f"cannot warm unknown database {db_id!r}")\n',
        '            raise RuntimeError(f"cannot warm unknown database {db_id!r}")\n',
        "ad-hoc RuntimeError",
        "CHANGES 'flow rules' (EXC001 ad-hoc raises)",
    ),
    Mutant(
        "adhoc-router-drain-timeout",
        "serving/sharding/router.py",
        '            raise ServingError(f"drain timed out waiting for workers {waiting}")\n',
        '            raise RuntimeError(f"drain timed out waiting for workers {waiting}")\n',
        "ad-hoc RuntimeError",
        "CHANGES 'sharded serving' (drain timeout after dead workers never acked)",
    ),
    Mutant(
        "adhoc-columnar-no-such-table",
        "db/backends/columnar.py",
        '                raise ExecutionError(f"no such table: {name}")\n',
        '                raise RuntimeError(f"no such table: {name}")\n',
        "ad-hoc RuntimeError",
        "CHANGES 'dialect backends' (backend errors classified for conformance)",
    ),
    Mutant(
        "adhoc-exception-unknown-event",
        "serving/sharding/router.py",
        "            raise ServingError(\n"
        '                f"unknown worker event {type(event).__name__} from {worker_id!r}"\n',
        "            raise Exception(\n"
        '                f"unknown worker event {type(event).__name__} from {worker_id!r}"\n',
        "ad-hoc RuntimeError",
        "CHANGES 'sharded serving' (worker protocol errors)",
    ),
    # -- undeclared stage reads and writes ----------------------------------
    Mutant(
        "stage-undeclared-write",
        "engine/_stages.py",
        "        ctx.linking_question = ctx.question\n",
        "        ctx.beam = []\n        ctx.linking_question = ctx.question\n",
        "undeclared stage write",
        "CHANGES 'staticcheck engine' (STAGE001's seeded mutation; contracts since CHANGES 'staged engine')",
    ),
    Mutant(
        "stage-undeclared-read",
        "engine/_stages.py",
        "        ctx.linking_question = ctx.question\n",
        "        _ = ctx.chosen\n        ctx.linking_question = ctx.question\n",
        "undeclared stage read",
        "CHANGES 'staticcheck engine' (STAGE001's seeded mutation; contracts since CHANGES 'staged engine')",
    ),
    Mutant(
        "stage-rank-writes-chosen",
        "engine/_stages.py",
        "        ctx.beam = [sql for sql, _ in ctx.candidates[: self.parser.config.beam_size]]\n",
        "        ctx.beam = [sql for sql, _ in ctx.candidates[: self.parser.config.beam_size]]\n"
        "        ctx.chosen = ctx.beam[0] if ctx.beam else None\n",
        "undeclared stage write",
        "CHANGES 'staged engine' (stages talk only through declared ctx fields)",
    ),
    # -- lock order and blocking under a lock -------------------------------
    Mutant(
        "lock-inversion-metrics",
        "serving/server.py",
        "        with self._resources_lock:\n"
        "            for engine, _ in self._resources.values():\n",
        "        with self._resources_lock:\n"
        "            for db_id in self._db_locks:\n"
        "                with self._db_locks[db_id]:\n"
        "                    pass\n"
        "            for engine, _ in self._resources.values():\n",
        "lock-order inversion",
        "CHANGES 'serving layer' (per-database locks), LOCK001 since CHANGES 'staticcheck engine'",
    ),
    Mutant(
        "lock-sleep-under-resources-lock",
        "serving/server.py",
        "        with self._resources_lock:\n"
        "            resources = self._resources.get(db_id)\n",
        "        with self._resources_lock:\n"
        "            self.clock.sleep(0.0)\n"
        "            resources = self._resources.get(db_id)\n",
        "blocking under a lock",
        "CHANGES 'serving layer' (server.py:233 holds the db lock by design, suppressed)",
    ),
    # -- hash()-seeded ids and set-order sums -------------------------------
    Mutant(
        "hash-value-generator-seed",
        "datasets/generator.py",
        '    gen = ValueGenerator(seed=zlib.crc32(f"{options.seed}:{db_id}".encode()))\n',
        '    gen = ValueGenerator(seed=hash(f"{options.seed}:{db_id}"))\n',
        "hash()-seeded id",
        "CHANGES 'slot-variant pruning' (DET001 flags hash()); CHANGES 'one replay loop' (colliding test ids)",
    ),
    Mutant(
        "hash-shard-ring-point",
        "serving/sharding/shardmap.py",
        "    digest = hashlib.blake2b(\n"
        '        f"{seed}:{label}".encode("utf-8"), digest_size=8\n'
        "    ).digest()\n"
        '    return int.from_bytes(digest, "big")\n',
        '    return hash(f"{seed}:{label}") % (1 << 64)\n',
        "hash()-seeded id",
        "CHANGES 'sharded serving' (ring points are blake2b so workers agree)",
    ),
    Mutant(
        "hash-loadgen-seed",
        "serving/loadgen.py",
        "    rng = random.Random(seed)\n",
        '    rng = random.Random(hash(f"loadgen:{seed}"))\n',
        "hash()-seeded id",
        "CHANGES 'slot-variant pruning' (DET001 flags hash())",
    ),
    Mutant(
        "setorder-mean-score-expression",
        "core/ranking.py",
        "    return sum(scores.get(key, 0.0) for key in sorted(keys)) / len(keys)\n",
        "    return sum(scores.get(key, 0.0) for key in set(keys)) / len(keys)\n",
        "set-order sum",
        "CHANGES 'slot-variant pruning' (_mean_score summed in hash order)",
    ),
    Mutant(
        "setorder-mean-score-variable",
        "core/ranking.py",
        "    return sum(scores.get(key, 0.0) for key in sorted(keys)) / len(keys)\n",
        "    return sum(scores.get(key, 0.0) for key in keys) / len(keys)\n",
        "set-order sum",
        "CHANGES 'slot-variant pruning' (_mean_score summed in hash order)",
    ),
    Mutant(
        "setorder-filter-training-tables",
        "linking/schema_filter.py",
        "        used_tables = [name for name in all_tables if name in used]\n",
        "        used_tables = list(used)\n",
        "set-order iteration",
        "CHANGES 'slot-variant pruning' (filter_training iterated tables_used() in hash order)",
    ),
    Mutant(
        "setorder-shard-assignments",
        "serving/sharding/shardmap.py",
        "        for db_id in sorted(set(db_ids)):\n"
        "            table[self.owner(db_id)].append(db_id)\n",
        "        for db_id in set(db_ids):\n"
        "            table[self.owner(db_id)].append(db_id)\n",
        "set-order iteration",
        "CHANGES 'staticcheck engine' (PYTHONHASHSEED-dependent BM25 summation order)",
    ),
    # -- unseeded RNG -------------------------------------------------------
    Mutant(
        "rng-retry-unseeded",
        "reliability/retry.py",
        '        rng = random.Random(f"retry-policy:{self.seed}")\n',
        "        rng = random.Random()\n",
        "unseeded RNG",
        "CHANGES 'reliability layer' (seeded RetryPolicy jitter)",
    ),
    Mutant(
        "rng-loadgen-module-draw",
        "serving/loadgen.py",
        "        at += rng.expovariate(rate)\n",
        "        at += random.expovariate(rate)\n",
        "unseeded RNG",
        "CHANGES 'serving layer' (seeded loadgen report)",
    ),
    Mutant(
        "rng-value-generator-unseeded",
        "db/values.py",
        "        self._rng = random.Random(seed)\n",
        "        self._rng = random.Random()\n",
        "unseeded RNG",
        "CHANGES 'staticcheck engine' (DET001 unseeded instances)",
    ),
    Mutant(
        "rng-mlp-numpy-global",
        "nn/mlp.py",
        "            raise ValueError(\"input_dim and hidden_dim must be positive\")\n"
        "        rng = np.random.default_rng(seed)\n",
        "            raise ValueError(\"input_dim and hidden_dim must be positive\")\n"
        "        rng = np.random.default_rng()\n",
        "unseeded RNG",
        "CHANGES 'staticcheck engine' (DET001 numpy default_rng without a seed)",
    ),
    # -- containment bans ---------------------------------------------------
    Mutant(
        "ban-entropy-uuid-request-id",
        "cli.py",
        "    return ServeRequest(\n"
        '        request_id=str(record.get("id", f"q{index:04d}")),\n',
        "    import uuid\n"
        "    return ServeRequest(\n"
        '        request_id=str(record.get("id") or uuid.uuid4()),\n',
        "containment: entropy source",
        "CHANGES 'staticcheck engine' (DET001 entropy bans)",
    ),
    Mutant(
        "ban-entropy-urandom-import",
        "serving/loadgen.py",
        "    rng = random.Random(seed)\n",
        "    from os import urandom\n"
        "    rng = random.Random(urandom(8))\n",
        "containment: entropy source",
        "CHANGES 'staticcheck engine' (DET001 entropy bans)",
    ),
    Mutant(
        "ban-secrets-import",
        "serving/sharding/shardmap.py",
        "import hashlib\n",
        "import hashlib\nimport secrets\n",
        "containment: entropy source",
        "CHANGES 'containment table' (DET001's bans joined the containment table)",
    ),
    Mutant(
        "ban-stage-internals-import",
        "serving/server.py",
        "from repro.engine import StageCache\n",
        "from repro.engine import StageCache\nfrom repro.engine._stages import RankStage\n",
        "containment: engine internals",
        "CHANGES 'staged engine' (ARCH004 stage encapsulation)",
    ),
    Mutant(
        "ban-pipeline-ingredients",
        "serving/server.py",
        "from repro.core.ranking import SENTINEL_SQL\n",
        "from repro.core.ranking import SENTINEL_SQL\n"
        "from repro.core.slotfill import iter_fills\n",
        "containment: inline pipeline",
        "CHANGES 'staged engine' (one place wires the stages)",
    ),
    Mutant(
        "ban-threading-in-engine",
        "engine/_stages.py",
        "import heapq\n",
        "import heapq\nimport threading\n",
        "containment: concurrency",
        "CHANGES 'serving layer' (threads only in serving/ and reliability/)",
    ),
    Mutant(
        "ban-provider-impl-in-serving",
        "serving/server.py",
        "from repro.engine import StageCache\n",
        "from repro.engine import StageCache\n"
        "from repro.lm.providers.router import ProviderRouter\n",
        "containment: providers",
        "CHANGES 'provider layer' (ARCH006 provider encapsulation)",
    ),
    Mutant(
        "ban-provider-config-in-engine",
        "engine/_stages.py",
        "import heapq\n",
        "import heapq\nfrom repro.lm.providers import RouterConfig\n",
        "containment: providers",
        "CHANGES 'provider layer' (engine reaches providers only through parser.router)",
    ),
    Mutant(
        "ban-sqlite3-in-harness",
        "eval/harness.py",
        "from repro.core.ranking import SENTINEL_SQL\n",
        "import sqlite3\nfrom repro.core.ranking import SENTINEL_SQL\n",
        "containment: sqlite3",
        "CHANGES 'dialect backends' (sqlite3 only in db/backends/)",
    ),
    Mutant(
        "ban-multiprocessing-in-server",
        "serving/server.py",
        "import threading\n",
        "import multiprocessing\nimport threading\n",
        "containment: IPC",
        "CHANGES 'sharded serving' (processes only in serving/sharding/)",
    ),
    Mutant(
        "ban-pipe-in-server",
        "serving/server.py",
        "        self._resources_lock = threading.Lock()\n",
        "        self._resources_lock = threading.Lock()\n"
        "        from multiprocessing import Pipe\n"
        "        self._wakeup = Pipe()\n",
        "containment: IPC",
        "CHANGES 'sharded serving' (pipes only behind the WorkerHandle transport)",
    ),
    Mutant(
        "blanket-except-worker-classify",
        "serving/sharding/worker.py",
        '                failures = [f"{type(exc).__name__}: {exc}"]\n'
        "                conn.send(\n"
        "                    WorkerFailure(worker_id=worker_id, error=failures[0])\n"
        "                )\n",
        "                continue\n",
        "blanket except",
        "CHANGES 'sharded serving' (worker errors classified, not dropped)",
    ),
    Mutant(
        "blanket-except-worker-eof",
        "serving/sharding/worker.py",
        "            except (EOFError, OSError):\n"
        "                break  # router went away; nothing left to serve\n",
        "            except Exception:\n"
        "                break  # router went away; nothing left to serve\n",
        "blanket except",
        "CHANGES 'sharded serving' (worker errors classified, not dropped)",
    ),
    Mutant(
        "lower-generator-table-noun",
        "datasets/generator.py",
        "            if identifier_key(spec.name) == identifier_key(table):\n",
        "            if spec.name.lower() == table.lower():\n",
        "ad-hoc identifier comparison",
        "CHANGES 'slot-fill lookups' (identifier lookups keyed by identifier_key)",
    ),
    Mutant(
        "lower-filter-foreign-key-side",
        "linking/schema_filter.py",
        "                        identifier_key(side_table) == table_name\n",
        "                        side_table.lower() == table_name\n",
        "ad-hoc identifier comparison",
        "CHANGES 'slot-fill lookups' (identifier lookups keyed by identifier_key)",
    ),
    # -- suppressions -------------------------------------------------------
    Mutant(
        "suppression-reason-without-parentheses",
        "cli.py",
        "# staticcheck: disable=EXC001 (probe counts successes; "
        "failures are the complement)\n",
        "# staticcheck: disable=EXC001 probe counts successes; "
        "failures are the complement\n",
        "suppression reason without parentheses",
        "CHANGES FOUND/MENDED line on SUPPRESSION_RE",
    ),
    Mutant(
        "suppression-reason-before-rule",
        "cli.py",
        "# staticcheck: disable=EXC001 (probe counts successes; "
        "failures are the complement)\n",
        "# staticcheck (probe counts successes; failures are the "
        "complement): disable=EXC001\n",
        "malformed suppression",
        "CHANGES 'inline suppressions' (inline suppressions are the one excuse)",
    ),
    Mutant(
        "suppression-stale",
        "serving/server.py",
        "        self._resources_lock = threading.Lock()\n",
        "        self._resources_lock = threading.Lock()  "
        "# staticcheck: disable=LOCK001 (creation only)\n",
        "stale suppression",
        "CHANGES 'inline suppressions' (SUP001 reports a suppression that excuses nothing)",
    ),
    # -- dead stores and unreachable statements that change behaviour -------
    Mutant(
        "dead-store-mean-score",
        "core/ranking.py",
        "    return sum(scores.get(key, 0.0) for key in sorted(keys)) / len(keys)\n",
        "    mean = sum(scores.get(key, 0.0) for key in sorted(keys)) / len(keys)\n"
        "    return 0.0\n",
        "dead store (lost return value)",
        "CHANGES 'flow rules' (DEAD001 dead stores)",
    ),
    Mutant(
        "dead-store-deadline-remaining",
        "reliability/deadline.py",
        "        return self.expires_at - self.clock.now()\n",
        "        remaining = self.expires_at - self.clock.now()\n"
        "        return self.budget_s\n",
        "dead store (lost return value)",
        "CHANGES 'flow rules' (DEAD001 dead stores)",
    ),
    Mutant(
        "unreachable-from-schema-rows",
        "db/backends/sqlite.py",
        "        if rows:\n            database.insert_rows(rows)\n",
        "        return database\n"
        "        if rows:\n            database.insert_rows(rows)\n",
        "early return (unreachable statement)",
        "CHANGES 'flow rules' (DEAD001 unreachable code)",
    ),
    Mutant(
        "unreachable-metrics-record-batch",
        "serving/metrics.py",
        "        with self._lock:\n"
        '            _add(self._counters, "batches")\n',
        "        with self._lock:\n"
        "            return\n"
        '            _add(self._counters, "batches")\n',
        "early return (unreachable statement)",
        "CHANGES 'flow rules' (DEAD001 unreachable code)",
    ),
)


def by_id() -> dict[str, Mutant]:
    return {mutant.id: mutant for mutant in MUTANTS}


def needle_counts() -> dict[str, int]:
    """How often each mutant's needle occurs in its module."""
    return {m.id: m.source().count(m.needle) for m in MUTANTS}


def _findings(path: str, source: str) -> Counter:
    """``(rule, message)`` counts of every registered rule on ``source``."""
    from repro.staticcheck import check_source

    return Counter((f.rule, f.message) for f in check_source(source, path=path))


@functools.lru_cache(maxsize=None)
def _unmutated_findings(path: str) -> Counter:
    return _findings(path, (SRC_REPRO / path).read_text(encoding="utf-8"))


def rule_kills(mutant: Mutant) -> tuple[str, ...]:
    """Rules that flag ``mutant`` but not the unmutated module.

    Every registered rule runs on the module under its real path; a
    finding counts when its ``(rule, message)`` is new, so findings
    that only moved lines are not kills.
    """
    mutated = _findings(mutant.path, mutant.apply(mutant.source()))
    new = mutated - _unmutated_findings(mutant.path)
    return tuple(sorted({rule for rule, _ in new}))


def is_counted_test(test_id: str) -> bool:
    """May ``test_id`` count as a kill?  Not if it runs the checker."""
    path = test_id.split("::", 1)[0]
    return path not in STATICCHECK_TEST_FILES and not STATICCHECK_CLI_TESTS.match(
        test_id
    )


@dataclass(frozen=True)
class KillRow:
    mutant: str
    bug: str
    rules: tuple[str, ...]
    test: str | None


HEADER = """\
# Mutation kill table: one row per mutant in tests/mutants.py.
# rules: every registered rule that flags the mutant and not the
#        unmutated module (rebuilt by tests/test_mutation.py).
# test:  a tier-1 test that fails on the mutant and does not run
#        repro.staticcheck (checked by `pytest -m mutation`); - if none.
"""


def render_kill_table(rows) -> str:
    columns = [("mutant", "class", "rules", "test")] + [
        (
            row.mutant,
            row.bug,
            ",".join(row.rules) or "-",
            row.test or "-",
        )
        for row in rows
    ]
    widths = [max(len(line[i]) for line in columns) for i in range(3)]
    lines = [
        "  ".join(cell.ljust(width) for cell, width in zip(line, widths))
        + "  "
        + line[3]
        for line in columns
    ]
    return HEADER + "\n".join(lines) + "\n"


def load_kill_table(path: Path = KILL_TABLE) -> list[KillRow]:
    rows = []
    lines = [
        line
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip() and not line.startswith("#")
    ]
    for line in lines[1:]:
        mutant, bug, rules, test = re.split(r"\s{2,}", line.strip())
        rows.append(
            KillRow(
                mutant=mutant,
                bug=bug,
                rules=() if rules == "-" else tuple(rules.split(",")),
                test=None if test == "-" else test,
            )
        )
    return rows
