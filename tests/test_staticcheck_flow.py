"""RES001 and EXC001, suppressions of cross-module findings, the
incremental cache, the ``--fix`` autofixer, and the SARIF golden."""

import json
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.staticcheck import (
    REGISTRY,
    FindingCache,
    check_modules,
    check_source,
    check_tree,
    content_hash,
    parse_module,
    render_json,
    render_sarif,
    rules_fingerprint,
)
from repro.staticcheck import cache as cache_module
from repro.staticcheck.fix import apply_fixes

pytestmark = pytest.mark.staticcheck

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SRC_REPRO = REPO_ROOT / "src" / "repro"


def _rules(source: str, path: str = "mod.py", rule_ids=None) -> list[str]:
    return [f.rule for f in check_source(source, path=path, rule_ids=rule_ids)]


def _messages(source: str, path: str = "mod.py", rule_ids=None) -> list[str]:
    return [f.message for f in check_source(source, path=path, rule_ids=rule_ids)]


# ---------------------------------------------------------------------------
# RES001 — resource leaks


def _res(source: str) -> list[str]:
    return _messages(source, rule_ids=["RES001"])


class TestResourceLeak:
    def test_leak_on_fallthrough_flagged(self):
        messages = _res(
            """
def f(path):
    handle = open(path)
    handle.read()
    return 0
"""
        )
        assert len(messages) == 1
        assert "not released or closed on every path" in messages[0]
        assert "with" in messages[0]

    def test_close_after_a_read_flagged(self):
        # the read may raise before the close: not exception-safe.
        messages = _res(
            """
def f(path):
    handle = open(path)
    data = handle.read()
    handle.close()
    return data
"""
        )
        assert len(messages) == 1
        assert "not released or closed on every path" in messages[0]

    def test_leak_on_one_branch_flagged(self):
        messages = _res(
            """
def f(path, flag):
    handle = open(path)
    if flag:
        handle.close()
    return 0
"""
        )
        assert len(messages) == 1

    def test_early_return_leak_flagged(self):
        messages = _res(
            """
def f(path, flag):
    handle = open(path)
    if flag:
        return None
    handle.close()
    return None
"""
        )
        assert len(messages) == 1

    def test_with_statement_clean(self):
        assert _res(
            """
def f(path):
    with open(path) as handle:
        return handle.read()
"""
        ) == []

    def test_with_on_existing_name_clean(self):
        assert _res(
            """
def f(path):
    handle = open(path)
    with handle:
        return handle.read()
"""
        ) == []

    def test_closing_wrapper_clean(self):
        assert _res(
            """
import sqlite3
from contextlib import closing

def f(path):
    conn = sqlite3.connect(path)
    with closing(conn):
        return conn.execute("SELECT 1")
"""
        ) == []

    def test_close_in_finally_dominates_return(self):
        assert _res(
            """
def f(path):
    handle = open(path)
    try:
        return handle.read()
    finally:
        handle.close()
"""
        ) == []

    def test_escape_via_return_clean(self):
        assert _res(
            """
import sqlite3

def f(path):
    conn = sqlite3.connect(path)
    return conn
"""
        ) == []

    def test_escape_via_call_argument_clean(self):
        assert _res(
            """
import sqlite3

def f(path, registry):
    conn = sqlite3.connect(path)
    registry.adopt(conn)
    return 0
"""
        ) == []

    def test_escape_via_attribute_store_clean(self):
        assert _res(
            """
import sqlite3

class Holder:
    def open_db(self, path):
        conn = sqlite3.connect(path)
        self.conn = conn
"""
        ) == []

    def test_method_call_on_resource_is_not_escape(self):
        messages = _res(
            """
import sqlite3

def f(path):
    conn = sqlite3.connect(path)
    conn.execute("SELECT 1")
    return 0
"""
        )
        assert len(messages) == 1

    def test_cursor_method_tracked(self):
        messages = _res(
            """
def f(conn):
    cur = conn.cursor()
    cur.fetchall()
    return 0
"""
        )
        assert len(messages) == 1
        assert "cursor" in messages[0]

    def test_overwrite_before_release_flagged(self):
        messages = _res(
            """
def f(a, b):
    handle = open(a)
    handle = open(b)
    handle.close()
    return 0
"""
        )
        assert len(messages) == 1
        assert "overwritten before being released" in messages[0]

    def test_acquire_release_pair_clean(self):
        assert _res(
            """
def f(lock):
    lock.acquire()
    lock.release()
    return 0
"""
        ) == []

    def test_acquire_without_release_flagged(self):
        messages = _res(
            """
def f(lock):
    lock.acquire()
    return 0
"""
        )
        assert len(messages) == 1
        assert "lock" in messages[0]

    def test_exception_path_leak_flagged(self):
        # risky() may raise between the open and the close.
        messages = _res(
            """
def f(path):
    handle = open(path)
    risky()
    handle.close()
    return 0
"""
        )
        assert len(messages) == 1


# ---------------------------------------------------------------------------
# EXC001 — exception flow


def _exc(source: str) -> list[str]:
    return _messages(source, rule_ids=["EXC001"])


class TestExceptionFlow:
    SWALLOW = """
from repro.errors import ReproError

def f(work):
    try:
        work()
    except ReproError:
        pass
"""

    def test_swallowed_taxonomy_error_flagged(self):
        messages = _exc(self.SWALLOW)
        assert len(messages) == 1
        assert "silently swallows ReproError" in messages[0]

    def test_swallowed_subclass_flagged(self):
        messages = _exc(self.SWALLOW.replace("ReproError", "ExecutionError"))
        assert any("ExecutionError" in m for m in messages)

    def test_handled_conversion_not_flagged(self):
        source = """
from repro.errors import ExecutionError

def f(work):
    try:
        work()
    except ExecutionError:
        return False
    return True
"""
        assert _exc(source) == []

    def test_swallowed_builtin_not_flagged(self):
        # only taxonomy classes carry the must-not-drop contract.
        source = """
def f(work):
    try:
        work()
    except ValueError:
        pass
"""
        assert _exc(source) == []

    def test_justified_suppression_honoured(self):
        source = self.SWALLOW.replace(
            "except ReproError:",
            "except ReproError:"
            "  # staticcheck: disable=EXC001 (probe only)",
        )
        assert _rules(source, rule_ids=["EXC001", "SUP001"]) == []

    def test_ad_hoc_runtime_error_flagged(self):
        messages = _exc('def f():\n    raise RuntimeError("boom")\n')
        assert len(messages) == 1
        assert "ad-hoc RuntimeError raise" in messages[0]

    def test_ad_hoc_exception_flagged(self):
        assert _exc('def f():\n    raise Exception("boom")\n') != []

    def test_contract_builtins_legal(self):
        assert _exc('def f():\n    raise ValueError("bad arg")\n') == []
        assert _exc("def f():\n    raise NotImplementedError\n") == []

    def test_bare_reraise_legal(self):
        source = """
def f(work):
    try:
        work()
    except ValueError:
        raise
"""
        assert _exc(source) == []

    def test_taxonomy_raise_legal(self):
        source = """
from repro.errors import ExecutionError

def f():
    raise ExecutionError("query failed")
"""
        assert _exc(source) == []

    def test_dead_except_clause_flagged(self):
        source = """
from repro.errors import ExecutionError, ReproError

def f(work):
    try:
        work()
    except ReproError:
        return 1
    except ExecutionError:
        return 2
"""
        messages = _exc(source)
        assert len(messages) == 1
        assert "dead except clause: ExecutionError" in messages[0]
        assert "broader ReproError" in messages[0]

    def test_ordered_narrow_to_broad_legal(self):
        source = """
from repro.errors import ExecutionError, ReproError

def f(work):
    try:
        work()
    except ExecutionError:
        return 1
    except ReproError:
        return 2
"""
        assert _exc(source) == []

    def test_builtin_hierarchy_dead_clause_flagged(self):
        source = """
def f(work):
    try:
        work()
    except OSError:
        return 1
    except TimeoutError:
        return 2
"""
        messages = _exc(source)
        assert any("dead except clause: TimeoutError" in m for m in messages)

    def test_unknown_class_stops_dead_clause_reasoning(self):
        source = """
from somewhere import WeirdError

def f(work):
    try:
        work()
    except WeirdError:
        return 1
    except ValueError:
        return 2
"""
        assert _exc(source) == []


# ---------------------------------------------------------------------------
# the real tree (seeded mutants of it live in tests/mutants.py)


DATABASE_PATH = SRC_REPRO / "db" / "backends" / "sqlite.py"
DATABASE_NEEDLE = (
    "        connection = sqlite3.connect(path, check_same_thread=False)\n"
)


class TestSeededMutationsOnRealModules:
    def _database_source(self) -> str:
        source = DATABASE_PATH.read_text(encoding="utf-8")
        assert DATABASE_NEEDLE in source
        return source

    def test_real_tree_is_clean_under_flow_rules(self):
        result = check_tree(SRC_REPRO, rule_ids=["RES001", "EXC001"])
        rendered = "\n".join(f.render() for f in result.findings)
        assert not result.findings, rendered

    def test_injected_connection_leak_is_caught(self):
        mutated = self._database_source().replace(
            DATABASE_NEEDLE,
            "        spare = sqlite3.connect(path)\n" + DATABASE_NEEDLE,
            1,
        )
        messages = _messages(
            mutated, path="db/backends/sqlite.py", rule_ids=["RES001"]
        )
        assert any(
            "sqlite connection 'spare'" in m
            and "not released or closed" in m
            for m in messages
        ), messages

    def test_injected_swallow_is_caught(self):
        mutated = self._database_source().replace(
            DATABASE_NEEDLE,
            DATABASE_NEEDLE
            + "        try:\n"
            + "            connection.execute('PRAGMA user_version')\n"
            + "        except ExecutionError:\n"
            + "            pass\n",
            1,
        )
        messages = _messages(
            mutated, path="db/backends/sqlite.py", rule_ids=["EXC001"]
        )
        assert any(
            "silently swallows ExecutionError" in m for m in messages
        ), messages


# ---------------------------------------------------------------------------
# SUP001 interaction with cross-module finish() findings


class TestSuppressionOfFinishFindings:
    INVERSION = textwrap.dedent(
        """
        import threading

        class A:
            def __init__(self):
                self.l1 = threading.Lock()
                self.l2 = threading.Lock()

            def m1(self):
                with self.l1:
                    with self.l2:  # staticcheck: disable=LOCK001 (init path)
                        pass

            def m2(self):
                with self.l2:
                    with self.l1:
                        pass
        """
    )

    def test_suppressing_lock_inversion_counts_as_used(self):
        # LOCK001's inversion finding is emitted from finish(), after
        # every module was seen — the suppression on its line must
        # still silence it AND count as used (no SUP001).
        rules = _rules(
            self.INVERSION, path="serving/mod.py",
            rule_ids=["LOCK001", "SUP001"],
        )
        assert rules == []

    def test_without_suppression_the_inversion_fires(self):
        bare = self.INVERSION.replace(
            "  # staticcheck: disable=LOCK001 (init path)", ""
        )
        rules = _rules(
            bare, path="serving/mod.py", rule_ids=["LOCK001", "SUP001"]
        )
        assert rules == ["LOCK001"]


# ---------------------------------------------------------------------------
# incremental cache


FULL_FINGERPRINT = rules_fingerprint(
    [REGISTRY.get(rule_id) for rule_id in REGISTRY.ids()]
)

DIRTY_TREE = {
    "clean.py": "x = 1\n",
    "dirty.py": "import time\nt = time.time()\n",
    "leaky.py": (
        "def f(path):\n"
        "    handle = open(path)\n"
        "    handle.read()\n"
        "    return 0\n"
    ),
}


def _write_tree(root: Path, files: dict) -> None:
    for name, source in files.items():
        (root / name).write_text(source, encoding="utf-8")


class TestIncrementalCache:
    def _run(self, root: Path, cache_path: Path):
        cache = FindingCache(cache_path, FULL_FINGERPRINT)
        result = check_tree(root, cache=cache)
        cache.save()
        return result, cache

    def test_warm_run_byte_identical_to_cold(self, tmp_path):
        root = tmp_path / "tree"
        root.mkdir()
        _write_tree(root, DIRTY_TREE)
        cache_path = tmp_path / "cache.json"

        cold, cold_cache = self._run(root, cache_path)
        warm, warm_cache = self._run(root, cache_path)

        assert cold_cache.hits == 0
        assert warm_cache.misses == 0
        assert warm_cache.hits == cold_cache.misses > 0
        assert render_json(cold) == render_json(warm)
        assert render_sarif(cold) == render_sarif(warm)
        assert warm.cache_hits > 0 and warm.cache_misses == 0

    def test_edited_file_reanalyzed_others_cached(self, tmp_path):
        root = tmp_path / "tree"
        root.mkdir()
        _write_tree(root, DIRTY_TREE)
        cache_path = tmp_path / "cache.json"
        self._run(root, cache_path)

        (root / "clean.py").write_text("x = 2\n", encoding="utf-8")
        warm, cache = self._run(root, cache_path)
        incremental_rules = sum(
            1 for rid in REGISTRY.ids() if REGISTRY.get(rid).incremental
        )
        # only the edited file misses; one miss per incremental rule.
        assert cache.misses == incremental_rules
        assert {f.rule for f in warm.findings} == {"ARCH001", "RES001"}

    def test_rule_edit_invalidates_whole_cache(self, tmp_path):
        root = tmp_path / "tree"
        root.mkdir()
        _write_tree(root, DIRTY_TREE)
        cache_path = tmp_path / "cache.json"
        self._run(root, cache_path)

        cache = FindingCache(cache_path, "different-fingerprint")
        result = check_tree(root, cache=cache)
        assert cache.hits == 0
        assert {f.rule for f in result.findings} == {"ARCH001", "RES001"}

    def test_deleted_files_pruned_on_save(self, tmp_path):
        root = tmp_path / "tree"
        root.mkdir()
        _write_tree(root, DIRTY_TREE)
        cache_path = tmp_path / "cache.json"
        self._run(root, cache_path)

        (root / "leaky.py").unlink()
        self._run(root, cache_path)
        payload = json.loads(cache_path.read_text(encoding="utf-8"))
        assert "leaky.py" not in payload["files"]
        assert set(payload["files"]) == {"clean.py", "dirty.py"}

    def test_corrupt_cache_means_cold_run(self, tmp_path):
        root = tmp_path / "tree"
        root.mkdir()
        _write_tree(root, DIRTY_TREE)
        cache_path = tmp_path / "cache.json"
        cache_path.write_text("{not json", encoding="utf-8")
        result, cache = self._run(root, cache_path)
        assert cache.hits == 0
        assert {f.rule for f in result.findings} == {"ARCH001", "RES001"}

    def test_content_hash_is_stable(self):
        assert content_hash("x = 1\n") == content_hash("x = 1\n")
        assert content_hash("x = 1\n") != content_hash("x = 2\n")

    def test_shared_helper_edit_changes_fingerprint(self, tmp_path, monkeypatch):
        # ARCH004-008 run code from rules/_util.py and a shared base
        # class, not from their own class bodies: editing only that
        # shared module must still invalidate the cache.
        copy = tmp_path / "staticcheck"
        shutil.copytree(
            cache_module.PACKAGE_DIR,
            copy,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        monkeypatch.setattr(cache_module, "PACKAGE_DIR", copy)
        rule_classes = [REGISTRY.get(rule_id) for rule_id in REGISTRY.ids()]
        before = rules_fingerprint(rule_classes)
        assert rules_fingerprint(rule_classes) == before
        util = copy / "rules" / "_util.py"
        util.write_text(
            util.read_text(encoding="utf-8") + "\n# edited\n", encoding="utf-8"
        )
        assert rules_fingerprint(rule_classes) != before


# ---------------------------------------------------------------------------
# --fix autofixer (library level; the CLI path is covered in test_cli)


class TestAutofix:
    def test_stale_suppressions_removed_idempotently(self, tmp_path):
        root = tmp_path / "tree"
        root.mkdir()
        (root / "mod.py").write_text(
            "x = 1  # staticcheck: disable=ARCH001\n"
            "y = 2  # staticcheck: disable=ARCH001,ARCH003 (why)\n",
            encoding="utf-8",
        )
        result = check_tree(root)
        assert {f.rule for f in result.findings} == {"SUP001"}

        diff, changed = apply_fixes(result, root)
        assert changed == 1
        assert "-x = 1  # staticcheck: disable=ARCH001" in diff
        assert (root / "mod.py").read_text(encoding="utf-8") == (
            "x = 1\ny = 2\n"
        )

        again = check_tree(root)
        diff2, changed2 = apply_fixes(again, root)
        assert (diff2, changed2) == ("", 0)

    def test_partial_suppression_keeps_live_rule(self, tmp_path):
        root = tmp_path / "tree"
        root.mkdir()
        (root / "mod.py").write_text(
            "import time\n"
            "t = time.time()  # staticcheck: disable=ARCH001,ARCH003\n",
            encoding="utf-8",
        )
        result = check_tree(root)
        apply_fixes(result, root)
        # the used ARCH001 suppression survives; the stale ARCH003 goes.
        assert (root / "mod.py").read_text(encoding="utf-8").endswith(
            "t = time.time()  # staticcheck: disable=ARCH001\n"
        )
        assert check_tree(root).findings == ()

    def test_comment_only_line_deleted(self, tmp_path):
        root = tmp_path / "tree"
        root.mkdir()
        (root / "mod.py").write_text(
            "x = 1\n# staticcheck: disable=ARCH001\ny = 2\n",
            encoding="utf-8",
        )
        result = check_tree(root)
        apply_fixes(result, root)
        assert (root / "mod.py").read_text(encoding="utf-8") == "x = 1\ny = 2\n"


# ---------------------------------------------------------------------------
# SARIF golden — byte-stable across processes and hash seeds


SARIF_FIXTURE = """\
import sqlite3

from repro.errors import ReproError


def leaky(path):
    conn = sqlite3.connect(path)
    conn.execute("SELECT 1")
    return 0


def swallowing(work):
    try:
        work()
    except ReproError:
        pass
"""

SARIF_GOLDEN = GOLDEN_DIR / "staticcheck_flow.sarif"


def _fixture_sarif() -> str:
    module = parse_module("flow/mod.py", SARIF_FIXTURE)
    result = check_modules(
        [module], rules=REGISTRY.create(["EXC001", "RES001"])
    )
    return render_sarif(result) + "\n"


class TestSarifGolden:
    def test_matches_committed_golden(self):
        assert _fixture_sarif() == SARIF_GOLDEN.read_text(encoding="utf-8")

    def test_golden_is_schema_shaped(self):
        log = json.loads(SARIF_GOLDEN.read_text(encoding="utf-8"))
        assert log["version"] == "2.1.0"
        assert log["$schema"].endswith("sarif-schema-2.1.0.json")
        (run,) = log["runs"]
        assert run["tool"]["driver"]["name"] == "repro-staticcheck"
        rule_ids = [rule["id"] for rule in run["tool"]["driver"]["rules"]]
        assert rule_ids == ["EXC001", "RES001"]
        for rule in run["tool"]["driver"]["rules"]:
            assert rule["fullDescription"]["text"]
            assert rule["defaultConfiguration"]["level"] == "error"
        for result in run["results"]:
            assert result["ruleId"] in rule_ids
            location = result["locations"][0]["physicalLocation"]
            assert location["artifactLocation"]["uri"] == "flow/mod.py"
            assert location["region"]["startLine"] >= 1
            assert result["fingerprints"]["staticcheck/v1"]

    def test_byte_stable_across_hash_seeds(self):
        script = (
            "import sys\n"
            "from repro.staticcheck import REGISTRY, check_modules, "
            "parse_module, render_sarif\n"
            "source = sys.stdin.read()\n"
            "module = parse_module('flow/mod.py', source)\n"
            "result = check_modules([module], "
            "rules=REGISTRY.create(['EXC001', 'RES001']))\n"
            "sys.stdout.write(render_sarif(result) + '\\n')\n"
        )
        golden = SARIF_GOLDEN.read_bytes()
        for seed in ("0", "42"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = seed
            env["PYTHONPATH"] = str(REPO_ROOT / "src")
            proc = subprocess.run(
                [sys.executable, "-c", script],
                input=SARIF_FIXTURE.encode("utf-8"),
                capture_output=True,
                env=env,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            assert proc.stdout == golden
