"""The staticcheck rule engine: registry, suppressions, fingerprints,
emitters, and the three deep checkers (STAGE001, DET001, LOCK001)."""

import json
import textwrap
from pathlib import Path

import pytest

from repro.engine import _stages
from repro.staticcheck import (
    REGISTRY,
    Rule,
    RuleRegistry,
    check_modules,
    check_source,
    parse_module,
    render_json,
    render_sarif,
    render_text,
)

pytestmark = pytest.mark.staticcheck

REPO_ROOT = Path(__file__).resolve().parent.parent
STAGES_PATH = REPO_ROOT / "src" / "repro" / "engine" / "_stages.py"


def _rules(source: str, path: str = "mod.py", rule_ids=None) -> list[str]:
    return [f.rule for f in check_source(source, path=path, rule_ids=rule_ids)]


def _messages(source: str, path: str = "mod.py", rule_ids=None) -> list[str]:
    return [f.message for f in check_source(source, path=path, rule_ids=rule_ids)]


# ---------------------------------------------------------------------------
# registry


class TestRegistry:
    def test_ids_are_sorted_and_complete(self):
        ids = REGISTRY.ids()
        assert ids == sorted(ids)
        for expected in (
            "ARCH001", "ARCH002", "ARCH003", "ARCH004", "ARCH005",
            "ARCH006", "STAGE001", "DET001", "LOCK001", "SUP001",
            "RES001", "EXC001",
        ):
            assert expected in ids

    def test_explain_renders_from_docstring(self):
        text = REGISTRY.explain("STAGE001")
        assert text.startswith("STAGE001 (error) — ")
        # the docstring IS the documentation — no second prose copy.
        assert "reads X, writes" in text

    def test_duplicate_registration_rejected(self):
        registry = RuleRegistry()

        class Dup(Rule):
            """docs"""
            id = "X001"

        registry.register(Dup)
        with pytest.raises(ValueError, match="duplicate"):
            registry.register(Dup)

    def test_undocumented_rule_rejected(self):
        registry = RuleRegistry()

        class Undocumented(Rule):
            id = "X002"

        Undocumented.__doc__ = None
        with pytest.raises(ValueError, match="docstring"):
            registry.register(Undocumented)

    def test_unknown_rule_id_raises(self):
        with pytest.raises(KeyError, match="unknown rule"):
            REGISTRY.get("NOPE999")

    def test_every_rule_is_documented(self):
        for rule_id in REGISTRY.ids():
            assert len(REGISTRY.get(rule_id).docs()) > 40, rule_id


# ---------------------------------------------------------------------------
# inline suppressions


class TestSuppressions:
    def test_disable_silences_exactly_that_rule_on_that_line(self):
        source = "import time\nt = time.time()  # staticcheck: disable=ARCH001\n"
        assert _rules(source) == []

    def test_disable_of_other_rule_does_not_silence(self):
        source = "import time\nt = time.time()  # staticcheck: disable=ARCH002\n"
        rules = _rules(source)
        # the ARCH001 finding survives, and the useless ARCH002
        # suppression is itself reported.
        assert sorted(rules) == ["ARCH001", "SUP001"]

    def test_disable_is_line_scoped(self):
        source = (
            "import time  # staticcheck: disable=ARCH001\n"
            "t = time.time()\n"
        )
        rules = _rules(source)
        assert "ARCH001" in rules  # line 2 finding not silenced by line 1
        assert "SUP001" in rules  # line 1 suppression silenced nothing

    def test_unused_suppression_is_a_finding(self):
        assert _rules("x = 1  # staticcheck: disable=ARCH001\n") == ["SUP001"]

    def test_sup001_itself_can_be_disabled(self):
        source = "x = 1  # staticcheck: disable=ARCH001,SUP001\n"
        assert _rules(source) == []

    def test_reason_without_parentheses_is_not_a_rule_id(self):
        source = (
            "import time\n"
            "t = time.time()"
            "  # staticcheck: disable=ARCH001 clock read is fine here\n"
        )
        assert _rules(source) == []

    def test_multi_rule_disable(self):
        source = (
            "import time\n"
            "ok = a.lower() == b.lower() or time.time()"
            "  # staticcheck: disable=ARCH001,ARCH003\n"
        )
        assert _rules(source) == []


# ---------------------------------------------------------------------------
# fingerprints


class TestFingerprint:
    @staticmethod
    def _finding(source):
        module = parse_module("mod.py", source)
        (finding,) = check_modules(
            [module], rules=REGISTRY.create(["ARCH001"])
        ).findings
        return finding

    def test_fingerprint_is_line_independent(self):
        original = self._finding("import time\nt = time.time()\n")
        moved = self._finding("\n\n\nimport time\nt = time.time()\n")
        assert moved.line == original.line + 3
        assert moved.fingerprint == original.fingerprint


# ---------------------------------------------------------------------------
# emitters


class TestEmitters:
    def _result(self):
        module = parse_module("mod.py", "import time\nt = time.time()\n")
        return check_modules([module], rules=REGISTRY.create(["ARCH001"]))

    def test_text_lists_findings_and_summary(self):
        text = render_text(self._result())
        assert "mod.py:2: ARCH001" in text
        assert "staticcheck: 1 finding(s)" in text

    def test_json_is_deterministic_and_parses(self):
        a, b = render_json(self._result()), render_json(self._result())
        assert a == b
        payload = json.loads(a)
        assert payload["ok"] is False
        assert payload["findings"][0]["rule"] == "ARCH001"
        assert payload["findings"][0]["fingerprint"]

    def test_sarif_structure(self):
        log = json.loads(render_sarif(self._result()))
        assert log["version"] == "2.1.0"
        run = log["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-staticcheck"
        assert run["tool"]["driver"]["rules"][0]["id"] == "ARCH001"
        result = run["results"][0]
        assert result["ruleId"] == "ARCH001"
        assert result["locations"][0]["physicalLocation"]["region"]["startLine"] == 2


# ---------------------------------------------------------------------------
# STAGE001 — stage contract verification


STAGE_PATH = "engine/_stages.py"


def _stage_rules(source: str) -> list[str]:
    return _rules(source, path=STAGE_PATH, rule_ids=["STAGE001"])


def _stage_messages(source: str) -> list[str]:
    return _messages(source, path=STAGE_PATH, rule_ids=["STAGE001"])


class TestStageContract:
    CLEAN = textwrap.dedent(
        """
        class FooStage:
            name = "foo"
            reads = ("question",)
            writes = ("matched",)

            def run(self, ctx):
                ctx.matched = ctx.question
        """
    )

    def test_clean_stage_passes(self):
        assert _stage_rules(self.CLEAN) == []

    def test_missing_contract_flagged(self):
        source = textwrap.dedent(
            """
            class FooStage:
                name = "foo"

                def run(self, ctx):
                    ctx.matched = ctx.question
            """
        )
        messages = _stage_messages(source)
        assert len(messages) == 1
        assert "declares no reads/writes contract" in messages[0]

    def test_undeclared_read_flagged(self):
        source = self.CLEAN.replace(
            "ctx.matched = ctx.question", "ctx.matched = ctx.database"
        )
        messages = _stage_messages(source)
        assert any("reads ctx.database" in m for m in messages)

    def test_undeclared_write_flagged(self):
        source = self.CLEAN.replace(
            "ctx.matched = ctx.question",
            "ctx.matched = ctx.question\n        ctx.beam = []",
        )
        messages = _stage_messages(source)
        assert any("writes ctx.beam" in m for m in messages)

    def test_declared_but_unused_read_flagged(self):
        source = self.CLEAN.replace(
            'reads = ("question",)', 'reads = ("question", "scores")'
        )
        messages = _stage_messages(source)
        assert any("declares read 'scores'" in m for m in messages)

    def test_declared_but_unused_write_flagged(self):
        source = self.CLEAN.replace(
            'writes = ("matched",)', 'writes = ("matched", "beam")'
        )
        messages = _stage_messages(source)
        assert any("declares write 'beam'" in m for m in messages)

    def test_reading_own_write_is_legal(self):
        source = self.CLEAN.replace(
            "ctx.matched = ctx.question",
            "ctx.matched = ctx.question\n        ctx.matched = list(ctx.matched)",
        )
        assert _stage_rules(source) == []

    def test_ambient_cache_and_trace_are_legal(self):
        source = self.CLEAN.replace(
            "ctx.matched = ctx.question",
            "ctx.matched = ctx.cache.get('k', ctx.question, list)",
        )
        assert _stage_rules(source) == []

    def test_module_helper_accesses_attributed_to_stage(self):
        source = textwrap.dedent(
            """
            def _helper(ctx):
                return ctx.database

            class FooStage:
                name = "foo"
                reads = ("question",)
                writes = ("matched",)

                def run(self, ctx):
                    ctx.matched = _helper(ctx) and ctx.question
            """
        )
        messages = _stage_messages(source)
        assert any("reads ctx.database" in m for m in messages)

    def test_transitive_helper_fixpoint(self):
        source = textwrap.dedent(
            """
            def _inner(ctx):
                return ctx.scores

            def _outer(ctx):
                return _inner(ctx)

            class FooStage:
                name = "foo"
                reads = ("question",)
                writes = ("matched",)

                def run(self, ctx):
                    ctx.matched = _outer(ctx) and ctx.question
            """
        )
        messages = _stage_messages(source)
        assert any("reads ctx.scores" in m for m in messages)

    def test_non_stage_classes_ignored(self):
        source = textwrap.dedent(
            """
            class NotAStage:
                def run(self, ctx):
                    ctx.anything = ctx.whatever

            class AlsoNot:
                name = "abstract"

                def run(self, ctx):
                    ctx.x = 1
            """
        )
        assert _stage_rules(source) == []


class TestStageContractOnRealModule:
    """The shipped ``engine/_stages.py`` against its own declarations."""

    def test_real_stages_pass(self):
        source = STAGES_PATH.read_text(encoding="utf-8")
        assert _stage_rules(source) == []

    def test_seeded_undeclared_write_mutation_is_caught(self):
        # Splice an undeclared ctx write into ValueRetrieveStage.run and
        # verify STAGE001 rejects the mutant — the rule demonstrably
        # guards the real contracts, not just toy fixtures.
        source = STAGES_PATH.read_text(encoding="utf-8")
        needle = "        ctx.linking_question = ctx.question\n"
        assert needle in source
        mutated = source.replace(
            needle, "        ctx.beam = []\n" + needle, 1
        )
        messages = _stage_messages(mutated)
        assert any(
            "'value_retrieve' writes ctx.beam" in m for m in messages
        ), messages

    def test_seeded_undeclared_read_mutation_is_caught(self):
        source = STAGES_PATH.read_text(encoding="utf-8")
        needle = "        ctx.linking_question = ctx.question\n"
        mutated = source.replace(
            needle, "        _ = ctx.chosen\n" + needle, 1
        )
        messages = _stage_messages(mutated)
        assert any(
            "'value_retrieve' reads ctx.chosen" in m for m in messages
        ), messages

    def test_docstring_table_matches_declarations(self):
        # the module docstring's contract block is rendered from the
        # declared tuples — regenerate with contract_table() on edit.
        indented = textwrap.indent(_stages.contract_table(), "    ")
        assert indented in _stages.__doc__


# ---------------------------------------------------------------------------
# DET001 — determinism


class TestDeterminism:
    def test_module_level_random_flagged(self):
        assert _rules("import random\nx = random.random()\n") == ["DET001"]
        assert _rules("import random\nx = random.choice(xs)\n") == ["DET001"]

    def test_from_import_flagged(self):
        assert _rules("from random import choice\nx = choice(xs)\n") == ["DET001"]

    def test_seeded_instance_legal(self):
        source = "import random\nrng = random.Random(7)\nx = rng.random()\n"
        assert _rules(source) == []

    def test_unseeded_instance_flagged(self):
        assert _rules("import random\nrng = random.Random()\n") == ["DET001"]

    def test_system_random_flagged(self):
        assert _rules("import random\nr = random.SystemRandom()\n") == ["DET001"]

    def test_numpy_global_rng_flagged_via_alias(self):
        assert _rules("import numpy as np\nx = np.random.rand()\n") == ["DET001"]

    def test_numpy_seeded_default_rng_legal(self):
        source = "import numpy as np\nrng = np.random.default_rng(3)\n"
        assert _rules(source) == []

    def test_numpy_unseeded_default_rng_flagged(self):
        source = "import numpy as np\nrng = np.random.default_rng()\n"
        assert _rules(source) == ["DET001"]

    def test_entropy_sources_flagged(self):
        assert _rules("import os\nx = os.urandom(8)\n") == ["DET001"]
        assert _rules("import uuid\nx = uuid.uuid4()\n") == ["DET001"]
        assert _rules("import secrets\nx = secrets.token_hex()\n") == ["DET001"]

    def test_builtin_hash_flagged(self):
        assert _rules("request_id = hash(db_id) % 1000\n") == ["DET001"]
        source = "def key(name):\n    return hash((name, 1))\n"
        assert _rules(source) == ["DET001"]

    def test_builtin_hash_inside_dunder_hash_legal(self):
        source = textwrap.dedent(
            """
            class ShardMap:
                def __hash__(self):
                    return hash((self.workers, self.seed))
            """
        )
        assert _rules(source) == []
        # an imported ``hash`` is not the builtin
        assert _rules("from hashlib import sha1 as hash\nx = hash(b'')\n") == []

    def test_for_over_set_literal_flagged(self):
        assert _rules("for x in {1, 2}:\n    out.append(x)\n") == ["DET001"]

    def test_for_over_set_call_flagged(self):
        assert _rules("for x in set(xs):\n    out.append(x)\n") == ["DET001"]

    def test_comprehension_over_set_flagged(self):
        assert _rules("ys = [x for x in set(xs)]\n") == ["DET001"]

    def test_ordered_consumers_flagged(self):
        assert _rules("ys = list({1, 2})\n") == ["DET001"]
        assert _rules("s = ', '.join({'a', 'b'})\n") == ["DET001"]

    def test_sorted_set_legal(self):
        assert _rules("ys = sorted(set(xs))\n") == []
        assert _rules("for x in sorted({1, 2}):\n    pass\n") == []

    def test_dict_fromkeys_legal(self):
        assert _rules("for x in dict.fromkeys(xs):\n    pass\n") == []

    def test_membership_test_legal(self):
        assert _rules("ok = x in {1, 2}\n") == []


# ---------------------------------------------------------------------------
# LOCK001 — lock order and blocking-under-lock


def _lock_rules(source: str, path: str = "serving/mod.py") -> list[str]:
    return _rules(source, path=path, rule_ids=["LOCK001"])


def _lock_messages(source: str, path: str = "serving/mod.py") -> list[str]:
    return _messages(source, path=path, rule_ids=["LOCK001"])


class TestLockOrder:
    INVERSION = textwrap.dedent(
        """
        import threading

        class A:
            def __init__(self):
                self.l1 = threading.Lock()
                self.l2 = threading.Lock()

            def m1(self):
                with self.l1:
                    with self.l2:
                        pass

            def m2(self):
                with self.l2:
                    with self.l1:
                        pass
        """
    )

    def test_abba_inversion_flagged(self):
        messages = _lock_messages(self.INVERSION)
        assert len(messages) == 1
        assert "lock-order inversion" in messages[0]
        assert "A.l1" in messages[0] and "A.l2" in messages[0]

    def test_consistent_order_legal(self):
        source = self.INVERSION.replace(
            "with self.l2:\n            with self.l1:",
            "with self.l1:\n            with self.l2:",
        )
        assert source != self.INVERSION
        assert _lock_rules(source) == []

    def test_blocking_under_lock_flagged(self):
        source = textwrap.dedent(
            """
            import threading

            class B:
                def __init__(self, clock):
                    self.lock = threading.Lock()
                    self.clock = clock

                def m(self):
                    with self.lock:
                        self.clock.sleep(1)
            """
        )
        messages = _lock_messages(source)
        assert any(
            "holds B.lock across blocking call .sleep" in m for m in messages
        )

    def test_transitive_blocking_via_self_call_flagged(self):
        source = textwrap.dedent(
            """
            import threading

            class C:
                def __init__(self, db):
                    self.lock = threading.Lock()
                    self.db = db

                def outer(self):
                    with self.lock:
                        self.inner()

                def inner(self):
                    self.db.execute("SELECT 1")
            """
        )
        messages = _lock_messages(source)
        assert any("reached via self.inner()" in m for m in messages)

    def test_blocking_after_release_legal(self):
        source = textwrap.dedent(
            """
            import threading

            class D:
                def __init__(self, clock):
                    self.lock = threading.Lock()
                    self.clock = clock

                def m(self):
                    with self.lock:
                        x = 1
                    self.clock.sleep(1)
            """
        )
        assert _lock_rules(source) == []

    def test_nonreentrant_reacquisition_flagged(self):
        source = textwrap.dedent(
            """
            import threading

            class E:
                def __init__(self):
                    self.lock = threading.Lock()

                def m(self):
                    with self.lock:
                        with self.lock:
                            pass
            """
        )
        messages = _lock_messages(source)
        assert any("self-deadlock" in m for m in messages)

    def test_rlock_reacquisition_legal(self):
        source = textwrap.dedent(
            """
            import threading

            class F:
                def __init__(self):
                    self.lock = threading.RLock()

                def m(self):
                    with self.lock:
                        with self.lock:
                            pass
            """
        )
        assert _lock_rules(source) == []

    def test_condition_aliases_to_underlying_lock(self):
        source = textwrap.dedent(
            """
            import threading

            class G:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._cv = threading.Condition(self._lock)

                def m(self):
                    with self._cv:
                        with self._lock:
                            pass
            """
        )
        # the condition IS the lock, so nesting them is a self-deadlock.
        messages = _lock_messages(source)
        assert any("self-deadlock" in m for m in messages)

    def test_lock_getter_method_resolved(self):
        source = textwrap.dedent(
            """
            import threading

            class H:
                def __init__(self, clock):
                    self._guard = threading.Lock()
                    self._locks = {}
                    self.clock = clock

                def _lock_for(self, key):
                    with self._guard:
                        lock = self._locks.get(key)
                        if lock is None:
                            lock = self._locks[key] = threading.Lock()
                        return lock

                def m(self, key):
                    lock = self._lock_for(key)
                    with lock:
                        self.clock.sleep(1)
            """
        )
        messages = _lock_messages(source)
        assert any(
            "holds H._locks[*] across blocking call .sleep" in m
            for m in messages
        )

    def test_out_of_scope_paths_ignored(self):
        source = textwrap.dedent(
            """
            import threading

            class B:
                def __init__(self, clock):
                    self.lock = threading.Lock()
                    self.clock = clock

                def m(self):
                    with self.lock:
                        self.clock.sleep(1)
            """
        )
        assert _lock_rules(source, path="core/mod.py") == []
