"""Architectural rules (repro.staticcheck) — rules + repo-wide gate.

Rule exemptions are path-based: passing ``path="reliability/clock.py"``
to :func:`repro.staticcheck.check_source` exercises the ARCH001
allowlist the same way the tree walk does.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import cli
from repro.staticcheck import REGISTRY, check_source, check_tree, load_baseline
from repro.staticcheck.rules._util import in_scope
from repro.staticcheck.rules.arch import Ban, ContainmentRule, LowerComparisonRule
from repro.staticcheck.rules.locks import SCOPE_PREFIXES
from repro.staticcheck.rules.stage_contract import STAGE_MODULE

REPO_ROOT = Path(__file__).resolve().parent.parent


def _rules(source: str, path: str = "mod.py") -> list[str]:
    return [finding.rule for finding in check_source(source, path=path)]


class TestRawClockRule:
    def test_time_time_flagged(self):
        assert _rules("import time\nstart = time.time()\n") == ["ARCH001"]

    def test_perf_counter_flagged(self):
        assert _rules("import time\nt = time.perf_counter()\n") == ["ARCH001"]

    def test_monotonic_flagged(self):
        assert _rules("import time\nt = time.monotonic()\n") == ["ARCH001"]

    def test_datetime_now_flagged(self):
        source = "import datetime\nnow = datetime.datetime.now()\n"
        assert _rules(source) == ["ARCH001"]

    def test_aliased_import_flagged(self):
        # the old regex-era check keyed on the receiver being literally
        # "time"; the ImportTable resolves aliases.
        assert _rules("import time as t\nstart = t.time()\n") == ["ARCH001"]

    def test_from_import_flagged(self):
        source = "from time import monotonic\nt = monotonic()\n"
        assert _rules(source) == ["ARCH001"]

    def test_from_import_datetime_flagged(self):
        source = "from datetime import datetime\nnow = datetime.now()\n"
        assert _rules(source) == ["ARCH001"]

    def test_multiline_call_flagged(self):
        source = "import time\nt = time.perf_counter(\n)\n"
        assert _rules(source) == ["ARCH001"]

    def test_clock_protocol_usage_clean(self):
        source = (
            "from repro.reliability.clock import SYSTEM_CLOCK\n"
            "start = SYSTEM_CLOCK.now()\n"
        )
        assert _rules(source) == []

    def test_clock_module_exempt(self):
        source = "import time\nt = time.monotonic()\n"
        assert _rules(source, path="reliability/clock.py") == []

    def test_unrelated_attribute_call_clean(self):
        # `obj.time()` resolves to "obj.time", not the time module.
        assert _rules("value = obj.time()\n") == []
        assert _rules("t = clockwork.perf_counter()\n") == []

    def test_local_shadowing_is_not_the_clock(self):
        # a local callable named monotonic without the import is not
        # time.monotonic.
        assert _rules("t = monotonic()\n") == []


class TestBlanketExceptRule:
    def test_swallowing_handler_flagged(self):
        source = "try:\n    work()\nexcept Exception:\n    result = None\n"
        assert _rules(source) == ["ARCH002"]

    def test_bare_except_flagged(self):
        source = "try:\n    work()\nexcept:\n    pass\n"
        assert _rules(source) == ["ARCH002"]

    def test_base_exception_in_tuple_flagged(self):
        source = "try:\n    work()\nexcept (ValueError, BaseException):\n    pass\n"
        assert _rules(source) == ["ARCH002"]

    def test_reraise_allowed(self):
        source = (
            "try:\n    work()\nexcept Exception as exc:\n"
            "    raise ReproError('wrapped') from exc\n"
        )
        assert _rules(source) == []

    def test_taxonomy_classification_allowed(self):
        source = (
            "try:\n    work()\nexcept Exception:\n"
            "    failures['generation_failed'] += 1\n"
        )
        assert _rules(source) == []

    def test_narrow_handler_ignored(self):
        source = "try:\n    work()\nexcept ValueError:\n    pass\n"
        assert _rules(source) == []


class TestLowerComparisonRule:
    def test_lower_equality_flagged(self):
        assert _rules("ok = a.lower() == b.lower()\n") == ["ARCH003"]

    def test_one_sided_lower_equality_flagged(self):
        # one-sided normalization is the classic drift bug ARCH003 exists for.
        assert _rules("ok = name.lower() == target\n") == ["ARCH003"]

    def test_lower_inequality_flagged(self):
        assert _rules("ok = a.lower() != b.lower()\n") == ["ARCH003"]

    def test_casefold_equality_flagged(self):
        assert _rules("ok = a.casefold() == b.casefold()\n") == ["ARCH003"]

    def test_membership_lookup_allowed(self):
        # normalized-key dict/set lookups are the sanctioned catalog pattern.
        assert _rules("ok = name.lower() in mapping\n") == []
        assert _rules("ok = name.lower() not in seen\n") == []

    def test_lower_with_arguments_ignored(self):
        # only the no-arg str case normalizers count; obj.lower(x) is
        # some other API.
        assert _rules("ok = obj.lower(x) == other\n") == []

    def test_identifier_owners_exempt(self):
        source = "ok = a.lower() == b.lower()\n"
        assert _rules(source, path="sqlgen/mod.py") == []
        assert _rules(source, path="analysis/mod.py") == []

    def test_identifier_key_usage_clean(self):
        source = (
            "from repro.sqlgen.ast import identifier_key\n"
            "ok = identifier_key(a) == identifier_key(b)\n"
        )
        assert _rules(source) == []


class TestEngineEncapsulationRule:
    def test_direct_stage_internals_import_flagged(self):
        assert _rules("import repro.engine._stages\n") == ["ARCH004"]

    def test_from_stage_internals_import_flagged(self):
        source = "from repro.engine._stages import RankStage\n"
        assert _rules(source) == ["ARCH004"]

    def test_submodule_spelling_flagged(self):
        source = "from repro.engine import _stages\n"
        assert _rules(source) == ["ARCH004"]

    def test_public_engine_api_clean(self):
        source = "from repro.engine import build_default_engine, Engine\n"
        assert _rules(source) == []

    def test_engine_package_exempt(self):
        source = "from repro.engine._stages import default_stages\n"
        assert _rules(source, path="engine/mod.py") == []

    def test_pipeline_reimplementation_flagged(self):
        source = (
            "from repro.core.slotfill import instantiate_template\n"
            "from repro.core.ranking import lint_gated_order\n"
        )
        assert _rules(source) == ["ARCH004"]

    def test_single_ingredient_clean(self):
        # importing one private ingredient alone is not a pipeline.
        assert _rules("from repro.core.slotfill import instantiate_template\n") == []
        assert _rules("from repro.core.ranking import lint_gated_order\n") == []

    def test_pipeline_owners_exempt(self):
        source = (
            "from repro.core.slotfill import instantiate_template\n"
            "from repro.core.ranking import lint_gated_order\n"
        )
        assert _rules(source, path="core/mod.py") == []
        assert _rules(source, path="engine/mod.py") == []


class TestConcurrencyRule:
    def test_threading_import_flagged(self):
        assert _rules("import threading\n") == ["ARCH005"]

    def test_from_threading_import_flagged(self):
        assert _rules("from threading import Lock\n") == ["ARCH005"]

    def test_queue_and_multiprocessing_flagged(self):
        assert _rules("import queue\n") == ["ARCH005"]
        # process-level primitives also break the stricter ARCH008 zone
        assert _rules("import multiprocessing\n") == ["ARCH005", "ARCH008"]
        assert _rules("from concurrent.futures import ThreadPoolExecutor\n") == [
            "ARCH005",
            "ARCH008",
        ]

    def test_one_violation_per_import_statement(self):
        assert _rules("import threading, queue\n") == ["ARCH005"]

    def test_prefix_match_does_not_catch_lookalikes(self):
        # "queueing" is not the stdlib queue module.
        assert _rules("import queueing\nimport threadless\n") == []

    def test_serving_and_reliability_exempt(self):
        source = "import threading\nfrom queue import Queue\n"
        assert _rules(source, path="serving/mod.py") == []
        assert _rules(source, path="reliability/mod.py") == []


class TestIPCContainmentRule:
    def test_multiprocessing_import_flagged_even_in_serving(self):
        # serving/ satisfies ARCH005, but only sharding/ may fork.
        assert _rules("import multiprocessing\n", path="serving/mod.py") == [
            "ARCH008"
        ]
        assert _rules(
            "from concurrent.futures import ProcessPoolExecutor\n",
            path="serving/worker.py",
        ) == ["ARCH008"]
        assert _rules("import multiprocessing\n", path="reliability/mod.py") == [
            "ARCH008"
        ]

    def test_pipe_construction_flagged(self):
        source = "import multiprocessing\na, b = multiprocessing.Pipe()\n"
        assert _rules(source, path="serving/mod.py") == ["ARCH008", "ARCH008"]

    def test_aliased_pipe_construction_flagged(self):
        source = "import multiprocessing as mp\na, b = mp.Pipe()\n"
        assert _rules(source, path="serving/mod.py") == ["ARCH008", "ARCH008"]

    def test_from_import_queue_construction_flagged(self):
        source = "from multiprocessing import Queue\nq = Queue()\n"
        assert _rules(source, path="serving/mod.py") == ["ARCH008", "ARCH008"]

    def test_sharding_transport_exempt(self):
        source = (
            "import multiprocessing\n"
            "a, b = multiprocessing.Pipe()\n"
            "p = multiprocessing.get_context('fork')\n"
        )
        assert _rules(source, path="serving/sharding/transport.py") == []
        assert _rules(source, path="serving/sharding/mod.py") == []

    def test_lookalike_modules_clean(self):
        assert _rules("import multiprocessing_utils\n") == []
        assert _rules("import concurrent_log\n") == []

    def test_threading_not_this_rules_business(self):
        # thread primitives stay ARCH005's concern; serving/ is legal.
        assert _rules("import threading\n", path="serving/mod.py") == []


class TestProviderEncapsulationRule:
    def test_impl_submodule_import_flagged(self):
        assert _rules("from repro.lm.providers.router import ProviderRouter\n") == [
            "ARCH006"
        ]
        assert _rules("from repro.lm.providers.sim import FlakyProvider\n") == [
            "ARCH006"
        ]
        assert _rules("import repro.lm.providers.local\n") == ["ARCH006"]

    def test_submodule_spelling_flagged(self):
        assert _rules("from repro.lm.providers import router\n") == ["ARCH006"]

    def test_package_api_clean_outside_banned_zones(self):
        # the package facade is the public API (e.g. the CLI uses it).
        source = "from repro.lm.providers import ProviderRouter, RouterConfig\n"
        assert _rules(source) == []

    def test_protocol_and_config_submodules_clean(self):
        # base (protocol) and config (declarative data) are not
        # implementations — e.g. the parser's typing-only import.
        assert _rules("from repro.lm.providers.base import Provider\n") == []
        assert _rules("from repro.lm.providers.config import RouterConfig\n") == []

    def test_everything_banned_in_engine_and_serving(self):
        # engine/ and serving/ may not touch the package at all.
        for source in (
            "from repro.lm.providers import ProviderRouter\n",
            "from repro.lm.providers.base import Provider\n",
            "import repro.lm.providers\n",
        ):
            assert _rules(source, path="engine/mod.py") == ["ARCH006"]
            assert _rules(source, path="serving/mod.py") == ["ARCH006"]

    def test_providers_package_and_registry_exempt(self):
        source = "from repro.lm.providers.router import ProviderRouter\n"
        assert _rules(source, path="lm/providers/mod.py") == []
        assert _rules(source, path="lm/registry.py") == []

    def test_lookalike_module_clean(self):
        assert _rules("import repro.lm.providers_ext\n") == []


class TestRepoGate:
    """The whole tree passes the full registry with the repo baseline."""

    def test_src_repro_has_no_violations(self):
        baseline = load_baseline(REPO_ROOT / "staticcheck_baseline.json")
        result = check_tree(REPO_ROOT / "src" / "repro", baseline=baseline)
        rendered = "\n".join(f.render() for f in result.findings)
        assert not result.findings, f"staticcheck violations:\n{rendered}"
        assert not result.stale_baseline, (
            f"stale baseline entries: {result.stale_baseline}"
        )

    def test_check_cli_exit_status(self):
        argv = [
            "check",
            "--root",
            str(REPO_ROOT / "src" / "repro"),
            "--baseline",
            str(REPO_ROOT / "staticcheck_baseline.json"),
        ]
        assert cli.main(argv) == cli.CHECK_OK

    def test_json_output_is_byte_stable_across_hash_seeds(self):
        """``repro check --format json`` must not depend on PYTHONHASHSEED."""
        outputs = []
        for seed in ("0", "42"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = seed
            env["PYTHONPATH"] = str(REPO_ROOT / "src")
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "repro.cli",
                    "check",
                    "--root",
                    str(REPO_ROOT / "src" / "repro"),
                    "--format",
                    "json",
                    "--baseline",
                    str(REPO_ROOT / "staticcheck_baseline.json"),
                ],
                capture_output=True,
                env=env,
                cwd=REPO_ROOT,
            )
            assert proc.returncode == 0, proc.stdout.decode() + proc.stderr.decode()
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        payload = json.loads(outputs[0])
        assert payload["ok"] is True


# ---------------------------------------------------------------------------
# scope regression: every path-scoped rule, under every check root


CONTAINMENT_RULES = [
    REGISTRY.get(rule_id)
    for rule_id in REGISTRY.ids()
    if issubclass(REGISTRY.get(rule_id), ContainmentRule)
]

#: the check roots a tree walk may be rooted at (``--root src/repro``,
#: ``--root src``, ``--root .``): scoping must not depend on which.
ROOT_PREFIXES = ("", "repro/", "src/repro/")


def _scope_path(scope: str) -> str:
    """A module path inside ``scope`` (a ``dir/`` or a file)."""
    return f"{scope}m.py" if scope.endswith("/") else scope


def _breaking_source(clause: Ban) -> tuple[str, str]:
    """A module breaking ``clause`` with one import or call, and the
    message that clause reports for it."""
    if clause.modules:
        name = clause.modules[0]
        source = f"import {name}\n"
    else:
        name = sorted(clause.calls)[0]
        source = f"import {name.rsplit('.', 1)[0]}\nvalue = {name}()\n"
    return source, clause.message.format(name=name)


def _findings(source: str, path: str) -> list[tuple[str, str]]:
    return [(f.rule, f.message) for f in check_source(source, path=path)]


CLAUSE_CASES = [
    pytest.param(rule, clause, id=f"{rule.id}-clause{index}")
    for rule in CONTAINMENT_RULES
    for index, clause in enumerate(rule.clauses)
]


class TestScopeMatcher:
    @pytest.mark.parametrize("rule, clause", CLAUSE_CASES)
    def test_containment_clause_scoped_under_every_root(self, rule, clause):
        source, message = _breaking_source(clause)
        expected = (rule.id, message)
        neutral = _scope_path(clause.only[0]) if clause.only else "mod.py"
        assert expected in _findings(source, neutral)
        for scope in clause.allowed:
            for prefix in ROOT_PREFIXES:
                path = prefix + _scope_path(scope)
                assert expected not in _findings(source, path), path
        for scope in clause.only or ():
            for prefix in ROOT_PREFIXES:
                path = prefix + _scope_path(scope)
                assert expected in _findings(source, path), path

    LOCK_SOURCE = (
        "import threading\n"
        "class Box:\n"
        "    def __init__(self):\n"
        "        self.lock = threading.Lock()\n"
        "    def twice(self):\n"
        "        with self.lock:\n"
        "            with self.lock:\n"
        "                pass\n"
    )
    STAGE_SOURCE = (
        "class Stage:\n"
        "    name = 'stage'\n"
        "    def run(self, ctx):\n"
        "        return ctx.question\n"
    )

    @pytest.mark.parametrize(
        "rule_id, source, scopes",
        [
            pytest.param("LOCK001", LOCK_SOURCE, SCOPE_PREFIXES, id="LOCK001"),
            pytest.param("STAGE001", STAGE_SOURCE, (STAGE_MODULE,), id="STAGE001"),
        ],
    )
    def test_scoped_rule_applies_under_every_root(self, rule_id, source, scopes):
        assert rule_id not in _rules(source, path="mod.py")
        for scope in scopes:
            for prefix in ROOT_PREFIXES:
                path = prefix + _scope_path(scope)
                assert rule_id in _rules(source, path=path), path

    def test_lower_comparison_allowlist_under_every_root(self):
        source = "same = a.lower() == b.lower()\n"
        assert _rules(source) == ["ARCH003"]
        for scope in LowerComparisonRule.ALLOWLIST_PREFIXES:
            for prefix in ROOT_PREFIXES:
                assert _rules(source, path=prefix + _scope_path(scope)) == []

    def test_scopes_match_whole_path_components(self):
        assert in_scope("serving/m.py", ("serving/",))
        assert in_scope("src/repro/serving/sharding/m.py", ("serving/",))
        assert not in_scope("myserving/m.py", ("serving/",))
        assert not in_scope("serving.py", ("serving/",))
        assert in_scope("repro/engine/_stages.py", ("engine/_stages.py",))
        assert not in_scope("xengine/_stages.py", ("engine/_stages.py",))
        assert not in_scope("engine/_stages.pyc", ("engine/_stages.py",))
