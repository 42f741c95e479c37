"""The seeded mutant corpus (``tests/mutants.py``) against its kill table.

Tier-1 rebuilds the table's rule column in memory.  ``pytest -m
mutation`` checks the test column: it copies the tree, applies each
mutant and runs the recorded killing test, which must fail.
"""

import os
import shutil
import subprocess
import sys

import pytest

from repro.staticcheck import REGISTRY
from tests.mutants import (
    KILL_TABLE,
    MUTANTS,
    KillRow,
    REPO_ROOT,
    by_id,
    is_counted_test,
    load_kill_table,
    needle_counts,
    render_kill_table,
    rule_kills,
)

pytestmark = pytest.mark.staticcheck

ROWS = load_kill_table()


def test_every_needle_occurs_exactly_once():
    assert {m: n for m, n in needle_counts().items() if n != 1} == {}


def test_kill_table_rows_follow_the_corpus():
    assert [(row.mutant, row.bug) for row in ROWS] == [
        (m.id, m.bug) for m in MUTANTS
    ]


def test_rule_column_matches_kill_table():
    rebuilt = [
        KillRow(row.mutant, row.bug, rule_kills(by_id()[row.mutant]), row.test)
        for row in ROWS
    ]
    assert render_kill_table(rebuilt) == KILL_TABLE.read_text(encoding="utf-8")


def test_recorded_tests_do_not_run_the_checker():
    assert [row.test for row in ROWS if row.test and not is_counted_test(row.test)] == []


def test_every_rule_kills_a_mutant_nothing_else_kills():
    # A rule whose kills a tier-1 test or another rule also makes is
    # deleted; this keeps the registry and the corpus honest together.
    sole = {row.rules[0] for row in ROWS if len(row.rules) == 1 and not row.test}
    assert set(REGISTRY.ids()) - sole == set()


@pytest.fixture(scope="module")
def tree_copy(tmp_path_factory):
    root = tmp_path_factory.mktemp("mutation") / "repo"
    shutil.copytree(
        REPO_ROOT,
        root,
        ignore=shutil.ignore_patterns(".git", "__pycache__", "*.pyc"),
    )
    return root


@pytest.mark.mutation
@pytest.mark.parametrize(
    "row", [row for row in ROWS if row.test], ids=lambda row: row.mutant
)
def test_recorded_test_kills_mutant(row, tree_copy):
    mutant = by_id()[row.mutant]
    target = tree_copy / "src" / "repro" / mutant.path
    original = target.read_text(encoding="utf-8")
    target.write_text(mutant.apply(original), encoding="utf-8")
    env = dict(
        os.environ,
        PYTHONPATH=str(tree_copy / "src"),
        PYTHONDONTWRITEBYTECODE="1",
    )
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", row.test],
            cwd=tree_copy,
            env=env,
            capture_output=True,
            text=True,
        )
    finally:
        target.write_text(original, encoding="utf-8")
    # 1: tests ran and failed (2+ would be a collection or usage error).
    assert proc.returncode == 1, proc.stdout[-2000:]
