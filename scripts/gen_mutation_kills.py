#!/usr/bin/env python
"""Rewrite the rule column of ``tests/golden/mutation_kills.txt``.

Applies every mutant of ``tests/mutants.py`` in memory, runs every
registered rule on the module under its real path, and records the
rules whose findings are new.  The test column is kept as committed (a
mutant new to the corpus starts at ``-``); fill it in by hand with a
tier-1 test that fails on the mutant and check it with
``pytest -m mutation``.

Usage::

    PYTHONPATH=src python scripts/gen_mutation_kills.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from tests.mutants import (  # noqa: E402
    KILL_TABLE,
    MUTANTS,
    KillRow,
    load_kill_table,
    render_kill_table,
    rule_kills,
)


def main() -> int:
    tests = (
        {row.mutant: row.test for row in load_kill_table()}
        if KILL_TABLE.exists()
        else {}
    )
    rows = [
        KillRow(m.id, m.bug, rule_kills(m), tests.get(m.id)) for m in MUTANTS
    ]
    KILL_TABLE.write_text(render_kill_table(rows), encoding="utf-8")
    print(f"wrote {len(rows)} rows to {KILL_TABLE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
