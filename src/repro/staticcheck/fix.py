"""Deterministic autofixes for ``repro check --fix``.

Only a mechanical, provably-safe fix is automated — the one whose
*finding* already names the exact edit: for each **SUP001** (stale
inline suppression), delete the unused rule id from its
``# staticcheck: disable=`` comment; when the last id goes, delete the
whole comment (and the line, if nothing else is on it).

The fixes are derived from one :class:`~repro.staticcheck.runner.
CheckResult`, applied in sorted path order, and rendered as a unified
diff of every file touched.  The fixer is idempotent by construction:
after one pass the findings that drove it are gone, so a second pass
plans nothing and prints an empty diff (a property the tests assert).
Rule findings themselves (RES001, EXC001, ...) are *not* auto-fixed —
they require judgement; the fixer only retires bookkeeping that has
outlived the code it described.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass
from pathlib import Path

from repro.staticcheck.module import SUPPRESSION_RE
from repro.staticcheck.runner import CheckResult


@dataclass(frozen=True)
class FileFix:
    """One file's planned rewrite."""

    path: str
    before: str
    after: str

    def diff(self) -> str:
        return "".join(
            difflib.unified_diff(
                self.before.splitlines(keepends=True),
                self.after.splitlines(keepends=True),
                fromfile=f"a/{self.path}",
                tofile=f"b/{self.path}",
            )
        )


def _strip_rules(line: str, dead_rules: set[str]) -> str:
    """Remove ``dead_rules`` from the line's suppression comment."""
    match = SUPPRESSION_RE.search(line)
    if match is None:
        return line
    listed = [r.strip() for r in match.group("rules").split(",") if r.strip()]
    kept = [r for r in listed if r not in dead_rules]
    if kept == listed:
        return line
    newline = "\n" if line.endswith("\n") else ""
    code = line[: match.start()].rstrip()
    if not kept:
        # last id removed: drop the whole comment; drop the line too
        # if the comment was all there was.
        return code + newline if code else ""
    rebuilt = f"{code}  # staticcheck: disable={','.join(kept)}"
    trailer = match.group("trailer").rstrip()
    if trailer:
        rebuilt += trailer
    return rebuilt + newline


def plan_suppression_fixes(
    result: CheckResult, root: str | Path
) -> list[FileFix]:
    """One :class:`FileFix` per file with stale suppressions to delete."""
    root = Path(root)
    by_path: dict[str, dict[int, set[str]]] = {}
    for path, line, rule_id in result.unused_suppressions:
        by_path.setdefault(path, {}).setdefault(line, set()).add(rule_id)
    fixes = []
    for path in sorted(by_path):
        file_path = root / path
        try:
            before = file_path.read_text(encoding="utf-8")
        except OSError:
            continue  # file vanished between check and fix: nothing to do.
        lines = before.splitlines(keepends=True)
        for lineno, dead_rules in by_path[path].items():
            if 1 <= lineno <= len(lines):
                lines[lineno - 1] = _strip_rules(lines[lineno - 1], dead_rules)
        after = "".join(lines)
        if after != before:
            fixes.append(FileFix(path=path, before=before, after=after))
    return fixes


def apply_fixes(result: CheckResult, root: str | Path) -> tuple[str, int]:
    """Apply every planned fix; return (unified diff, files changed)."""
    fixes = plan_suppression_fixes(result, root)
    chunks = []
    for fix in fixes:
        (Path(root) / fix.path).write_text(fix.after, encoding="utf-8")
        chunks.append(fix.diff())
    return "".join(chunks), len(fixes)
