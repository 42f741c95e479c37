"""Per-module analysis context: parsed AST plus inline suppressions.

Each checked file is parsed exactly once into a :class:`ModuleContext`
shared by every rule.  Suppressions are comments of the form::

    something()  # staticcheck: disable=ARCH001
    other()      # staticcheck: disable=ARCH003,DET001

scoped to *that line and those rules only* — a suppression never
silences a different rule on the same line, the same rule on another
line, or a whole file.  Comments are found with :mod:`tokenize`, so a
``# staticcheck:`` spelling inside a string literal never counts.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field

#: one suppression comment: its rule-id list, then a trailer (anything
#: after the ids, e.g. the reason).  The runner honours what this
#: matches and ``--fix`` edits what it matches, so the two cannot drift.
SUPPRESSION_RE = re.compile(
    r"#\s*staticcheck:\s*disable=(?P<rules>[A-Za-z0-9_,\s]+)(?P<trailer>.*)$"
)


@dataclass
class ModuleContext:
    """One parsed module as every rule sees it."""

    #: Path relative to the check root, posix-style (drives rule scoping).
    path: str
    source: str
    tree: ast.Module
    #: line number -> rule ids suppressed on that line.
    suppressions: dict[int, set[str]] = field(default_factory=dict)

    def suppressed(self, rule: str, line: int) -> bool:
        return rule in self.suppressions.get(line, ())


def find_suppressions(source: str) -> dict[int, set[str]]:
    """Map line number -> rule ids disabled by an inline comment."""
    table: dict[int, set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = SUPPRESSION_RE.search(token.string)
            if match is None:
                continue
            rules = {
                part.strip()
                for part in match.group("rules").split(",")
                if part.strip()
            }
            if rules:
                table.setdefault(token.start[0], set()).update(rules)
    except tokenize.TokenError:
        # Unterminated constructs: the ast parse will surface the real
        # syntax error; suppressions just come up empty.
        pass
    return table


def parse_module(path: str, source: str) -> ModuleContext:
    """Parse one module; raises ``SyntaxError`` on unparseable source."""
    return ModuleContext(
        path=path,
        source=source,
        tree=ast.parse(source, filename=path),
        suppressions=find_suppressions(source),
    )
