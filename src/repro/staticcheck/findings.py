"""Frozen finding records with source spans.

A :class:`Finding` is one rule hit pinned to a source location.  The
span idiom follows :mod:`repro.sqlgen.spans`: findings carry plain
positions into the original text rather than threading location state
through the AST value objects, so rules stay free to analyse whatever
granularity they like and point back afterwards.

Fingerprints deliberately exclude line numbers: the SARIF emitter
publishes them so a code-scanning UI can follow one finding across
unrelated edits above it, so identity is ``rule | path | message``.
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import dataclass

ERROR = "error"
WARNING = "warning"

SEVERITIES = (ERROR, WARNING)


@dataclass(frozen=True)
class SourceSpan:
    """1-based line / 0-based column range in the module source."""

    line: int
    col: int = 0
    end_line: int | None = None
    end_col: int | None = None

    @classmethod
    def from_node(cls, node: ast.AST) -> "SourceSpan":
        return cls(
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            end_line=getattr(node, "end_lineno", None),
            end_col=getattr(node, "end_col_offset", None),
        )


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    severity: str
    path: str
    span: SourceSpan
    message: str

    @property
    def line(self) -> int:
        return self.span.line

    @property
    def fingerprint(self) -> str:
        """Line-independent identity the SARIF emitter publishes."""
        digest = hashlib.sha256(
            f"{self.rule}|{self.path}|{self.message}".encode("utf-8")
        )
        return digest.hexdigest()[:16]

    def sort_key(self) -> tuple:
        return (self.path, self.span.line, self.span.col, self.rule, self.message)

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"

    def as_dict(self) -> dict[str, object]:
        """Plain-data form for the JSON emitter (stable key set)."""
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.span.line,
            "col": self.span.col,
            "message": self.message,
            "fingerprint": self.fingerprint,
        }
