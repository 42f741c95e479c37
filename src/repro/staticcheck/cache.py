"""Incremental per-module finding cache for warm ``repro check`` runs.

The cache stores, per checked file, the raw per-module findings of
every *incremental* rule (``Rule.incremental``), keyed by the SHA-256
of the file's bytes.  On a warm run an unchanged module skips every
incremental rule's ``check`` entirely; rules with cross-module state
(LOCK001's lock-order graph, the runner-driven SUP001) always run, as
does suppression matching — so warm output is
byte-identical to a cold run by construction, which the test suite
verifies.

Two staleness guards:

- a **rules fingerprint** hashing the source of every module in this
  package (rules, their shared helpers and base classes), the file
  defining each rule class, and the cache format version: edit any
  code a rule runs and the whole cache invalidates;
- per-file **content hashes**: edit any module and only that module
  re-analyzes.

Entries for files no longer on disk are dropped on save.  The file
format is deterministic JSON (sorted keys), safe to commit or throw
away at will — a missing or corrupt cache simply means a cold run.
"""

from __future__ import annotations

import hashlib
import inspect
import json
from pathlib import Path

from repro.staticcheck.findings import Finding, SourceSpan

CACHE_VERSION = 1


def content_hash(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


#: the staticcheck package, whose every module the fingerprint covers.
PACKAGE_DIR = Path(__file__).resolve().parent


def rules_fingerprint(rule_classes) -> str:
    """Hash of the cache version, the rules' ids and docs, and the code
    they run: every module of this package (shared helpers and base
    classes included) plus each rule class's own file."""
    digest = hashlib.sha256(f"v{CACHE_VERSION}".encode("utf-8"))
    files = set(PACKAGE_DIR.rglob("*.py"))
    for cls in sorted(rule_classes, key=lambda cls: cls.id):
        digest.update(cls.id.encode("utf-8"))
        digest.update(cls.docs().encode("utf-8"))
        try:
            files.add(Path(inspect.getsourcefile(cls)).resolve())
        except (OSError, TypeError):
            pass  # no source (frozen/interactive): id and docs only
    for path in sorted(files):
        try:
            digest.update(path.read_bytes())
        except OSError:
            pass
    return digest.hexdigest()


def _finding_to_dict(finding: Finding) -> dict:
    span = finding.span
    return {
        "rule": finding.rule,
        "severity": finding.severity,
        "path": finding.path,
        "line": span.line,
        "col": span.col,
        "end_line": span.end_line,
        "end_col": span.end_col,
        "message": finding.message,
    }


def _finding_from_dict(payload: dict) -> Finding:
    return Finding(
        rule=payload["rule"],
        severity=payload["severity"],
        path=payload["path"],
        span=SourceSpan(
            line=payload["line"],
            col=payload["col"],
            end_line=payload["end_line"],
            end_col=payload["end_col"],
        ),
        message=payload["message"],
    )


class FindingCache:
    """Content-hash-keyed store of per-(module, rule) raw findings."""

    def __init__(self, path: str | Path, fingerprint: str):
        self.path = Path(path)
        self.fingerprint = fingerprint
        self.hits = 0
        self.misses = 0
        self._files: dict[str, dict] = {}
        self._seen: set[str] = set()
        self._load()

    def _load(self) -> None:
        try:
            payload = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return
        if (
            payload.get("version") != CACHE_VERSION
            or payload.get("fingerprint") != self.fingerprint
        ):
            return  # stale format or edited rules: start cold.
        files = payload.get("files")
        if isinstance(files, dict):
            self._files = files

    def get(
        self, module_path: str, digest: str, rule_id: str
    ) -> list[Finding] | None:
        """Cached findings, or None on any miss (never a false hit)."""
        self._seen.add(module_path)
        entry = self._files.get(module_path)
        if entry is None or entry.get("hash") != digest:
            self.misses += 1
            return None
        stored = entry.get("findings", {}).get(rule_id)
        if stored is None:
            self.misses += 1
            return None
        self.hits += 1
        return [_finding_from_dict(item) for item in stored]

    def put(
        self,
        module_path: str,
        digest: str,
        rule_id: str,
        findings: list[Finding],
    ) -> None:
        self._seen.add(module_path)
        entry = self._files.get(module_path)
        if entry is None or entry.get("hash") != digest:
            entry = {"hash": digest, "findings": {}}
            self._files[module_path] = entry
        entry["findings"][rule_id] = [
            _finding_to_dict(finding) for finding in findings
        ]

    def save(self) -> None:
        """Write the cache, dropping files not seen by this run."""
        files = {
            path: entry
            for path, entry in self._files.items()
            if path in self._seen
        }
        payload = {
            "version": CACHE_VERSION,
            "fingerprint": self.fingerprint,
            "files": files,
        }
        self.path.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
