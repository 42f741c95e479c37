"""Finding emitters: human text, machine JSON, and SARIF 2.1.0.

Every emitter is deterministic for a given tree state: findings are
pre-sorted by the runner, dictionaries serialize with sorted keys, and
nothing stamps wall-clock time or absolute paths — ``repro check
--format json`` is byte-identical across runs and across
``PYTHONHASHSEED`` values (pinned by the tier-1 byte-stability test).
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from repro.staticcheck.registry import REGISTRY

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.staticcheck.runner import CheckResult

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def render_text(result: "CheckResult") -> str:
    """One line per finding plus a status summary."""
    lines = [finding.render() for finding in result.findings]
    if result.ok():
        lines.append(f"staticcheck: OK ({result.files} file(s))")
    else:
        lines.append(
            f"staticcheck: {len(result.findings)} finding(s) "
            f"over {result.files} file(s)"
        )
    return "\n".join(lines)


def render_json(result: "CheckResult") -> str:
    """Stable-order JSON document (sorted keys, sorted findings)."""
    payload = {
        "files": result.files,
        "findings": [finding.as_dict() for finding in result.findings],
        "ok": result.ok(),
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _sarif_level(severity: str) -> str:
    return {"error": "error", "warning": "warning"}.get(severity, "note")


def render_sarif(result: "CheckResult") -> str:
    """Minimal SARIF 2.1.0 log consumable by code-scanning UIs."""
    rule_ids = sorted({finding.rule for finding in result.findings})
    rules = []
    for rule_id in rule_ids:
        try:
            cls = REGISTRY.get(rule_id)
            rules.append(
                {
                    "id": rule_id,
                    "name": cls.title or rule_id,
                    "fullDescription": {"text": cls.docs()},
                    "defaultConfiguration": {
                        "level": _sarif_level(cls.severity)
                    },
                }
            )
        except KeyError:
            rules.append({"id": rule_id, "name": rule_id})
    results = [
        {
            "ruleId": finding.rule,
            "level": _sarif_level(finding.severity),
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": finding.path},
                        "region": {
                            "startLine": finding.span.line,
                            "startColumn": finding.span.col + 1,
                        },
                    }
                }
            ],
            "fingerprints": {"staticcheck/v1": finding.fingerprint},
        }
        for finding in result.findings
    ]
    log = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-staticcheck",
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(log, indent=2, sort_keys=True)
