"""Plain-text tables for benchmark output (paper-style rows)."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.eval.harness import EvalResult


def format_table(rows: Sequence[dict[str, Any]], title: str = "") -> str:
    """Render rows of dicts as an aligned text table.

    Column order follows the first row; missing cells render as ``-``.
    """
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    columns = list(rows[0].keys())
    for row in rows[1:]:
        for key in row:
            if key not in columns:
                columns.append(key)
    rendered = [
        [_cell(row.get(column, "-")) for column in columns] for row in rows
    ]
    widths = [
        max(len(column), *(len(line[i]) for line in rendered))
        for i, column in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(column.ljust(width) for column, width in zip(columns, widths))
    lines.append(header)
    lines.append("-" * len(header))
    for line in rendered:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(line, widths)))
    return "\n".join(lines)


def print_table(rows: Sequence[dict[str, Any]], title: str = "") -> None:
    print()
    print(format_table(rows, title=title))
    print()


def _cell(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def format_serving_report(metrics, title: str = "serving metrics") -> str:
    """Render a :class:`repro.serving.metrics.ServerMetrics` snapshot.

    Deterministic for deterministic inputs (stable row order, the same
    ``%.4g`` float formatting as every other table), which is what
    makes ``repro loadgen --seed`` byte-stable.
    """
    lines = [format_table(metrics.as_rows(), title=title)]
    if metrics.stage_wall_s:
        stage_rows = [
            {"stage": stage, "wall s": round(wall_s, 6)}
            for stage, wall_s in metrics.stage_wall_s.items()
        ]
        lines.append("")
        lines.append(format_table(stage_rows, title="stage wall time (sum)"))
    return "\n".join(lines)


def format_failure_report(result: "EvalResult", max_quarantined: int = 10) -> str:
    """Per-class failure counts plus the quarantine list of a run.

    Returns an empty string for a clean run, so callers can
    unconditionally ``print`` the report.
    """
    if not result.failures and not result.quarantined:
        return ""
    lines = [f"failures for {result.name} ({result.n_failures} total):"]
    for failure_class, count in result.failures.items():
        lines.append(f"  {failure_class:<24} {count}")
    if result.quarantined:
        lines.append(
            f"quarantined examples ({len(result.quarantined)} "
            f"skipped or degraded):"
        )
        for record in result.quarantined[:max_quarantined]:
            question = record.question
            if len(question) > 48:
                question = question[:45] + "..."
            lines.append(
                f"  [{record.index}] {record.db_id} {record.failure}: "
                f"{question}"
            )
            if record.detail:
                detail = record.detail
                if len(detail) > 72:
                    detail = detail[:69] + "..."
                lines.append(f"      {detail}")
        hidden = len(result.quarantined) - max_quarantined
        if hidden > 0:
            lines.append(f"  ... {hidden} more")
    return "\n".join(lines)
