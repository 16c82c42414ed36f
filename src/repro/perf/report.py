"""Human-readable tables mirroring the paper's artifacts."""

from __future__ import annotations

from repro.engines.forkjoin import (
    CAT_BL_OPT,
    CAT_LIKELIHOOD,
    CAT_MODEL,
    CAT_TRAVERSAL,
    ForkJoinCommModel,
)
from repro.likelihood.backend import EventLog
from repro.perf.runtime_sim import RuntimeReport

__all__ = ["format_table1", "format_runtime_table", "table1_rows"]

_MB = 1024.0 * 1024.0


def table1_rows(log: EventLog) -> dict[str, float]:
    """Table I quantities for one fork-join run: per-category percentages,
    region count and total MB."""
    model = ForkJoinCommModel()
    totals = model.byte_totals(log)
    grand = sum(totals.values())
    rows = {
        f"{cat} [%]": (100.0 * totals[cat] / grand if grand else 0.0)
        for cat in (CAT_BL_OPT, CAT_LIKELIHOOD, CAT_MODEL, CAT_TRAVERSAL)
    }
    rows["# parallel regions"] = float(model.region_count(log))
    rows["# bytes communicated (MB)"] = grand / _MB
    return rows


def format_table1(columns: dict[str, EventLog]) -> str:
    """Render Table I: one column per run configuration."""
    names = list(columns)
    data = {name: table1_rows(log) for name, log in columns.items()}
    row_labels = [
        f"{CAT_BL_OPT} [%]",
        f"{CAT_LIKELIHOOD} [%]",
        f"{CAT_MODEL} [%]",
        f"{CAT_TRAVERSAL} [%]",
        "# parallel regions",
        "# bytes communicated (MB)",
    ]
    width = max(len(r) for r in row_labels) + 2
    colw = max(14, max(len(n) for n in names) + 2)
    out = [" " * width + "".join(f"{n:>{colw}}" for n in names)]
    for label in row_labels:
        cells = []
        for name in names:
            val = data[name][label]
            if label.startswith("#"):
                cells.append(f"{val:>{colw}.0f}")
            else:
                cells.append(f"{val:>{colw}.2f}")
        out.append(f"{label:<{width}}" + "".join(cells))
    return "\n".join(out)


def format_runtime_table(
    rows: list[tuple[str, RuntimeReport, RuntimeReport]],
) -> str:
    """Render runtime comparisons: (label, ExaML report, RAxML-Light report)."""
    out = [
        f"{'configuration':<28}{'ExaML [s]':>12}{'RAxML-Light [s]':>17}"
        f"{'speedup':>9}"
    ]
    for label, examl, light in rows:
        ratio = light.total_s / examl.total_s if examl.total_s > 0 else float("nan")
        out.append(
            f"{label:<28}{examl.total_s:>12.1f}{light.total_s:>17.1f}{ratio:>9.2f}"
        )
    return "\n".join(out)
