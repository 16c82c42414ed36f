"""Human-readable tables mirroring the paper's artifacts."""

from __future__ import annotations

from repro.engines import comm_totals
from repro.engines.forkjoin import CATEGORIES
from repro.likelihood.backend import EventLog

__all__ = ["format_table1", "table1_rows"]

_MB = 1024.0 * 1024.0


def table1_rows(log: EventLog) -> dict[str, float]:
    """Table I quantities for one fork-join run: per-category percentages,
    region count and total MB."""
    totals = comm_totals(log, "forkjoin")
    grand = sum(totals.nbytes.values())
    rows = {
        f"{cat} [%]": (100.0 * nbytes / grand if grand else 0.0)
        for cat, nbytes in totals.nbytes.items()
    }
    rows["# parallel regions"] = float(totals.regions)
    rows["# bytes communicated (MB)"] = grand / _MB
    return rows


def format_table1(columns: dict[str, EventLog]) -> str:
    """Render Table I: one column per run configuration."""
    names = list(columns)
    data = {name: table1_rows(log) for name, log in columns.items()}
    row_labels = [f"{cat} [%]" for cat in CATEGORIES] + [
        "# parallel regions", "# bytes communicated (MB)"]
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
