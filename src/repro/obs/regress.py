"""Performance regression gating over ``BENCH_*.json`` records.

Every bench-producing command (``repro profile --bench-out``, live or
``--from-trace``) emits a JSON record whose ``metrics`` section is a
flat ``name → number`` dict of gateable quantities (wall seconds, wait
shares, imbalance indices).  The gate loads any number of *prior*
records of the same kind, takes the per-metric **median** across them
(medians shrug off one noisy baseline run), and fails when the current
value exceeds the median by more than a noise-tolerant threshold:

    regressed  ⇔  current > median · threshold  AND
                  current − median > abs_floor

Both guards matter on CI-sized runs: the relative threshold tolerates
machine-to-machine speed differences, the absolute floor keeps
microsecond-scale metrics from flapping the gate.

With fewer than ``min_baselines`` baselines the gate runs in
**report-only** mode (it prints the comparison but never fails) — so
the CI wiring can land before any history exists and the perf
trajectory starts accumulating from the first green build.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Any, Iterable

__all__ = [
    "DEFAULT_THRESHOLD",
    "DEFAULT_ABS_FLOOR",
    "DEFAULT_MIN_BASELINES",
    "GateRow",
    "GateReport",
    "bench_metrics",
    "load_baselines",
    "compare_to_baselines",
]

#: Current value may exceed the baseline median by 30 % before failing.
DEFAULT_THRESHOLD = 1.3
#: ... and must also be at least this much larger in absolute terms
#: (seconds for ``*_s`` metrics; shares/indices are already O(1)).
DEFAULT_ABS_FLOOR = 0.05
#: Below this many baselines the gate reports but never fails.
DEFAULT_MIN_BASELINES = 2


def bench_metrics(doc: dict[str, Any]) -> dict[str, float]:
    """Gateable metrics of one bench record.

    Prefers the record's explicit ``metrics`` section; falls back to
    flattening numeric leaves whose key ends in ``_s`` (wall/compute
    seconds) so pre-existing records like ``BENCH_obs_smoke.json``
    remain gateable without rewriting.
    """
    metrics = doc.get("metrics")
    if isinstance(metrics, dict) and metrics:
        return {
            k: float(v) for k, v in metrics.items()
            if isinstance(v, (int, float)) and not isinstance(v, bool)
        }
    out: dict[str, float] = {}

    def walk(node: Any, prefix: str) -> None:
        if isinstance(node, dict):
            for k, v in node.items():
                walk(v, f"{prefix}.{k}" if prefix else str(k))
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            if prefix.endswith("_s"):
                out[prefix] = float(node)

    walk(doc, "")
    return out


def load_baselines(paths: Iterable[str | Path]) -> list[dict[str, Any]]:
    """Read baseline records; unreadable/non-JSON files are skipped with
    a note in the returned docs' place (never a hard failure — a corrupt
    baseline must not block the build it is supposed to protect)."""
    docs: list[dict[str, Any]] = []
    for path in paths:
        try:
            docs.append(json.loads(Path(path).read_text()))
        except (OSError, json.JSONDecodeError):
            continue
    return docs


@dataclass(frozen=True)
class GateRow:
    """One metric's comparison against the baseline median."""

    metric: str
    current: float
    baseline_median: float | None
    n_baselines: int
    status: str  # ok | regressed | improved | new

    @property
    def ratio(self) -> float | None:
        if self.baseline_median in (None, 0.0):
            return None
        return self.current / self.baseline_median


@dataclass
class GateReport:
    """Outcome of gating one record against its baselines."""

    rows: list[GateRow]
    threshold: float
    abs_floor: float
    enforced: bool
    n_baselines: int
    #: Metrics present in baselines but missing from the current record
    #: (a silently vanished metric is suspicious, reported not fatal).
    missing: list[str] = field(default_factory=list)

    @property
    def regressions(self) -> list[GateRow]:
        return [r for r in self.rows if r.status == "regressed"]

    @property
    def failed(self) -> bool:
        return self.enforced and bool(self.regressions)

    @property
    def exit_code(self) -> int:
        return 1 if self.failed else 0

    def format_table(self) -> str:
        header = (f"{'metric':<48}{'current':>12}{'median':>12}"
                  f"{'ratio':>8}  status")
        lines = [
            f"regression gate — {self.n_baselines} baseline(s), "
            f"threshold ×{self.threshold:g}, floor {self.abs_floor:g}"
            + ("" if self.enforced
               else "  [report-only: not enough baselines]"),
            header, "-" * len(header),
        ]
        for row in sorted(self.rows, key=lambda r: r.metric):
            med = ("-" if row.baseline_median is None
                   else f"{row.baseline_median:.4g}")
            ratio = "-" if row.ratio is None else f"{row.ratio:.3f}"
            lines.append(
                f"{row.metric:<48}{row.current:>12.4g}{med:>12}"
                f"{ratio:>8}  {row.status}"
            )
        for name in self.missing:
            lines.append(f"{name:<48}{'(missing from current record)':>34}")
        lines.append("-" * len(header))
        verdict = ("FAIL" if self.failed else
                   ("regressions (report-only)" if self.regressions
                    else "OK"))
        lines.append(f"{len(self.regressions)} regression(s) -> {verdict}")
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        return {
            "threshold": self.threshold,
            "abs_floor": self.abs_floor,
            "enforced": self.enforced,
            "n_baselines": self.n_baselines,
            "failed": self.failed,
            "missing": list(self.missing),
            "rows": [
                {
                    "metric": r.metric,
                    "current": r.current,
                    "baseline_median": r.baseline_median,
                    "ratio": r.ratio,
                    "status": r.status,
                }
                for r in self.rows
            ],
        }


def compare_to_baselines(
    current: dict[str, Any],
    baselines: list[dict[str, Any]],
    threshold: float = DEFAULT_THRESHOLD,
    abs_floor: float = DEFAULT_ABS_FLOOR,
    min_baselines: int = DEFAULT_MIN_BASELINES,
) -> GateReport:
    """Gate ``current`` against the per-metric medians of ``baselines``.

    Metrics are higher-is-worse (seconds, wait shares, imbalance — the
    convention of every ``metrics`` section this repo emits).  A metric
    new in the current record passes as ``new``; one that disappeared is
    listed under ``missing``.
    """
    cur = bench_metrics(current)
    base = [bench_metrics(doc) for doc in baselines]
    enforced = len(base) >= min_baselines
    rows: list[GateRow] = []
    for name, value in sorted(cur.items()):
        history = [b[name] for b in base if name in b]
        if not history:
            rows.append(GateRow(name, value, None, 0, "new"))
            continue
        med = float(median(history))
        if value > med * threshold and value - med > abs_floor:
            status = "regressed"
        elif value < med / threshold and med - value > abs_floor:
            status = "improved"
        else:
            status = "ok"
        rows.append(GateRow(name, value, med, len(history), status))
    seen = set(cur)
    missing = sorted({name for b in base for name in b} - seen)
    return GateReport(
        rows=rows,
        threshold=threshold,
        abs_floor=abs_floor,
        enforced=enforced,
        n_baselines=len(base),
        missing=missing,
    )
