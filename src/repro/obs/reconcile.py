"""Model-vs-measured reconciliation: the repro's first empirical check of
the paper's Table-I mechanism.

Each engine's ``region_events`` (:data:`repro.engines.ENGINES`)
*predicts* the bytes and collective calls it moves per Table-I
category; a live multiprocess run *measures* them
(``Comm.bytes_by_tag``, fed by the same
:func:`~repro.par.comm.payload_nbytes` used for wire accounting).  The
rank that measured also counted the parallel regions it ran
(``DistributedResult.log``), so this module prices *that* region log
(:func:`repro.perf.price.comm_totals`) and compares per category: two
columns of one run, with no second search.

What "matching" means, per engine:

* **de-centralized** — every collective is an allreduce of a flat float64
  array whose size the model knows exactly (``8p`` likelihood doubles,
  ``16·sets`` derivative doubles).  Measured on a **non-root** rank, the
  byte totals must match the model *exactly*: :class:`~repro.par.mpcomm.MPComm`
  composes ``allreduce = reduce + bcast`` and only the root additionally
  accounts the broadcast result, so a non-root rank accounts precisely one
  contributed payload per allreduce — the model's convention.
* **fork-join** — descriptors travel as framed Python tuples, so the wire
  carries per-op framing the idealized model does not price; category
  totals agree within a small constant factor (the documented tolerance,
  default 4×) and the dominant category must agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.perf.price import comm_totals

__all__ = [
    "CategoryDelta",
    "ReconcileReport",
    "reconcile",
    "reconcile_live_run",
    "DECENTRALIZED_REL_TOL",
    "FORKJOIN_REL_TOL",
    "REL_TOL",
]

#: Non-root decentralized payloads are exact (see module docstring); the
#: tiny epsilon only guards float accumulation in the model totals.
DECENTRALIZED_REL_TOL = 1.0e-9
#: Fork-join wire framing vs. idealized descriptor bytes: within 4×.
FORKJOIN_REL_TOL = 3.0
#: Engine name -> its documented tolerance.
REL_TOL = {"decentralized": DECENTRALIZED_REL_TOL, "forkjoin": FORKJOIN_REL_TOL}


@dataclass(frozen=True)
class CategoryDelta:
    """Measured vs. modeled bytes (and collective calls) for one category."""

    category: str
    measured: float
    modeled: float
    measured_calls: int | None = None
    modeled_calls: int | None = None

    @property
    def delta(self) -> float:
        return self.measured - self.modeled

    @property
    def ratio(self) -> float:
        if self.modeled == 0.0:
            return float("inf") if self.measured else 1.0
        return self.measured / self.modeled

    @property
    def rel_error(self) -> float:
        if self.modeled == 0.0:
            return float("inf") if self.measured else 0.0
        return abs(self.delta) / self.modeled

    def within(self, rel_tol: float, abs_tol: float = 0.0) -> bool:
        return abs(self.delta) <= max(abs_tol, rel_tol * self.modeled)


@dataclass
class ReconcileReport:
    """Per-category comparison of a live run against the analytic model."""

    engine: str
    rows: list[CategoryDelta]
    #: Measured tags the model has no category for (e.g. the fork-join
    #: ``control`` STOP broadcast) — reported, never silently dropped.
    unmodeled: dict[str, float] = field(default_factory=dict)
    #: Which rank's measurement this is (non-root for decentralized).
    measured_rank: int | None = None

    @property
    def measured_total(self) -> float:
        return sum(r.measured for r in self.rows)

    @property
    def modeled_total(self) -> float:
        return sum(r.modeled for r in self.rows)

    @property
    def worst_rel_error(self) -> float:
        active = [r.rel_error for r in self.rows if r.modeled or r.measured]
        return max(active) if active else 0.0

    def within(self, rel_tol: float, abs_tol: float = 0.0) -> bool:
        """True when every modeled category matches within tolerance."""
        return all(r.within(rel_tol, abs_tol) for r in self.rows)

    def format_table(self) -> str:
        header = (
            f"{'category':<42}{'measured B':>14}{'modeled B':>14}"
            f"{'delta B':>12}{'ratio':>8}"
        )
        lines = [f"reconciliation — {self.engine}"
                 + (f" (rank {self.measured_rank})"
                    if self.measured_rank is not None else ""),
                 header, "-" * len(header)]
        for row in self.rows:
            ratio = f"{row.ratio:.3f}" if np.isfinite(row.ratio) else "inf"
            lines.append(
                f"{row.category:<42}{row.measured:>14.0f}{row.modeled:>14.0f}"
                f"{row.delta:>12.0f}{ratio:>8}"
            )
        lines.append("-" * len(header))
        lines.append(
            f"{'total':<42}{self.measured_total:>14.0f}"
            f"{self.modeled_total:>14.0f}"
            f"{self.measured_total - self.modeled_total:>12.0f}"
        )
        for tag, nbytes in sorted(self.unmodeled.items()):
            lines.append(f"  (unmodeled tag {tag!r}: {nbytes:.0f} B)")
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        return {
            "engine": self.engine,
            "measured_rank": self.measured_rank,
            "rows": [
                {
                    "category": r.category,
                    "measured": r.measured,
                    "modeled": r.modeled,
                    "delta": r.delta,
                    "ratio": r.ratio if np.isfinite(r.ratio) else None,
                    "measured_calls": r.measured_calls,
                    "modeled_calls": r.modeled_calls,
                }
                for r in self.rows
            ],
            "unmodeled": dict(self.unmodeled),
            "measured_total": self.measured_total,
            "modeled_total": self.modeled_total,
            "worst_rel_error": (
                self.worst_rel_error
                if np.isfinite(self.worst_rel_error) else None
            ),
        }


def reconcile(
    measured_bytes_by_tag: dict[str, float],
    modeled_totals: dict[str, float],
    engine: str,
    measured_calls_by_tag: dict[str, int] | None = None,
    modeled_calls: dict[str, int] | None = None,
    measured_rank: int | None = None,
) -> ReconcileReport:
    """Build a per-category report from measured and modeled totals.

    Row set = the model's category vocabulary; measured tags outside it
    land in ``report.unmodeled``.
    """
    rows = []
    for cat in sorted(modeled_totals):
        rows.append(
            CategoryDelta(
                category=cat,
                measured=float(measured_bytes_by_tag.get(cat, 0.0)),
                modeled=float(modeled_totals[cat]),
                measured_calls=(
                    int(measured_calls_by_tag.get(cat, 0))
                    if measured_calls_by_tag is not None else None
                ),
                modeled_calls=(
                    int(modeled_calls.get(cat, 0))
                    if modeled_calls is not None else None
                ),
            )
        )
    unmodeled = {
        tag: float(nbytes)
        for tag, nbytes in measured_bytes_by_tag.items()
        if tag not in modeled_totals and nbytes
    }
    return ReconcileReport(engine=engine, rows=rows, unmodeled=unmodeled,
                           measured_rank=measured_rank)


def reconcile_live_run(
    engine: str,
    result,
    measured_rank: int | None = None,
) -> ReconcileReport:
    """Reconcile one rank's result of a live ``engine`` run (a
    :class:`~repro.engines.launch.DistributedResult`): its own region log
    priced under ``engine``, against the bytes and collective calls the
    same rank measured."""
    modeled = comm_totals(result.log, engine)
    return reconcile(
        result.bytes_by_tag,
        modeled.nbytes,
        engine,
        measured_calls_by_tag=result.calls_by_tag,
        modeled_calls=modeled.calls,
        measured_rank=measured_rank,
    )
