"""Model-predicted scaling curves for the measured-scaling harness.

``repro scale`` (:mod:`repro.obs.scaling`) measures speedup/efficiency
from live traced runs; this module produces the *analytic* counterpart
from the same search — the region log a live run kept, priced under
both engines on a reference machine — so the measured report can state
whether the paper's predicted ordering (de-centralized beats fork-join,
and by how much per rank count) holds empirically.

Absolute seconds are for the modeled cluster, not the test host; only
the *orderings* and *trends* (which engine is comm-heavier, how speedup
bends with rank count) are comparable with measurement, and that is what
:func:`predicted_ordering` extracts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.dist.distributions import auto_distribution
from repro.engines import ENGINES
from repro.likelihood.backend import EventLog
from repro.par.machine import HITS_CLUSTER, MachineSpec
from repro.perf.costmodel import WorkloadMeta
from repro.perf.runtime_sim import RuntimeReport, simulate_runtime

__all__ = [
    "PredictedScaling",
    "predict_scaling",
    "predicted_ordering",
]


@dataclass
class PredictedScaling:
    """Analytic runtimes for both engines across rank counts."""

    dist_kind: str
    machine: str
    #: engine → ranks → RuntimeReport
    reports: dict[str, dict[int, RuntimeReport]] = field(default_factory=dict)

    def total_s(self, engine: str, ranks: int) -> float:
        return self.reports[engine][ranks].total_s

    def speedup(self, engine: str, ranks: int) -> float:
        base = min(self.reports[engine])
        return (self.total_s(engine, base) * base
                / self.total_s(engine, ranks))

    def to_dict(self) -> dict[str, Any]:
        return {
            "dist": self.dist_kind,
            "machine": self.machine,
            "engines": {
                engine: {
                    str(n): {
                        "total_s": rep.total_s,
                        "compute_s": rep.compute_s,
                        "comm_s": rep.comm_s,
                        "speedup": self.speedup(engine, n),
                    }
                    for n, rep in sorted(per_ranks.items())
                }
                for engine, per_ranks in self.reports.items()
            },
        }


def predict_scaling(
    log: EventLog,
    meta: WorkloadMeta,
    dist_kind: str,
    ranks_list: list[int],
    machine: MachineSpec = HITS_CLUSTER,
) -> PredictedScaling:
    """Price the region ``log`` of one search of the workload ``meta``
    for both engines at every rank count under ``dist_kind``."""
    out = PredictedScaling(dist_kind=dist_kind, machine=machine.name)
    for engine in ENGINES:
        out.reports[engine] = {
            n: simulate_runtime(log, engine, meta, machine, auto_distribution(
                meta.cost_patterns, n, use_mps=(dist_kind == "mps")))
            for n in sorted(set(ranks_list))
        }
    return out


def predicted_ordering(pred: PredictedScaling) -> dict[str, Any]:
    """The model's machine-independent claims, for checking against
    measurement:

    * ``comm_heavier`` — per rank count, the engine the model predicts
      spends more time in collectives (the paper: fork-join, always);
    * ``faster`` — per rank count, the engine with the lower predicted
      total (ties go to ``decentralized``, the paper's winner).
    """
    engines = sorted(pred.reports)
    ranks = sorted(set.intersection(
        *(set(pred.reports[e]) for e in engines)
    ))
    comm_heavier: dict[str, str] = {}
    faster: dict[str, str] = {}
    for n in ranks:
        by_comm = max(engines, key=lambda e: pred.reports[e][n].comm_s)
        comm_heavier[str(n)] = by_comm
        best = min(engines,
                   key=lambda e: (pred.reports[e][n].total_s,
                                  e != "decentralized"))
        faster[str(n)] = best
    return {"comm_heavier": comm_heavier, "faster": faster}
