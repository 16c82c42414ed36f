"""The instrumented backend: runs the search for real, records the
parallel-region stream.

One recorded run stands for both engines because the paper's engines
execute the identical search — they differ only in what each region
communicates.  The :class:`RecordingBackend` therefore wraps a full-data
:class:`~repro.likelihood.partitioned.PartitionedLikelihood`, executes all
kernels exactly like the sequential reference (same numbers, same final
tree), and appends one :class:`~repro.engines.events.Region` per region
the backend closes.
"""

from __future__ import annotations

import numpy as np

from repro.engines.events import EventLog, Region, RegionKind
from repro.likelihood.backend import SequentialBackend
from repro.likelihood.partitioned import PartitionedLikelihood
from repro.tree.traversal import EdgeDescriptor

__all__ = ["RecordingBackend"]


def _ops_summary(descriptors: EdgeDescriptor) -> float | np.ndarray:
    lens = np.array(descriptors.op_counts(), dtype=np.float64)
    if np.all(lens == lens[0]):
        return float(lens[0])
    return lens


class RecordingBackend(SequentialBackend):
    """Sequential execution + region recording.

    The recorded :class:`EventLog` is consumed by
    :class:`~repro.engines.forkjoin.ForkJoinCommModel` and
    :class:`~repro.engines.decentral.DecentralizedCommModel` and by the
    runtime synthesizer in :mod:`repro.perf`.
    """

    def __init__(self, lik: PartitionedLikelihood, log: EventLog | None = None) -> None:
        super().__init__(lik)
        self.log = log if log is not None else EventLog()

    def _region(self, kind: RegionKind,
                descriptors: EdgeDescriptor | None = None) -> None:
        self.log.append(
            Region(
                kind=kind,
                n_partitions=self.lik.n_partitions,
                n_branch_sets=self.lik.n_branch_sets,
                newview_ops=0.0 if descriptors is None else _ops_summary(descriptors),
            )
        )
