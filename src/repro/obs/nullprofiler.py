"""The disabled kernel profiler.

Every likelihood and executor holds :data:`NULL_OP_PROFILER` unless a run
attaches an :class:`~repro.obs.hotspots.OpProfiler`.  It lives in a module
that imports nothing, so building a likelihood does not load the reporting
half of :mod:`repro.obs` (and, through it, :mod:`repro.perf` and
:mod:`repro.engines`) on the way.
"""

from __future__ import annotations

from typing import Any

__all__ = ["NullOpProfiler", "NULL_OP_PROFILER"]


class NullOpProfiler:
    """Profiling disabled: ``begin()`` reads no clock, ``end()`` and
    ``end_stack()`` are no-ops — the kernels keep their instrumentation
    unconditional."""

    enabled = False

    __slots__ = ()

    def begin(self) -> int:
        return 0

    def end_stack(self, t0: int, op: str, partitions: tuple[int, ...],
                  units: float, count: int = 1, alloc: int = 0,
                  n_states: int = 4, site_specific: bool = False) -> None:
        return None

    def end(self, t0: int, op: str, partition: int, units: float,
            count: int = 1, alloc: int = 0, n_states: int = 4,
            site_specific: bool = False) -> None:
        return None

    def records(self) -> list[dict[str, Any]]:
        return []

    def units(self, op: str, partition: int | None = None) -> float:
        return 0.0

    def invocations(self, op: str, partition: int | None = None) -> int:
        return 0

    def clear(self) -> None:
        return None

    def __len__(self) -> int:
        return 0


#: The shared disabled profiler (default on every executor/likelihood).
NULL_OP_PROFILER = NullOpProfiler()
