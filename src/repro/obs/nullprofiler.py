"""The disabled kernel profiler.

Every likelihood and executor holds :data:`NULL_OP_PROFILER` unless a run
attaches an :class:`~repro.obs.hotspots.OpProfiler`.  It lives in a module
that imports nothing, so building a likelihood does not load the reporting
half of :mod:`repro.obs` (and, through it, :mod:`repro.perf` and
:mod:`repro.engines`) on the way.  Its hook takes only what the kernel
call site already holds — the start stamp, the op, the stack and the rows
— so a disabled call computes nothing for it.
"""

from __future__ import annotations

__all__ = ["NullOpProfiler", "NULL_OP_PROFILER"]


class NullOpProfiler:
    """Profiling disabled: ``begin()`` reads no clock and ``end()`` is a
    no-op — the kernels keep their instrumentation unconditional."""

    enabled = False

    __slots__ = ()

    def begin(self) -> int:
        return 0

    def end(self, t0: int, op: str, stack: object,
            rows: list[int] | None = None, count: int = 1) -> None:
        return None


#: The shared disabled profiler (default on every executor/likelihood).
NULL_OP_PROFILER = NullOpProfiler()
