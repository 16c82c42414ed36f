"""Instrumentation: spans without semantic changes.

:class:`TraceInterceptor` is the :class:`~repro.par.comm.Interceptor`
that emits one span per collective, carrying the Table-I ``tag`` as its
category and the payload size in bytes.  Delivery order, reduction order
and fault behaviour are untouched: it only brackets the call, so
rank-ordered determinism (and therefore replica consistency) is
preserved.

Failure semantics: a :class:`~repro.errors.RankFailureError` unwinding a
collective closes the open span with ``error=True``.  The ULFM-style
recovery verbs (``agree``, ``shrink``) appear as explicit ``recovery``
spans, so a merged trace shows the full detect → agree → shrink
timeline.

:class:`TracedExecutor` is the instrumented lock-step worker kernel: the
same tree-agnostic :class:`~repro.engines.executor.DescriptorExecutor`,
but every descriptor execution, evaluation, sumtable build and derivative
batch runs under a ``kernel`` span.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.engines.executor import DescriptorExecutor
from repro.obs.tracer import KIND_COMM, KIND_KERNEL, KIND_RECOVERY, Tracer
from repro.par.comm import Comm, CommCall, Interceptor, payload_nbytes

__all__ = ["TraceInterceptor", "TracedExecutor"]


class TraceInterceptor(Interceptor):
    """Span-emitting interceptor.

    Shrink rule: the interceptor rides on with the same tracer — the
    trace continues across the failure.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer

    def call(self, base: Comm, c: CommCall, proceed: Callable[[], Any]) -> Any:
        """Run the call under a span.  ``nbytes`` is the payload this
        rank contributes, or — for pure receives (non-root
        bcast/scatter, recv) — the payload it obtains."""
        nbytes = payload_nbytes(c.obj)
        with self.tracer.span(c.verb, kind=KIND_COMM, category=c.tag,
                              nbytes=nbytes) as span:
            result = proceed()
            if nbytes == 0 and result is not None and span is not None:
                span.nbytes = payload_nbytes(result)
        return result

    def agree(self, base: Comm, failed, proceed):
        with self.tracer.span("agree", kind=KIND_RECOVERY,
                              suspected=sorted(int(r) for r in failed)) as s:
            agreed = proceed()
            if s is not None:
                s.attrs["agreed"] = sorted(agreed)
        return agreed

    def shrink(self, base: Comm, failed, proceed):
        with self.tracer.span("shrink", kind=KIND_RECOVERY,
                              failed_world=list(base.world_ranks(failed))) as s:
            shrunk = proceed()
            if s is not None:
                s.attrs["new_size"] = shrunk.size
                s.attrs["new_rank"] = shrunk.rank
        return shrunk


class TracedExecutor(DescriptorExecutor):
    """Lock-step worker kernel with kernel-op spans.

    ``profiler`` (an :class:`~repro.obs.hotspots.OpProfiler`) adds per-op
    wall-time/FLOP accounting inside the batch spans; omitted, the
    inherited null profiler keeps the per-op hooks free.
    """

    def __init__(self, parts, node_taxon, tracer: Tracer,
                 profiler=None) -> None:
        super().__init__(parts, node_taxon)
        self.tracer = tracer
        if profiler is not None:
            self.profiler = profiler

    def run_ops(self, wire: list[tuple]) -> None:
        with self.tracer.span("run_ops", kind=KIND_KERNEL, n_ops=len(wire)):
            super().run_ops(wire)

    def evaluate(self, u_id: int, v_id: int, t_root):
        with self.tracer.span("evaluate", kind=KIND_KERNEL):
            return super().evaluate(u_id, v_id, t_root)

    def sumtables(self, u_id: int, v_id: int):
        with self.tracer.span("sumtables", kind=KIND_KERNEL):
            return super().sumtables(u_id, v_id)

    def derivatives(self, tables, t, n_branch_sets: int):
        with self.tracer.span("derivatives", kind=KIND_KERNEL):
            return super().derivatives(tables, t, n_branch_sets)
