"""Instrumentation: spans + counters without semantic changes.

:class:`TraceInterceptor` is the :class:`~repro.par.comm.Interceptor`
that emits one span per collective — carrying the Table-I ``tag`` as its
category and the payload size in bytes — plus counters in a
:class:`~repro.obs.metrics.MetricsRegistry`.  Delivery order, reduction
order and fault behaviour are untouched: it only brackets the call, so
rank-ordered determinism (and therefore replica consistency) is
preserved.

Failure semantics: a :class:`~repro.errors.RankFailureError` unwinding a
collective closes the open span with ``error=True`` and bumps the
``comm.failures.detected`` counter.  The ULFM-style recovery verbs
(``agree``, ``shrink``) appear as explicit ``recovery`` spans, so a
merged trace shows the full detect → agree → shrink timeline.

:class:`TracedExecutor` is the instrumented lock-step worker kernel: the
same tree-agnostic :class:`~repro.engines.executor.DescriptorExecutor`,
but every descriptor execution, evaluation, sumtable build and derivative
batch is timed and counted (``kernel.ops.*``).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.engines.executor import DescriptorExecutor
from repro.errors import RankFailureError
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import KIND_COMM, KIND_KERNEL, KIND_RECOVERY, Tracer
from repro.par.comm import Comm, CommCall, Interceptor, payload_nbytes

__all__ = ["TraceInterceptor", "TracedExecutor"]


class TraceInterceptor(Interceptor):
    """Span- and counter-emitting interceptor.

    Shrink rule: the interceptor rides on with the same tracer and
    metrics — the observability story continues across the failure.
    """

    def __init__(self, tracer: Tracer,
                 metrics: MetricsRegistry | None = None) -> None:
        self.tracer = tracer
        self.metrics = metrics

    def call(self, base: Comm, c: CommCall, proceed: Callable[[], Any]) -> Any:
        """Run the call under a span; count calls/bytes per collective
        and per tag.  ``nbytes`` is the payload this rank contributes, or
        — for pure receives (non-root bcast/scatter, recv) — the payload
        it obtains."""
        nbytes = payload_nbytes(c.obj)
        with self.tracer.span(c.verb, kind=KIND_COMM, category=c.tag,
                              nbytes=nbytes) as span:
            try:
                result = proceed()
            except RankFailureError:
                if self.metrics is not None:
                    self.metrics.counter("comm.failures.detected").inc()
                raise
            if nbytes == 0 and result is not None:
                nbytes = payload_nbytes(result)
                if span is not None:
                    span.nbytes = nbytes
        if self.metrics is not None:
            m = self.metrics
            m.counter(f"comm.calls.{c.verb}").inc()
            m.counter(f"comm.bytes.{c.verb}").inc(nbytes)
            m.counter(f"comm.calls.tag.{c.tag}").inc()
            m.counter(f"comm.bytes.tag.{c.tag}").inc(nbytes)
            m.histogram(f"comm.payload_nbytes.{c.verb}").observe(nbytes)
        return result

    def agree(self, base: Comm, failed, proceed):
        with self.tracer.span("agree", kind=KIND_RECOVERY,
                              suspected=sorted(int(r) for r in failed)) as s:
            agreed = proceed()
            if s is not None:
                s.attrs["agreed"] = sorted(agreed)
        if self.metrics is not None:
            self.metrics.counter("recovery.agree_rounds").inc()
        return agreed

    def shrink(self, base: Comm, failed, proceed):
        with self.tracer.span("shrink", kind=KIND_RECOVERY,
                              failed_world=list(base.world_ranks(failed))) as s:
            shrunk = proceed()
            if s is not None:
                s.attrs["new_size"] = shrunk.size
                s.attrs["new_rank"] = shrunk.rank
        if self.metrics is not None:
            self.metrics.counter("recovery.shrinks").inc()
            self.metrics.gauge("comm.size").set(shrunk.size)
        return shrunk


class TracedExecutor(DescriptorExecutor):
    """Lock-step worker kernel with kernel-op spans and counters.

    ``profiler`` (an :class:`~repro.obs.hotspots.OpProfiler`) adds per-op
    wall-time/FLOP accounting inside the batch spans; omitted, the
    inherited null profiler keeps the per-op hooks free.
    """

    def __init__(self, parts, node_taxon, tracer: Tracer,
                 metrics: MetricsRegistry | None = None,
                 profiler=None) -> None:
        super().__init__(parts, node_taxon)
        self.tracer = tracer
        self.metrics = metrics
        # the executor runs kernels only for shares with local patterns
        self._n_computed = sum(part.n_patterns > 0 for part in parts)
        if profiler is not None:
            self.profiler = profiler

    def _count(self, name: str, amount: float) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(amount)

    def _on_evict(self, count: int, nbytes: int) -> None:
        """Surface CLV evictions (cache-reuse baseline signal)."""
        if self.metrics is not None:
            self.metrics.counter("clv.evictions").inc(count)
            # cumulative bytes freed so far (gauge: merge keeps the max)
            self.metrics.gauge("clv.freed_bytes").set(
                float(sum(stack.evicted_bytes for stack in self.stacks)))
        self.tracer.instant("clv_evict", kind=KIND_KERNEL,
                            count=count, nbytes=nbytes)

    def run_ops(self, wire: list[tuple]) -> None:
        n_ops = len(wire)
        with self.tracer.span("run_ops", kind=KIND_KERNEL, n_ops=n_ops):
            super().run_ops(wire)
        self._count("kernel.ops.newview", n_ops * self._n_computed)
        self._count("kernel.calls.run_ops", 1)

    def evaluate(self, u_id: int, v_id: int, t_root):
        with self.tracer.span("evaluate", kind=KIND_KERNEL):
            result = super().evaluate(u_id, v_id, t_root)
        self._count("kernel.ops.evaluate", self._n_computed)
        return result

    def sumtables(self, u_id: int, v_id: int):
        with self.tracer.span("sumtables", kind=KIND_KERNEL):
            result = super().sumtables(u_id, v_id)
        self._count("kernel.ops.sumtable", self._n_computed)
        return result

    def derivatives(self, tables, t, n_branch_sets: int):
        with self.tracer.span("derivatives", kind=KIND_KERNEL):
            result = super().derivatives(tables, t, n_branch_sets)
        self._count("kernel.ops.derivative", self._n_computed)
        return result
