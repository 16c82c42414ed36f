"""Instrumentation wrappers: spans + counters without semantic changes.

:class:`TracingComm` wraps any :class:`~repro.par.comm.Comm`
(:class:`~repro.par.seqcomm.SequentialComm`,
:class:`~repro.par.mpcomm.MPComm`,
:class:`~repro.par.faultcomm.FaultInjectingComm`, …) and emits one span
per collective — carrying the Table-I ``tag`` as its category and the
payload size in bytes — plus counters in a
:class:`~repro.obs.metrics.MetricsRegistry`.  Delivery order, reduction
order and fault behaviour are untouched: every call delegates 1:1 to the
wrapped communicator, so rank-ordered determinism (and therefore replica
consistency) is preserved.

Failure semantics: a :class:`~repro.errors.RankFailureError` unwinding a
collective closes the open span with ``error=True`` and bumps the
``comm.failures.detected`` counter.  The ULFM-style recovery verbs
(:meth:`agree`, :meth:`shrink`) appear as explicit ``recovery`` spans, so
a merged trace shows the full detect → agree → shrink timeline.

:class:`TracedExecutor` is the instrumented lock-step worker kernel: the
same tree-agnostic :class:`~repro.engines.executor.DescriptorExecutor`,
but every descriptor execution, evaluation, sumtable build and derivative
batch is timed and counted (``kernel.ops.*``).
"""

from __future__ import annotations

from typing import Any

from repro.engines.executor import DescriptorExecutor
from repro.errors import RankFailureError
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import KIND_COMM, KIND_KERNEL, KIND_RECOVERY, Tracer
from repro.par.comm import Comm, ReduceOp, payload_nbytes

__all__ = ["TracingComm", "TracedExecutor"]


class TracingComm(Comm):
    """Span- and counter-emitting wrapper around any communicator."""

    def __init__(
        self,
        inner: Comm,
        tracer: Tracer,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.inner = inner
        self.tracer = tracer
        self.metrics = metrics

    # -- delegation -------------------------------------------------------- #
    @property
    def rank(self) -> int:
        return self.inner.rank

    @property
    def size(self) -> int:
        return self.inner.size

    @property
    def bytes_by_tag(self):
        return self.inner.bytes_by_tag

    @property
    def calls_by_tag(self):
        return self.inner.calls_by_tag

    def world_rank(self, rank: int) -> int:
        return self.inner.world_rank(rank)

    def world_ranks(self, ranks) -> tuple[int, ...]:
        return self.inner.world_ranks(ranks)

    # -- traced collectives ------------------------------------------------ #
    def _traced(self, name: str, tag: str, obj: Any, call) -> Any:
        """Run ``call()`` under a span; count calls/bytes per collective
        and per tag.  ``nbytes`` is the payload this rank contributes, or
        — for pure receives (non-root bcast/scatter, recv) — the payload
        it obtains."""
        nbytes = payload_nbytes(obj)
        with self.tracer.span(name, kind=KIND_COMM, category=tag,
                              nbytes=nbytes) as span:
            try:
                result = call()
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
            m.counter(f"comm.calls.{name}").inc()
            m.counter(f"comm.bytes.{name}").inc(nbytes)
            m.counter(f"comm.calls.tag.{tag}").inc()
            m.counter(f"comm.bytes.tag.{tag}").inc(nbytes)
            m.histogram(f"comm.payload_nbytes.{name}").observe(nbytes)
        return result

    def bcast(self, obj: Any, root: int = 0, tag: str = "generic") -> Any:
        return self._traced("bcast", tag, obj,
                            lambda: self.inner.bcast(obj, root, tag))

    def reduce(self, obj: Any, op: ReduceOp = ReduceOp.SUM, root: int = 0,
               tag: str = "generic") -> Any:
        return self._traced("reduce", tag, obj,
                            lambda: self.inner.reduce(obj, op, root, tag))

    def allreduce(self, obj: Any, op: ReduceOp = ReduceOp.SUM,
                  tag: str = "generic") -> Any:
        return self._traced("allreduce", tag, obj,
                            lambda: self.inner.allreduce(obj, op, tag))

    def barrier(self, tag: str = "generic") -> None:
        return self._traced("barrier", tag, None,
                            lambda: self.inner.barrier(tag))

    def gather(self, obj: Any, root: int = 0, tag: str = "generic"):
        return self._traced("gather", tag, obj,
                            lambda: self.inner.gather(obj, root, tag))

    def scatter(self, objs: list[Any] | None, root: int = 0,
                tag: str = "generic") -> Any:
        return self._traced("scatter", tag, objs,
                            lambda: self.inner.scatter(objs, root, tag))

    def send(self, obj: Any, dest: int, tag: str = "generic") -> None:
        return self._traced("send", tag, obj,
                            lambda: self.inner.send(obj, dest, tag))

    def recv(self, source: int, tag: str = "generic") -> Any:
        return self._traced("recv", tag, None,
                            lambda: self.inner.recv(source, tag))

    # -- recovery (explicit trace events) ---------------------------------- #
    def agree(self, failed) -> frozenset[int]:
        with self.tracer.span("agree", kind=KIND_RECOVERY,
                              suspected=sorted(int(r) for r in failed)) as s:
            agreed = self.inner.agree(failed)
            if s is not None:
                s.attrs["agreed"] = sorted(agreed)
        if self.metrics is not None:
            self.metrics.counter("recovery.agree_rounds").inc()
        return agreed

    def shrink(self, failed) -> "TracingComm":
        """Shrink the wrapped communicator; tracing (same tracer, same
        metrics — the observability story continues across the failure)
        survives on the renumbered communicator."""
        failed_world = self.inner.world_ranks(failed)
        with self.tracer.span("shrink", kind=KIND_RECOVERY,
                              failed_world=list(failed_world)) as s:
            shrunk = self.inner.shrink(failed)
            if s is not None:
                s.attrs["new_size"] = shrunk.size
                s.attrs["new_rank"] = shrunk.rank
        if self.metrics is not None:
            self.metrics.counter("recovery.shrinks").inc()
            self.metrics.gauge("comm.size").set(shrunk.size)
        return TracingComm(shrunk, self.tracer, self.metrics)


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
