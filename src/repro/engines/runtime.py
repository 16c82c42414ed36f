"""The per-rank runtime: everything a rank carries besides the search.

One :class:`RankRuntime` per rank owns the tracer and op profiler
(``trace_dir``), the heartbeat writer and progress reporter
(``monitor_dir``) and the cooperative-cancel poll (``cancellable``) of a
:class:`~repro.engines.launch.RunConfig`, with one life cycle — open,
attach, close — used identically by both engines.  A default-constructed
runtime is the disabled one: null tracer, null progress, nothing to flush.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.engines.cancel import cancel_requested, install_sigterm_flag, make_agree_stop
from repro.obs.progress import NULL_PROGRESS
from repro.obs.tracer import DEFAULT_CAPACITY, NULL_TRACER, Tracer
from repro.par.comm import Comm, InterceptingComm, Interceptor

if TYPE_CHECKING:
    from repro.engines.launch import RunConfig

__all__ = ["RankRuntime"]


class RankRuntime:
    """Observability and control attachments of one rank (see module doc)."""

    def __init__(self, cfg: RunConfig | None = None, world_rank: int = 0) -> None:
        self.cfg = cfg
        #: original world rank: names the trace and heartbeat files, so
        #: shrinks don't collide names
        self.world_rank = world_rank
        self.tracer: Any = NULL_TRACER
        self.profiler: Any = None
        self.progress: Any = NULL_PROGRESS
        self._heartbeat: Any = None
        #: the rank's CLV owner (a likelihood, or a worker's executor),
        #: whose memory accounting joins the kernel profile at close
        self.clv_source: Any = None
        #: set by :meth:`close`
        self.trace_path: str | None = None

    def open(self, comm: Comm) -> Comm:
        """Build the configured attachments; return the communicator to use.

        Interceptor order, outermost first, is contract:

        * **trace** outermost, so a span times the whole checked call as
          one unit;
        * **fault** before **heartbeat**: an injected hang then fires
          before the heartbeat state records the call, so the hung rank
          observably never *entered* call ``K`` while its peers freeze
          *inside* ``K`` — the asymmetry
          :func:`repro.obs.monitor.diagnose` keys on;
        * **sanitize** innermost: its control rounds go straight to the
          base communicator, so the injector counts application
          collectives only and the heartbeat call numbering stays aligned
          with the injector's.
        """
        cfg = self.cfg
        interceptors: list[Interceptor] = []
        # Each attachment is imported only by a rank that enables it: an
        # unused subsystem would cost every rank its pages (the sanitizer
        # alone maps OpenSSL's libcrypto).
        if cfg.cancellable:
            # child-rank half of cooperative cancellation: SIGTERM sets a flag
            install_sigterm_flag()
        if cfg.trace_dir:
            from repro.obs.hotspots import OpProfiler
            from repro.obs.instrument import TraceInterceptor

            # The launch's trace_id (an end-to-end lifecycle identity
            # minted by e.g. the serve daemon) rides on the tracer so the
            # flushed stream merges with the daemon's service spans.
            self.tracer = Tracer(self.world_rank,
                                 cfg.trace_capacity or DEFAULT_CAPACITY,
                                 cfg.trace_id)
            self.profiler = OpProfiler()
            interceptors.append(TraceInterceptor(self.tracer))
        if cfg.fault_plan is not None and comm.size > 1:
            from repro.par.faultcomm import FaultInjector

            interceptors.append(FaultInjector(cfg.fault_plan, self.world_rank))
        if cfg.monitor_dir:
            from repro.obs.heartbeat import (
                DEFAULT_BEAT_INTERVAL,
                HeartbeatInterceptor,
                HeartbeatState,
                HeartbeatWriter,
            )
            from repro.obs.progress import ProgressReporter, ProgressStream, progress_path

            state = HeartbeatState(self.world_rank)
            self.progress = ProgressReporter(state, ProgressStream(
                progress_path(cfg.monitor_dir, self.world_rank),
                self.world_rank))
            self._heartbeat = HeartbeatWriter(
                cfg.monitor_dir, state,
                interval=cfg.beat_interval or DEFAULT_BEAT_INTERVAL,
            ).start()
            interceptors.append(HeartbeatInterceptor(state))
        if cfg.sanitize and comm.size > 1:
            from repro.par.sanitize import ReplicaSanitizer

            interceptors.append(ReplicaSanitizer())
        # no instrumentation, no wrapper: the benchmarked path
        return InterceptingComm(comm, interceptors) if interceptors else comm

    def attach(self, backend: Any) -> None:
        """Hang this runtime on a search backend.

        The search layer reads ``tracer``/``progress``/``agree_stop`` off
        the backend; ``backend.runtime`` is what in-run recovery carries
        over to the backend it rebuilds.  (A fork-join worker has no
        backend: it is handed the runtime itself.)
        """
        backend.runtime = self
        self.clv_source = backend.lik
        backend.tracer = self.tracer
        backend.progress = self.progress
        if self.profiler is not None:
            backend.lik.profiler = self.profiler
        if self.cfg is not None and self.cfg.cancellable:
            # Decentralized backends agree on the stop collectively (every
            # replica polls the same ``allreduce(MAX)`` site, so skewed
            # signal delivery cannot desynchronize the collective
            # sequence); the fork-join master decides locally — its
            # workers are command-driven and stop when it broadcasts the
            # normal end-of-search STOP.
            backend.agree_stop = (
                make_agree_stop(lambda: backend.comm)
                if self.cfg.engine == "decentralized" else cancel_requested)

    @property
    def progress_path(self) -> str | None:
        stream = self.progress.stream
        return str(stream.path) if stream is not None else None

    def close(self, ok: bool) -> None:
        """Emit the kernel profile → flush the trace → end telemetry, in
        that order, so the stream on disk holds the profile.  Must run in
        a ``finally``: a :class:`~repro.errors.RankFailureError` unwinding
        a collective must still leave this rank's trace (with the
        error-flagged span) on disk."""
        if self.tracer.enabled:
            from repro.obs.hotspots import emit_kernel_profile

            emit_kernel_profile(self.profiler, self.tracer,
                                clv_sources=(self.clv_source,))
            self.trace_path = self._flush_trace()
        if self._heartbeat is not None:
            # terminal phase tells the monitor (and `repro watch`) whether
            # the rank finished or unwound on an error
            final = "done" if ok else "failed"
            self.progress.event("run_end", ok=ok)
            self.progress.close(final_phase=final)
            self._heartbeat.stop(final_phase=final)

    def _flush_trace(self) -> str:
        """Write this rank's span stream to ``trace_dir``.

        A ring-buffer overflow is recorded *in the stream itself* as a
        trailing ``trace_truncated`` meta record, so any later analysis of
        the merged trace can warn that this rank's early spans are missing
        instead of silently under-attributing its time."""
        from repro.obs.export import rank_trace_path, span_to_dict, write_jsonl

        tracer = self.tracer
        records = [span_to_dict(s) for s in tracer.spans()]
        if tracer.dropped:
            t_ns = records[-1]["t1_ns"] if records else 0
            records.append({
                "name": "trace_truncated", "kind": "meta",
                "rank": self.world_rank, "t0_ns": t_ns, "t1_ns": t_ns,
                "attrs": {"dropped_spans": int(tracer.dropped)},
            })
        if tracer.trace_id:
            for record in records:
                record["trace_id"] = tracer.trace_id
        path = rank_trace_path(self.cfg.trace_dir, self.world_rank)
        write_jsonl(records, path)
        return str(path)
