"""Live observability: span tracing, metrics, trace export, reconciliation.

The analytic layers (:mod:`repro.perf`, the engines' region events) *predict*
where time and bytes go; this subsystem *measures* it on real
multiprocess runs and closes the loop:

* :mod:`repro.obs.tracer` — per-rank span tracing with a ring buffer and
  a zero-cost null tracer;
* :mod:`repro.obs.instrument` — the :class:`TraceInterceptor` for
  :class:`~repro.par.comm.InterceptingComm` and the
  :class:`TracedExecutor`, which instrument any communicator and the
  lock-step worker kernel without touching semantics;
* :mod:`repro.obs.export` — per-rank JSONL streams, cross-rank merging,
  Chrome-trace/Perfetto JSON;
* :mod:`repro.obs.reconcile` — measured-vs-modeled byte reconciliation
  per Table-I category;
* :mod:`repro.obs.analyze` — wait-time attribution, critical-path and
  load-imbalance analysis over merged traces;
* :mod:`repro.obs.scaling` — the one traced-run loop behind ``repro
  profile``: each configuration launched once, its merged trace read as
  wait attribution, kernel hotspots and byte reconciliation;
* :mod:`repro.obs.heartbeat` — per-rank heartbeat side channel (status
  files rewritten by a background thread, decoupled from the
  collective path) plus the :class:`HeartbeatInterceptor`;
* :mod:`repro.obs.progress` — structured in-run progress events
  streamed as JSONL while the search executes;
* :mod:`repro.obs.monitor` — parent-side stall diagnosis (hung rank vs
  slow straggler vs global stall) and the ``repro watch`` table;
* :mod:`repro.obs.thresholds` — the monitor's and heartbeat's timing
  defaults, in a module that imports nothing (the CLI parser prints
  them without loading the monitor);
* :mod:`repro.obs.registry` — the persistent ``.repro_runs/`` run
  registry behind ``repro runs list|show|compare``;
* :mod:`repro.obs.context` — end-to-end trace context: the serve
  daemon mints a ``trace_id`` per submission, records scheduler spans
  under it, and propagates it into the job's per-rank tracers so one
  merged Chrome trace covers submit → queue → launch → iterations;
* :mod:`repro.obs.slo` — service-level analytics from registry
  manifests alone: queue-wait / turnaround percentiles, utilization and
  per-tenant fairness behind ``repro slo``, and the serve daemon's
  ``GET /metrics`` counters and histograms, read from the same stamps;
* :mod:`repro.obs.hotspots` — kernel-level compute observability: the
  per-op :class:`OpProfiler` (wall time, invocations, work units and
  CLV memory per kernel op × partition), analytic FLOP/byte accounting
  and roofline placement, read by ``repro profile``;
* :mod:`repro.obs.nullprofiler` — the disabled profiler every likelihood
  holds by default, in a module of its own that imports nothing.

See ``docs/OBSERVABILITY.md`` for the workflow, and ``repro profile`` on
the CLI for the one-command version.
"""

import importlib

#: submodule -> the names it contributes to the package namespace.  They are
#: resolved on first access (PEP 562), so importing one submodule — `infer`
#: needs the trace context and the null profiler — does not import the
#: analysis and reporting half, nor what that pulls in (`repro.perf`,
#: `repro.engines`).  The function `reconcile` is not among them: the name
#: is its submodule's, which the import system binds here whenever anything
#: imports that — call `repro.obs.reconcile.reconcile`.
_EXPORTS = {
    "analyze": (
        "CriticalPath", "CriticalPathStep", "RankBreakdown",
        "TraceAnalysis", "analyze_trace", "attribute_wait", "critical_path",
        "load_imbalance", "match_collectives",
    ),
    "context": (
        "current_trace_id", "new_trace_id", "record_service_spans",
        "service_instant", "service_span",
    ),
    "export": (
        "chrome_trace", "merge_job_trace", "merge_rank_streams",
        "rank_trace_path", "read_jsonl", "write_chrome_trace",
        "write_jsonl",
    ),
    "heartbeat": (
        "DEFAULT_BEAT_INTERVAL", "HeartbeatInterceptor", "HeartbeatState",
        "HeartbeatWriter", "heartbeat_path", "read_heartbeat",
        "read_heartbeats",
    ),
    "hotspots": (
        "CLV_MEMORY_SPAN", "CLV_RATIO_MAX", "CLV_RATIO_MIN",
        "KERNEL_OP_SPAN", "NULL_OP_PROFILER", "HotspotReport",
        "NullOpProfiler", "OpProfiler", "OpStat", "build_hotspot_report",
        "emit_kernel_profile",
    ),
    "instrument": (
        "TraceInterceptor", "TracedExecutor",
    ),
    "monitor": (
        "DEFAULT_BEAT_TIMEOUT", "DEFAULT_STALL_AFTER",
        "DEFAULT_STRAGGLER_AFTER", "Diagnosis", "Monitor", "MonitorThread",
        "RankHealth", "diagnose", "format_watch_table", "watch_loop",
    ),
    "progress": (
        "NULL_PROGRESS", "NullProgress", "ProgressReporter",
        "ProgressStream", "progress_path", "read_progress",
        "read_progress_since",
    ),
    "reconcile": (
        "DECENTRALIZED_REL_TOL", "FORKJOIN_REL_TOL", "CategoryDelta",
        "ReconcileReport", "reconcile_live_run",
    ),
    "registry": (
        "RunRegistry", "compare_runs", "format_compare_table", "runs_root",
    ),
    "scaling": (
        "ScalePoint", "ScalingResult", "run_scaling",
    ),
    "slo": (
        "JobStats", "SloReport", "collect_job_stats", "compute_slo",
        "percentile",
    ),
    "tracer": (
        "NULL_TRACER", "NullTracer", "Span", "Tracer",
    ),
}

_SUBMODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SUBMODULE_OF)


def __getattr__(name: str):
    module = _SUBMODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
