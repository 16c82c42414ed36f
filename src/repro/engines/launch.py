"""Launchers for genuinely distributed runs over the multiprocessing comm.

These run the full hill-climbing search under either scheme on ``n``
forked OS processes and return per-rank results — the executable proof
that both engines implement the identical algorithm: the consistency
tests assert that

* every decentralized replica finishes with the *same* tree and
  likelihood (the paper's Section III-B requirement), and
* both engines reproduce the sequential reference (bitwise per partition
  under MPS, where a partition's likelihood is one rank's value plus exact
  zeros; up to the rounding of summing pattern shares, ~1e-10, under
  cyclic).

Both launchers can inject rank failures (``fault_plan``) to exercise the
live fault-tolerance paths:

* **de-centralized** — survivors detect the failure, agree on the failed
  set, shrink the communicator, re-split the replicated data and resume
  the search in-run (paper Section V, executed rather than modelled);
* **fork-join** — the run aborts (a worker loss starves the master; a
  master loss is catastrophic) and, for worker losses, restarts from the
  last periodic checkpoint (``checkpoint_every``/``checkpoint_path`` in
  :class:`~repro.search.search.SearchConfig`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.dist.distributions import split_local_data
from repro.engines.decentral import DecentralizedBackend, recover_decentralized
from repro.engines.forkjoin import (
    CAT_TRAVERSAL,
    ForkJoinMasterBackend,
    forkjoin_worker,
)
from repro.errors import CommError, MasterLostError, QuorumLostError, RankFailureError
from repro.likelihood.partitioned import PartitionData, PartitionedLikelihood
from repro.obs.progress import NULL_PROGRESS
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.par.comm import Comm
from repro.par.faultcomm import FaultInjectingComm, FaultPlan
from repro.par.mpcomm import run_mpi
from repro.search.search import SearchConfig, hill_climb
from repro.tree.newick import parse_newick, write_newick
from repro.tree.topology import Tree

__all__ = [
    "DistributedResult",
    "run_decentralized",
    "run_forkjoin",
    "run_sequential_reference",
]


@dataclass
class DistributedResult:
    """Per-rank outcome of a distributed search."""

    logl: float
    newick: str
    iterations: int
    bytes_by_tag: dict[str, int]
    failed_ranks: tuple[int, ...] = ()
    recoveries: int = 0
    restarts: int = 0
    #: Collective calls per Table-I tag (always counted, like bytes).
    calls_by_tag: dict[str, int] = field(default_factory=dict)
    #: Metrics snapshot of this rank's run (empty when tracing is off).
    metrics: dict[str, Any] = field(default_factory=dict)
    #: Path of this rank's JSONL trace stream (None when tracing is off).
    trace_path: str | None = None
    #: Heartbeat/progress directory of the run (None when unmonitored).
    monitor_dir: str | None = None
    #: Path of this rank's progress-event JSONL (None when unmonitored).
    progress_path: str | None = None
    #: True when the run stopped at a cooperative cancellation point
    #: (SIGTERM under ``cancellable=True``) instead of finishing.
    cancelled: bool = False


def _rebuild_tree(newick: str, n_branch_sets: int) -> Tree:
    tree = parse_newick(newick, n_branch_sets)
    if n_branch_sets > 1:
        tree.set_n_branch_sets(n_branch_sets)
    return tree


def _maybe_inject(comm: Comm, payload: dict[str, Any]) -> Comm:
    plan: FaultPlan | None = payload.get("fault_plan")
    if plan is not None and comm.size > 1:
        return FaultInjectingComm(comm, plan)
    return comm


def _maybe_sanitize(comm: Comm, payload: dict[str, Any]) -> Comm:
    """Innermost wrapper (fault injection and tracing stack on top): the
    injector must count application collectives, not the sanitizer's
    control rounds, and spans should time the checked call as one unit."""
    if payload.get("sanitize") and comm.size > 1:
        from repro.par.sanitize import SanitizingComm

        return SanitizingComm(comm)
    return comm


def _prepare_trace_dir(trace_dir: str | Path | None) -> str | None:
    """Create the trace directory in the parent, before ranks fork."""
    if trace_dir is None:
        return None
    path = Path(trace_dir)
    path.mkdir(parents=True, exist_ok=True)
    return str(path)


def _make_telemetry(comm: Comm, payload: dict[str, Any], world_rank: int):
    """Build the live-telemetry side channel for one rank.

    Returns ``(comm, heartbeat_writer, progress_reporter)``.  When
    ``monitor_dir`` is unset this is the zero-cost path: no wrapper, no
    thread, no files — just the shared :data:`NULL_PROGRESS`.

    The monitored wrapper must sit *inside* fault injection (see the
    call sites): an injected hang then fires before the heartbeat state
    records the call, so the hung rank observably never *entered* call
    ``K`` while its peers freeze *inside* ``K`` — the asymmetry
    :func:`repro.obs.monitor.diagnose` keys on.  It also sits *outside*
    the sanitizer, whose control rounds bypass it, keeping the
    heartbeat call numbering aligned with the injector's.
    """
    monitor_dir = payload.get("monitor_dir")
    if not monitor_dir:
        return comm, None, NULL_PROGRESS
    from repro.obs.heartbeat import (
        DEFAULT_BEAT_INTERVAL,
        HeartbeatState,
        HeartbeatWriter,
        MonitoredComm,
    )
    from repro.obs.progress import ProgressReporter, ProgressStream, progress_path

    state = HeartbeatState(world_rank)
    comm = MonitoredComm(comm, state)
    stream = ProgressStream(progress_path(monitor_dir, world_rank),
                            world_rank)
    reporter = ProgressReporter(state, stream)
    writer = HeartbeatWriter(
        monitor_dir, state,
        interval=payload.get("beat_interval") or DEFAULT_BEAT_INTERVAL,
    ).start()
    return comm, writer, reporter


def _close_telemetry(writer, progress, ok: bool) -> None:
    """Final beat + stream close; terminal phase tells the monitor (and
    `repro watch`) whether the rank finished or unwound on an error."""
    if writer is None:
        return
    final = "done" if ok else "failed"
    progress.event("run_end", ok=ok)
    progress.close(final_phase=final)
    writer.stop(final_phase=final)


def _arm_cancellation(backend, payload: dict[str, Any]) -> None:
    """Attach the cooperative stop poll for a cancellable launch.

    Decentralized backends agree on the stop collectively (every replica
    polls the same ``allreduce(MAX)`` site, so skewed signal delivery
    cannot desynchronize the collective sequence); the fork-join master
    decides locally — its workers are command-driven and stop when it
    broadcasts the normal end-of-search STOP.  Must be re-attached after
    in-run recovery replaces the backend (like tracer/progress).
    """
    if not payload.get("cancellable"):
        return
    from repro.engines.cancel import cancel_requested, make_agree_stop

    if isinstance(backend, DecentralizedBackend):
        backend.agree_stop = make_agree_stop(lambda: backend.comm)
    else:
        backend.agree_stop = cancel_requested


def _install_cancel_handler(payload: dict[str, Any]) -> None:
    """Child-rank half of cooperative cancellation: SIGTERM sets a flag."""
    if payload.get("cancellable"):
        from repro.engines.cancel import install_sigterm_flag

        install_sigterm_flag()


def _make_obs(payload: dict[str, Any], world_rank: int):
    """Build (tracer, metrics, profiler) for one rank; the null tracer
    (no metrics, no profiler, and — crucially — no comm wrapper) when
    tracing is off.

    The launch's ``trace_id`` (an end-to-end lifecycle identity minted
    by e.g. the serve daemon) rides on the tracer so the flushed stream
    merges with the daemon's service spans under one id.  The op
    profiler accumulates per-kernel-op totals that flush as summary
    spans into the same stream."""
    if not payload.get("trace_dir"):
        return NULL_TRACER, None, None
    from repro.obs.hotspots import OpProfiler
    from repro.obs.metrics import MetricsRegistry

    capacity = payload.get("trace_capacity")
    trace_id = payload.get("trace_id") or ""
    tracer = (Tracer(rank=world_rank, capacity=capacity, trace_id=trace_id)
              if capacity else Tracer(rank=world_rank, trace_id=trace_id))
    return tracer, MetricsRegistry(), OpProfiler()


def _emit_profile(profiler, tracer, metrics, source) -> None:
    """Flush a rank's kernel profile (plus its CLV owner's memory
    accounting) into the trace stream before ``_flush_trace`` runs."""
    if profiler is None or not tracer.enabled:
        return
    from repro.obs.hotspots import emit_kernel_profile

    emit_kernel_profile(profiler, tracer, metrics,
                        clv_sources=() if source is None else (source,))


def _wrap_tracing(comm: Comm, tracer, metrics) -> Comm:
    if not tracer.enabled:
        return comm
    from repro.obs.instrument import TracingComm

    return TracingComm(comm, tracer, metrics)


def _flush_trace(tracer, payload: dict[str, Any],
                 world_rank: int) -> str | None:
    """Write this rank's span stream to ``trace_dir``; rank files are
    keyed by *original* world rank so shrinks don't collide names.

    A ring-buffer overflow is recorded *in the stream itself* as a
    trailing ``trace_truncated`` meta record, so any later analysis of
    the merged trace can warn that this rank's early spans are missing
    instead of silently under-attributing its time."""
    if not tracer.enabled:
        return None
    from repro.obs.export import rank_trace_path, span_to_dict, write_jsonl

    records = [span_to_dict(s) for s in tracer.spans()]
    if tracer.dropped:
        t_ns = records[-1]["t1_ns"] if records else 0
        records.append({
            "name": "trace_truncated", "kind": "meta", "rank": world_rank,
            "t0_ns": t_ns, "t1_ns": t_ns,
            "attrs": {"dropped_spans": int(tracer.dropped)},
        })
    if getattr(tracer, "trace_id", ""):
        for record in records:
            record["trace_id"] = tracer.trace_id
    path = rank_trace_path(payload["trace_dir"], world_rank)
    write_jsonl(records, path)
    return str(path)


def _obs_snapshot(metrics, tracer) -> dict[str, Any]:
    if metrics is None:
        return {}
    metrics.gauge("trace.spans").set(len(tracer))
    metrics.gauge("trace.dropped_spans").set(tracer.dropped)
    return metrics.snapshot()


def _decentral_rank(comm: Comm, payload: dict[str, Any]) -> DistributedResult:
    world0 = comm.rank  # original world rank: names the trace stream
    _install_cancel_handler(payload)
    tracer, metrics, profiler = _make_obs(payload, world0)
    comm, hb_writer, progress = _make_telemetry(
        _maybe_sanitize(comm, payload), payload, world0)
    comm = _wrap_tracing(_maybe_inject(comm, payload), tracer, metrics)
    tree = _rebuild_tree(payload["newick"], payload["n_branch_sets"])
    local_parts = split_local_data(
        payload["parts"], comm.rank, comm.size, payload["dist_kind"]
    )
    lik = PartitionedLikelihood(tree, local_parts, payload["taxa"])
    if profiler is not None:
        lik.profiler = profiler
    resume_from = payload.get("resume_from")
    if resume_from:
        # Supervised restart: every replica restores the identical
        # checkpointed state locally (no broadcast needed — the whole
        # point of the de-centralized scheme), then resumes the climb.
        from repro.search.checkpoint import load_checkpoint, restore_into

        meta, arrays = load_checkpoint(resume_from)
        restore_into(lik, meta, arrays)
        tree = lik.tree
    backend = DecentralizedBackend(comm, lik)
    backend.tracer = tracer
    backend.progress = progress
    _arm_cancellation(backend, payload)
    progress.event("run_start", engine="decentralized", ranks=comm.size,
                   dist=payload["dist_kind"])

    min_ranks = int(payload.get("min_ranks") or 1)
    all_failed: list[int] = []
    recoveries = 0
    ok = False
    try:
        while True:
            try:
                result = hill_climb(backend, payload["config"])
                break
            except RankFailureError as exc:
                # Section V, live: agree → shrink → redistribute → resume.
                # The tree and model in `backend` are this replica's full
                # copy of the search state; only the data share is rebuilt.
                failed_set = {int(r) for r in exc.failed_ranks}
                tracer.instant(
                    "rank_failure", kind="recovery",
                    failed=sorted(failed_set),
                )
                progress.event("rank_failure", failed=sorted(failed_set))
                progress.status(phase="recover", in_collective=False)
                with tracer.span("recover", kind="recovery"):
                    # Recovery itself may be hit by further failures
                    # (a second rank dying inside agree/shrink): retry
                    # with the union of every failed set observed so
                    # far until a round completes on the survivors.
                    while True:
                        try:
                            # replicheck: ignore[R003] -- recovery starts with comm.agree so every rank converges on the failed set before any survivor-side collective is issued
                            backend, report = recover_decentralized(
                                backend, failed_set, payload["parts"],
                                payload["dist_kind"],
                            )
                            break
                        except RankFailureError as again:
                            failed_set |= {int(r)
                                           for r in again.failed_ranks}
                tracer.instant(
                    "redistribute", kind="recovery",
                    bytes_moved=report.bytes_moved,
                    survivors=report.survivors,
                )
                all_failed.extend(comm.world_ranks(report.failed_ranks))
                comm = backend.comm
                backend.tracer = tracer
                backend.progress = progress
                if profiler is not None:
                    # recovery rebuilt the likelihood around the new share
                    backend.lik.profiler = profiler
                _arm_cancellation(backend, payload)
                recoveries += 1
                if metrics is not None:
                    metrics.counter("recovery.rounds").inc()
                if comm.size < min_ranks:
                    # Graceful degradation has a floor: the shrunk mesh
                    # could finish, but the policy judges it too narrow.
                    # Not a RankFailureError — the in-mesh loop must not
                    # "recover" from it; the remedy (tier-2 restart at a
                    # different width) belongs to the supervisor.
                    progress.event("quorum_lost", survivors=comm.size,
                                   min_ranks=min_ranks)
                    raise QuorumLostError(
                        comm.size, min_ranks,
                        failed_ranks=sorted(set(all_failed)))
                tracer.instant("resume", kind="recovery")
                progress.event(
                    "recovery", failed=sorted(set(all_failed)),
                    survivors=report.survivors,
                    bytes_moved=report.bytes_moved, round=recoveries,
                )
                progress.status(phase="resume", recoveries=recoveries)
        ok = True
    finally:
        _emit_profile(profiler, tracer, metrics, backend.lik)
        trace_path = _flush_trace(tracer, payload, world0)
        _close_telemetry(hb_writer, progress, ok)

    return DistributedResult(
        logl=result.logl,
        newick=write_newick(backend.tree, lengths=False),
        iterations=result.iterations,
        bytes_by_tag=dict(getattr(comm, "bytes_by_tag", {})),
        failed_ranks=tuple(sorted(set(all_failed))),
        recoveries=recoveries,
        calls_by_tag=dict(getattr(comm, "calls_by_tag", {})),
        metrics=_obs_snapshot(metrics, tracer),
        trace_path=trace_path,
        monitor_dir=payload.get("monitor_dir"),
        progress_path=(str(progress.stream.path)
                       if progress.stream is not None else None),
        cancelled=result.cancelled,
    )


def run_decentralized(
    parts: list[PartitionData],
    taxa: list[str],
    start_newick: str,
    n_ranks: int,
    config: SearchConfig | None = None,
    dist_kind: str = "cyclic",
    n_branch_sets: int = 1,
    fault_plan: FaultPlan | None = None,
    detect_timeout: float | None = None,
    trace_dir: str | Path | None = None,
    trace_capacity: int | None = None,
    trace_id: str = "",
    sanitize: bool = False,
    monitor_dir: str | Path | None = None,
    beat_interval: float | None = None,
    min_ranks: int = 1,
    resume_from: str | Path | None = None,
    timeout: float | None = None,
    cancellable: bool = False,
) -> list[DistributedResult]:
    """Run the ExaML scheme on ``n_ranks`` real processes.

    With a ``fault_plan``, injected rank deaths are survived in-run: the
    returned list holds ``None`` at failed ranks and the survivors'
    results record the failure and recovery (``failed_ranks`` in the
    original rank numbering, ``recoveries``).

    With ``sanitize=True``, every collective is cross-checked across
    ranks first (:class:`~repro.par.sanitize.SanitizingComm`); replica
    divergence raises
    :class:`~repro.errors.ReplicaDivergenceError` on every rank instead
    of silently drifting or deadlocking.

    With ``trace_dir``, every rank traces its collectives (spans +
    counters, see :mod:`repro.obs`) and writes
    ``trace_dir/trace-rank<R>.jsonl`` before returning; each surviving
    result carries its metrics snapshot and trace path.

    With ``monitor_dir``, every rank additionally runs the live
    telemetry side channel (:mod:`repro.obs.heartbeat` /
    :mod:`repro.obs.progress`): a heartbeat status file rewritten every
    ``beat_interval`` seconds plus a streamed progress-event JSONL, so
    a parent-side :class:`~repro.obs.monitor.Monitor` (or ``repro
    watch``) can observe — and diagnose stalls in — the run while it
    executes.

    ``min_ranks`` is the supervising policy's quorum: in-run recovery
    shrinks and resumes (graceful degradation) only while at least this
    many survivors remain; one fewer raises
    :class:`~repro.errors.QuorumLostError` instead of resuming.
    ``resume_from`` restores every replica from a checkpoint before the
    search starts (the supervised tier-1 restart path); ``timeout``
    bounds the whole launch (the supervisor's per-attempt wall-clock
    budget).
    """
    payload = {
        "parts": parts,
        "taxa": taxa,
        "newick": start_newick,
        "config": config or SearchConfig(),
        "dist_kind": dist_kind,
        "n_branch_sets": n_branch_sets,
        "fault_plan": fault_plan,
        "trace_dir": _prepare_trace_dir(trace_dir),
        "trace_capacity": trace_capacity,
        "trace_id": trace_id,
        "sanitize": sanitize,
        "monitor_dir": _prepare_trace_dir(monitor_dir),
        "beat_interval": beat_interval,
        "min_ranks": min_ranks,
        "resume_from": str(resume_from) if resume_from else None,
        "cancellable": cancellable,
    }
    kwargs: dict[str, Any] = {}
    if timeout is not None:
        kwargs["timeout"] = timeout
    return run_mpi(
        n_ranks,
        _decentral_rank,
        [payload] * n_ranks,
        detect_timeout=detect_timeout,
        allow_failures=fault_plan is not None,
        forward_sigterm=cancellable,
        **kwargs,
    )


def _forkjoin_rank(comm: Comm, payload: dict[str, Any]) -> DistributedResult | None:
    world0 = comm.rank
    _install_cancel_handler(payload)
    tracer, metrics, profiler = _make_obs(payload, world0)
    comm, hb_writer, progress = _make_telemetry(comm, payload, world0)
    comm = _wrap_tracing(_maybe_inject(comm, payload), tracer, metrics)
    local_parts = split_local_data(
        payload["parts"], comm.rank, comm.size, payload["dist_kind"]
    )
    # Flush in a finally: a RankFailureError unwinding a collective must
    # still leave this rank's trace (with the error-flagged span) on disk.
    ok = False
    lik = None  # the master's full-copy likelihood (workers keep None)
    try:
        resume_from = payload.get("resume_from")
        progress.event("run_start", engine="forkjoin", ranks=comm.size,
                       dist=payload["dist_kind"])
        if comm.rank == 0:
            tree = _rebuild_tree(payload["newick"], payload["n_branch_sets"])
            lik = PartitionedLikelihood(tree, local_parts, payload["taxa"])
            if profiler is not None:
                lik.profiler = profiler
            backend = ForkJoinMasterBackend(comm, lik)
            backend.tracer = tracer
            backend.progress = progress
            _arm_cancellation(backend, payload)
            if resume_from:
                from repro.search.checkpoint import load_checkpoint, restore_into

                meta, arrays = load_checkpoint(resume_from)
                restore_into(lik, meta, arrays)
                backend.tree = lik.tree
                tree = lik.tree
        node_taxon = payload["node_taxon"]
        if resume_from:
            # The restored tree was re-parsed from the checkpoint's
            # newick: after SPR moves its leaf node ids no longer match
            # the start tree's, so the node_taxon map every rank was
            # launched with is stale.  The master rebuilds it from the
            # restored tree and every rank receives it here — the same
            # collective at the same call site — before any descriptor
            # references a leaf.
            refreshed = None
            if comm.rank == 0:
                taxon_row = {label: i
                             for i, label in enumerate(payload["taxa"])}
                refreshed = {leaf.id: taxon_row[leaf.label]
                             for leaf in tree.leaves()}
            node_taxon = comm.bcast(refreshed, root=0, tag=CAT_TRAVERSAL)
        # replicheck: ignore[R003] -- master/worker command protocol: the master's set_* calls broadcast commands that the workers' command loop answers with the matching collectives
        if comm.rank == 0:
            if resume_from:
                from repro.model.rates import DiscreteGamma

                # Workers restarted with pristine model parameters; push the
                # restored ones through the regular broadcast commands so the
                # mesh is consistent before the search resumes.
                alphas = {
                    p: lik.get_alpha(p)
                    for p in range(lik.n_partitions)
                    if isinstance(lik.parts[p].rate_het, DiscreteGamma)
                }
                if alphas:
                    backend.set_alphas(alphas)
                backend.set_gtr_rates(
                    {p: lik.parts[p].model.rates
                     for p in range(lik.n_partitions)}
                )
            result = hill_climb(backend, payload["config"])
            ok = True
            return DistributedResult(
                logl=result.logl,
                newick=write_newick(tree, lengths=False),
                iterations=result.iterations,
                bytes_by_tag=dict(getattr(comm, "bytes_by_tag", {})),
                restarts=payload.get("restarts", 0),
                cancelled=result.cancelled,
                calls_by_tag=dict(getattr(comm, "calls_by_tag", {})),
                metrics=_obs_snapshot(metrics, tracer),
                monitor_dir=payload.get("monitor_dir"),
                progress_path=(str(progress.stream.path)
                               if progress.stream is not None else None),
            )
        forkjoin_worker(
            comm, local_parts, node_taxon,
            payload["n_branch_sets"], tracer=tracer, metrics=metrics,
            progress=progress, profiler=profiler,
        )
        ok = True
        return None
    finally:
        # Workers emit their profile inside forkjoin_worker (they own the
        # executor); the master emits here for its reduction-side kernels.
        if lik is not None:
            _emit_profile(profiler, tracer, metrics, lik)
        _flush_trace(tracer, payload, world0)
        _close_telemetry(hb_writer, progress, ok)


def run_forkjoin(
    parts: list[PartitionData],
    taxa: list[str],
    start_newick: str,
    n_ranks: int,
    config: SearchConfig | None = None,
    dist_kind: str = "cyclic",
    n_branch_sets: int = 1,
    fault_plan: FaultPlan | None = None,
    detect_timeout: float | None = None,
    max_restarts: int = 1,
    trace_dir: str | Path | None = None,
    trace_capacity: int | None = None,
    trace_id: str = "",
    monitor_dir: str | Path | None = None,
    beat_interval: float | None = None,
    resume_from: str | Path | None = None,
    timeout: float | None = None,
    cancellable: bool = False,
) -> DistributedResult:
    """Run the RAxML-Light scheme on ``n_ranks`` real processes.

    Returns the master's result (workers return nothing — they are
    tree-agnostic by design).

    Fault handling is the paper's contrast case: a failure aborts the
    whole run.  A *master* failure is unrecoverable in-run (the only
    copy of the search state dies with rank 0 — "catastrophic") and
    raises the typed :class:`~repro.errors.MasterLostError` naming the
    latest durable checkpoint when one exists, so a supervising layer
    can distinguish "restartable from checkpoint" from "restart from
    scratch".  A *worker* failure restarts the run — from the last
    periodic checkpoint when ``config.checkpoint_every``/
    ``checkpoint_path`` are set, from scratch otherwise — at most
    ``max_restarts`` times.  Injection only applies to the first attempt
    (the restart models a replacement node).

    ``resume_from`` starts the *first* attempt from a checkpoint (the
    supervised restart path); ``timeout`` bounds each attempt's
    wall-clock (the supervisor's per-attempt budget).
    """
    tree = _rebuild_tree(start_newick, n_branch_sets)
    taxon_row = {label: i for i, label in enumerate(taxa)}
    node_taxon = {
        leaf.id: taxon_row[leaf.label] for leaf in tree.leaves()  # type: ignore[index]
    }
    config = config or SearchConfig()
    payload = {
        "parts": parts,
        "taxa": taxa,
        "newick": start_newick,
        "config": config,
        "dist_kind": dist_kind,
        "n_branch_sets": n_branch_sets,
        "node_taxon": node_taxon,
        "fault_plan": fault_plan,
        "trace_dir": _prepare_trace_dir(trace_dir),
        "trace_capacity": trace_capacity,
        "trace_id": trace_id,
        "monitor_dir": _prepare_trace_dir(monitor_dir),
        "beat_interval": beat_interval,
        "cancellable": cancellable,
    }
    if resume_from:
        payload["resume_from"] = str(resume_from)

    def _latest_checkpoint() -> Path | None:
        ckpt = Path(config.checkpoint_path) if config.checkpoint_path else None
        if ckpt is not None and ckpt.suffix != ".npz":
            ckpt = ckpt.with_name(ckpt.name + ".npz")  # np.savez suffixing
        return ckpt if ckpt is not None and ckpt.exists() else None

    run_kwargs: dict[str, Any] = {}
    if timeout is not None:
        run_kwargs["timeout"] = timeout
    restarts = 0
    while True:
        try:
            results = run_mpi(
                n_ranks,
                _forkjoin_rank,
                [payload] * n_ranks,
                detect_timeout=detect_timeout,
                forward_sigterm=cancellable,
                **run_kwargs,
            )
            break
        except RankFailureError as exc:
            from repro.engines.fault import forkjoin_failure_outcome

            ckpt = _latest_checkpoint()
            outcome = forkjoin_failure_outcome(
                sorted(exc.failed_ranks),
                checkpoint=str(ckpt) if ckpt else None,
            )
            if 0 in exc.failed_ranks:
                # Typed, not a generic unrecoverable failure: the state
                # is gone, not corrupt — a supervisor can restart from
                # the checkpoint the error names.
                raise MasterLostError(
                    exc.failed_ranks,
                    checkpoint=str(ckpt) if ckpt else None,
                    message=f"fork-join run unrecoverable: {outcome.reason}",
                ) from exc
            if restarts >= max_restarts:
                raise CommError(
                    f"fork-join run failed after {restarts} restart(s): "
                    f"{outcome.reason}"
                ) from exc
            restarts += 1
            payload = dict(payload)
            payload["fault_plan"] = None  # the failed node was replaced
            payload["restarts"] = restarts
            if ckpt is not None:
                payload["resume_from"] = str(ckpt)
    master = results[0]
    if master is None:
        raise CommError("fork-join master returned no result")
    if payload["trace_dir"]:
        from repro.obs.export import rank_trace_path

        master.trace_path = str(rank_trace_path(payload["trace_dir"], 0))
    return master


def run_sequential_reference(
    parts: list[PartitionData],
    taxa: list[str],
    start_newick: str,
    config: SearchConfig | None = None,
    n_branch_sets: int = 1,
) -> DistributedResult:
    """The single-rank reference both engines must reproduce."""
    from repro.likelihood.backend import SequentialBackend

    tree = _rebuild_tree(start_newick, n_branch_sets)
    # private copies: optimization must not mutate the caller's partitions
    parts = [p.subset(np.arange(p.n_patterns)) for p in parts]
    lik = PartitionedLikelihood(tree, parts, taxa)
    backend = SequentialBackend(lik)
    result = hill_climb(backend, config or SearchConfig())
    return DistributedResult(
        logl=result.logl,
        newick=write_newick(tree, lengths=False),
        iterations=result.iterations,
        bytes_by_tag={},
    )
