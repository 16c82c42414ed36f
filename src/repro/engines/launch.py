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

:func:`launch` is the one entry: it takes a :class:`RunConfig` and
returns the per-rank results.  Both engines can inject rank failures
(``fault_plan``) to exercise the live fault-tolerance paths:

* **de-centralized** — survivors detect the failure, agree on the failed
  set, shrink the communicator, re-split the replicated data and resume
  the search in-run (paper Section V, executed rather than modelled);
* **fork-join** — the run aborts (a worker loss starves the master; a
  master loss is catastrophic) and, for worker losses, restarts from the
  last periodic checkpoint (``checkpoint_every``/``checkpoint_path`` in
  :class:`~repro.search.search.SearchConfig`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.dist.distributions import split_local_data
from repro.engines.decentral import DecentralizedBackend, recover_decentralized
from repro.engines.forkjoin import (
    CAT_TRAVERSAL,
    ForkJoinMasterBackend,
    forkjoin_worker,
)
from repro.engines.runtime import RankRuntime
from repro.errors import CommError, MasterLostError, QuorumLostError, RankFailureError
from repro.likelihood.backend import EventLog, SequentialBackend
from repro.likelihood.partitioned import PartitionData, PartitionedLikelihood
from repro.par.comm import Comm
from repro.par.mpcomm import run_mpi
from repro.search.checkpoint import checkpoint_file
from repro.search.search import SearchConfig, hill_climb
from repro.tree.newick import parse_newick, write_newick
from repro.tree.topology import Tree

if TYPE_CHECKING:
    from repro.par.faultcomm import FaultPlan

__all__ = [
    "DistributedResult",
    "RunConfig",
    "launch",
    "first_survivor",
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
    #: Path of this rank's JSONL trace stream (None when tracing is off).
    trace_path: str | None = None
    #: Heartbeat/progress directory of the run (None when unmonitored).
    monitor_dir: str | None = None
    #: Path of this rank's progress-event JSONL (None when unmonitored).
    progress_path: str | None = None
    #: True when the run stopped at a cooperative cancellation point
    #: (SIGTERM under ``cancellable=True``) instead of finishing.
    cancelled: bool = False
    #: The parallel regions this rank's backend ran (a replica's log runs
    #: on through in-run recovery; a fork-join restart begins a new one).
    log: EventLog = field(default_factory=EventLog)


@dataclass(frozen=True)
class RunConfig:
    """One distributed search: engine, data, search and instrumentation.

    What :func:`repro.engines.launch.launch` takes, what ``run_mpi`` hands
    each rank, and what the CLI, the scaling harness, the supervisor (one
    ``dataclasses.replace`` per attempt) and the chaos campaign construct:
    every launcher option is declared here and nowhere else.

    ``engine`` is ``"decentralized"`` (the ExaML scheme: replicas, in-run
    recovery) or ``"forkjoin"`` (the RAxML-Light scheme: master/workers,
    restart from checkpoint).  ``parts`` is the *full* partition data;
    every rank cuts its own share by ``dist_kind``.

    Faults: ``fault_plan`` injects rank failures (on a fork-join restart
    it applies to the first attempt only — the restart models a
    replacement node); ``detect_timeout`` bounds how long an in-mesh
    receive waits on a silent peer.  ``min_ranks`` (decentralized) is the
    quorum below which in-run recovery raises
    :class:`~repro.errors.QuorumLostError` instead of resuming;
    ``max_restarts`` (fork-join) caps restarts after a worker loss.
    ``resume_from`` restores the search from a checkpoint before it
    starts; ``timeout`` bounds each mesh launch.

    Instrumentation, each off by default and then free (a rank gets the
    raw communicator): ``trace_dir`` makes every rank trace its
    collectives and kernels and write ``trace_dir/trace-rank<R>.jsonl``
    (ring of ``trace_capacity`` spans, stamped with ``trace_id``);
    ``monitor_dir`` runs the heartbeat/progress side channel, one beat
    per ``beat_interval`` seconds; ``sanitize`` (decentralized)
    cross-checks every collective across ranks first; ``cancellable``
    turns SIGTERM into a cooperative checkpoint-stop.

    The three path fields are normalised to ``str``.
    """

    engine: str
    parts: list[PartitionData]
    taxa: list[str]
    start_newick: str
    n_ranks: int
    config: SearchConfig = field(default_factory=SearchConfig)
    dist_kind: str = "cyclic"
    n_branch_sets: int = 1
    fault_plan: FaultPlan | None = None
    detect_timeout: float | None = None
    max_restarts: int = 1
    trace_dir: str | Path | None = None
    trace_capacity: int | None = None
    trace_id: str = ""
    sanitize: bool = False
    monitor_dir: str | Path | None = None
    beat_interval: float | None = None
    min_ranks: int = 1
    resume_from: str | Path | None = None
    timeout: float | None = None
    cancellable: bool = False

    def __post_init__(self) -> None:
        if self.engine not in ("decentralized", "forkjoin"):
            raise CommError(f"RunConfig.engine: unknown engine {self.engine!r}")
        if self.engine == "forkjoin":
            if self.sanitize:
                raise CommError(
                    "RunConfig.sanitize needs engine='decentralized': fork-join "
                    "collectives are master/worker-asymmetric by design")
            if self.min_ranks != 1:
                raise CommError(
                    "RunConfig.min_ranks needs engine='decentralized': a "
                    "fork-join mesh never shrinks, it restarts")
        elif self.max_restarts != 1:
            raise CommError(
                "RunConfig.max_restarts needs engine='forkjoin': the "
                "decentralized engine recovers in-run and never restarts")
        for name in ("trace_dir", "monitor_dir", "resume_from"):
            value = getattr(self, name)
            object.__setattr__(self, name, str(value) if value else None)


def _rebuild_tree(newick: str, n_branch_sets: int) -> Tree:
    tree = parse_newick(newick, n_branch_sets)
    if n_branch_sets > 1:
        tree.set_n_branch_sets(n_branch_sets)
    return tree


def _node_taxon(tree: Tree, taxa: list[str]) -> dict[int, int]:
    """Leaf node id → global taxon row: how tree-agnostic workers find
    the tip data a descriptor refers to."""
    taxon_row = {label: i for i, label in enumerate(taxa)}
    return {leaf.id: taxon_row[leaf.label] for leaf in tree.leaves()}


def _restore(lik: PartitionedLikelihood, resume_from: str) -> Tree:
    """Restore ``lik`` from a checkpoint; returns the restored tree."""
    from repro.search.checkpoint import load_checkpoint, restore_into

    meta, arrays = load_checkpoint(resume_from)
    restore_into(lik, meta, arrays)
    return lik.tree


def _rank_main(comm: Comm, cfg: RunConfig) -> DistributedResult | None:
    """What every rank of either engine runs: one runtime life cycle
    around the engine's body, then the result — built after
    ``runtime.close``, so its trace path names the stream as flushed."""
    runtime = RankRuntime(cfg, comm.rank)
    comm = runtime.open(comm)
    runtime.progress.event("run_start", engine=cfg.engine, ranks=comm.size,
                           dist=cfg.dist_kind)
    body = _decentral_rank if cfg.engine == "decentralized" else _forkjoin_rank
    ok = False
    try:
        outcome = body(comm, cfg, runtime)
        ok = True
    finally:
        runtime.close(ok)
    if outcome is None:  # a fork-join worker: tree-agnostic by design
        return None
    search, backend, recovery = outcome
    return DistributedResult(
        logl=search.logl,
        newick=write_newick(backend.tree),
        iterations=search.iterations,
        bytes_by_tag=dict(backend.comm.bytes_by_tag),
        calls_by_tag=dict(backend.comm.calls_by_tag),
        trace_path=runtime.trace_path,
        monitor_dir=cfg.monitor_dir,
        progress_path=runtime.progress_path,
        cancelled=search.cancelled,
        log=backend.log,
        **recovery,
    )


def _decentral_rank(comm: Comm, cfg: RunConfig, runtime: RankRuntime):
    tracer, progress = runtime.tracer, runtime.progress
    tree = _rebuild_tree(cfg.start_newick, cfg.n_branch_sets)
    local_parts = split_local_data(cfg.parts, comm.rank, comm.size, cfg.dist_kind)
    lik = PartitionedLikelihood(tree, local_parts, cfg.taxa)
    if cfg.resume_from:
        # Supervised restart: every replica restores the identical
        # checkpointed state locally (no broadcast needed — the whole
        # point of the de-centralized scheme), then resumes the climb.
        _restore(lik, cfg.resume_from)
    backend = DecentralizedBackend(comm, lik)
    runtime.attach(backend)

    all_failed: list[int] = []
    recoveries = 0
    while True:
        try:
            result = hill_climb(backend, cfg.config)
            break
        except RankFailureError as exc:
            # Section V, live: agree → shrink → redistribute → resume.
            # The tree and model in `backend` are this replica's full
            # copy of the search state; only the data share is rebuilt.
            failed_set = {int(r) for r in exc.failed_ranks}
            tracer.instant("rank_failure", kind="recovery",
                           failed=sorted(failed_set))
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
                            backend, failed_set, cfg.parts, cfg.dist_kind,
                        )
                        break
                    except RankFailureError as again:
                        failed_set |= {int(r) for r in again.failed_ranks}
            tracer.instant(
                "redistribute", kind="recovery",
                bytes_moved=report.bytes_moved,
                survivors=report.survivors,
            )
            all_failed.extend(comm.world_ranks(report.failed_ranks))
            # the rebuilt backend already carries the runtime
            comm = backend.comm
            recoveries += 1
            if comm.size < cfg.min_ranks:
                # Graceful degradation has a floor: the shrunk mesh
                # could finish, but the policy judges it too narrow.
                # Not a RankFailureError — the in-mesh loop must not
                # "recover" from it; the remedy (tier-2 restart at a
                # different width) belongs to the supervisor.
                progress.event("quorum_lost", survivors=comm.size,
                               min_ranks=cfg.min_ranks)
                raise QuorumLostError(
                    comm.size, cfg.min_ranks,
                    failed_ranks=sorted(set(all_failed)))
            tracer.instant("resume", kind="recovery")
            progress.event(
                "recovery", failed=sorted(set(all_failed)),
                survivors=report.survivors,
                bytes_moved=report.bytes_moved, round=recoveries,
            )
            progress.status(phase="resume", recoveries=recoveries)
    return result, backend, {"failed_ranks": tuple(sorted(set(all_failed))),
                             "recoveries": recoveries}


def _forkjoin_rank(comm: Comm, cfg: RunConfig, runtime: RankRuntime):
    local_parts = split_local_data(cfg.parts, comm.rank, comm.size, cfg.dist_kind)
    # Every rank derives the leaf map from the start tree it was launched
    # with (set-up only: the worker loop itself never sees a tree).
    tree = _rebuild_tree(cfg.start_newick, cfg.n_branch_sets)
    node_taxon = _node_taxon(tree, cfg.taxa)
    if comm.rank == 0:
        lik = PartitionedLikelihood(tree, local_parts, cfg.taxa)
        backend = ForkJoinMasterBackend(comm, lik)
        runtime.attach(backend)
        if cfg.resume_from:
            tree = backend.tree = _restore(lik, cfg.resume_from)
    if cfg.resume_from:
        # The restored tree was re-parsed from the checkpoint's newick:
        # after SPR moves its leaf node ids no longer match the start
        # tree's, so the start tree's leaf map is stale.  The master
        # rebuilds it from the restored tree and every rank receives it
        # here — the same collective at the same call site — before any
        # descriptor references a leaf.
        refreshed = _node_taxon(tree, cfg.taxa) if comm.rank == 0 else None
        node_taxon = comm.bcast(refreshed, root=0, tag=CAT_TRAVERSAL)
    # replicheck: ignore[R003] -- master/worker command protocol: the master's set_* calls broadcast commands that the workers' command loop answers with the matching collectives
    if comm.rank > 0:
        forkjoin_worker(comm, local_parts, node_taxon, cfg.n_branch_sets,
                        runtime)
        return None
    if cfg.resume_from:
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
    return hill_climb(backend, cfg.config), backend, {}


def _run_mesh(cfg: RunConfig) -> list[DistributedResult | None]:
    """One ``run_mpi`` launch of ``cfg``.  Only a replica mesh outlives an
    injected death (dead ranks then yield ``None``); a fork-join mesh that
    loses a rank raises."""
    budget = {} if cfg.timeout is None else {"timeout": cfg.timeout}
    return run_mpi(
        cfg.n_ranks, _rank_main, [cfg] * cfg.n_ranks,
        detect_timeout=cfg.detect_timeout,
        allow_failures=(cfg.engine == "decentralized"
                        and cfg.fault_plan is not None),
        forward_sigterm=cfg.cancellable, **budget,
    )


def _launch_forkjoin(cfg: RunConfig) -> list[DistributedResult | None]:
    """Fork-join launch with the paper's contrast-case fault handling: a
    failure aborts the whole run.  A *master* failure is unrecoverable
    in-run (the only copy of the search state dies with rank 0 —
    "catastrophic") and raises the typed
    :class:`~repro.errors.MasterLostError` naming the latest durable
    checkpoint, if any; a *worker* failure restarts the run from that
    checkpoint (else from scratch), at most ``cfg.max_restarts`` times."""
    ckpt = (checkpoint_file(cfg.config.checkpoint_path)
            if cfg.config.checkpoint_path else None)
    restarts = 0
    while True:
        try:
            results = _run_mesh(cfg)
            break
        except RankFailureError as exc:
            from repro.engines.fault import forkjoin_failure_outcome

            latest = str(ckpt) if ckpt is not None and ckpt.exists() else None
            outcome = forkjoin_failure_outcome(
                sorted(exc.failed_ranks), checkpoint=latest)
            if 0 in exc.failed_ranks:
                # Typed, not a generic unrecoverable failure: the state
                # is gone, not corrupt — a supervisor can restart from
                # the checkpoint the error names.
                raise MasterLostError(
                    exc.failed_ranks, checkpoint=latest,
                    message=f"fork-join run unrecoverable: {outcome.reason}",
                ) from exc
            if restarts >= cfg.max_restarts:
                raise CommError(
                    f"fork-join run failed after {restarts} restart(s): "
                    f"{outcome.reason}"
                ) from exc
            restarts += 1
            # the failed node was replaced: no injection on the new mesh
            cfg = replace(cfg, fault_plan=None,
                          resume_from=latest or cfg.resume_from)
    results[0].restarts = restarts
    return results


def launch(cfg: RunConfig) -> list[DistributedResult | None]:
    """Run ``cfg.engine`` on ``cfg.n_ranks`` real processes.

    Returns one entry per original rank.  Decentralized: every replica's
    result, ``None`` at ranks an injected fault killed — the survivors'
    results record the failure and recovery (``failed_ranks`` in the
    original rank numbering, ``recoveries``).  Fork-join: the master's
    result at index 0, ``None`` for the workers.
    """
    for directory in (cfg.trace_dir, cfg.monitor_dir):
        if directory:  # created in the parent, before ranks fork
            Path(directory).mkdir(parents=True, exist_ok=True)
    return _launch_forkjoin(cfg) if cfg.engine == "forkjoin" else _run_mesh(cfg)


def first_survivor(results: list[DistributedResult | None]) -> DistributedResult:
    """The lowest-ranked result of a launch: the fork-join master's, or
    the first surviving replica's (replicas end bitwise identical)."""
    for result in results:
        if result is not None:
            return result
    raise CommError("no surviving replicas")


def run_sequential_reference(
    parts: list[PartitionData],
    taxa: list[str],
    start_newick: str,
    config: SearchConfig | None = None,
    n_branch_sets: int = 1,
) -> DistributedResult:
    """The single-rank reference both engines must reproduce: the search
    on this process over the full data, with the region log it ran.  The
    caller's partitions are not touched."""
    tree = _rebuild_tree(start_newick, n_branch_sets)
    # private copies: optimization must not mutate the caller's partitions
    own = [p.subset(np.arange(p.n_patterns)) for p in parts]
    backend = SequentialBackend(PartitionedLikelihood(tree, own, list(taxa)))
    result = hill_climb(backend, config or SearchConfig())
    return DistributedResult(result.logl, write_newick(backend.tree),
                             result.iterations, {}, log=backend.log)
