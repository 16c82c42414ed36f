"""The fork-join scheme (RAxML-Light).

Two artifacts live here:

* :func:`region_events` — maps each abstract parallel region onto the
  collectives and byte counts the fork-join scheme incurs: a traversal-
  descriptor broadcast for every likelihood region, parameter broadcasts,
  and master-rooted reductions.  Priced over a region log
  (:func:`repro.perf.price.comm_totals`) it regenerates Table I, and
  :func:`repro.perf.price.simulate_runtime` prices its seconds.
* :class:`ForkJoinMasterBackend` / :func:`forkjoin_worker` — a *real* distributed
  implementation over any :class:`~repro.par.comm.Comm`: rank 0 owns the
  tree and the search, workers own site data and execute broadcast
  descriptors without ever seeing a tree (exactly the paper's Figure 1
  architecture).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engines.runtime import RankRuntime
from repro.errors import CommError
from repro.likelihood.backend import (
    Region,
    RegionKind,
    SequentialBackend,
    choose_psr_rates,
)
from repro.likelihood.partitioned import PartitionedLikelihood
from repro.par.comm import Comm, ReduceOp

__all__ = [
    "CommEvent",
    "CATEGORIES",
    "region_events",
    "CAT_TRAVERSAL",
    "CAT_BL_OPT",
    "CAT_LIKELIHOOD",
    "CAT_MODEL",
    "forkjoin_worker",
    "ForkJoinMasterBackend",
]

#: Table I row categories.
CAT_BL_OPT = "branch length optimization"
CAT_LIKELIHOOD = "per-site/per-partition likelihoods"
CAT_MODEL = "model parameters"
CAT_TRAVERSAL = "traversal descriptor"

_DOUBLE = 8
_INT = 4


@dataclass(frozen=True)
class CommEvent:
    """One collective inside a region: what, how big, which category."""

    collective: str  # 'bcast' | 'reduce' | 'allreduce' | 'barrier'
    nbytes: float
    category: str


def descriptor_nbytes(n_ops: float, n_partitions: int) -> float:
    """On-wire size of a traversal descriptor of ``n_ops`` operations.

    Four int32 node indices plus **two branch-length values per partition**
    per op: the RAxML family rescales branch lengths per partition (the
    per-partition "fracchange"), so partitioned descriptors always carry
    ``2 p`` doubles per operation — even under joint branch-length
    optimization.  This is why the traversal descriptor dominates Table I
    (up to 97.9%) as soon as datasets are partitioned; the ``-M`` mode
    additionally inflates the *derivative* messages.
    """
    return _INT + n_ops * (4 * _INT + 2 * _DOUBLE * max(1, n_partitions))


#: This engine's Table-I rows, in the table's order.
CATEGORIES = (CAT_BL_OPT, CAT_LIKELIHOOD, CAT_MODEL, CAT_TRAVERSAL)


def region_events(region: Region) -> list[CommEvent]:
    """The collectives fork-join runs for ``region``.  Every kind
    communicates, and the master packs each ``bcast`` payload serially
    while the workers wait."""
    p = region.n_partitions
    nbs = region.n_branch_sets
    events: list[CommEvent] = []
    if region.kind in (RegionKind.TRAVERSE, RegionKind.EVALUATE,
                       RegionKind.BRANCH_SETUP, RegionKind.PSR_SCAN):
        events.append(CommEvent(
            "bcast", descriptor_nbytes(region.max_ops(), p), CAT_TRAVERSAL))
    if region.kind is RegionKind.EVALUATE:
        events.append(CommEvent("reduce", _DOUBLE * p, CAT_LIKELIHOOD))
    elif region.kind is RegionKind.DERIVATIVE:
        # master proposes new branch length(s), workers answer with the
        # two derivative sums per branch set
        events.append(CommEvent("bcast", _DOUBLE * nbs, CAT_BL_OPT))
        events.append(CommEvent("reduce", 2 * _DOUBLE * nbs, CAT_BL_OPT))
    elif region.kind is RegionKind.PARAM_ALPHA:
        events.append(CommEvent("bcast", _DOUBLE * p, CAT_MODEL))
    elif region.kind is RegionKind.PARAM_GTR:
        events.append(CommEvent("bcast", 6 * _DOUBLE * p, CAT_MODEL))
    elif region.kind is RegionKind.PARAM_PSR:
        # per-partition normalization sums come back, factors go out
        events.append(CommEvent("reduce", 2 * _DOUBLE * p, CAT_MODEL))
        events.append(CommEvent("bcast", _DOUBLE * p, CAT_MODEL))
    elif region.kind is RegionKind.PSR_SCAN:
        events.append(CommEvent("bcast", _DOUBLE, CAT_MODEL))
    if region.kind in (RegionKind.TRAVERSE, RegionKind.BRANCH_SETUP):
        events.append(CommEvent("barrier", 0.0, CAT_TRAVERSAL))
    return events


# ---------------------------------------------------------------------- #
# Real distributed implementation (master / worker over a Comm)
# ---------------------------------------------------------------------- #
#
# Wire protocol: the master broadcasts command tuples; workers execute them
# on their local site shares through a tree-agnostic DescriptorExecutor and
# answer through master-rooted reductions — the paper's Figure 1, live.
#
# ``tag`` arguments label messages for byte accounting only; delivery is
# strictly ordered, so no tag matching is needed.

_CMD_TRAVERSE = "traverse"
_CMD_EVALUATE = "evaluate"
_CMD_BRANCH_SETUP = "branch_setup"
_CMD_DERIVATIVE = "derivative"
_CMD_ALPHAS = "alphas"
_CMD_GTR = "gtr"
_CMD_PSR_SCAN = "psr_scan"
_CMD_PSR_FINALIZE = "psr_finalize"
_CMD_PSR_FACTORS = "psr_factors"
_CMD_STOP = "stop"


#: Table-I category of the master's broadcast, per command.
_COMMAND_TAG = {
    _CMD_TRAVERSE: CAT_TRAVERSAL,
    _CMD_EVALUATE: CAT_TRAVERSAL,
    _CMD_BRANCH_SETUP: CAT_TRAVERSAL,
    _CMD_DERIVATIVE: CAT_BL_OPT,
    _CMD_ALPHAS: CAT_MODEL,
    _CMD_GTR: CAT_MODEL,
    _CMD_PSR_SCAN: CAT_MODEL,
    _CMD_PSR_FINALIZE: CAT_MODEL,
    _CMD_PSR_FACTORS: CAT_MODEL,
}
#: Table-I category of the reduction at each of the three combine sites
#: (fork-join's ``reduce`` and the de-centralized ``allreduce`` alike).
COMBINE_TAG = {
    RegionKind.EVALUATE: CAT_LIKELIHOOD,
    RegionKind.DERIVATIVE: CAT_BL_OPT,
    RegionKind.PARAM_PSR: CAT_MODEL,
}


class ForkJoinMasterBackend(SequentialBackend):
    """Master (rank 0): owns the tree and the search state, broadcasts
    descriptors/parameters, reduces results — so the unmodified search
    drives a genuinely distributed fork-join run.  ``lik`` is the master's
    own data share."""

    def __init__(self, comm: Comm, lik: PartitionedLikelihood) -> None:
        if comm.rank != 0:
            raise CommError("the fork-join master must be rank 0")
        super().__init__(lik)
        self.comm = comm

    def _announce(self, command: str, *payload) -> None:
        tag = _COMMAND_TAG[command]
        if tag == CAT_TRAVERSAL:
            # the edge's descriptor is already in wire format; its op list
            # is the longest per-partition one, a superset of every
            # partition's needs, and workers run it for all partitions
            # (recomputing a few already-valid CLVs — as RAxML-Light does)
            descriptors, u, v = payload
            payload = (descriptors.ops, u.id, v.id,
                       self.tree.edge_length(u, v).copy())
        # the factors answer the workers' pending receive: no command word
        message = payload[0] if command == _CMD_PSR_FACTORS else (command, *payload)
        self.comm.bcast(message, root=0, tag=tag)

    def _combine(self, kind: RegionKind, local: np.ndarray) -> np.ndarray:
        return self.comm.reduce(local, ReduceOp.SUM, root=0, tag=COMBINE_TAG[kind])

    def _sync(self) -> None:
        self.comm.barrier(tag=CAT_TRAVERSAL)

    def finish(self) -> None:
        self.comm.bcast((_CMD_STOP,), root=0, tag="control")


def forkjoin_worker(
    comm: Comm,
    parts: list,
    node_taxon: dict[int, int],
    n_branch_sets: int,
    runtime: RankRuntime | None = None,
) -> None:
    """Worker loop: execute master commands on local data until STOP.

    ``parts`` are the rank's local :class:`PartitionData` shares;
    ``node_taxon`` maps the master tree's leaf node ids to global taxon
    rows (sent once during setup).  ``runtime`` is the rank's
    :class:`~repro.engines.runtime.RankRuntime` (default: the disabled
    one).  With tracing on, the lock-step executor emits kernel spans
    (see :mod:`repro.obs`) and per-op kernel totals accumulate in the
    runtime's profiler; the launcher's ``runtime.close`` writes them, with
    the executor's CLV accounting, as ``kernel_op`` and ``clv_memory``
    instants into the rank's stream.  With monitoring on, the
    worker's heartbeat state counts executed commands (as ``iteration``)
    so the live monitor can tell a worker that stopped draining commands
    from one that never got any.
    """
    from repro.engines.executor import DescriptorExecutor
    from repro.model.rates import PerSiteRates as _PSR

    runtime = runtime or RankRuntime()
    if runtime.tracer.enabled:
        from repro.obs.instrument import TracedExecutor

        executor = TracedExecutor(parts, node_taxon, runtime.tracer,
                                  profiler=runtime.profiler)
    else:
        executor = DescriptorExecutor(parts, node_taxon)
    runtime.clv_source = executor
    progress = runtime.progress
    progress.status(phase="worker")
    handle: list[np.ndarray] | None = None
    psr_tables: dict[int, list[np.ndarray]] = {}
    n_commands = 0

    while True:
        msg = comm.bcast(None, root=0, tag="command")
        cmd = msg[0]
        n_commands += 1
        if n_commands % 64 == 0:
            # cheap liveness signal: two attribute writes per 64 commands
            progress.status(iteration=n_commands)
        if cmd == _CMD_STOP:
            progress.status(iteration=n_commands)
            return
        if cmd in (_CMD_EVALUATE, _CMD_BRANCH_SETUP, _CMD_TRAVERSE):
            _, wire, u_id, v_id, t_root = msg
            executor.run_ops(wire)
            if cmd == _CMD_EVALUATE:
                per_part, _ = executor.evaluate(u_id, v_id, t_root)
                comm.reduce(per_part, ReduceOp.SUM, root=0,
                            tag=CAT_LIKELIHOOD)
            elif cmd == _CMD_BRANCH_SETUP:
                handle = executor.sumtables(u_id, v_id)
                comm.barrier(tag=CAT_TRAVERSAL)
            else:  # plain traverse: inside a PSR scan, collect site logls
                _, site_lhs = executor.evaluate(u_id, v_id, t_root)
                for i, part in enumerate(parts):
                    if isinstance(part.rate_het, _PSR):
                        psr_tables.setdefault(i, []).append(site_lhs[i])
        elif cmd == _CMD_DERIVATIVE:
            if handle is None:
                raise CommError("derivative before branch setup")
            local = executor.derivatives(handle, msg[1], n_branch_sets)
            comm.reduce(local, ReduceOp.SUM, root=0, tag=CAT_BL_OPT)
        elif cmd == _CMD_ALPHAS:
            for p, alpha in sorted(msg[1].items()):
                parts[p].rate_het.alpha = alpha
                parts[p].bump_model()
        elif cmd == _CMD_GTR:
            for p, r in sorted(msg[1].items()):
                parts[p].model = parts[p].model.with_rates(
                    np.asarray(r, float))
                parts[p].bump_model()
        elif cmd == _CMD_PSR_SCAN:
            rate = msg[1]
            for part in parts:
                if isinstance(part.rate_het, _PSR):
                    part.rate_het.set_rates(np.full(part.n_patterns, rate))
                    part.bump_model()
        elif cmd == _CMD_PSR_FINALIZE:
            chosen, sums = choose_psr_rates(parts, msg[1], psr_tables)
            comm.reduce(sums, ReduceOp.SUM, root=0, tag=CAT_MODEL)
            factors = comm.bcast(None, root=0, tag=CAT_MODEL)
            for i, factor in zip(sorted(psr_tables), factors):
                parts[i].rate_het.set_rates(chosen[i] / factor)
                parts[i].bump_model()
            psr_tables.clear()
        else:
            raise CommError(f"unknown fork-join command {cmd!r}")
