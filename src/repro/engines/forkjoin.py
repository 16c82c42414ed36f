"""The fork-join scheme (RAxML-Light).

Two artifacts live here:

* :class:`ForkJoinCommModel` — maps each abstract parallel region onto the
  collectives and byte counts the fork-join scheme incurs: a traversal-
  descriptor broadcast for every likelihood region, parameter broadcasts,
  and master-rooted reductions.  This regenerates Table I and feeds the
  runtime synthesizer.
* :class:`ForkJoinMasterBackend` / :func:`forkjoin_worker` — a *real* distributed
  implementation over any :class:`~repro.par.comm.Comm`: rank 0 owns the
  tree and the search, workers own site data and execute broadcast
  descriptors without ever seeing a tree (exactly the paper's Figure 1
  architecture).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engines.events import EventLog, Region, RegionKind
from repro.engines.runtime import RankRuntime
from repro.errors import CommError
from repro.likelihood.backend import PartitionInfo, choose_psr_rates
from repro.likelihood.partitioned import PartitionedLikelihood
from repro.model.rates import PerSiteRates
from repro.par.comm import Comm, ReduceOp
from repro.tree.topology import Node
from repro.tree.traversal import EdgeDescriptor

__all__ = [
    "CommEvent",
    "ForkJoinCommModel",
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


class ForkJoinCommModel:
    """Region → collectives mapping for the fork-join scheme."""

    name = "fork-join (RAxML-Light)"

    def region_events(self, region: Region) -> list[CommEvent]:
        p = region.n_partitions
        nbs = region.n_branch_sets
        events: list[CommEvent] = []
        if region.kind in (
            RegionKind.TRAVERSE,
            RegionKind.EVALUATE,
            RegionKind.BRANCH_SETUP,
            RegionKind.PSR_SCAN,
        ):
            events.append(
                CommEvent(
                    "bcast",
                    descriptor_nbytes(region.max_ops(), p),
                    CAT_TRAVERSAL,
                )
            )
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

    def serial_bytes(self, region: Region) -> float:
        """Bytes the master must serially assemble for this region while
        the workers wait (the master-bottleneck term)."""
        return sum(
            ev.nbytes for ev in self.region_events(region)
            if ev.collective == "bcast"
        )

    def byte_totals(self, log: EventLog) -> dict[str, float]:
        """Bytes communicated per Table I category."""
        totals = {
            CAT_BL_OPT: 0.0,
            CAT_LIKELIHOOD: 0.0,
            CAT_MODEL: 0.0,
            CAT_TRAVERSAL: 0.0,
        }
        for region in log:
            for ev in self.region_events(region):
                totals[ev.category] += ev.nbytes
        return totals

    def region_count(self, log: EventLog) -> int:
        return len(log)


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
_CMD_STOP = "stop"


def _wire_descriptor(tree, descriptors: EdgeDescriptor) -> list[tuple]:
    """Serialize the edge's descriptor with branch lengths.

    Partitions can only differ by *how much* of the post-order they need
    (model changes force full traversals, structural changes invalidate
    identically across partitions), so the edge's op list is the longest
    per-partition descriptor and a superset of every partition's needs;
    workers simply execute it for all partitions, recomputing a few
    already-valid CLVs — exactly RAxML-Light's behaviour.
    """
    wire = []
    for op in descriptors.ops:
        node = tree.node(op.node)
        ta = tree.edge_length(node, tree.node(op.child_a)).copy()
        tb = tree.edge_length(node, tree.node(op.child_b)).copy()
        wire.append((op.node, op.toward, op.child_a, op.child_b, ta, tb))
    return wire


class ForkJoinMasterBackend:
    """Master (rank 0): owns the tree and the search state, broadcasts
    descriptors/parameters, reduces results.  Implements the
    :class:`~repro.likelihood.backend.LikelihoodBackend` protocol so the
    unmodified search drives a genuinely distributed fork-join run."""

    def __init__(self, comm: Comm, lik: PartitionedLikelihood) -> None:
        if comm.rank != 0:
            raise CommError("the fork-join master must be rank 0")
        self.comm = comm
        self.lik = lik  # the master's own data share
        self.tree = lik.tree

    @property
    def n_partitions(self) -> int:
        return self.lik.n_partitions

    @property
    def n_branch_sets(self) -> int:
        return self.lik.n_branch_sets

    def partition_info(self) -> list[PartitionInfo]:
        from repro.likelihood.backend import _partition_info_from

        return _partition_info_from(self.lik)

    def _branch_sets(self) -> np.ndarray:
        return np.array([p.branch_set for p in self.lik.parts], dtype=np.intp)

    def _bcast_traversal(self, cmd: str, u: Node, v: Node) -> None:
        # The master stamps validity for every partition, owned or not, so
        # one descriptor list serves both the wire and its own share.
        descriptors = self.lik.descriptors_for_edge(u, v)
        wire = _wire_descriptor(self.tree, descriptors)
        t_root = self.tree.edge_length(u, v).copy()
        self.comm.bcast((cmd, wire, u.id, v.id, t_root), root=0, tag=CAT_TRAVERSAL)
        self.lik.execute_descriptors(descriptors)

    def evaluate(self, u: Node, v: Node) -> tuple[float, np.ndarray]:
        self._bcast_traversal(_CMD_EVALUATE, u, v)
        local, _ = self.lik.evaluate_local(u, v)
        per_part = self.comm.reduce(local, ReduceOp.SUM, root=0, tag=CAT_LIKELIHOOD)
        assert per_part is not None
        return float(per_part.sum()), per_part

    def begin_branch(self, u: Node, v: Node):
        self._bcast_traversal(_CMD_BRANCH_SETUP, u, v)
        handle = self.lik.sumtables_local(u, v)
        self.comm.barrier(tag=CAT_TRAVERSAL)
        return handle

    def derivatives(self, handle, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        self.comm.bcast((_CMD_DERIVATIVE, t.copy()), root=0, tag=CAT_BL_OPT)
        d1p, d2p = self.lik.branch_derivatives(handle, t)
        branch_sets = self._branch_sets()
        local = np.vstack(
            [
                np.bincount(branch_sets, weights=d1p, minlength=self.n_branch_sets),
                np.bincount(branch_sets, weights=d2p, minlength=self.n_branch_sets),
            ]
        )
        summed = self.comm.reduce(local, ReduceOp.SUM, root=0, tag=CAT_BL_OPT)
        assert summed is not None
        # Re-express per-set totals in per-partition shape for the shared
        # Newton code (which sums by branch set): put each set's total on
        # the set's first partition, zero elsewhere.
        d1 = np.zeros(self.n_partitions)
        d2 = np.zeros(self.n_partitions)
        first: dict[int, int] = {}
        for i, bs in enumerate(branch_sets):
            first.setdefault(int(bs), i)
        for bs, i in first.items():
            d1[i] = summed[0][bs]
            d2[i] = summed[1][bs]
        return d1, d2

    def set_branch_length(self, u: Node, v: Node, t: np.ndarray) -> None:
        # Master-local: updated lengths travel inside the next descriptor.
        self.tree.set_edge_length(u, v, t)

    def set_alphas(self, alphas: dict[int, float]) -> None:
        self.comm.bcast((_CMD_ALPHAS, dict(alphas)), root=0, tag=CAT_MODEL)
        for p, alpha in sorted(alphas.items()):
            self.lik.set_alpha(p, alpha)

    def set_gtr_rates(self, rates: dict[int, np.ndarray]) -> None:
        self.comm.bcast(
            (_CMD_GTR, {k: np.asarray(v).copy() for k, v in rates.items()}),
            root=0,
            tag=CAT_MODEL,
        )
        for p, r in sorted(rates.items()):
            self.lik.set_gtr_rates(p, r)

    def get_alpha(self, p: int) -> float:
        return self.lik.get_alpha(p)

    def get_gtr_rates(self, p: int) -> np.ndarray:
        return self.lik.parts[p].model.rates.copy()

    def optimize_psr(self, u: Node, v: Node, candidates: np.ndarray) -> None:
        psr_parts = [
            i
            for i, part in enumerate(self.lik.parts)
            if isinstance(part.rate_het, PerSiteRates)
        ]
        if not psr_parts:
            return
        tables: dict[int, list[np.ndarray]] = {i: [] for i in psr_parts}
        for rate in candidates:
            self.comm.bcast((_CMD_PSR_SCAN, float(rate)), root=0, tag=CAT_MODEL)
            for i in psr_parts:
                self.lik.set_psr_rates(
                    i, np.full(self.lik.parts[i].n_patterns, float(rate))
                )
            self._bcast_traversal(_CMD_TRAVERSE, u, v)
            _, site_lhs = self.lik.evaluate_local(u, v)
            for i in psr_parts:
                tables[i].append(site_lhs[i])
        # choose the master's local rates, then exchange normalization sums
        self.comm.bcast((_CMD_PSR_FINALIZE, np.asarray(candidates).copy()),
                        root=0, tag=CAT_MODEL)
        sums = np.zeros(2 * len(psr_parts))
        chosen: dict[int, np.ndarray] = {}
        for k, i in enumerate(psr_parts):
            rates_i = choose_psr_rates(candidates, np.vstack(tables[i]))
            chosen[i] = rates_i
            w = self.lik.parts[i].weights
            sums[2 * k] = float(np.dot(w, rates_i))
            sums[2 * k + 1] = float(w.sum())
        totals = self.comm.reduce(sums, ReduceOp.SUM, root=0, tag=CAT_MODEL)
        assert totals is not None
        factors = np.array(
            [totals[2 * k] / totals[2 * k + 1] for k in range(len(psr_parts))]
        )
        self.comm.bcast(factors, root=0, tag=CAT_MODEL)
        for k, i in enumerate(psr_parts):
            self.lik.set_psr_rates(i, chosen[i] / factors[k])

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
    one).  With tracing on, the lock-step executor emits kernel spans and
    op counters (see :mod:`repro.obs`) and per-op kernel totals accumulate
    in the runtime's profiler, flushed with the executor's CLV accounting
    when the launcher closes the runtime.  With monitoring on, the
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
                                  runtime.metrics, profiler=runtime.profiler)
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
            candidates = msg[1]
            sums = np.zeros(2 * len(psr_tables))
            chosen: dict[int, np.ndarray] = {}
            for k, i in enumerate(sorted(psr_tables)):
                rates_i = choose_psr_rates(
                    candidates, np.vstack(psr_tables[i]))
                chosen[i] = rates_i
                w = parts[i].weights
                sums[2 * k] = float(np.dot(w, rates_i))
                sums[2 * k + 1] = float(w.sum())
            comm.reduce(sums, ReduceOp.SUM, root=0, tag=CAT_MODEL)
            factors = comm.bcast(None, root=0, tag=CAT_MODEL)
            for k, i in enumerate(sorted(psr_tables)):
                parts[i].rate_het.set_rates(chosen[i] / factors[k])
                parts[i].bump_model()
            psr_tables.clear()
        else:
            raise CommError(f"unknown fork-join command {cmd!r}")
