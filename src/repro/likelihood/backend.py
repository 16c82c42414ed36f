"""The likelihood-backend protocol, its one implementation, and the log
of parallel regions every run of it keeps.

The tree search and the parameter optimizers are written against this
small protocol.  **Each method call corresponds to exactly one parallel
region** (or to a purely local action), and the paper's engines run the
identical search: they differ only in what a region communicates.  So
:class:`SequentialBackend` is the only body of the protocol — local
kernels on its :class:`PartitionedLikelihood`, with three hook points
that default to "one process, nothing to do" — and an engine is the
hooks it overrides:

=============  ==========  ==================  ======================
hook           sequential  de-centralized      fork-join master
                           (ExaML)             (RAxML-Light)
=============  ==========  ==================  ======================
``_announce``  nothing     nothing: replicas   bcast the command —
                           replay the same     wire descriptor, ``t``,
                           local update        parameters, PSR rate /
                                               candidates / factors
``_combine``   identity    allreduce           reduce to the master
``_sync``      nothing     nothing             barrier
=============  ==========  ==================  ======================

``_combine`` is called at the three sites where the search needs a global
quantity: the per-partition log likelihoods (``evaluate``), the
``(2, n_branch_sets)`` derivative sums (``derivatives``) and the PSR
normalization sums (``optimize_psr``).  Every engine must produce
*numerically identical* likelihoods, parameters and trees.

Every backend counts its regions: the body adds one :class:`Region` to
the backend's :class:`EventLog` as it closes each region, whatever the
hooks.  So the sequential program, each de-centralized replica and the
fork-join master each hold the run's region stream (paper, Section
III-A), and the communication models of :mod:`repro.engines` price that
stream — the regions the run executed, not a second search.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Protocol

import numpy as np

from repro.errors import ReproError
from repro.likelihood.partitioned import BranchWorkspace, EdgeDescriptor, PartitionedLikelihood
from repro.likelihood.stack import fold_by_set
from repro.model.rates import DiscreteGamma, PerSiteRates
from repro.tree.topology import Node, Tree

__all__ = [
    "PartitionInfo",
    "RegionKind",
    "Region",
    "EventLog",
    "LikelihoodBackend",
    "SequentialBackend",
    "choose_psr_rates",
]


@dataclass(frozen=True)
class PartitionInfo:
    """Static facts about a partition the optimizers need."""

    index: int
    name: str
    branch_set: int
    n_cats: int
    site_specific: bool
    has_gamma: bool
    cost_patterns: float


class RegionKind(enum.Enum):
    """What triggered a parallel region (maps onto Table I's four row
    categories)."""

    #: conditional-likelihood (re)computation only (barrier-terminated)
    TRAVERSE = "traverse"
    #: log-likelihood at the virtual root (reduction of per-partition logls)
    EVALUATE = "evaluate"
    #: traversal + sumtable construction before Newton–Raphson
    BRANCH_SETUP = "branch_setup"
    #: one Newton–Raphson iteration (derivative exchange)
    DERIVATIVE = "derivative"
    #: new Γ shape parameters for all partitions
    PARAM_ALPHA = "param_alpha"
    #: new GTR exchangeabilities for all partitions
    PARAM_GTR = "param_gtr"
    #: PSR finalize: per-partition rate renormalization
    PARAM_PSR = "param_psr"
    #: one PSR candidate-rate scan step (full traversal + per-site logls)
    PSR_SCAN = "psr_scan"


#: Region kinds that bring CLVs up to date (they carry a descriptor).
_TRAVERSING = frozenset({RegionKind.TRAVERSE, RegionKind.EVALUATE,
                         RegionKind.BRANCH_SETUP, RegionKind.PSR_SCAN})


@dataclass(frozen=True)
class Region:
    """One parallel region in engine-neutral form.

    ``newview_ops`` is the traversal-descriptor length — the number of CLV
    updates — either one ``int`` (identical for every partition, the
    common case) or a tuple of ``n_partitions`` ints; any other number or
    sequence is stored as one of the two.  Frozen and hashable, so a log
    counts equal regions instead of storing them.
    """

    kind: RegionKind
    n_partitions: int
    n_branch_sets: int
    newview_ops: int | tuple[int, ...] = 0

    def __post_init__(self) -> None:
        ops: Any = self.newview_ops
        if type(ops) is not int:
            object.__setattr__(
                self, "newview_ops",
                tuple(map(int, ops)) if hasattr(ops, "__iter__") else int(ops))

    def max_ops(self) -> float:
        """Descriptor length as broadcast (max across partitions)."""
        ops = self.newview_ops
        if isinstance(ops, tuple):
            return float(max(ops, default=0))
        return float(ops)

    def ops_vector(self) -> np.ndarray:
        """Per-partition CLV-update counts as a dense vector."""
        if isinstance(self.newview_ops, tuple):
            return np.array(self.newview_ops, dtype=np.float64)
        return np.full(self.n_partitions, float(self.newview_ops))

    def kernel_ops(self) -> dict:
        """Kernel invocations per partition implied by this region:
        :class:`~repro.par.ledger.OpKind` → a count or a per-partition
        vector."""
        from repro.par.ledger import OpKind  # pricing only: off the run path

        out: dict[OpKind, float | np.ndarray] = {}
        if self.kind in _TRAVERSING:
            out[OpKind.NEWVIEW] = (self.ops_vector()
                                   if isinstance(self.newview_ops, tuple)
                                   else float(self.newview_ops))
        if self.kind in (RegionKind.EVALUATE, RegionKind.PSR_SCAN):
            out[OpKind.EVALUATE] = 1.0
        if self.kind is RegionKind.BRANCH_SETUP:
            out[OpKind.SUMTABLE] = 1.0
        if self.kind is RegionKind.DERIVATIVE:
            out[OpKind.DERIVATIVE] = 1.0
        return out


class EventLog:
    """The region stream of one search run, as a multiset.

    A search repeats a few dozen region shapes thousands of times, so the
    log counts each distinct :class:`Region` rather than storing it
    again: its size follows the shapes, not the run's length.  It reads as
    the stream it counts — ``len`` is the number of regions, iteration
    yields every region (entries in order of first appearance, each as
    often as it occurred) — so a consumer that sums over the regions of a
    run reads it unchanged.  Two logs are equal when they count the same
    regions.
    """

    def __init__(self, regions: Iterable[Region] = ()) -> None:
        self.counts: Counter[Region] = Counter(regions)
        self._shapes: dict[tuple, Region] = {}  # add()'s fields -> Region

    def append(self, region: Region) -> None:
        self.counts[region] += 1

    def add(self, kind: RegionKind, n_partitions: int, n_branch_sets: int,
            newview_ops: int | tuple[int, ...]) -> None:
        """Count one region of these (canonical) fields — the backend's
        path: one :class:`Region` is built per distinct shape, not per
        region."""
        key = (kind, n_partitions, n_branch_sets, newview_ops)
        region = self._shapes.get(key)
        if region is None:
            region = self._shapes[key] = Region(*key)
        self.counts[region] += 1

    def __len__(self) -> int:
        return self.counts.total()

    def __iter__(self) -> Iterator[Region]:
        return self.counts.elements()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventLog):
            return NotImplemented
        return self.counts == other.counts

    def __repr__(self) -> str:
        return f"EventLog({len(self)} regions, {len(self.counts)} distinct)"

    def count(self, kind: RegionKind | None = None) -> int:
        if kind is None:
            return len(self)
        return sum(n for r, n in self.counts.items() if r.kind is kind)

    def validate(self) -> None:
        for r in self.counts:
            if r.n_partitions < 1 or r.n_branch_sets < 1:
                raise ReproError("malformed region")
            if (isinstance(r.newview_ops, tuple)
                    and len(r.newview_ops) != r.n_partitions):
                raise ReproError("per-partition op vector has wrong shape")


def _newview_ops(descriptors: EdgeDescriptor | None) -> int | tuple[int, ...]:
    """A region's CLV updates: one number when every partition takes part
    in the same ops, else one per partition."""
    if descriptors is None:
        return 0
    masks = descriptors.masks
    if masks.count(None) == len(masks):  # every op for every partition
        return len(masks)
    counts = descriptors.op_counts()
    first = counts[0]
    return first if counts.count(first) == len(counts) else tuple(counts)


class LikelihoodBackend(Protocol):
    """What the search and the optimizers require of an engine."""

    tree: Tree

    @property
    def n_partitions(self) -> int: ...

    @property
    def n_branch_sets(self) -> int: ...

    def partition_info(self) -> list[PartitionInfo]: ...

    def evaluate(self, u: Node, v: Node) -> tuple[float, np.ndarray]: ...

    def begin_branch(self, u: Node, v: Node) -> Any: ...

    def derivatives(
        self, handle: Any, t: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """First and second derivative sums **per branch set** at ``t``."""

    def set_branch_length(self, u: Node, v: Node, t: np.ndarray) -> None: ...

    def set_alphas(self, alphas: dict[int, float]) -> None: ...

    def set_gtr_rates(self, rates: dict[int, np.ndarray]) -> None: ...

    def get_alpha(self, p: int) -> float: ...

    def get_gtr_rates(self, p: int) -> np.ndarray: ...

    def optimize_psr(self, u: Node, v: Node, candidates: np.ndarray) -> None: ...

    def finish(self) -> None: ...


def choose_psr_rates(
    parts: list, candidates: np.ndarray, tables: dict[int, list[np.ndarray]]
) -> tuple[dict[int, np.ndarray], np.ndarray]:
    """Close a PSR scan on the local patterns.

    ``tables[i]`` holds partition ``i``'s per-pattern log likelihoods, one
    row per candidate rate.  Returns each PSR partition's argmax rate per
    pattern and the normalization sums to combine across ranks —
    ``(Σ w·rate, Σ w)`` per PSR partition, in partition order.
    """
    chosen: dict[int, np.ndarray] = {}
    sums = np.zeros(2 * len(tables))
    for k, i in enumerate(sorted(tables)):
        chosen[i] = candidates[np.argmax(np.vstack(tables[i]), axis=0)]
        weights = parts[i].weights
        sums[2 * k] = float(np.dot(weights, chosen[i]))
        sums[2 * k + 1] = float(weights.sum())
    return chosen, sums


class SequentialBackend:
    """The backend: drives a :class:`PartitionedLikelihood` over this
    process's data.

    As is, it is the single-rank program — the correctness oracle for the
    engines and the ``size == 1`` execution path of the library.  The
    engines subclass it and override hooks only (see the module table).
    ``log`` counts every region the backend closes; pass one to continue
    it (a replica rebuilt after a rank failure continues its own).
    """

    def __init__(self, lik: PartitionedLikelihood,
                 log: EventLog | None = None) -> None:
        self.lik = lik
        self.tree = lik.tree
        self.log = EventLog() if log is None else log

    # -- hooks: what an engine does at a region boundary ------------------ #
    def _announce(self, command: str, *payload: Any) -> None:
        """Before a region's compute: tell the other ranks what to run."""

    def _combine(self, kind: RegionKind, local: np.ndarray) -> np.ndarray:
        """Sum ``local`` over the ranks."""
        return local

    def _sync(self) -> None:
        """After branch set-up: wait for the other ranks."""

    def _record(self, kind: RegionKind,
                descriptors: EdgeDescriptor | None = None) -> None:
        """A region of ``kind`` ended (``descriptors``: what it traversed)."""
        lik = self.lik
        self.log.add(kind, lik.n_partitions, lik.n_branch_sets,
                     _newview_ops(descriptors))

    # -- facts ------------------------------------------------------------ #
    @property
    def n_partitions(self) -> int:
        return self.lik.n_partitions

    @property
    def n_branch_sets(self) -> int:
        return self.lik.n_branch_sets

    def partition_info(self) -> list[PartitionInfo]:
        return [
            PartitionInfo(
                index=i,
                name=part.name,
                branch_set=part.branch_set,
                n_cats=part.n_cats,
                site_specific=part.site_specific,
                has_gamma=isinstance(part.rate_het, DiscreteGamma),
                cost_patterns=part.cost_patterns,
            )
            for i, part in enumerate(self.lik.parts)
        ]

    def get_alpha(self, p: int) -> float:
        return self.lik.get_alpha(p)

    def get_gtr_rates(self, p: int) -> np.ndarray:
        return self.lik.parts[p].model.rates.copy()

    # -- regions ---------------------------------------------------------- #
    def _traverse(self, command: str, u: Node, v: Node) -> EdgeDescriptor:
        """Bring both CLVs of edge ``{u, v}`` up to date.  The validity
        stamps cover every partition, owned or not, so one descriptor
        serves the announcement and this process's own share."""
        descriptors = self.lik.descriptors_for_edge(u, v)
        self._announce(command, descriptors, u, v)
        self.lik.execute_descriptors(descriptors)
        return descriptors

    def evaluate(self, u: Node, v: Node) -> tuple[float, np.ndarray]:
        descriptors = self._traverse("evaluate", u, v)
        local, _ = self.lik.evaluate_local(u, v)
        per_part = self._combine(RegionKind.EVALUATE, local)
        self._record(RegionKind.EVALUATE, descriptors)
        return float(per_part.sum()), per_part

    def begin_branch(self, u: Node, v: Node) -> BranchWorkspace:
        descriptors = self._traverse("branch_setup", u, v)
        handle = self.lik.sumtables_local(u, v)
        self._sync()
        self._record(RegionKind.BRANCH_SETUP, descriptors)
        return handle

    def derivatives(
        self, handle: BranchWorkspace, t: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        self._announce("derivative", t)
        lik = self.lik
        local = fold_by_set(*lik.branch_derivatives(handle, t),
                            lik.branch_sets, lik.n_branch_sets)
        d1, d2 = self._combine(RegionKind.DERIVATIVE, local)
        self._record(RegionKind.DERIVATIVE)
        return d1, d2

    def set_branch_length(self, u: Node, v: Node, t: np.ndarray) -> None:
        # Local everywhere: under fork-join the updated lengths travel
        # inside the next descriptor.
        self.tree.set_edge_length(u, v, t)

    def set_alphas(self, alphas: dict[int, float]) -> None:
        self._announce("alphas", alphas)
        for p, alpha in sorted(alphas.items()):
            self.lik.set_alpha(p, alpha)
        self._record(RegionKind.PARAM_ALPHA)

    def set_gtr_rates(self, rates: dict[int, np.ndarray]) -> None:
        self._announce("gtr", rates)
        for p, r in sorted(rates.items()):
            self.lik.set_gtr_rates(p, r)
        self._record(RegionKind.PARAM_GTR)

    def optimize_psr(self, u: Node, v: Node, candidates: np.ndarray) -> None:
        lik = self.lik
        psr_parts = [
            i for i, part in enumerate(lik.parts)
            if isinstance(part.rate_het, PerSiteRates)
        ]
        if not psr_parts:
            return
        candidates = np.asarray(candidates, dtype=np.float64)
        # Scan: one region per candidate rate — a full traversal plus the
        # per-pattern log likelihoods, which stay rank-local.
        tables: dict[int, list[np.ndarray]] = {i: [] for i in psr_parts}
        for rate in map(float, candidates):
            self._announce("psr_scan", rate)
            for i in psr_parts:
                lik.set_psr_rates(i, np.full(lik.parts[i].n_patterns, rate))
            descriptors = self._traverse("traverse", u, v)
            _, site_lhs = lik.evaluate_local(u, v)
            self._record(RegionKind.PSR_SCAN, descriptors)
            for i in psr_parts:
                tables[i].append(site_lhs[i])
        # Finalize: the argmax per pattern is local; keeping the weighted
        # mean rate at one needs the global sums.
        self._announce("psr_finalize", candidates)
        chosen, sums = choose_psr_rates(lik.parts, candidates, tables)
        totals = self._combine(RegionKind.PARAM_PSR, sums)
        factors = totals[0::2] / totals[1::2]
        self._announce("psr_factors", factors)
        for i, factor in zip(psr_parts, factors):
            lik.set_psr_rates(i, chosen[i] / factor)
        self._record(RegionKind.PARAM_PSR)

    def finish(self) -> None:  # nothing to tear down
        return None
