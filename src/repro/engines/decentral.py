"""The de-centralized scheme (ExaML) — the paper's contribution.

* :func:`region_events` maps the abstract region stream onto the ExaML
  communication pattern: **no** traversal-descriptor broadcasts, **no**
  parameter broadcasts, no master — only an ``MPI_Allreduce`` wherever the
  search needs a *global* quantity (the per-partition log likelihoods, the
  branch-length derivatives, and the tiny PSR normalization sums).
* :class:`DecentralizedBackend` is the *real* distributed implementation:
  every rank runs the identical search on a local, consistent replica of
  the tree and model state, communicating exclusively through rank-ordered
  (hence bitwise-reproducible) allreduces — the property Section III-B
  demands so replicas never diverge.
"""

from __future__ import annotations

import numpy as np

from repro.engines.forkjoin import (
    CAT_BL_OPT,
    CAT_LIKELIHOOD,
    CAT_MODEL,
    COMBINE_TAG,
    CommEvent,
)
from repro.likelihood.backend import Region, RegionKind, SequentialBackend
from repro.likelihood.partitioned import PartitionedLikelihood
from repro.par.comm import Comm, ReduceOp

__all__ = [
    "CATEGORIES",
    "region_events",
    "DecentralizedBackend",
    "recover_decentralized",
]

_DOUBLE = 8

#: This engine's Table-I rows: no traversal descriptor, ever.
CATEGORIES = (CAT_BL_OPT, CAT_LIKELIHOOD, CAT_MODEL)


def region_events(region: Region) -> list[CommEvent]:
    """The collectives the de-centralized scheme runs for ``region``.

    Regions that fork-join must synchronize (traversals, sumtable setup,
    parameter broadcasts, PSR scan steps) cost *nothing* here: each replica
    performs them locally.  Their compute still counts — the runtime
    synthesizer folds it into the interval ending at the next allreduce.
    No ``bcast`` either, so no master packs anything serially.
    """
    p = region.n_partitions
    nbs = region.n_branch_sets
    if region.kind is RegionKind.EVALUATE:
        return [CommEvent("allreduce", _DOUBLE * p, CAT_LIKELIHOOD)]
    if region.kind is RegionKind.DERIVATIVE:
        return [CommEvent("allreduce", 2 * _DOUBLE * nbs, CAT_BL_OPT)]
    if region.kind is RegionKind.PARAM_PSR:
        return [CommEvent("allreduce", 2 * _DOUBLE * p, CAT_MODEL)]
    return []


class DecentralizedBackend(SequentialBackend):
    """One replica of the ExaML scheme over a real communicator.

    Every rank constructs this around its *local* data share and runs the
    identical, deterministic search; the only inter-rank interaction is
    the allreduce at the three combine sites.  Rank-ordered reductions
    guarantee bitwise-identical results on every replica.  Everything
    else — traversals, ``set_alphas`` / ``set_gtr_rates`` /
    ``set_branch_length``, the PSR scan — is purely local: every replica
    executes the same deterministic update, the whole point of the
    de-centralized scheme.
    """

    runtime = None  # the rank's RankRuntime once attached; survives recovery

    def __init__(self, comm: Comm, lik: PartitionedLikelihood,
                 log: EventLog | None = None) -> None:
        super().__init__(lik, log)
        self.comm = comm

    @property
    def writes_checkpoints(self) -> bool:
        """All replicas hold identical state; one writer suffices."""
        return self.comm.rank == 0

    def _combine(self, kind: RegionKind, local: np.ndarray) -> np.ndarray:
        return self.comm.allreduce(local, ReduceOp.SUM, tag=COMBINE_TAG[kind])


def recover_decentralized(
    backend: DecentralizedBackend,
    failed,
    full_parts,
    dist_kind: str = "cyclic",
):
    """Rebuild a survivor's backend after rank failures (paper Section V).

    The live counterpart of :func:`repro.engines.fault.redistribute_after_failure`:
    every replica holds the complete *search* state (tree, model,
    position), so losing ranks only loses data shares.  Survivors

    1. **agree** on the failed set (``MPI_Comm_agree`` analogue),
    2. **shrink** the communicator to the survivors
       (``MPI_Comm_shrink`` analogue — renumbered, drained, still
       rank-ordered deterministic),
    3. **redistribute**: re-split the replicated full data against the
       shrunk rank count (the validated analytical redistribution is
       returned as a :class:`~repro.engines.fault.FailureReport` for
       accounting), and
    4. rebuild the local :class:`PartitionedLikelihood` around the
       *current* replicated tree, carrying over the replicated model
       state and the region log, ready to **resume** the hill-climb.

    Per-site PSR rates are data-share state, not replicated state: after
    redistribution they restart from their initial values identically on
    every survivor (and re-converge at the next model-optimization pass),
    so the replicas stay bitwise consistent.

    Returns ``(new_backend, report)`` where ``report.failed_ranks`` is in
    the numbering of the communicator that detected the failure.
    """
    from repro.dist.distributions import (
        cyclic_distribution,
        mps_distribution,
        split_local_data,
    )
    from repro.engines.fault import redistribute_after_failure
    from repro.model.rates import DiscreteGamma

    comm = backend.comm
    agreed = comm.agree(failed)

    # analytical redistribution over the same rank space — validates that
    # no pattern is lost and prices the recovery traffic
    costs = np.array([p.cost_patterns for p in full_parts])
    if dist_kind == "mps":
        dist = mps_distribution(costs, comm.size)
    else:
        dist = cyclic_distribution(costs, comm.size)
    report = redistribute_after_failure(dist, sorted(agreed))

    new_comm = comm.shrink(agreed)
    new_parts = split_local_data(
        full_parts, new_comm.rank, new_comm.size, dist_kind
    )
    old_parts = backend.lik.parts
    for new_p, old_p in zip(new_parts, old_parts):
        # replicated model state survives the failure by construction
        new_p.model = old_p.model
        if isinstance(new_p.rate_het, DiscreteGamma) and isinstance(
            old_p.rate_het, DiscreteGamma
        ):
            new_p.rate_het.alpha = old_p.rate_het.alpha
        new_p.bump_model()
    new_lik = PartitionedLikelihood(
        backend.lik.tree, new_parts, backend.lik.taxa
    )
    new_backend = DecentralizedBackend(new_comm, new_lik, backend.log)
    # the rank's runtime (tracer, progress, profiler, cancel poll)
    # survives the failure with the search state
    if backend.runtime is not None:
        backend.runtime.attach(new_backend)
    return new_backend, report
