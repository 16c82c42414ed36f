"""Exception hierarchy for the repro package.

All exceptions raised deliberately by this library derive from
:class:`ReproError`, so callers can catch library errors without also
swallowing programming mistakes (``TypeError`` etc. propagate unchanged).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class AlignmentError(ReproError):
    """Malformed alignment data: ragged rows, unknown characters, empty input."""


class NewickError(ReproError):
    """Syntax or semantic error while parsing or writing Newick trees."""


class TreeError(ReproError):
    """Invalid tree manipulation: bad degree, missing edge, broken rearrangement."""


class ModelError(ReproError):
    """Invalid substitution-model or rate-heterogeneity configuration."""


class LikelihoodError(ReproError):
    """Numerical or structural failure inside the likelihood machinery."""


class CommError(ReproError):
    """Failure inside the virtual-MPI communication layer."""


class RankFailureError(CommError):
    """One or more peer ranks died or went silent mid-run.

    ``failed_ranks`` holds the failed ranks in the numbering of the
    communicator that detected the failure.  Survivors catch this, agree
    on the failed set (:meth:`MPComm.agree`), shrink the communicator
    (:meth:`MPComm.shrink`) and — in the de-centralized scheme — resume.
    """

    def __init__(self, failed_ranks, message: str = "") -> None:
        self.failed_ranks = frozenset(int(r) for r in failed_ranks)
        super().__init__(
            message or f"rank(s) {sorted(self.failed_ranks)} failed"
        )


class ReplicaDivergenceError(CommError):
    """The ranks' replicas issued inconsistent collectives.

    Raised on *every* rank by
    :class:`~repro.par.sanitize.ReplicaSanitizer` when a cross-rank check
    finds the ranks disagreeing about the collective they are in — the
    verb, its Table-I tag, the reduce op, the payload shape, or the hash
    of the previous collective's (rank-symmetric) result.  Divergence is
    a *program bug*, not a fault: this deliberately derives from
    :class:`CommError` but not :class:`RankFailureError`, so the
    decentralized recovery loop does not try to "recover" from it.

    ``call_index`` is the 0-based index of the first diverging
    collective (counted since launch or since the last shrink);
    ``diverging_ranks`` are the ranks that disagreed with the majority.
    """

    def __init__(self, call_index: int, diverging_ranks,
                 details: str = "") -> None:
        self.call_index = int(call_index)
        self.diverging_ranks = tuple(
            sorted(int(r) for r in diverging_ranks)
        )
        self.details = details
        message = (
            f"replica divergence at collective #{self.call_index}: "
            f"rank(s) {list(self.diverging_ranks)} disagree with the "
            "majority"
        )
        if details:
            message += "\n" + details
        super().__init__(message)


class MasterLostError(CommError):
    """The fork-join master (rank 0) died: the only copy of the search
    state is gone.

    In-run this is unrecoverable (the paper's "catastrophic" case), but
    it is *not* corrupt state: a supervising layer can restart the run
    from the latest durable checkpoint on a fresh mesh.  ``checkpoint``
    names that checkpoint when one exists (``None`` otherwise), so the
    supervisor can distinguish "restartable from checkpoint" from
    "restart from scratch".
    """

    def __init__(self, failed_ranks, checkpoint: str | None = None,
                 message: str = "") -> None:
        self.failed_ranks = frozenset(int(r) for r in failed_ranks)
        self.checkpoint = checkpoint
        suffix = (f" (restartable from checkpoint {checkpoint})"
                  if checkpoint else " (no checkpoint: restart from scratch)")
        super().__init__(
            message
            or "fork-join master died: the only copy of the search state "
               f"is lost{suffix}"
        )


class QuorumLostError(CommError):
    """The mesh shrank below the supervising policy's rank quorum.

    Raised by the decentralized recovery loop *instead of resuming* when
    a recovery would leave fewer than ``min_ranks`` survivors: the
    shrunk mesh could still finish, but the policy judges the run too
    degraded to be worth the wall-clock.  Like
    :class:`ReplicaDivergenceError`, this deliberately is not a
    :class:`RankFailureError` — the in-mesh recovery loop must not catch
    it; the remedy (a tier-2 restart at a different width) lives in the
    supervisor above the run.
    """

    def __init__(self, survivors: int, min_ranks: int,
                 failed_ranks=()) -> None:
        self.survivors = int(survivors)
        self.min_ranks = int(min_ranks)
        self.failed_ranks = frozenset(int(r) for r in failed_ranks)
        super().__init__(
            f"quorum lost: {survivors} survivor(s) after recovery, "
            f"policy requires at least {min_ranks}"
        )


class DistributionError(ReproError):
    """Infeasible or inconsistent data-distribution request."""


class SearchError(ReproError):
    """Tree-search driver failure (non-convergence, invalid configuration)."""


class CheckpointError(ReproError):
    """Corrupt or incompatible checkpoint file."""
