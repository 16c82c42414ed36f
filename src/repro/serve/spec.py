"""Job specifications and alignment pre-parse sizing for the service.

A job arrives over HTTP (or ``repro submit``) as a JSON object; this
module validates it into a frozen :class:`JobSpec` and then *sizes* it:
the scheduler never trusts a client's rank request blindly.  Instead it
pre-parses the alignment — taxa, sites, per-partition pattern counts
after RAxML-style pattern compression — and derives a **rank budget**
from the same machinery the engines use to distribute data:

* under ``--dist mps`` (monolithic per-partition distribution), a rank
  can only hold whole partitions, so the budget is the smallest rank
  count whose MPS makespan (:func:`repro.dist.mps.mps_assignment`, the
  schedule the ranks will actually hold) fits the policy's per-rank
  pattern target — more ranks than partitions can
  never help;
* under ``--dist cyclic``, patterns split freely, so the budget is
  simply ``ceil(total_patterns / patterns_per_rank)``.

Small jobs therefore pack onto few ranks (leaving pool room for
neighbours) while large jobs spread wide, mirroring the ab12phylo
fleet's per-instance CPU budgeting from an MSA pre-parse.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Any

from repro.errors import ReproError

__all__ = ["JobSpec", "JobSpecError", "JobSizing", "presize", "rank_budget"]

_ENGINES = ("decentralized", "forkjoin")
_DISTS = ("cyclic", "mps")
_MODELS = ("gamma", "psr", "none")


class JobSpecError(ReproError):
    """A submitted job spec is invalid (HTTP 400 territory)."""


@dataclass(frozen=True)
class JobSpec:
    """One inference request, as validated from a client's JSON body."""

    alignment: str
    engine: str = "decentralized"
    model: str = "gamma"
    partitions: str | None = None
    dist: str = "cyclic"
    #: Requested rank count; 0 means "size me" (the scheduler derives a
    #: budget from the alignment pre-parse either way — an explicit
    #: request is only honoured up to the policy's per-job cap).
    ranks: int = 0
    priority: int = 0
    tenant: str = "default"
    seed: int = 42
    iterations: int = 10
    radius: int = 5
    epsilon: float = 0.1
    per_partition_branches: bool = False
    #: Run the job under the PR-6 escalation-ladder supervisor with a
    #: per-job monitor thread (retry/backoff + stall diagnosis).
    supervise: bool = True
    #: End-to-end tracing: the daemon mints a ``trace_id``, records its
    #: scheduler-lifecycle spans under it, and the job's ranks trace
    #: into ``<run>/trace/`` so one merged Chrome trace shows
    #: submit → queue wait → launch → iterations → completion.
    trace: bool = True

    @classmethod
    def from_dict(cls, payload: Any) -> "JobSpec":
        if not isinstance(payload, dict):
            raise JobSpecError("job spec must be a JSON object")
        unknown = sorted(set(payload) - {f for f in cls.__dataclass_fields__})
        if unknown:
            raise JobSpecError(f"unknown job spec field(s): {unknown}")
        if not payload.get("alignment"):
            raise JobSpecError("job spec needs an 'alignment' path")
        spec = cls(**payload)
        if spec.engine not in _ENGINES:
            raise JobSpecError(
                f"engine must be one of {list(_ENGINES)}, "
                f"got {spec.engine!r}")
        if spec.dist not in _DISTS:
            raise JobSpecError(
                f"dist must be one of {list(_DISTS)}, got {spec.dist!r}")
        if spec.model not in _MODELS:
            raise JobSpecError(
                f"model must be one of {list(_MODELS)}, got {spec.model!r}")
        if not isinstance(spec.ranks, int) or spec.ranks < 0:
            raise JobSpecError("ranks must be a non-negative integer")
        if not isinstance(spec.priority, int):
            raise JobSpecError("priority must be an integer")
        if not isinstance(spec.tenant, str) or not spec.tenant:
            raise JobSpecError("tenant must be a non-empty string")
        if not isinstance(spec.iterations, int) or spec.iterations < 1:
            raise JobSpecError("iterations must be a positive integer")
        if not isinstance(spec.epsilon, (int, float)) or spec.epsilon <= 0:
            raise JobSpecError("epsilon must be positive")
        if not isinstance(spec.trace, bool):
            raise JobSpecError("trace must be a boolean")
        return spec

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


@dataclass(frozen=True)
class JobSizing:
    """What the alignment pre-parse learned about a job's workload."""

    taxa: int
    sites: int
    patterns: int
    partitions: int
    #: Per-partition compressed pattern counts (the LPT loads).
    pattern_loads: tuple[int, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict[str, Any]:
        d = asdict(self)
        d["pattern_loads"] = list(self.pattern_loads)
        return d


def presize(spec: JobSpec) -> JobSizing:
    """Pre-parse the job's alignment into a :class:`JobSizing`.

    Raises :class:`JobSpecError` when the alignment (or partition file)
    cannot be read — submission-time rejection beats a doomed launch.
    """
    from repro.cli import _load_alignment
    from repro.seq.partitions import PartitionScheme, read_partition_file

    try:
        alignment = _load_alignment(spec.alignment)
    except (OSError, ReproError, ValueError) as exc:
        raise JobSpecError(
            f"cannot read alignment {spec.alignment!r}: {exc}") from exc
    try:
        scheme = (read_partition_file(spec.partitions)
                  if spec.partitions
                  else PartitionScheme.single(alignment.n_sites))
        scheme.validate_cover(alignment.n_sites)
    except (OSError, ReproError) as exc:
        raise JobSpecError(
            f"bad partition scheme {spec.partitions!r}: {exc}") from exc
    loads = tuple(
        alignment.slice_sites(part.sites).compress().n_patterns
        for part in scheme
    )
    return JobSizing(
        taxa=alignment.n_taxa,
        sites=alignment.n_sites,
        patterns=int(sum(loads)),
        partitions=len(scheme),
        pattern_loads=loads,
    )


def rank_budget(
    spec: JobSpec,
    sizing: JobSizing,
    patterns_per_rank: int,
    max_ranks: int,
) -> int:
    """Derive the rank count the scheduler will actually grant.

    An explicit request is clamped to ``[1, max_ranks]``; an auto-sized
    job (``ranks == 0``) gets the smallest rank count that meets the
    per-rank pattern target under its data distribution.
    """
    max_ranks = max(1, max_ranks)
    if spec.ranks > 0:
        return min(spec.ranks, max_ranks)
    target = max(1, patterns_per_rank)
    if spec.dist == "mps":
        # Whole partitions per rank: walk rank counts until the MPS
        # makespan fits the target.  Beyond n_partitions ranks the
        # makespan cannot shrink (the largest partition is the floor).
        import numpy as np

        from repro.dist.mps import mps_assignment, schedule_makespan

        loads = np.asarray(sizing.pattern_loads, dtype=np.float64)
        ceiling = min(max_ranks, sizing.partitions)
        for r in range(1, ceiling + 1):
            assignment = mps_assignment(loads, r)
            if schedule_makespan(loads, assignment, r) <= target:
                return r
        return ceiling
    return min(max_ranks, max(1, math.ceil(sizing.patterns / target)))
