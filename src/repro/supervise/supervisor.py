"""The escalation ladder: relaunch, degrade, or fail — but never hang.

The :class:`Supervisor` sits above the live launchers and turns "the run
died" into a policy decision instead of a stack trace:

====  ==========================================================
tier  remedy
====  ==========================================================
0     in-mesh recovery (agree → shrink → redistribute → resume);
      lives inside the engines, the supervisor just launches
1     kill + restart from the latest checkpoint on a fresh mesh,
      after backoff — the remedy for a fork-join master death and
      for hung-rank / global-stall verdicts the launch timeout
      killed
2     restart *degraded*: reduced rank count and the other data
      distribution — the remedy for quorum loss and for failures
      that keep recurring at the original width
3     durable failure: attempts exhausted; the first stall
      diagnosis (when the monitor saw one) is attached to the run
      registry manifest
====  ==========================================================

Every launch is recorded as one link of an **attempt chain** in the run
registry (tier, engine, ranks, distribution, backoff, verdict), so
``repro runs show`` tells the whole story of a supervised run.

Wall-clock discipline (replicheck R004): the supervisor never *reads* a
clock — per-attempt budgets are enforced by the launcher's mesh timeout
and backoff is a blind ``time.sleep`` whose duration comes from the
seeded policy stream.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.engines.launch import (
    DistributedResult,
    RunConfig,
    first_survivor,
    launch,
)
from repro.errors import CommError, MasterLostError
from repro.rng import ensure_rng
from repro.search.checkpoint import checkpoint_file
from repro.supervise.policy import RecoveryPolicy

__all__ = [
    "Supervisor",
    "AttemptRecord",
    "SupervisedOutcome",
    "TIER_IN_MESH",
    "TIER_RESTART",
    "TIER_DEGRADE",
    "TIER_FAIL",
]

TIER_IN_MESH = 0
TIER_RESTART = 1
TIER_DEGRADE = 2
TIER_FAIL = 3

#: Verdicts that escalate straight to a degraded (tier-2) restart: the
#: failure is *about* the mesh width, so retrying at the same width
#: cannot help.
_DEGRADE_VERDICTS = frozenset({"quorum_lost"})


@dataclass(frozen=True)
class AttemptRecord:
    """One link of the attempt chain (mirrors the registry entry)."""

    attempt: int
    tier: int
    engine: str
    ranks: int
    dist: str
    verdict: str  # ok | master_lost | quorum_lost | timeout | stall:<status> | comm_error
    backoff_s: float = 0.0
    detail: str = ""
    resumed_from: str | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "attempt": self.attempt, "tier": self.tier,
            "engine": self.engine, "ranks": self.ranks, "dist": self.dist,
            "verdict": self.verdict, "backoff_s": round(self.backoff_s, 3),
            "detail": self.detail, "resumed_from": self.resumed_from,
        }


@dataclass
class SupervisedOutcome:
    """What the whole supervised run amounted to."""

    ok: bool
    tier: int  # tier of the final attempt (TIER_FAIL when exhausted)
    result: DistributedResult | None
    attempts: list[AttemptRecord] = field(default_factory=list)
    #: First stall-class monitor diagnosis seen across all attempts.
    diagnosis: dict[str, Any] | None = None
    error: str = ""
    #: True when the run stopped on a cooperative cancellation (SIGTERM
    #: under a cancellable launch) — not a success, but not a failure
    #: the ladder should retry either; ``result`` holds the partial
    #: state at the stop boundary.
    cancelled: bool = False


class Supervisor:
    """Drive one search to completion (or tier-3) under a policy.

    ``registry``/``run_id`` (both optional) chain every attempt into the
    run's manifest.  ``monitor`` runs the parent-side heartbeat monitor
    per attempt so a timeout verdict carries the *diagnosed* stall
    (``stall:hung_rank``, ``stall:global_stall``, ...) instead of just
    "timed out".  ``sleep`` is injectable for tests.
    """

    def __init__(
        self,
        policy: RecoveryPolicy | None = None,
        *,
        work_dir: str | Path | None = None,
        registry: Any = None,
        run_id: str | None = None,
        rng: np.random.Generator | int | None = None,
        monitor: bool = True,
        sleep: Callable[[float], None] = time.sleep,
        log: Callable[[str], None] | None = None,
    ) -> None:
        self.policy = policy or RecoveryPolicy()
        self.work_dir = Path(work_dir) if work_dir is not None else None
        self.registry = registry
        self.run_id = run_id
        self.rng = ensure_rng(rng)
        self.monitor = monitor
        self._sleep = sleep
        self._log = log or (lambda msg: None)

    # -- the ladder ---------------------------------------------------- #
    def attempt_config(
        self, base: RunConfig, attempt: int, *, ranks: int, dist: str,
        fault_plan: Any, work_dir: Path, resume: Path | None,
    ) -> RunConfig:
        """Attempt ``attempt``'s launch: ``base`` with the ladder's current
        width, distribution and fault plan, resumed from ``resume``, its
        heartbeats under ``work_dir/attempt<K>/monitor`` and — when the
        run is traced — its spans under ``base.trace_dir/attempt<K>``
        (restarts must not overwrite the spans of the mesh that died)."""
        return replace(
            base, n_ranks=ranks, dist_kind=dist, fault_plan=fault_plan,
            resume_from=resume,
            monitor_dir=(work_dir / f"attempt{attempt}" / "monitor"
                         if self.monitor else None),
            trace_dir=(Path(base.trace_dir) / f"attempt{attempt}"
                       if base.trace_dir else None),
        )

    def run(self, cfg: RunConfig) -> SupervisedOutcome:
        """Supervise the search ``cfg`` describes.  The policy owns
        ``timeout`` (the per-attempt budget) and ``min_ranks`` (the
        quorum); ``monitor_dir`` and ``resume_from`` are set per attempt."""
        policy = self.policy
        work_dir = self.work_dir or Path(
            tempfile.mkdtemp(prefix="repro-supervised-"))
        work_dir.mkdir(parents=True, exist_ok=True)
        config = cfg.config
        if not config.checkpoint_every:
            # Tier 1 is only as good as its checkpoints: force periodic
            # ones into the supervisor's work dir when the caller set
            # none, so every retry resumes instead of redoing.
            config = replace(config, checkpoint_every=1,
                             checkpoint_path=str(work_dir / "supervised.ckpt"))
        ckpt = checkpoint_file(config.checkpoint_path)
        base = replace(cfg, config=config, timeout=policy.attempt_timeout_s)
        if cfg.engine == "decentralized":  # only a replica mesh shrinks in-run
            base = replace(base, min_ranks=policy.min_ranks)

        tier = TIER_IN_MESH
        ranks, dist, plan = cfg.n_ranks, cfg.dist_kind, cfg.fault_plan
        attempts: list[AttemptRecord] = []
        first_diagnosis: dict[str, Any] | None = None
        verdict = detail = ""
        for attempt in range(policy.max_attempts):
            backoff = 0.0
            if attempt:
                backoff = policy.backoff_s(attempt, self.rng)
                self._log(f"[supervise] attempt {attempt} (tier {tier}): "
                          f"backing off {backoff:.2f}s, then relaunching "
                          f"{cfg.engine} on {ranks} rank(s) ({dist})")
                self._sleep(backoff)
            resume = ckpt if ckpt.exists() else None
            attempt_cfg = self.attempt_config(
                base, attempt, ranks=ranks, dist=dist, fault_plan=plan,
                work_dir=work_dir, resume=resume)
            monitor_thread = None
            if self.monitor:
                from repro.obs.monitor import MonitorThread

                monitor_dir = Path(attempt_cfg.monitor_dir)
                monitor_dir.mkdir(parents=True, exist_ok=True)
                monitor_thread = MonitorThread(monitor_dir).start()
                if self.registry is not None and self.run_id is not None:
                    # keep the manifest pointing at the *live* attempt so
                    # `repro watch <run-id>` follows across relaunches
                    self.registry.update(self.run_id,
                                         monitor_dir=str(monitor_dir))
            result = None
            stall = None
            try:
                result = first_survivor(launch(attempt_cfg))
                verdict, detail = "ok", ""
                if result.cancelled:
                    # A cooperative stop is terminal: the ladder must
                    # not relaunch a run the operator asked to end.
                    verdict = "cancelled"
                    detail = (f"stopped at iteration {result.iterations} "
                              f"by cooperative cancellation")
            except MasterLostError as exc:
                verdict, detail = "master_lost", _summarize(exc)
            except CommError as exc:
                verdict, detail = _classify(exc)
            finally:
                if monitor_thread is not None:
                    monitor_thread.poll_once()  # final state, post-join
                    stall = monitor_thread.stop()
            if stall is not None:
                if first_diagnosis is None:
                    first_diagnosis = stall.to_dict()
                if verdict == "timeout":
                    # The budget killed a wedged mesh; the monitor knows
                    # *why* it was wedged — name the diagnosis, not the
                    # clock.
                    verdict = f"stall:{stall.status}"
                    detail = stall.message

            record = AttemptRecord(
                attempt=attempt, tier=tier, engine=cfg.engine, ranks=ranks,
                dist=dist, verdict=verdict, backoff_s=backoff, detail=detail,
                resumed_from=str(resume) if resume else None,
            )
            attempts.append(record)
            self._record(record)
            if verdict == "cancelled":
                self._log(f"[supervise] attempt {attempt} cancelled "
                          f"cooperatively (tier {tier}, {ranks} rank(s))")
                self._finalize(False, tier, first_diagnosis, attempts)
                return SupervisedOutcome(
                    ok=False, tier=tier, result=result, attempts=attempts,
                    diagnosis=first_diagnosis, cancelled=True,
                    error="run cancelled")
            if verdict == "ok":
                self._log(f"[supervise] attempt {attempt} succeeded "
                          f"(tier {tier}, {ranks} rank(s))")
                self._finalize(True, tier, first_diagnosis, attempts)
                return SupervisedOutcome(
                    ok=True, tier=tier, result=result, attempts=attempts,
                    diagnosis=first_diagnosis)
            self._log(f"[supervise] attempt {attempt} failed "
                      f"(tier {tier}): {verdict}" +
                      (f" — {detail}" if detail else ""))

            # escalate: replacement-node model — injected faults belong
            # to the mesh that died; a fresh mesh starts clean
            plan = None
            if verdict in _DEGRADE_VERDICTS:
                tier = TIER_DEGRADE
            else:
                tier = min(tier + 1, TIER_DEGRADE)
            if tier == TIER_DEGRADE:
                ranks = policy.reduced_ranks(ranks)
                dist = policy.other_dist(dist)

        error = (f"supervised run failed durably after "
                 f"{policy.max_attempts} attempt(s); last verdict: "
                 f"{verdict}" + (f" — {detail}" if detail else ""))
        self._log(f"[supervise] tier {TIER_FAIL}: {error}")
        self._finalize(False, TIER_FAIL, first_diagnosis, attempts)
        return SupervisedOutcome(
            ok=False, tier=TIER_FAIL, result=None, attempts=attempts,
            diagnosis=first_diagnosis, error=error)

    # -- helpers ------------------------------------------------------- #
    def _record(self, record: AttemptRecord) -> None:
        if self.registry is not None and self.run_id is not None:
            self.registry.record_attempt(self.run_id, record.to_dict())

    def _finalize(self, ok: bool, tier: int,
                  diagnosis: dict[str, Any] | None,
                  attempts: list[AttemptRecord]) -> None:
        """Attach the supervision summary (and, for a tier-3 failure,
        the first stall diagnosis) to the registry manifest.  The final
        ``status`` stays with the caller — it owns the run lifecycle."""
        if self.registry is None or self.run_id is None:
            return
        fields: dict[str, Any] = {
            "supervised": {"ok": ok, "final_tier": tier,
                           "attempts": len(attempts)},
        }
        if diagnosis is not None:
            fields["diagnosis"] = diagnosis
        self.registry.update(self.run_id, **fields)


def _summarize(exc: BaseException) -> str:
    return str(exc).strip().splitlines()[0][:300]


def _classify(exc: CommError) -> tuple[str, str]:
    """Map a launch failure to a ladder verdict.

    Child-rank exceptions cross the process boundary as traceback text
    inside the :class:`CommError` message (see ``run_mpi``), so typed
    errors raised *inside* a rank — like the quorum check — are
    recognized by name here rather than by ``isinstance``.
    """
    text = str(exc)
    if "QuorumLostError" in text:
        return "quorum_lost", _last_line(text)
    if "timeout after" in text:
        return "timeout", _last_line(text)
    return "comm_error", _last_line(text)


def _last_line(text: str) -> str:
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    return (lines[-1] if lines else "")[:300]
