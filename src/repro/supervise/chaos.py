"""Seeded chaos campaigns over the supervised engines.

A campaign runs the same small search N times, each time under a
randomized multi-fault schedule (deaths, hangs, transient stragglers —
including faults timed to land *inside* a recovery), and asserts the
supervision invariant for every run:

* the run ends **bitwise-identical** to the undisturbed reference (same
  Newick topology, log likelihood within ``logl_tol``), **or**
* it fails **cleanly at tier 3**, naming its diagnosis —

never a hang (per-attempt budgets bound every launch), never a partial
result.  Schedules are a pure function of the campaign seed via
:func:`repro.rng.ensure_rng`, so a red campaign is replayed exactly by
its seed.

Every chaos run is registered (with its full attempt chain) in a run
registry under the campaign's output directory, so a CI failure ships
the complete escalation story as artifacts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.par.faultcomm import (
    MODE_DIE,
    MODE_HANG,
    MODE_SLOW,
    WHEN_ANY,
    WHEN_RECOVERY,
    FaultPlan,
    FaultSpec,
)
from repro.engines.launch import RunConfig, first_survivor, launch
from repro.rng import ensure_rng
from repro.supervise.policy import RecoveryPolicy
from repro.supervise.supervisor import TIER_FAIL, Supervisor

__all__ = [
    "ChaosRun",
    "ChaosReport",
    "generate_schedule",
    "run_campaign",
    "DEFAULT_LOGL_TOL",
    "REPORT_FILENAME",
    "SLOW_FAULT_SECONDS",
]

#: |Δ logL| a matching run may show against the undisturbed reference.
#: The engines are replica-exact; the tolerance only absorbs the float
#: rounding of summing differently split shares (~1e-10) when recovery
#: leaves a run on a narrower mesh than its reference.
DEFAULT_LOGL_TOL = 1e-8

REPORT_FILENAME = "chaos_report.json"

#: How long a drawn hang or slow fault sleeps.  A campaign's detect
#: timeout must exceed it, or a benign straggler reads as a dead rank.
SLOW_FAULT_SECONDS = 2.0

#: Mode mix for drawn faults: deaths dominate (the fail-stop model the
#: recovery machinery is built for), hangs exercise bounded-receive
#: detection, slows exercise the straggler-vs-stall distinction.
_MODE_CHOICES = (MODE_DIE, MODE_HANG, MODE_SLOW)
_MODE_WEIGHTS = (0.6, 0.2, 0.2)


def generate_schedule(
    rng: np.random.Generator | int | None,
    n_ranks: int,
    engine: str = "decentralized",
    max_faults: int = 3,
    max_call: int = 40,
    hang_seconds: float = SLOW_FAULT_SECONDS,
) -> FaultPlan:
    """Draw one randomized multi-fault schedule from ``rng``.

    Lethal faults (die/hang — a hang eventually exits too) are capped at
    ``n_ranks - 1`` so the mesh always keeps one survivor to tell the
    story; extra draws degrade to ``slow``.  With probability ~0.3 a
    follow-up fault is scoped ``when="recovery"`` (it fires during the
    agree/shrink repair of an earlier fault, or right after the resume)
    — the multi-fault case single-fault tests never reach.  Fork-join
    schedules include rank 0 so master-death → tier-1 restarts are
    drawn naturally.
    """
    rng = ensure_rng(rng)
    n_faults = int(rng.integers(1, max_faults + 1))
    lethal_budget = max(0, n_ranks - 1)
    specs: list[FaultSpec] = []
    taken: set[tuple[int, str]] = set()
    for _ in range(n_faults):
        rank = int(rng.integers(0, n_ranks))
        mode = str(rng.choice(_MODE_CHOICES, p=_MODE_WEIGHTS))
        when = WHEN_ANY
        if specs and float(rng.random()) < 0.3:
            when = WHEN_RECOVERY
        if when == WHEN_RECOVERY:
            at_call = int(rng.integers(1, 5))  # agree=1, shrink=2, resume=3+
        else:
            at_call = int(rng.integers(1, max_call + 1))
        if (rank, when) in taken:
            continue  # one fault per (rank, scope): the first wins anyway
        if mode in (MODE_DIE, MODE_HANG):
            if lethal_budget <= 0:
                mode = MODE_SLOW
            else:
                lethal_budget -= 1
        taken.add((rank, when))
        specs.append(FaultSpec(rank, at_call, mode, when))
    return FaultPlan(specs=tuple(specs), hang_seconds=hang_seconds)


@dataclass
class ChaosRun:
    """One campaign run and its verdict against the invariant."""

    index: int
    schedule: str
    ok: bool  # the supervised run produced a result
    matched: bool | None  # result bitwise-identical to the reference
    clean_failure: bool | None  # tier-3 with a named diagnosis/error
    tier: int
    attempts: int
    verdict: str  # final attempt verdict (or tier-3 error summary)
    logl: float | None = None
    run_id: str | None = None

    @property
    def invariant_held(self) -> bool:
        return bool(self.matched) if self.ok else bool(self.clean_failure)

    def to_dict(self) -> dict[str, Any]:
        return {
            "index": self.index, "schedule": self.schedule, "ok": self.ok,
            "matched": self.matched, "clean_failure": self.clean_failure,
            "invariant_held": self.invariant_held, "tier": self.tier,
            "attempts": self.attempts, "verdict": self.verdict,
            "logl": self.logl, "run_id": self.run_id,
        }


@dataclass
class ChaosReport:
    """The whole campaign: reference, runs, violations."""

    seed: int
    engine: str
    n_ranks: int
    dist_kind: str
    reference_logl: float
    reference_newick: str
    runs: list[ChaosRun] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": "chaos_campaign",
            "seed": self.seed, "engine": self.engine,
            "ranks": self.n_ranks, "dist": self.dist_kind,
            "reference": {"logl": self.reference_logl,
                          "newick": self.reference_newick},
            "n_runs": len(self.runs),
            "n_recovered": sum(1 for r in self.runs if r.ok),
            "n_tier3": sum(1 for r in self.runs if not r.ok),
            "ok": self.ok,
            "violations": self.violations,
            "runs": [r.to_dict() for r in self.runs],
        }

    def format_table(self) -> str:
        header = (f"{'run':>4} {'schedule':<34} {'tier':>4} {'att':>4} "
                  f"{'outcome':<10} {'logL':>14}  verdict")
        lines = [header, "-" * len(header)]
        for r in self.runs:
            outcome = ("recovered" if r.ok else "tier-3")
            if not r.invariant_held:
                outcome = "VIOLATION"
            logl = f"{r.logl:.4f}" if r.logl is not None else "-"
            lines.append(f"{r.index:>4} {r.schedule:<34} {r.tier:>4} "
                         f"{r.attempts:>4} {outcome:<10} {logl:>14}  "
                         f"{r.verdict}")
        lines.append("-" * len(header))
        n_ok = sum(1 for r in self.runs if r.ok)
        lines.append(
            f"{len(self.runs)} run(s): {n_ok} recovered bitwise-identical, "
            f"{len(self.runs) - n_ok} failed cleanly at tier 3, "
            f"{len(self.violations)} invariant violation(s)")
        for v in self.violations:
            lines.append(f"VIOLATION: {v}")
        return "\n".join(lines)


def _chaos_policy() -> RecoveryPolicy:
    """Campaign default: quick backoff (chaos measures correctness, not
    politeness), a hard per-attempt budget so no schedule can wedge the
    campaign, and a small retry count to bound total wall-clock."""
    return RecoveryPolicy(max_attempts=3, backoff_base_s=0.05,
                          backoff_max_s=0.5, attempt_timeout_s=120.0)


def run_campaign(
    cfg: RunConfig,
    *,
    n_runs: int = 20,
    seed: int = 0,
    policy: RecoveryPolicy | None = None,
    out_dir: str | Path | None = None,
    max_faults: int = 3,
    hang_seconds: float = SLOW_FAULT_SECONDS,
    logl_tol: float = DEFAULT_LOGL_TOL,
    monitor: bool = False,
    log: Callable[[str], None] | None = None,
) -> ChaosReport:
    """Run ``n_runs`` seeded chaos runs of ``cfg`` and check the invariant
    on each.  ``cfg`` is the undisturbed run; every chaos run is the same
    configuration under a drawn ``fault_plan``.

    ``hang_seconds`` must stay *under* ``cfg.detect_timeout``: a slow
    fault then resolves before bounded-receive detection fires (a
    transient straggler, not a false-positive failure), while a hang
    still turns into a detectable death when the hung process exits.

    Returns the :class:`ChaosReport`; when ``out_dir`` is given the
    report JSON, every run's registry manifest (with its attempt chain)
    and the supervisors' work dirs are left there as artifacts.
    """
    if cfg.detect_timeout is None or hang_seconds >= cfg.detect_timeout:
        raise ValueError(
            "hang_seconds must be < detect_timeout (a longer sleep turns "
            "the benign slow fault into a false-positive rank failure)")
    emit = log or (lambda msg: None)
    rng = ensure_rng(seed)
    engine, n_ranks, dist_kind = cfg.engine, cfg.n_ranks, cfg.dist_kind
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    registry = None
    if out is not None:
        from repro.obs.registry import RunRegistry

        registry = RunRegistry(out / "runs")

    # The bitwise target every chaos run must reproduce.  A single
    # undisturbed run of the same engine at the same width suffices for
    # *every* tier (including degraded tier-2 widths): the engines are
    # replica-exact across rank counts and distributions — that is the
    # consistency contract the repo's tier-1 tests enforce.
    emit(f"[chaos] reference run: undisturbed {engine} on {n_ranks} "
         f"rank(s) ({dist_kind})")
    reference = first_survivor(launch(replace(cfg, fault_plan=None)))

    report = ChaosReport(
        seed=seed, engine=engine, n_ranks=n_ranks, dist_kind=dist_kind,
        reference_logl=reference.logl, reference_newick=reference.newick)

    for index in range(n_runs):
        plan = generate_schedule(
            rng, n_ranks, engine=engine, max_faults=max_faults,
            hang_seconds=hang_seconds)
        schedule = plan.describe()
        emit(f"[chaos] run {index + 1}/{n_runs}: faults {schedule}")
        run_id = None
        if registry is not None:
            run_id = registry.register({
                "command": "chaos", "engine": engine, "ranks": n_ranks,
                "dist": dist_kind, "seed": seed, "chaos_index": index,
                "fault_schedule": schedule,
            })
        supervisor = Supervisor(
            policy or _chaos_policy(),
            work_dir=(out / f"run{index:03d}" if out is not None else None),
            registry=registry, run_id=run_id, rng=rng, monitor=monitor,
            log=log,
        )
        outcome = supervisor.run(replace(cfg, fault_plan=plan))

        matched = clean = None
        logl = None
        if outcome.ok:
            assert outcome.result is not None
            logl = outcome.result.logl
            matched = (outcome.result.newick == reference.newick
                       and abs(logl - reference.logl) <= logl_tol)
            verdict = outcome.attempts[-1].verdict
            if not matched:
                report.violations.append(
                    f"run {index} ({schedule}): recovered but diverged "
                    f"from the reference (logL {logl:.6f} vs "
                    f"{reference.logl:.6f}, trees "
                    f"{'equal' if outcome.result.newick == reference.newick else 'differ'})")
        else:
            clean = (outcome.tier == TIER_FAIL
                     and bool(outcome.error or outcome.diagnosis))
            verdict = outcome.error or outcome.attempts[-1].verdict
            if not clean:
                report.violations.append(
                    f"run {index} ({schedule}): failed without a clean "
                    f"tier-3 verdict (tier {outcome.tier})")
        status = "completed" if outcome.ok else "failed"
        if registry is not None and run_id is not None:
            registry.update(run_id, status=status, result=(
                {"logl": logl, "matched": matched} if outcome.ok else None))
        report.runs.append(ChaosRun(
            index=index, schedule=schedule, ok=outcome.ok, matched=matched,
            clean_failure=clean, tier=outcome.tier,
            attempts=len(outcome.attempts), verdict=verdict, logl=logl,
            run_id=run_id))

    if out is not None:
        (out / REPORT_FILENAME).write_text(
            json.dumps(report.to_dict(), indent=2) + "\n")
    return report
