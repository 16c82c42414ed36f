"""Deterministic rank-failure injection for the multiprocess backend.

:class:`FaultInjector` is an :class:`~repro.par.comm.Interceptor` that
kills (or hangs) the process at a scheduled point, so the fault-tolerance
machinery can be exercised reproducibly:

* **die** — the process exits immediately (``os._exit``), closing its
  pipe ends; peers observe EOF, the fail-stop model of ULFM.
* **hang** — the process goes silent for ``hang_seconds`` and then
  exits; peers can only detect this through bounded receive timeouts.
* **slow** — the process sleeps ``hang_seconds`` once and then
  *continues normally*: a transient straggler, not a failure.  Nothing
  to detect or recover — the injection exists so the live monitor's
  straggler-vs-stall classification can be exercised deterministically.

Schedules are expressed as a :class:`FaultPlan`: either explicit
``rank @ call-number`` triggers (the call number counts that rank's
communicator operations — deterministic because the engines are
deterministic), or a seeded per-call probability, which is equally
reproducible under a fixed seed.

The injector counts *top-level* calls on the intercepted interface (an
``allreduce`` is one call even though the underlying implementation
composes a reduce and a bcast).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.errors import CommError
from repro.par.comm import Comm, CommCall, Interceptor

__all__ = [
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "FAULT_EXIT_CODE",
    "MODE_DIE",
    "MODE_HANG",
    "MODE_SLOW",
    "WHEN_ANY",
    "WHEN_RECOVERY",
]

#: Exit code of a fault-injected death (distinguishes injected kills from
#: genuine crashes in process tables / CI logs).
FAULT_EXIT_CODE = 77

MODE_DIE = "die"
MODE_HANG = "hang"
MODE_SLOW = "slow"
_MODES = (MODE_DIE, MODE_HANG, MODE_SLOW)

#: Trigger scopes: ``any`` counts every communicator call since launch;
#: ``recovery`` arms only once this rank enters its first recovery and
#: counts recovery operations (``agree`` is call 1, ``shrink`` call 2,
#: then every post-resume collective) — the knob that injects a *second*
#: fault during agree/shrink or right after a resume.
WHEN_ANY = "any"
WHEN_RECOVERY = "recovery"
_WHENS = (WHEN_ANY, WHEN_RECOVERY)


@dataclass(frozen=True)
class FaultSpec:
    """Kill ``rank`` when it issues its ``at_call``-th communicator call.

    With ``when="recovery"`` the counter is the rank's *recovery* call
    counter instead: it starts at the rank's first ``agree`` (so
    ``at_call=1`` dies entering agreement, ``at_call=2`` dies inside the
    shrink, ``at_call=3`` dies on the first post-resume collective...),
    which expresses multi-fault schedules where a second failure lands
    while the mesh is still repairing the first.
    """

    rank: int
    at_call: int
    mode: str = MODE_DIE
    when: str = WHEN_ANY

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise CommError("fault rank must be non-negative")
        if self.at_call < 1:
            raise CommError("fault call number counts from 1")
        if self.mode not in _MODES:
            raise CommError(f"unknown fault mode {self.mode!r}")
        if self.when not in _WHENS:
            raise CommError(f"unknown fault trigger scope {self.when!r}")


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible schedule of rank failures.

    Either a tuple of explicit :class:`FaultSpec` triggers, or a seeded
    per-call ``probability`` (each rank draws from its own
    ``default_rng(seed + rank)`` stream, so firing points are a pure
    function of ``(seed, rank, call history)``).
    """

    specs: tuple[FaultSpec, ...] = ()
    probability: float = 0.0
    seed: int | None = None
    hang_seconds: float = 30.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise CommError("fault probability must be in [0, 1]")
        if self.probability > 0.0 and self.seed is None:
            raise CommError("probabilistic fault plans need a seed")
        if self.hang_seconds <= 0:
            raise CommError("hang_seconds must be positive")

    @classmethod
    def kill(cls, rank: int, at_call: int, mode: str = MODE_DIE,
             hang_seconds: float = 30.0, when: str = WHEN_ANY) -> "FaultPlan":
        """Kill one rank at one deterministic point."""
        return cls(specs=(FaultSpec(rank, at_call, mode, when),),
                   hang_seconds=hang_seconds)

    @classmethod
    def random(cls, probability: float, seed: int,
               hang_seconds: float = 30.0) -> "FaultPlan":
        """Seeded per-call kill probability on every rank."""
        return cls(probability=probability, seed=seed,
                   hang_seconds=hang_seconds)

    @classmethod
    def parse(cls, text: str, hang_seconds: float = 30.0) -> "FaultPlan":
        """Parse the CLI syntax ``RANK@CALL[:MODE[:WHEN]][,...]``.

        Examples: ``"2@40"`` (rank 2 dies at its 40th comm call),
        ``"1@25:hang"`` (rank 1 goes silent), ``"2@30:slow"`` (rank 2
        straggles once, then continues), ``"0@10,3@80"`` (two faults),
        ``"2@40,1@2:die:recovery"`` (rank 1 dies inside the shrink that
        recovery from rank 2's death triggers).
        """
        specs = []
        for item in text.split(","):
            item = item.strip()
            if not item:
                continue
            body, _, rest = item.partition(":")
            mode, _, when = rest.partition(":")
            rank_s, sep, call_s = body.partition("@")
            if not sep:
                raise CommError(
                    f"bad fault spec {item!r}: expected RANK@CALL[:MODE[:WHEN]]"
                )
            try:
                rank, at_call = int(rank_s), int(call_s)
            except ValueError as exc:
                raise CommError(f"bad fault spec {item!r}: {exc}") from exc
            specs.append(FaultSpec(rank, at_call, mode or MODE_DIE,
                                   when or WHEN_ANY))
        if not specs:
            raise CommError(f"no fault specs in {text!r}")
        return cls(specs=tuple(specs), hang_seconds=hang_seconds)

    def describe(self) -> str:
        if self.probability > 0.0:
            return (f"p={self.probability} per call "
                    f"(seed {self.seed})")

        def one(s: FaultSpec) -> str:
            out = f"{s.rank}@{s.at_call}"
            if s.mode != MODE_DIE or s.when != WHEN_ANY:
                out += f":{s.mode}"
            if s.when != WHEN_ANY:
                out += f":{s.when}"
            return out

        return ",".join(one(s) for s in self.specs)


def _default_fire(mode: str, hang_seconds: float) -> None:
    """Actually take the process down (or silent)."""
    if mode == MODE_SLOW:
        # A transient straggler: stall this rank's compute once, then
        # resume.  Peers just wait (no failure, nothing to recover).
        time.sleep(hang_seconds)
        return
    if mode == MODE_HANG:
        # Go silent: peers must detect this via receive timeouts.  The
        # eventual exit bounds how long an orchestrating ``run_mpi``
        # waits for this rank's (never-coming) result.
        time.sleep(hang_seconds)
    os._exit(FAULT_EXIT_CODE)


class FaultInjector(Interceptor):
    """Dies on schedule.

    Before each top-level call it advances the per-rank call counter and
    fires the plan if a trigger matches.  ``plan_rank`` pins the identity
    used for trigger matching to the rank's *original* (world) number, so
    schedules stay meaningful across shrink renumbering.  ``on_fire``
    exists for in-process tests (the default really exits).

    Shrink rule: the injector itself rides on (the inherited
    :meth:`after_shrink`), with its plan identity and both running
    counters, so later triggers for this rank still fire after recovery.
    """

    def __init__(
        self,
        plan: FaultPlan,
        plan_rank: int,
        on_fire: Callable[[str, float], None] = _default_fire,
    ) -> None:
        self.plan = plan
        self.plan_rank = plan_rank
        self.calls = 0
        #: Recovery-scoped counter: 0 until this rank's first ``agree``,
        #: then every recovery step and post-resume collective counts.
        self.recovery_calls = 0
        self._on_fire = on_fire
        self._rng = (
            np.random.default_rng(plan.seed + plan_rank)
            if plan.probability > 0.0
            else None
        )

    def _fire_if_due(self) -> None:
        mode = self._firing_mode()
        if mode is not None:
            self._on_fire(mode, self.plan.hang_seconds)

    def _firing_mode(self) -> str | None:
        for spec in self.plan.specs:
            if spec.rank != self.plan_rank:
                continue
            counter = (self.recovery_calls if spec.when == WHEN_RECOVERY
                       else self.calls)
            if spec.at_call == counter:
                return spec.mode
        if self._rng is not None:
            if float(self._rng.random()) < self.plan.probability:
                return MODE_DIE
        return None

    def call(self, base: Comm, c: CommCall, proceed: Callable[[], Any]) -> Any:
        self.calls += 1
        if self.recovery_calls:
            self.recovery_calls += 1
        self._fire_if_due()
        return proceed()

    def _recovery_step(self, base: Comm, failed, proceed: Callable[[], Any]) -> Any:
        """Advance only the recovery counter (``agree``/``shrink`` are
        control operations, not application collectives — the primary
        call counter must stay aligned with the undisturbed schedule)."""
        self.recovery_calls += 1
        self._fire_if_due()
        return proceed()

    #: Entering agreement is recovery call 1 (a ``when="recovery"`` spec
    #: with ``at_call=1`` takes this rank down mid-consensus); entering the
    #: shrink is call 2 — the fault-during-shrink point.
    agree = shrink = _recovery_step
