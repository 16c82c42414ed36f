"""Parent-process stall diagnosis over the heartbeat channel.

The heartbeat files (:mod:`repro.obs.heartbeat`) give the parent an
out-of-band view of every rank.  :func:`diagnose` folds one poll of
those records into a :class:`Diagnosis` that distinguishes

* **hung rank** — one rank's state is frozen *outside* any collective
  while its peers are frozen *inside* one: the classic injected-hang /
  wedged-compute signature.  The culprit's last completed call is
  ``calls``; the call it never entered — the one its peers are stuck
  waiting in — is ``calls + 1``, which the diagnosis names together
  with the peers' collective verb and Table-I tag;
* **slow straggler** — the same asymmetry (one rank computing, peers
  blocked waiting) but younger than ``stall_after``: the run is
  healthy, just imbalanced, and must *not* be reported as a stall;
* **global stall** — every active rank frozen inside a collective
  (a deadlock: mismatched call streams, e.g. a replica-divergence bug);
* **dead rank** — the beats themselves stopped: the process is gone
  (heartbeats come from a daemon thread, so only process death — not a
  wedged mesh — silences them).  This is the fail-stop case the
  bounded-recv detector also catches;
* **recovering** — ranks report the PR-1 ``agree → shrink →
  redistribute`` pipeline in flight; the monitor stands down rather
  than double-reporting the failure it already diagnosed.

Two clocks, two meanings: ``beat_ns`` (fresh ⇒ process alive) and
``updated_ns`` (fresh ⇒ rank making progress).  Both are
``perf_counter_ns`` — monotonic and system-wide on Linux — so the
parent compares them against its own clock directly.

The division of labour with fault tolerance: the bounded-recv timeout
*detects* that recovery is needed (and triggers it); this monitor
*diagnoses* which rank stalled, where, and why — earlier (its
thresholds are tighter than the detection timeout) and more precisely
(rank + collective call index, not just "recv timed out").
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, TextIO

from repro.durable import durable_write
from repro.obs.heartbeat import read_heartbeats
from repro.obs.thresholds import (
    DEFAULT_BEAT_TIMEOUT,
    DEFAULT_STALL_AFTER,
    DEFAULT_STRAGGLER_AFTER,
)

__all__ = [
    "RankHealth",
    "Diagnosis",
    "diagnose",
    "Monitor",
    "MonitorThread",
    "format_watch_table",
    "watch_loop",
    "DEFAULT_STRAGGLER_AFTER",
    "DEFAULT_STALL_AFTER",
    "DEFAULT_BEAT_TIMEOUT",
    "DIAGNOSIS_FILENAME",
]

#: Where :class:`MonitorThread` drops the first stall diagnosis.
DIAGNOSIS_FILENAME = "diagnosis.json"

_TERMINAL_PHASES = frozenset({"done", "failed"})
#: Diagnosis statuses that indicate the run is wedged.
_STALL_STATUSES = frozenset({"hung_rank", "global_stall", "dead_rank"})


@dataclass(frozen=True)
class RankHealth:
    """One rank's classified health at a poll instant."""

    rank: int
    state: str  # healthy|straggler|stalled|dead|recovering|done
    phase: str
    iteration: int
    logl: float | None
    calls: int
    verb: str
    tag: str
    in_collective: bool
    beat_age_s: float
    stale_s: float
    recoveries: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "rank": self.rank, "state": self.state, "phase": self.phase,
            "iteration": self.iteration, "logl": self.logl,
            "calls": self.calls, "verb": self.verb, "tag": self.tag,
            "in_collective": self.in_collective,
            "beat_age_s": round(self.beat_age_s, 3),
            "stale_s": round(self.stale_s, 3),
            "recoveries": self.recoveries,
        }


@dataclass
class Diagnosis:
    """One poll's verdict over the whole mesh."""

    status: str  # no_data|ok|straggler|hung_rank|global_stall|dead_rank|recovering|done
    message: str
    culprit: int | None = None
    #: Collective call index the mesh is wedged at (the call the hung
    #: rank never entered; its peers are waiting inside it).
    call_index: int | None = None
    verb: str = ""
    tag: str = ""
    stalled_for_s: float = 0.0
    stragglers: tuple[int, ...] = ()
    waiting: tuple[int, ...] = ()
    dead: tuple[int, ...] = ()
    recovering: tuple[int, ...] = ()
    ranks: list[RankHealth] = field(default_factory=list)
    t_ns: int = 0

    @property
    def is_stall(self) -> bool:
        return self.status in _STALL_STATUSES

    def to_dict(self) -> dict[str, Any]:
        return {
            "status": self.status,
            "message": self.message,
            "culprit": self.culprit,
            "call_index": self.call_index,
            "verb": self.verb,
            "tag": self.tag,
            "stalled_for_s": round(self.stalled_for_s, 3),
            "stragglers": list(self.stragglers),
            "waiting": list(self.waiting),
            "dead": list(self.dead),
            "recovering": list(self.recovering),
            "t_ns": self.t_ns,
            "ranks": [h.to_dict() for h in self.ranks],
        }


def _classify(record: dict[str, Any], now_ns: int, straggler_after: float,
              stall_after: float, beat_timeout: float) -> RankHealth:
    beat_age = (now_ns - int(record.get("beat_ns", 0))) / 1e9
    stale = (now_ns - int(record.get("updated_ns", 0))) / 1e9
    phase = str(record.get("phase", ""))
    if phase in _TERMINAL_PHASES:
        state = "done"
    elif beat_age > beat_timeout:
        state = "dead"
    elif phase == "recover":
        state = "recovering"
    elif stale >= stall_after:
        state = "stalled"
    elif stale >= straggler_after:
        state = "straggler"
    else:
        state = "healthy"
    return RankHealth(
        rank=int(record.get("world_rank", record.get("rank", -1))),
        state=state,
        phase=phase,
        iteration=int(record.get("iteration", 0)),
        logl=record.get("logl"),
        calls=int(record.get("calls", 0)),
        verb=str(record.get("verb", "")),
        tag=str(record.get("tag", "")),
        in_collective=bool(record.get("in_collective", False)),
        beat_age_s=beat_age,
        stale_s=stale,
        recoveries=int(record.get("recoveries", 0)),
    )


def diagnose(
    records: dict[int, dict[str, Any]],
    now_ns: int | None = None,
    straggler_after: float = DEFAULT_STRAGGLER_AFTER,
    stall_after: float = DEFAULT_STALL_AFTER,
    beat_timeout: float = DEFAULT_BEAT_TIMEOUT,
) -> Diagnosis:
    """Fold one poll of heartbeat records into a mesh diagnosis."""
    if now_ns is None:
        now_ns = time.perf_counter_ns()
    if not records:
        return Diagnosis("no_data", "no heartbeat records yet", t_ns=now_ns)
    health = [
        _classify(records[r], now_ns, straggler_after, stall_after,
                  beat_timeout)
        for r in sorted(records)
    ]
    active = [h for h in health if h.state != "done"]
    if not active:
        return Diagnosis("done", "all ranks finished", ranks=health,
                         t_ns=now_ns)

    recovering = tuple(h.rank for h in active if h.state == "recovering")
    if recovering:
        return Diagnosis(
            "recovering",
            f"rank(s) {list(recovering)} in the agree/shrink/redistribute "
            f"recovery pipeline",
            recovering=recovering, ranks=health, t_ns=now_ns,
        )

    dead = tuple(h.rank for h in active if h.state == "dead")
    if dead:
        worst = max((h for h in active if h.state == "dead"),
                    key=lambda h: h.beat_age_s)
        return Diagnosis(
            "dead_rank",
            f"rank {worst.rank} stopped heartbeating "
            f"{worst.beat_age_s:.1f}s ago (process death; last seen in "
            f"phase {worst.phase!r} after collective call {worst.calls})",
            culprit=worst.rank, stalled_for_s=worst.beat_age_s, dead=dead,
            ranks=health, t_ns=now_ns,
        )

    stalled = [h for h in active if h.state == "stalled"]
    if stalled:
        culprits = [h for h in stalled if not h.in_collective]
        waiting = tuple(h.rank for h in active
                        if h.in_collective and h.state in
                        ("stalled", "straggler"))
        if culprits:
            # The asymmetry: the hung rank froze *between* collectives
            # (it never entered call K); everyone else entered K and is
            # blocked inside it.  Name K and the collective the peers
            # report from inside it.
            culprit = min(culprits, key=lambda h: (h.calls, h.rank))
            peer = next((h for h in active if h.rank in waiting), None)
            verb = peer.verb if peer else ""
            tag = peer.tag if peer else ""
            inside = (f" ({verb}/{tag})") if verb else ""
            return Diagnosis(
                "hung_rank",
                f"hung rank {culprit.rank}: no progress for "
                f"{culprit.stale_s:.1f}s in phase {culprit.phase!r}; last "
                f"completed collective call {culprit.calls}, never entered "
                f"call {culprit.calls + 1}{inside} where "
                f"{len(waiting)} peer(s) {sorted(waiting)} are waiting",
                culprit=culprit.rank, call_index=culprit.calls + 1,
                verb=verb, tag=tag, stalled_for_s=culprit.stale_s,
                waiting=waiting, ranks=health, t_ns=now_ns,
            )
        if len(stalled) == len(active):
            calls = sorted({h.calls for h in stalled})
            return Diagnosis(
                "global_stall",
                f"all {len(active)} active rank(s) frozen inside "
                f"collective call(s) {calls} for "
                f"{min(h.stale_s for h in stalled):.1f}s (deadlock: "
                f"mismatched call streams?)",
                call_index=calls[-1],
                stalled_for_s=min(h.stale_s for h in stalled),
                waiting=tuple(h.rank for h in stalled), ranks=health,
                t_ns=now_ns,
            )
        # Some ranks frozen in a collective past stall_after while others
        # still make progress: the progressing-but-slowest ranks (the
        # ones *not* in a collective) are holding everyone up.
        slow = tuple(h.rank for h in active if not h.in_collective)
        return Diagnosis(
            "straggler",
            f"slow straggler(s) {list(slow)}: still progressing while "
            f"{len(waiting)} peer(s) wait in a collective",
            stragglers=slow, waiting=waiting, ranks=health, t_ns=now_ns,
        )

    frozen = [h for h in active if h.state == "straggler"]
    if frozen:
        slow = [h for h in frozen if not h.in_collective] or frozen
        names = tuple(h.rank for h in slow)
        waiting = tuple(h.rank for h in frozen if h.in_collective)
        worst = max(slow, key=lambda h: h.stale_s)
        return Diagnosis(
            "straggler",
            f"slow straggler rank(s) {list(names)}: no state change for "
            f"{worst.stale_s:.1f}s (under the stall threshold; "
            f"run continues)",
            stragglers=names, waiting=waiting,
            stalled_for_s=worst.stale_s, ranks=health, t_ns=now_ns,
        )

    return Diagnosis("ok", f"{len(active)} rank(s) healthy", ranks=health,
                     t_ns=now_ns)


class Monitor:
    """Poll-on-demand aggregator over one run's monitor directory."""

    def __init__(
        self,
        monitor_dir: str | Path,
        straggler_after: float = DEFAULT_STRAGGLER_AFTER,
        stall_after: float = DEFAULT_STALL_AFTER,
        beat_timeout: float = DEFAULT_BEAT_TIMEOUT,
    ) -> None:
        if not straggler_after < stall_after:
            raise ValueError("straggler_after must be < stall_after")
        self.monitor_dir = Path(monitor_dir)
        self.straggler_after = straggler_after
        self.stall_after = stall_after
        self.beat_timeout = beat_timeout

    def poll(self) -> Diagnosis:
        return diagnose(
            read_heartbeats(self.monitor_dir),
            straggler_after=self.straggler_after,
            stall_after=self.stall_after,
            beat_timeout=self.beat_timeout,
        )


class MonitorThread:
    """Background monitor for the launching (parent) process.

    Started before the ranks fork, stopped after they join: polls every
    ``interval`` seconds, records the first stall-class diagnosis
    (``first_stall``) and every status transition, and writes the first
    stall to ``diagnosis.json`` in the monitor directory so an outage
    leaves a durable, precise report even if the parent later dies.
    """

    def __init__(
        self,
        monitor_dir: str | Path,
        interval: float = 0.25,
        diagnosis_path: str | Path | None = None,
        on_diagnosis: Callable[[Diagnosis], None] | None = None,
        on_stall: Callable[[Diagnosis], None] | None = None,
        **thresholds: float,
    ) -> None:
        self.monitor = Monitor(monitor_dir, **thresholds)
        self.interval = interval
        self.diagnosis_path = Path(
            diagnosis_path if diagnosis_path is not None
            else Path(monitor_dir) / DIAGNOSIS_FILENAME
        )
        self.on_diagnosis = on_diagnosis
        #: Verdict → supervisor signal: called exactly once, with the
        #: first stall-class diagnosis (``hung_rank``/``global_stall``/
        #: ``dead_rank``).  A supervising layer hooks this to classify
        #: the attempt (e.g. escalate a hung run to a tier-1 restart)
        #: without polling the monitor itself.
        self.on_stall = on_stall
        self.first_stall: Diagnosis | None = None
        self.latest: Diagnosis | None = None
        #: Status transitions in order (first diagnosis of each streak).
        self.transitions: list[Diagnosis] = []
        self.polls = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self) -> "MonitorThread":
        self._thread = threading.Thread(
            target=self._loop, name="run-monitor", daemon=True)
        self._thread.start()
        return self

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.poll_once()

    def poll_once(self) -> Diagnosis:
        diag = self.monitor.poll()
        self.polls += 1
        prev = self.latest
        self.latest = diag
        if prev is None or prev.status != diag.status:
            self.transitions.append(diag)
            if self.on_diagnosis is not None:
                self.on_diagnosis(diag)
        if diag.is_stall and self.first_stall is None:
            self.first_stall = diag
            try:
                self.diagnosis_path.parent.mkdir(parents=True, exist_ok=True)
                # the supervisor reads this file to pick an escalation
                # tier, so it must never see a torn half-written diagnosis
                durable_write(self.diagnosis_path,
                              json.dumps(diag.to_dict(), indent=2) + "\n")
            except OSError:  # pragma: no cover
                pass
            if self.on_stall is not None:
                self.on_stall(diag)
        return diag

    def stop(self) -> Diagnosis | None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        return self.first_stall


def _fmt_logl(logl: Any) -> str:
    return f"{logl:.4f}" if isinstance(logl, (int, float)) else "-"


def format_watch_table(diag: Diagnosis) -> str:
    """Render one diagnosis as the `repro watch` per-rank table."""
    header = (f"{'rank':>4} {'state':<10} {'phase':<16} {'iter':>4} "
              f"{'logL':>14} {'calls':>7} {'collective':<26} "
              f"{'beat':>6} {'stale':>6}")
    lines = [header, "-" * len(header)]
    for h in diag.ranks:
        coll = (f"{h.verb}/{h.tag}" if h.verb else "-")
        if h.in_collective:
            coll = "in " + coll
        lines.append(
            f"{h.rank:>4} {h.state:<10} {h.phase:<16} {h.iteration:>4} "
            f"{_fmt_logl(h.logl):>14} {h.calls:>7} {coll:<26} "
            f"{h.beat_age_s:>5.1f}s {h.stale_s:>5.1f}s"
        )
    lines.append("-" * len(header))
    lines.append(f"[{diag.status}] {diag.message}")
    return "\n".join(lines)


def watch_loop(
    monitor_dir: str | Path,
    interval: float = 1.0,
    once: bool = False,
    out: TextIO | None = None,
    max_polls: int | None = None,
    clear: bool | None = None,
    straggler_after: float = DEFAULT_STRAGGLER_AFTER,
    stall_after: float = DEFAULT_STALL_AFTER,
    beat_timeout: float = DEFAULT_BEAT_TIMEOUT,
) -> Diagnosis:
    """The `repro watch` driver: refresh the table until the run ends.

    Returns the last diagnosis.  With ``once`` (or when ``max_polls``
    runs out) it prints a single snapshot and returns — the form the
    tests and scripts use; interactively it redraws in place (ANSI
    clear) on a TTY and appends otherwise.
    """
    monitor = Monitor(monitor_dir, straggler_after=straggler_after,
                      stall_after=stall_after, beat_timeout=beat_timeout)
    stream = out if out is not None else sys.stdout
    if clear is None:
        clear = (not once) and stream.isatty()
    polls = 0
    while True:
        diag = monitor.poll()
        polls += 1
        text = format_watch_table(diag)
        if clear:
            stream.write("\x1b[2J\x1b[H")
        stream.write(text + "\n")
        stream.flush()
        if once or diag.status == "done":
            return diag
        if max_polls is not None and polls >= max_polls:
            return diag
        time.sleep(interval)


def resolve_monitor_dir(token: str, root: str | Path | None = None) -> Path:
    """Turn a `repro watch` argument into a monitor directory: a
    directory path is used as-is; anything else is resolved as a run id
    — or a *served job id* — via the run registry's resolve machinery
    (full id, unique prefix, or ``latest``).  ``root`` points at an
    explicit registry root (e.g. a serve daemon's ``--root``); default
    is ``$REPRO_RUNS_DIR`` / ``./.repro_runs``."""
    path = Path(token)
    if path.is_dir() and not (path / "manifest.json").exists():
        return path
    from repro.obs.registry import RunRegistry

    registry = RunRegistry(root)
    if path.is_dir():  # a run directory itself
        registry = RunRegistry(path.parent)
        token = path.name
    manifest = registry.load(registry.resolve(token))
    mdir = manifest.get("monitor_dir")
    if not mdir:
        raise FileNotFoundError(
            f"run {manifest.get('run_id', token)!r} was not launched with "
            f"--monitor (no monitor_dir in its manifest)")
    if not os.path.isdir(mdir):
        raise FileNotFoundError(f"monitor directory {mdir!r} is gone")
    return Path(mdir)
