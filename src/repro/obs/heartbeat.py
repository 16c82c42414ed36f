"""Per-rank heartbeat emitter: the live health side channel.

Post-mortem tracing (:mod:`repro.obs.tracer`) answers "what happened";
the heartbeat channel answers "what is happening *right now* — is rank
13 hung or just slow?".  Every monitored rank carries

* a :class:`HeartbeatState` — a small mutable record of where the rank
  is (search phase, iteration, current logL, collective call index,
  whether it is currently inside a collective), updated by the search
  driver and by the :class:`HeartbeatInterceptor` on the communicator;
* a :class:`HeartbeatWriter` — a **background daemon thread** that
  samples the state every ``interval`` seconds and atomically rewrites
  the rank's status file (``hb-rank<N>.json`` under the monitor
  directory, write-to-temp + ``os.replace``).

The two are deliberately decoupled from the collective path: the writer
thread holds no locks shared with the mesh and performs no
communication, so a rank wedged inside a blocking collective (the pipe
``recv`` releases the GIL) keeps beating — its *state* freezes while
its *beats* stay fresh, which is exactly the signature the monitor
uses to tell a wedged mesh from a dead process.

Timestamps are :func:`time.perf_counter_ns` — ``CLOCK_MONOTONIC``, a
system-wide clock on Linux — so the parent-process monitor can compare
beat and collective-entry times across ranks without synchronization
(the same timebase the tracer uses).

When monitoring is off none of this exists: no thread is spawned, no
file is created, and the communicator is not intercepted — the zero-cost
discipline of :data:`~repro.obs.tracer.NULL_TRACER`.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Callable

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None  # type: ignore[assignment]

from repro.obs.thresholds import DEFAULT_BEAT_INTERVAL
from repro.par.comm import Comm, CommCall, Interceptor

__all__ = [
    "HeartbeatState",
    "HeartbeatWriter",
    "HeartbeatInterceptor",
    "heartbeat_path",
    "read_heartbeat",
    "read_heartbeats",
    "DEFAULT_BEAT_INTERVAL",
]

_HB_PREFIX = "hb-rank"


def heartbeat_path(monitor_dir: str | Path, world_rank: int) -> Path:
    """Canonical per-rank status file under ``monitor_dir``."""
    return Path(monitor_dir) / f"{_HB_PREFIX}{world_rank}.json"


class HeartbeatState:
    """Mutable per-rank progress record, sampled by the writer thread.

    Writers are the rank's own threads (the search driver and the
    heartbeat interceptor); the only cross-thread reader is the writer
    thread's :meth:`snapshot`.  Individual attribute writes are atomic
    under the GIL and the record is advisory telemetry, so no lock is
    taken on the update path; ``updated_ns`` marks the last *state
    change* (as opposed to the last *beat*), which is what stall
    detection keys on.
    """

    __slots__ = (
        "rank", "world_rank", "phase", "iteration", "radius", "logl",
        "moves_accepted", "insertions_tried", "newton_iters",
        "checkpoints", "calls", "verb", "tag", "in_collective",
        "entered_ns", "recoveries", "failed_ranks", "updated_ns",
    )

    def __init__(self, world_rank: int) -> None:
        self.rank = world_rank
        self.world_rank = world_rank
        self.phase = "init"
        self.iteration = 0
        self.radius = 0
        self.logl: float | None = None
        self.moves_accepted = 0
        self.insertions_tried = 0
        self.newton_iters = 0
        self.checkpoints = 0
        #: Collective call index (counts application collectives on the
        #: monitored interface; the numbering :class:`HeartbeatInterceptor`
        #: and ``FaultInjector`` share, since both tick once per top-level
        #: call on the same stream).
        self.calls = 0
        self.verb = ""
        self.tag = ""
        self.in_collective = False
        self.entered_ns = 0
        self.recoveries = 0
        self.failed_ranks: tuple[int, ...] = ()
        self.updated_ns = time.perf_counter_ns()

    def update(self, **fields: Any) -> None:
        """Set the given attributes and stamp ``updated_ns``."""
        for key, value in fields.items():
            setattr(self, key, value)
        self.updated_ns = time.perf_counter_ns()

    def snapshot(self) -> dict[str, Any]:
        """JSON-safe copy of the current state (no timestamps added)."""
        return {
            "rank": self.rank,
            "world_rank": self.world_rank,
            "phase": self.phase,
            "iteration": self.iteration,
            "radius": self.radius,
            "logl": self.logl,
            "moves_accepted": self.moves_accepted,
            "insertions_tried": self.insertions_tried,
            "newton_iters": self.newton_iters,
            "checkpoints": self.checkpoints,
            "calls": self.calls,
            "verb": self.verb,
            "tag": self.tag,
            "in_collective": self.in_collective,
            "entered_ns": self.entered_ns,
            "recoveries": self.recoveries,
            "failed_ranks": list(self.failed_ranks),
            "updated_ns": self.updated_ns,
        }


class HeartbeatWriter:
    """Background thread that persists a rank's state every ``interval``.

    Each beat rewrites the status file atomically (temp file +
    ``os.replace``), so the parent-side monitor never reads a torn
    record.  The thread is a daemon: an ``os._exit`` rank death simply
    stops the beats, which the monitor reports as a dead rank.
    """

    def __init__(
        self,
        monitor_dir: str | Path,
        state: HeartbeatState,
        interval: float = DEFAULT_BEAT_INTERVAL,
    ) -> None:
        if interval <= 0:
            raise ValueError("heartbeat interval must be positive")
        self.path = heartbeat_path(monitor_dir, state.world_rank)
        self.state = state
        self.interval = interval
        self.seq = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self) -> "HeartbeatWriter":
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.beat()  # first record lands before any collective
        self._thread = threading.Thread(
            target=self._loop, name=f"heartbeat-rank{self.state.world_rank}",
            daemon=True,
        )
        self._thread.start()
        return self

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.beat()
            except OSError:  # pragma: no cover - disk full / dir removed
                return

    def beat(self) -> None:
        """Write one heartbeat record (also called by the owning rank
        for a final synchronous beat on shutdown)."""
        self.seq += 1
        record = self.state.snapshot()
        record["seq"] = self.seq
        record["pid"] = os.getpid()
        record["beat_ns"] = time.perf_counter_ns()
        if resource is not None:
            # peak RSS of this rank process; ru_maxrss is KiB on Linux
            # (bytes on macOS — consumers treat it as platform-units)
            record["rss_peak_kb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss
        tmp = self.path.with_name(self.path.name + f".tmp{os.getpid()}")
        tmp.write_text(json.dumps(record, separators=(",", ":")))
        os.replace(tmp, self.path)

    def stop(self, final_phase: str | None = None) -> None:
        """Stop the thread; optionally stamp a terminal phase first."""
        if final_phase is not None:
            self.state.update(phase=final_phase, in_collective=False)
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
        try:
            self.beat()
        except OSError:  # pragma: no cover
            pass


def read_heartbeat(path: str | Path) -> dict[str, Any] | None:
    """Read one status file; ``None`` if missing or torn mid-replace."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError):
        return None


def read_heartbeats(monitor_dir: str | Path) -> dict[int, dict[str, Any]]:
    """All rank records under ``monitor_dir``, keyed by world rank."""
    out: dict[int, dict[str, Any]] = {}
    try:
        names = sorted(os.listdir(monitor_dir))
    except OSError:
        return out
    for name in names:
        if not (name.startswith(_HB_PREFIX) and name.endswith(".json")):
            continue
        record = read_heartbeat(Path(monitor_dir) / name)
        if record is not None:
            out[int(record["world_rank"])] = record
    return out


class HeartbeatInterceptor(Interceptor):
    """Reports each collective to the rank's :class:`HeartbeatState`.

    Purely observational: every call is bracketed by two attribute
    updates on the rank-local state — enter (bump the call index, mark
    ``in_collective``) and exit.  No extra messages are sent, so a
    monitored run has byte-for-byte identical ``bytes_by_tag`` /
    ``calls_by_tag`` to an unmonitored one.

    It sits *inside* fault injection (see
    :meth:`repro.engines.runtime.RankRuntime.open`): a hung rank's
    heartbeat shows it never *entered* call ``K`` while its peers' show
    them waiting *inside* ``K``.

    Shrink rule: the interceptor rides on with the same state object
    (and call numbering), so the monitor sees one continuous life per
    rank through the failure.
    """

    def __init__(self, state: HeartbeatState) -> None:
        self.state = state

    def call(self, base: Comm, c: CommCall, proceed: Callable[[], Any]) -> Any:
        s = self.state
        s.calls += 1
        s.verb = c.verb
        s.tag = c.tag
        s.entered_ns = time.perf_counter_ns()
        s.in_collective = True
        s.updated_ns = s.entered_ns
        try:
            return proceed()
        finally:
            s.in_collective = False
            s.updated_ns = time.perf_counter_ns()

    def agree(self, base: Comm, failed, proceed):
        self.state.update(phase="recover", in_collective=False)
        return proceed()

    def shrink(self, base: Comm, failed, proceed):
        shrunk = proceed()
        self.state.update(
            failed_ranks=tuple(sorted(
                set(self.state.failed_ranks) | set(base.world_ranks(failed))
            )),
        )
        return shrunk
