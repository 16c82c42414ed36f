"""Structured in-run progress events, streamed while the search executes.

The trace ring buffer is written *after* a run; this module streams
while it executes.  A :class:`ProgressStream` appends one JSON object
per event to ``progress-rank<N>.jsonl`` (line-buffered, flushed per
event, so a tail/monitor sees events as they happen) and a
:class:`ProgressReporter` is the single object the search layer talks
to: it fans every report out to the JSONL stream *and* to the rank's
:class:`~repro.obs.heartbeat.HeartbeatState`, so one call site keeps
the live health record and the durable event log consistent.

Event vocabulary (the ``event`` field):

* ``run_start`` / ``run_end`` — engine, rank count, final logL;
* ``phase`` — search phase transitions (``initial_smooth``,
  ``model_opt``, ``spr_round``, ``smooth_branches``, ``worker`` …);
* ``iteration`` — one hill-climb iteration: logL, radius, SPR moves
  accepted / insertions rejected, Newton branch-opt iterations since
  the previous iteration event;
* ``move`` — an accepted SPR move (rejections are aggregated into the
  iteration event: thousands of rejected insertions per round would
  swamp the stream);
* ``checkpoint`` — a periodic checkpoint write;
* ``rank_failure`` / ``recovery`` — the live fault-tolerance pipeline.

Everything is engine-agnostic and zero-cost when disabled: an
unmonitored backend has no ``progress`` attribute, so the search driver
falls back to the shared :data:`NULL_PROGRESS` no-op (same discipline
as :data:`~repro.obs.tracer.NULL_TRACER`).
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, TextIO

if TYPE_CHECKING:
    from repro.obs.heartbeat import HeartbeatState

__all__ = [
    "ProgressStream",
    "ProgressReporter",
    "NullProgress",
    "NULL_PROGRESS",
    "progress_path",
    "read_progress",
    "read_progress_since",
]


def progress_path(monitor_dir: str | Path, world_rank: int) -> Path:
    """Canonical per-rank progress stream under ``monitor_dir``."""
    return Path(monitor_dir) / f"progress-rank{world_rank}.jsonl"


class ProgressStream:
    """Append-only JSONL event writer for one rank."""

    def __init__(self, path: str | Path, rank: int) -> None:
        self.path = Path(path)
        self.rank = rank
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh: TextIO | None = self.path.open("a")
        self.n_events = 0

    def emit(self, event: str, **fields: Any) -> None:
        """Write one event line; flushed immediately so live consumers
        (``tail -f``, the monitor) see it without waiting for run end."""
        if self._fh is None:
            return
        record: dict[str, Any] = {
            "event": event,
            "rank": self.rank,
            "t_ns": time.perf_counter_ns(),
        }
        record.update(fields)
        try:
            self._fh.write(json.dumps(record, separators=(",", ":"),
                                      default=str) + "\n")
            self._fh.flush()
        except OSError:  # pragma: no cover - disk full mid-run
            self.close()
        else:
            self.n_events += 1

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:  # pragma: no cover
                pass
            self._fh = None


def read_progress(path: str | Path) -> list[dict[str, Any]]:
    """Read a progress stream back; tolerates a torn trailing line
    (the writer may be mid-event when a live reader polls)."""
    return read_progress_since(path, 0)[0]


def read_progress_since(
    path: str | Path, offset: int
) -> tuple[list[dict[str, Any]], int]:
    """Incremental tail of a progress stream: ``(new events, new offset)``.

    ``offset`` is a byte position from a previous call (0 to start).
    Only *complete* lines are consumed — a torn trailing line (the
    writer flushes per event, but a poll can still land mid-write) stays
    unconsumed and is retried at the next poll, so followers like the
    ``/jobs/<id>/events`` stream never emit a half-event or skip one.
    Unparseable complete lines are skipped but still advance the offset.
    """
    out: list[dict[str, Any]] = []
    try:
        with Path(path).open("rb") as fh:
            fh.seek(offset)
            data = fh.read()
    except OSError:
        return out, offset
    end = data.rfind(b"\n")
    if end < 0:
        return out, offset
    for line in data[: end + 1].splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            out.append(json.loads(line))
        except json.JSONDecodeError:
            continue
    return out, offset + end + 1


class ProgressReporter:
    """The search layer's one-stop telemetry sink.

    Fans reports out to the JSONL stream and the heartbeat state;
    either can be ``None`` (e.g. a state-only reporter for fork-join
    workers that have no search events to stream).
    """

    enabled = True

    def __init__(
        self,
        state: HeartbeatState | None = None,
        stream: ProgressStream | None = None,
    ) -> None:
        self.state = state
        self.stream = stream
        self._newton_since_event = 0

    # -- search-driver hooks ------------------------------------------- #
    def phase(self, name: str, **fields: Any) -> None:
        """A search phase transition (also a heartbeat state change)."""
        if self.state is not None:
            self.state.update(phase=name)
        self.event("phase", phase=name, **fields)

    def iteration(self, iteration: int, *, logl: float, radius: int,
                  moves_accepted: int, insertions_tried: int) -> None:
        """One hill-climb iteration completed."""
        newton = self._newton_since_event
        self._newton_since_event = 0
        if self.state is not None:
            self.state.update(
                iteration=iteration, logl=logl, radius=radius,
                moves_accepted=self.state.moves_accepted + moves_accepted,
                insertions_tried=(self.state.insertions_tried
                                  + insertions_tried),
            )
        self.event(
            "iteration", iteration=iteration, logl=logl, radius=radius,
            moves_accepted=moves_accepted,
            insertions_rejected=max(0, insertions_tried - moves_accepted),
            newton_iters=newton,
        )

    def status(self, **fields: Any) -> None:
        """Heartbeat-state-only update (hot path: no JSONL write)."""
        if self.state is not None:
            self.state.update(**fields)

    def add_newton(self, iters: int) -> None:
        """Account Newton branch-optimization iterations (hot path:
        counter bumps only, reported with the next iteration event)."""
        self._newton_since_event += iters
        if self.state is not None:
            self.state.update(
                newton_iters=self.state.newton_iters + iters)

    def checkpoint(self, path: str, iteration: int) -> None:
        if self.state is not None:
            self.state.update(checkpoints=self.state.checkpoints + 1)
        self.event("checkpoint", path=path, iteration=iteration)

    def event(self, event: str, **fields: Any) -> None:
        """Stream-only structured event."""
        if self.stream is not None:
            self.stream.emit(event, **fields)

    def close(self, final_phase: str | None = None) -> None:
        if final_phase is not None and self.state is not None:
            self.state.update(phase=final_phase, in_collective=False)
        if self.stream is not None:
            self.stream.close()


class NullProgress:
    """Progress reporting disabled: every call is a no-op.

    One shared instance (:data:`NULL_PROGRESS`) serves every
    unmonitored backend, so the search hot loop pays one attribute
    lookup and an empty method call — no allocation, no clock read, no
    file handle.
    """

    enabled = False
    state = None
    stream = None

    def phase(self, name: str, **fields: Any) -> None:
        return None

    def iteration(self, iteration: int, **fields: Any) -> None:
        return None

    def status(self, **fields: Any) -> None:
        return None

    def add_newton(self, iters: int) -> None:
        return None

    def checkpoint(self, path: str, iteration: int) -> None:
        return None

    def event(self, event: str, **fields: Any) -> None:
        return None

    def close(self, final_phase: str | None = None) -> None:
        return None


#: The shared disabled reporter.
NULL_PROGRESS = NullProgress()
