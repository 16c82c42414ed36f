"""End-to-end trace context: one ``trace_id`` from HTTP submit to mesh exit.

A job's life crosses three processes — the serve daemon (admission,
sizing, queueing, grant, launch, reap), the ``repro infer`` child it
spawns, and that child's forked rank mesh.  This module carries one
identity across all of them so the whole story can be stitched into a
single timeline:

* :func:`new_trace_id` mints the id at submission time (in the daemon,
  or anywhere else a traced lifecycle starts);
* the daemon records its **service spans** (``queued`` / ``sized`` /
  ``granted`` / ``launched`` / ``run`` ...) with
  :func:`record_service_spans` into ``<run_dir>/trace-daemon.jsonl``,
  on the :data:`DAEMON_RANK` pseudo-rank track;
* the context propagates into the child via CLI flag (``repro infer
  --trace-id``) *and* the :data:`TRACE_ENV` environment variable
  (:func:`child_env` / :func:`current_trace_id`), and from there into
  every rank's :class:`repro.obs.tracer.Tracer`;
* :func:`repro.obs.export.merge_job_trace` merges the daemon stream
  with the per-rank streams — all timestamps come from
  :func:`time.perf_counter_ns`, a system-wide monotonic clock on Linux,
  so daemon and rank spans of one host interleave correctly without any
  clock synchronization.

Service spans reuse the exact record schema of
:func:`repro.obs.export.span_to_dict` (``name``/``kind``/``rank``/
``t0_ns``/``t1_ns`` + ``attrs``) plus a top-level ``trace_id``, so every
existing exporter and analyzer consumes them unchanged.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Iterable, Mapping

__all__ = [
    "TRACE_ENV",
    "DAEMON_RANK",
    "KIND_SERVICE",
    "DAEMON_TRACE_FILENAME",
    "new_trace_id",
    "current_trace_id",
    "child_env",
    "now_ns",
    "now_s",
    "service_span",
    "service_instant",
    "daemon_trace_path",
    "record_service_spans",
]

#: Environment variable carrying the trace id into child processes.
TRACE_ENV = "REPRO_TRACE_ID"

#: Pseudo-rank for daemon-side service spans.  Ranks are >= 0, so the
#: daemon gets its own process track in the merged Chrome trace.
DAEMON_RANK = -1

#: Span kind for scheduler/lifecycle spans (the ``tid`` axis next to
#: ``comm``/``kernel``/``search``/``recovery``).
KIND_SERVICE = "service"

#: Daemon span stream inside a job's run directory.
DAEMON_TRACE_FILENAME = "trace-daemon.jsonl"


def new_trace_id() -> str:
    """Mint a fresh 16-hex-char trace id.

    Uniqueness, not determinism, is the requirement here: the id names
    one submission's lifecycle and never feeds replica control flow.
    """
    # imported here: only a traced run mints an id, and uuid maps libuuid
    import uuid

    return uuid.uuid4().hex[:16]


def current_trace_id(env: Mapping[str, str] | None = None) -> str:
    """The trace id inherited from the environment ('' when untraced)."""
    source = os.environ if env is None else env
    return str(source.get(TRACE_ENV, "") or "")


def child_env(
    trace_id: str, base: Mapping[str, str] | None = None
) -> dict[str, str]:
    """A copy of ``base`` (default: ``os.environ``) carrying the context."""
    env = dict(os.environ if base is None else base)
    if trace_id:
        env[TRACE_ENV] = trace_id
    return env


def now_ns() -> int:
    """Monotonic span timestamp (shared across processes on one host)."""
    return time.perf_counter_ns()


def now_s() -> float:
    """Wall-clock seconds for human-facing manifest stamps."""
    return time.time()


def service_span(
    name: str,
    trace_id: str,
    t0_ns: int,
    t1_ns: int,
    **attrs: Any,
) -> dict[str, Any]:
    """One daemon-side span record in the per-rank stream schema."""
    record: dict[str, Any] = {
        "name": name,
        "kind": KIND_SERVICE,
        "rank": DAEMON_RANK,
        "t0_ns": int(t0_ns),
        "t1_ns": int(t1_ns),
    }
    if trace_id:
        record["trace_id"] = trace_id
    if attrs:
        record["attrs"] = attrs
    return record


def service_instant(
    name: str, trace_id: str, t_ns: int | None = None, **attrs: Any
) -> dict[str, Any]:
    """A zero-duration service marker (``t1_ns == t0_ns``)."""
    t = now_ns() if t_ns is None else int(t_ns)
    return service_span(name, trace_id, t, t, **attrs)


def daemon_trace_path(run_dir: str | Path) -> Path:
    """Where a job's daemon-side span stream lives."""
    return Path(run_dir) / DAEMON_TRACE_FILENAME


def record_service_spans(
    run_dir: str | Path, records: Iterable[dict[str, Any]]
) -> Path:
    """Append service span records to the job's daemon stream.

    Append-only JSONL, one writer (the daemon's locked tick/submit
    paths), flushed per batch — crash-safe in the same torn-tail-tolerant
    sense as the progress streams.
    """
    path = daemon_trace_path(run_dir)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a") as fh:
        for record in records:
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")
    return path
