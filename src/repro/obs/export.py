"""Trace exporters: per-rank JSONL streams and merged Chrome traces.

Each rank writes its ring buffer as one JSON object per line
(``trace-rank<N>.jsonl``, ``N`` = the rank's *original* world number).
Because all ranks of one mesh read the same monotonic clock (see
:mod:`repro.obs.tracer`), the per-rank streams can be merged by
timestamp into one cross-rank timeline and exported in the Chrome
``traceEvents`` JSON format, loadable in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing``:

* ``pid``  = rank (one process track per rank),
* ``tid``  = span kind (``comm`` / ``kernel`` / ``search`` /
  ``recovery`` — named via thread-name metadata events),
* complete events (``ph: "X"``) for timed spans, instant events
  (``ph: "i"``) for zero-duration markers such as ``rank_failure``,
* timestamps in microseconds relative to the earliest span.

The timeline makes the paper's mechanism *visible*: fork-join traces
show every worker's ``bcast`` span waiting on the master between
regions, decentralized traces show only the sparse ``allreduce`` sites.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable

from repro.obs.tracer import Span

__all__ = [
    "span_to_dict",
    "write_jsonl",
    "read_jsonl",
    "rank_trace_path",
    "merge_rank_streams",
    "merge_job_trace",
    "chrome_trace",
    "write_chrome_trace",
]


def span_to_dict(span: Span) -> dict[str, Any]:
    """JSON-safe representation of one span."""
    out: dict[str, Any] = {
        "name": span.name,
        "kind": span.kind,
        "rank": span.rank,
        "t0_ns": span.t0_ns,
        "t1_ns": span.t1_ns,
    }
    if span.category:
        out["category"] = span.category
    if span.nbytes:
        out["nbytes"] = span.nbytes
    if span.error:
        out["error"] = True
    if span.attrs:
        out["attrs"] = {k: _json_safe(v) for k, v in span.attrs.items()}
    return out


def _json_safe(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    try:  # numpy scalars
        return value.item()
    except AttributeError:
        return str(value)


def rank_trace_path(trace_dir: str | Path, world_rank: int) -> Path:
    """Canonical per-rank JSONL file name under ``trace_dir``."""
    return Path(trace_dir) / f"trace-rank{world_rank}.jsonl"


def write_jsonl(spans: Iterable[Span | dict], path: str | Path) -> Path:
    """Write spans as one JSON object per line; creates parent dirs."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for span in spans:
            record = span if isinstance(span, dict) else span_to_dict(span)
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")
    return path


def read_jsonl(path: str | Path, strict: bool = True) -> list[dict[str, Any]]:
    """Read one rank's JSONL stream back into span dicts.

    With ``strict=False`` a line that fails to parse is skipped instead
    of raising — the signature of a writer killed mid-record (daemon
    SIGKILL, disk-full truncation), where everything before the torn
    trailing line is still valid.
    """
    out = []
    with Path(path).open() as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                out.append(json.loads(line))
            except json.JSONDecodeError:
                if strict:
                    raise
    return out


def merge_rank_streams(paths: Iterable[str | Path]) -> list[dict[str, Any]]:
    """Merge per-rank JSONL streams into one start-time-ordered list.

    Ranks share a monotonic timebase, so a plain sort by ``t0_ns`` (rank
    as tie-breaker) yields the true cross-rank interleaving.  Torn
    trailing records (a stream's writer died mid-write) are dropped
    rather than failing the whole merge.
    """
    merged: list[dict[str, Any]] = []
    for path in paths:
        merged.extend(read_jsonl(path, strict=False))
    merged.sort(key=lambda s: (s["t0_ns"], s["rank"]))
    return merged


def merge_job_trace(run_dir: str | Path) -> list[dict[str, Any]]:
    """Merge a served job's daemon + per-rank span streams into one list.

    The daemon writes its scheduler-lifecycle spans (pseudo-rank ``-1``,
    kind ``service``) to ``<run_dir>/trace-daemon.jsonl``; the job's
    rank meshes write ``trace-rank<N>.jsonl`` files anywhere below the
    run directory (directly under ``trace/`` for plain jobs, under
    ``trace/attempt<K>/`` for supervised relaunches).  All streams share
    the monotonic host clock, so the usual sort yields the true
    submit → queue → launch → iterations → completion interleaving.
    """
    run_dir = Path(run_dir)
    paths: list[Path] = []
    daemon_stream = run_dir / "trace-daemon.jsonl"
    if daemon_stream.exists():
        paths.append(daemon_stream)
    paths.extend(sorted(run_dir.rglob("trace-rank*.jsonl")))
    return merge_rank_streams(paths)


def chrome_trace(spans: Iterable[dict[str, Any] | Span]) -> dict[str, Any]:
    """Convert (merged) spans to a Chrome/Perfetto ``traceEvents`` dict."""
    records = [
        s if isinstance(s, dict) else span_to_dict(s) for s in spans
    ]
    if not records:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    base = min(r["t0_ns"] for r in records)
    events: list[dict[str, Any]] = []
    # Stable small-int thread ids per (rank, kind), named via metadata;
    # each pid (= rank, or -1 for the serve daemon) also gets a
    # process_name track so merged job traces read "daemon" / "rank N".
    tids: dict[tuple[int, str], int] = {}
    named_pids: set[int] = set()
    for rec in records:
        if rec["rank"] not in named_pids:
            named_pids.add(rec["rank"])
            events.append({
                "name": "process_name",
                "ph": "M",
                "pid": rec["rank"],
                "tid": 0,
                "args": {"name": ("daemon" if rec["rank"] < 0
                                  else f"rank {rec['rank']}")},
            })
        key = (rec["rank"], rec["kind"])
        if key not in tids:
            tid = len([k for k in tids if k[0] == rec["rank"]]) + 1
            tids[key] = tid
            events.append({
                "name": "thread_name",
                "ph": "M",
                "pid": rec["rank"],
                "tid": tid,
                "args": {"name": rec["kind"]},
            })
        args: dict[str, Any] = dict(rec.get("attrs", {}))
        if rec.get("category"):
            args["tag"] = rec["category"]
        if rec.get("nbytes"):
            args["nbytes"] = rec["nbytes"]
        if rec.get("error"):
            args["error"] = True
        if rec.get("trace_id"):
            args["trace_id"] = rec["trace_id"]
        event: dict[str, Any] = {
            "name": rec["name"],
            "cat": rec.get("kind", ""),
            "pid": rec["rank"],
            "tid": tids[key],
            "ts": (rec["t0_ns"] - base) / 1000.0,
            "args": args,
        }
        if rec["t1_ns"] == rec["t0_ns"]:
            event["ph"] = "i"
            event["s"] = "t"  # thread-scoped instant
        else:
            event["ph"] = "X"
            event["dur"] = (rec["t1_ns"] - rec["t0_ns"]) / 1000.0
        events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    spans: Iterable[dict[str, Any] | Span], path: str | Path
) -> Path:
    """Write a Chrome-trace JSON file; creates parent dirs."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(chrome_trace(spans)))
    return path

