"""Persistent run registry: every launch leaves a durable manifest.

``.repro_runs/`` (or ``$REPRO_RUNS_DIR``) accumulates one directory per
launch::

    .repro_runs/
      20260806-141503-12345/
        manifest.json     # config, seed, engine, dist, result, paths
        bench.json        # optional bench record

The manifest is written at launch (``status: running``) and finalized at
exit (``completed`` / ``failed`` plus the result), so a crashed or hung
run is visible as such in ``repro runs list``.  A bench record stored via
:meth:`RunRegistry.record_bench` also lands flat in the manifest's
``bench_metrics``, which ``repro runs compare`` diffs between two runs.

Wall-clock reads (run ids, created timestamps) are fine here: this is
driver-side observability code, never executed inside a replica.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import time
from pathlib import Path
from typing import Any, Iterator

from repro.durable import durable_write

try:  # advisory locking is POSIX-only; degrade gracefully elsewhere
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

__all__ = [
    "RunRegistry",
    "runs_root",
    "compare_runs",
    "format_compare_table",
    "format_attempt_chain",
    "DEFAULT_ROOT_NAME",
    "MANIFEST_FILENAME",
    "BENCH_FILENAME",
    "LOCK_FILENAME",
    "TERMINAL_STATUSES",
]

DEFAULT_ROOT_NAME = ".repro_runs"
MANIFEST_FILENAME = "manifest.json"
BENCH_FILENAME = "bench.json"
LOCK_FILENAME = ".manifest.lock"

#: Statuses after which a run will never be written again — the only
#: runs ``gc`` may prune and the ones a restarted daemon need not adopt.
TERMINAL_STATUSES = frozenset({"completed", "failed", "cancelled"})


def runs_root(root: str | Path | None = None) -> Path:
    """Resolve the registry root: explicit arg > $REPRO_RUNS_DIR > cwd."""
    if root is not None:
        return Path(root)
    env = os.environ.get("REPRO_RUNS_DIR")
    if env:
        return Path(env)
    return Path.cwd() / DEFAULT_ROOT_NAME


@contextlib.contextmanager
def _manifest_lock(run_dir: Path) -> Iterator[None]:
    """Advisory exclusive lock serializing one run's manifest writers.

    Concurrent read-modify-write cycles (a job process finalizing its
    result while the serve daemon stamps queue fields) would otherwise
    lose updates: both load, both merge, last ``os.replace`` wins.  The
    lock lives in a sidecar file so the manifest itself stays a plain
    atomically-replaced JSON document that readers can load lock-free.
    """
    run_dir.mkdir(parents=True, exist_ok=True)
    if fcntl is None:  # pragma: no cover - non-POSIX platforms
        yield
        return
    fd = os.open(run_dir / LOCK_FILENAME, os.O_CREAT | os.O_RDWR, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        # closing drops the flock; no explicit LOCK_UN needed
        os.close(fd)


class RunRegistry:
    """Filesystem-backed registry of runs under one root directory."""

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = runs_root(root)

    # -- writing ------------------------------------------------------- #
    def new_run_id(self) -> str:
        """Timestamped, collision-proof id (sortable by creation time).

        The id is *reserved* by creating its directory (``mkdir`` is
        atomic on every filesystem we care about), so two writers in the
        same process and second — e.g. two HTTP handler threads of the
        serve daemon — can never be handed the same id.  A mere
        ``exists()`` probe would race between the check and the write.
        """
        stamp = time.strftime("%Y%m%d-%H%M%S")
        base = f"{stamp}-{os.getpid()}"
        self.root.mkdir(parents=True, exist_ok=True)
        run_id, n = base, 1
        while True:
            try:
                (self.root / run_id).mkdir()
                return run_id
            except FileExistsError:
                run_id = f"{base}-{n}"
                n += 1

    def register(self, manifest: dict[str, Any]) -> str:
        """Create a run directory and write the initial manifest."""
        run_id = manifest.get("run_id") or self.new_run_id()
        manifest = dict(manifest)
        manifest["run_id"] = run_id
        manifest.setdefault("created", time.strftime("%Y-%m-%dT%H:%M:%S"))
        manifest.setdefault("status", "running")
        # under the sidecar lock like every other writer: a pre-reserved
        # run_id means another process may already be attaching fields to
        # this manifest, and an unlocked register could clobber them.
        with _manifest_lock(self.root / run_id):
            self._write_manifest(run_id, manifest)
        return run_id

    def update(self, run_id: str, **fields: Any) -> dict[str, Any]:
        """Merge fields into an existing manifest and rewrite it."""
        with _manifest_lock(self.root / run_id):
            manifest = self.load(run_id)
            manifest.update(fields)
            self._write_manifest(run_id, manifest)
        return manifest

    def attach(self, run_id: str, **fields: Any) -> dict[str, Any]:
        """Merge fields into ``run_id``'s manifest, creating it if new.

        The serve daemon pre-registers a job manifest and then launches
        ``repro infer --run-id <id>``: the job process *attaches* to the
        existing manifest (adding engine config, then later the result)
        instead of minting a second run.  Also usable standalone to pin
        a deterministic run id.
        """
        with _manifest_lock(self.root / run_id):
            try:
                manifest = self.load(run_id)
            except FileNotFoundError:
                manifest = {"run_id": run_id,
                            "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
                            "status": "running"}
            manifest.update(fields)
            manifest["run_id"] = run_id
            self._write_manifest(run_id, manifest)
        return manifest

    def record_attempt(self, run_id: str, attempt: dict[str, Any]) -> dict[str, Any]:
        """Append one supervised attempt to the run's attempt chain.

        The supervisor records every launch it makes — tier, engine,
        ranks, distribution, verdict, backoff — so a failed run's
        manifest tells the whole escalation story, not just the final
        status.  ``repro runs show`` renders the chain as a table.
        """
        with _manifest_lock(self.root / run_id):
            manifest = self.load(run_id)
            chain = list(manifest.get("attempts") or [])
            attempt = dict(attempt)
            attempt.setdefault("attempt", len(chain))
            chain.append(attempt)
            manifest["attempts"] = chain
            self._write_manifest(run_id, manifest)
        return manifest

    def progress_paths(self, run_id: str) -> list[Path]:
        """Every progress stream below a run's directory, sorted.

        Plain monitored runs keep ``progress-rank<N>.jsonl`` under
        ``<run>/monitor/``; supervised runs under per-attempt
        ``supervise/attempt<K>/monitor/`` dirs.  A recursive glob finds
        both (and whatever future layouts), so live followers like the
        serve layer's job event stream need no layout knowledge.
        """
        run_dir = self.root / run_id
        if not run_dir.is_dir():
            return []
        return sorted(run_dir.rglob("progress-rank*.jsonl"))

    def record_bench(self, run_id: str, bench: dict[str, Any]) -> Path:
        """Store a bench record alongside the run, its metrics in the
        manifest."""
        path = self.root / run_id / BENCH_FILENAME
        durable_write(path, json.dumps(bench, indent=2) + "\n")
        self.update(run_id, bench_path=str(path),
                    bench_metrics=bench.get("metrics", {}))
        return path

    def _write_manifest(self, run_id: str, manifest: dict[str, Any]) -> None:
        run_dir = self.root / run_id
        run_dir.mkdir(parents=True, exist_ok=True)
        durable_write(run_dir / MANIFEST_FILENAME,
                      json.dumps(manifest, indent=2, default=str) + "\n")

    # -- reading ------------------------------------------------------- #
    def run_ids(self) -> list[str]:
        try:
            names = sorted(os.listdir(self.root))
        except OSError:
            return []
        return [n for n in names
                if (self.root / n / MANIFEST_FILENAME).is_file()]

    def load(self, run_id: str) -> dict[str, Any]:
        path = self.root / run_id / MANIFEST_FILENAME
        try:
            return json.loads(path.read_text())
        except OSError as exc:
            raise FileNotFoundError(
                f"no run {run_id!r} under {self.root}") from exc

    def list_runs(self) -> list[dict[str, Any]]:
        """All manifests, oldest first (ids sort by creation time)."""
        out = []
        for run_id in self.run_ids():
            try:
                out.append(self.load(run_id))
            except (FileNotFoundError, json.JSONDecodeError):
                continue
        return out

    def resolve(self, token: str) -> str:
        """Resolve a full id, a unique prefix, or ``latest``."""
        ids = self.run_ids()
        if token == "latest":
            if not ids:
                raise FileNotFoundError(f"no runs under {self.root}")
            return ids[-1]
        if token in ids:
            return token
        hits = [i for i in ids if i.startswith(token)]
        if len(hits) == 1:
            return hits[0]
        if not hits:
            raise FileNotFoundError(
                f"no run matching {token!r} under {self.root}")
        raise FileNotFoundError(
            f"ambiguous run prefix {token!r}: matches {hits}")

    def gc(
        self,
        keep_days: float | None = None,
        keep_last: int | None = None,
        now: float | None = None,
        dry_run: bool = False,
    ) -> list[str]:
        """Prune terminal run directories; returns the pruned run ids.

        Only runs whose status is in :data:`TERMINAL_STATUSES` are ever
        candidates — running or queued runs are untouchable regardless
        of age (the serve daemon's queue lives in these manifests).  Of
        the candidates, the ``keep_last`` most recent are always kept;
        the rest are pruned if they are older than ``keep_days`` (or
        unconditionally when ``keep_days`` is not given).  With neither
        bound set, nothing is pruned.
        """
        if keep_days is None and keep_last is None:
            return []
        if now is None:
            now = time.time()
        candidates: list[str] = []
        for run_id in self.run_ids():  # sorted => oldest first
            try:
                manifest = self.load(run_id)
            except (FileNotFoundError, json.JSONDecodeError):
                continue  # unreadable: never delete what we can't judge
            if manifest.get("status") not in TERMINAL_STATUSES:
                continue
            candidates.append(run_id)
        if keep_last is not None and keep_last > 0:
            candidates = candidates[:-keep_last] or []
        pruned: list[str] = []
        for run_id in candidates:
            if keep_days is not None:
                created = self.load(run_id).get("created")
                try:
                    age_s = now - time.mktime(
                        time.strptime(str(created), "%Y-%m-%dT%H:%M:%S"))
                except (ValueError, TypeError, OverflowError):
                    continue  # unparseable timestamp: keep it
                if age_s < keep_days * 86400.0:
                    continue
            if not dry_run:
                shutil.rmtree(self.root / run_id, ignore_errors=True)
            pruned.append(run_id)
        return pruned



def _run_bench_metrics(manifest: dict[str, Any]) -> dict[str, float]:
    metrics = manifest.get("bench_metrics")
    if not isinstance(metrics, dict):
        return {}
    return {k: float(v) for k, v in metrics.items()
            if isinstance(v, (int, float)) and not isinstance(v, bool)}


def compare_runs(
    registry: RunRegistry, token_a: str, token_b: str
) -> dict[str, Any]:
    """Bench-metric delta between two registered runs (b relative to a)."""
    a = registry.load(registry.resolve(token_a))
    b = registry.load(registry.resolve(token_b))
    ma, mb = _run_bench_metrics(a), _run_bench_metrics(b)
    rows = []
    for name in sorted(set(ma) | set(mb)):
        va, vb = ma.get(name), mb.get(name)
        delta = (vb - va) if va is not None and vb is not None else None
        ratio = (vb / va) if va not in (None, 0.0) and vb is not None else None
        rows.append({"metric": name, "a": va, "b": vb,
                     "delta": delta, "ratio": ratio})
    return {
        "a": {"run_id": a["run_id"], "status": a.get("status"),
              "logl": (a.get("result") or {}).get("logl")},
        "b": {"run_id": b["run_id"], "status": b.get("status"),
              "logl": (b.get("result") or {}).get("logl")},
        "rows": rows,
    }


def format_compare_table(comparison: dict[str, Any]) -> str:
    a, b = comparison["a"], comparison["b"]
    header = (f"{'metric':<44}{'a':>12}{'b':>12}{'delta':>12}{'ratio':>8}")
    lines = [
        f"a = {a['run_id']} ({a.get('status')})",
        f"b = {b['run_id']} ({b.get('status')})",
        header, "-" * len(header),
    ]

    def fmt(v: Any) -> str:
        return "-" if v is None else f"{v:.4g}"

    for row in comparison["rows"]:
        ratio = "-" if row["ratio"] is None else f"{row['ratio']:.3f}"
        lines.append(f"{row['metric']:<44}{fmt(row['a']):>12}"
                     f"{fmt(row['b']):>12}{fmt(row['delta']):>12}"
                     f"{ratio:>8}")
    if not comparison["rows"]:
        lines.append("(no bench metrics recorded for either run)")
    return "\n".join(lines)


def format_attempt_chain(manifest: dict[str, Any]) -> str:
    """Render a supervised run's attempt chain as a table.

    Empty string when the run was not supervised (no ``attempts`` key),
    so callers can unconditionally append the result.
    """
    chain = manifest.get("attempts") or []
    if not chain:
        return ""
    header = (f"{'#':>2} {'tier':>4} {'engine':<14}{'ranks':>6} "
              f"{'dist':<8}{'backoff':>9}  verdict")
    lines = ["attempt chain:", header, "-" * len(header)]
    for att in chain:
        backoff = att.get("backoff_s")
        backoff_s = "-" if backoff in (None, 0, 0.0) else f"{backoff:.2f}s"
        verdict = att.get("verdict", "?")
        detail = att.get("detail")
        if detail:
            verdict = f"{verdict}: {detail}"
        lines.append(
            f"{att.get('attempt', '?'):>2} {att.get('tier', '?'):>4} "
            f"{str(att.get('engine', '-')):<14}{str(att.get('ranks', '-')):>6} "
            f"{str(att.get('dist', '-')):<8}{backoff_s:>9}  {verdict}"
        )
    return "\n".join(lines)
