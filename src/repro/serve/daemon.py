"""The inference service daemon: scheduler loop + job processes.

One daemon owns one registry root (= one queue).  Every tick it

1. reaps finished job processes, reconciling any that died without
   writing a terminal status;
2. runs the pure scheduler (:func:`repro.serve.scheduler.select`) over
   the queued jobs and the free rank pool;
3. launches each granted job as a ``repro infer --run-id <job_id>
   --cancellable`` subprocess that attaches to the job's own manifest —
   the job carries its PR-6 supervision (escalation ladder + monitor
   thread) *inside* its process, so a daemon restart never orphans
   recovery state.

Cancellation is SIGTERM to the job process (cooperative, checkpointed —
see ``repro.engines.cancel``); drain is SIGTERM to the daemon: stop
admitting (HTTP 503), start nothing new, wait for running jobs, exit 0.

Wall-clock use throughout is driver-side service bookkeeping — this
process never executes replica code.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, IO

from repro.obs.context import (
    child_env,
    new_trace_id,
    now_ns,
    record_service_spans,
    service_instant,
    service_span,
)
from repro.obs.slo import collect_job_stats, render_prom
from repro.serve.scheduler import (
    PendingJob,
    ServePolicy,
    admit,
    policy_to_dict,
    select,
)
from repro.serve.spec import JobSpec, JobSpecError, presize, rank_budget
from repro.serve.store import JobStore

__all__ = ["ServeDaemon", "DEFAULT_HOST", "DEFAULT_PORT"]

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8642

JOB_LOG_FILENAME = "job.log"


class ServeDaemon:
    """Job queue + scheduler + HTTP front end over one registry root."""

    def __init__(
        self,
        policy: ServePolicy | None = None,
        root: str | Path | None = None,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        tick_s: float = 0.2,
        supervise_jobs: bool | None = None,
        log: Callable[[str], None] | None = None,
    ) -> None:
        self.policy = policy or ServePolicy()
        self.store = JobStore(root)
        self.host = host
        self.port = port
        self.tick_s = tick_s
        #: Force supervision on/off for every job; ``None`` honours each
        #: spec's own ``supervise`` field.
        self.supervise_jobs = supervise_jobs
        self._log = log if log is not None else (
            lambda msg: print(msg, file=sys.stderr, flush=True))
        self._lock = threading.RLock()
        self._children: dict[str, subprocess.Popen] = {}
        self._child_logs: dict[str, IO[bytes]] = {}
        self._child_ranks: dict[str, int] = {}
        self._child_tenants: dict[str, str] = {}
        self._skip_reasons: dict[str, str] = {}
        #: Last skip reason recorded as a trace instant per job, so a
        #: reason that persists across ticks is traced exactly once.
        self._noted_skips: dict[str, str] = {}
        #: Rejected submissions leave no manifest: the one count
        #: ``/metrics`` cannot read back from disk.
        self._rejected = 0
        self._start_seq = 0
        # replicheck: ignore[R004] -- daemon uptime for /healthz; service bookkeeping
        self._started_mono = time.monotonic()
        self._draining = threading.Event()
        self._drain_noted = False
        self._stopped = threading.Event()

    # -- HTTP-facing operations ---------------------------------------- #
    def submit(self, payload: Any) -> tuple[int, dict[str, Any]]:
        """Validate, size, admit and persist one submission."""
        if self._draining.is_set():
            return 503, {"error": "draining",
                         "reason": "daemon is draining; not admitting"}
        try:
            spec = JobSpec.from_dict(payload)
        except (JobSpecError, TypeError) as exc:
            return 400, {"error": "bad_spec", "reason": str(exc)}
        queued, per_tenant = self.store.queued_counts()
        ok, reason = admit(self.policy, queued,
                           per_tenant.get(spec.tenant, 0))
        if not ok:
            with self._lock:
                self._rejected += 1
            return 429, {"error": "rejected", "reason": reason}
        trace_id = new_trace_id() if spec.trace else ""
        submitted_ns = now_ns()
        try:
            sizing = presize(spec)
        except JobSpecError as exc:
            return 400, {"error": "bad_spec", "reason": str(exc)}
        sized_ns = now_ns()
        ranks = rank_budget(spec, sizing, self.policy.patterns_per_rank,
                            self.policy.job_rank_cap)
        job_id = self.store.submit(spec, sizing, ranks,
                                   trace_id=trace_id,
                                   now_ns=submitted_ns)
        if trace_id:
            record_service_spans(self.store.root / job_id, [
                service_instant("admit", trace_id, t_ns=submitted_ns,
                                tenant=spec.tenant, queued=queued),
                service_span("sized", trace_id, submitted_ns, sized_ns,
                             taxa=sizing.taxa, patterns=sizing.patterns,
                             partitions=sizing.partitions, ranks=ranks),
            ])
        self._log(f"[serve] job {job_id} queued: {sizing.taxa} taxa x "
                  f"{sizing.patterns} patterns -> {ranks} rank(s) "
                  f"(tenant {spec.tenant!r}, priority {spec.priority})")
        return 201, {"job_id": job_id, "ranks": ranks,
                     "sizing": sizing.to_dict()}

    def job_status(self, job_id: str) -> tuple[int, dict[str, Any]]:
        try:
            manifest = self.store.load(self.store.registry.resolve(job_id))
        except FileNotFoundError as exc:
            return 404, {"error": "not_found", "reason": str(exc)}
        with self._lock:
            reason = self._skip_reasons.get(manifest["run_id"])
        if reason and manifest.get("status") == "queued":
            manifest = dict(manifest)
            manifest["scheduler_note"] = reason
        return 200, manifest

    def list_jobs(self) -> tuple[int, dict[str, Any]]:
        rows = []
        with self._lock:
            skips = dict(self._skip_reasons)
        for m in self.store.jobs():
            q = m.get("queue") or {}
            row = {
                "job_id": m["run_id"],
                "status": m.get("status"),
                "tenant": q.get("tenant"),
                "priority": q.get("priority"),
                "ranks": q.get("granted_ranks", q.get("ranks")),
                "engine": m.get("engine"),
                "created": m.get("created"),
                "result": m.get("result"),
            }
            note = skips.get(m["run_id"])
            if note and m.get("status") == "queued":
                row["scheduler_note"] = note
            rows.append(row)
        return 200, {"jobs": rows, "policy": policy_to_dict(self.policy)}

    def cancel(self, job_id: str) -> tuple[int, dict[str, Any]]:
        try:
            job_id = self.store.registry.resolve(job_id)
            state = self.store.request_cancel(job_id)
        except FileNotFoundError as exc:
            return 404, {"error": "not_found", "reason": str(exc)}
        with self._lock:
            proc = self._children.get(job_id)
        if state == "cancelling" and proc is not None:
            proc.send_signal(signal.SIGTERM)
            self._log(f"[serve] job {job_id}: SIGTERM sent "
                      f"(cooperative cancel)")
        return 200, {"job_id": job_id, "state": state}

    def healthz(self) -> tuple[int, dict[str, Any]]:
        with self._lock:
            running = len(self._children)
            busy = self._busy_ranks()
        draining = self._draining.is_set()
        return 200, {
            "status": "draining" if draining else "ok",
            "draining": draining,
            "running": running,
            "queue_depth": len(self.store.pending()),
            "busy_ranks": busy,
            "pool_ranks": self.policy.pool_ranks,
            # replicheck: ignore[R004] -- daemon uptime for /healthz; service bookkeeping
            "uptime_s": time.monotonic() - self._started_mono,
            "root": str(self.store.root),
        }

    def prom_metrics(self) -> str:
        """``GET /metrics``: job counts and latencies from the manifests,
        live gauges from the child maps."""
        stats = collect_job_stats(self.store.root)
        with self._lock:
            running = len(self._children)
            by_tenant = self._running_by_tenant()
            rejected = self._rejected
        return render_prom(stats, running=running, tenant_ranks=by_tenant,
                           pool_ranks=self.policy.pool_ranks,
                           rejected=rejected)

    # -- scheduling ----------------------------------------------------- #
    def _busy_ranks(self) -> int:
        return sum(self._child_ranks.values())

    def _running_by_tenant(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for job_id, ranks in sorted(self._child_ranks.items()):
            tenant = self._child_tenants.get(job_id, "default")
            out[tenant] = out.get(tenant, 0) + ranks
        return out

    def _launch(self, grant: PendingJob) -> None:
        manifest = self.store.load(grant.job_id)
        if manifest.get("status") != "queued":
            # cancelled (or otherwise moved on) between selection and
            # launch — the grant is stale, skip it
            return
        spec = JobSpec.from_dict(manifest["job"])
        trace_id = str(manifest.get("trace_id") or "")
        queue = manifest.get("queue") or {}
        submitted_ns = queue.get("submitted_ns")
        granted_ns = now_ns()
        run_dir = self.store.root / grant.job_id
        cmd = [
            sys.executable, "-m", "repro", "infer", spec.alignment,
            "--engine", spec.engine,
            "--ranks", str(grant.ranks),
            "--dist", spec.dist,
            "-m", spec.model,
            "-n", str(spec.iterations),
            "-r", str(spec.radius),
            "-e", repr(spec.epsilon),
            "-s", str(spec.seed),
            "--run-id", grant.job_id,
            "--cancellable",
            "--checkpoint", str(run_dir / "checkpoint.npz"),
            "-o", str(run_dir / "tree.nwk"),
            # always monitor: the progress streams double as the
            # /jobs/<id>/events source even for unsupervised jobs
            "--monitor",
        ]
        if spec.partitions:
            cmd += ["-q", spec.partitions]
        if spec.per_partition_branches:
            cmd += ["-M"]
        supervise = (spec.supervise if self.supervise_jobs is None
                     else self.supervise_jobs)
        if supervise:
            cmd += ["--supervise"]
        if trace_id:
            cmd += ["--trace-dir", str(run_dir / "trace"),
                    "--trace-id", trace_id]
        env = child_env(trace_id) if trace_id else dict(os.environ)
        env["REPRO_RUNS_DIR"] = str(self.store.root)
        log_file = open(run_dir / JOB_LOG_FILENAME, "ab")
        try:
            # own session: the daemon's SIGTERM (drain) must not fan out
            # to jobs — cancellation is explicit and per-job
            proc = subprocess.Popen(
                cmd, stdout=log_file, stderr=subprocess.STDOUT, env=env,
                start_new_session=True)
        except OSError:
            log_file.close()
            raise
        launched_ns = now_ns()
        with self._lock:
            self._start_seq += 1
            start_seq = self._start_seq
        # replicheck: ignore[R004] -- grant/launch wall stamps for SLO analytics; daemon-side bookkeeping
        now_wall = time.time()
        # registry write (flock) happens with the daemon lock released,
        # so HTTP threads are never stalled behind the sidecar lock
        self.store.mark_running(
            grant.job_id, grant.ranks, start_seq,
            granted_s=now_wall, granted_ns=granted_ns,
            launched_s=now_wall, launched_ns=launched_ns,
            pid=proc.pid, pool_ranks=self.policy.pool_ranks)
        if trace_id:
            records = []
            if submitted_ns is not None:
                records.append(service_span(
                    "queued", trace_id, int(submitted_ns), granted_ns,
                    tenant=grant.tenant, priority=grant.priority))
            records.append(service_instant(
                "granted", trace_id, t_ns=granted_ns,
                ranks=grant.ranks, start_seq=start_seq))
            records.append(service_span(
                "launched", trace_id, granted_ns, launched_ns,
                pid=proc.pid))
            record_service_spans(run_dir, records)
        with self._lock:
            self._noted_skips.pop(grant.job_id, None)
            self._children[grant.job_id] = proc
            self._child_logs[grant.job_id] = log_file
            self._child_ranks[grant.job_id] = grant.ranks
            self._child_tenants[grant.job_id] = grant.tenant
        # Close the cancel/launch race: a cancel that landed between
        # selection and the registration above saw status "running" but
        # found no child process to signal.  Now that the child is
        # registered (so any later cancel will find it), re-read the
        # manifest and deliver the signal ourselves if one was pending.
        q = dict(self.store.load(grant.job_id).get("queue") or {})
        if q.get("cancel_requested"):
            proc.send_signal(signal.SIGTERM)
            self._log(f"[serve] job {grant.job_id}: SIGTERM sent "
                      f"(cancel requested during launch)")
        self._log(f"[serve] job {grant.job_id} started: {grant.ranks} "
                  f"rank(s), pid {proc.pid}, start_seq {start_seq}")

    def _reap(self) -> None:
        """Reap finished children.

        Split into two phases on purpose: the shared child maps are
        updated under the daemon lock, but the per-job finalization
        (registry writes behind the flock sidecar, trace I/O, logging)
        runs with the lock released — HTTP handler threads keep
        answering ``/healthz`` and ``cancel`` while manifests are
        stamped.
        """
        finished: list[tuple[str, int, IO[bytes] | None]] = []
        with self._lock:
            for job_id in sorted(self._children):
                proc = self._children[job_id]
                rc = proc.poll()
                if rc is None:
                    continue
                del self._children[job_id]
                self._child_ranks.pop(job_id, None)
                self._child_tenants.pop(job_id, None)
                finished.append(
                    (job_id, rc, self._child_logs.pop(job_id, None)))
        for job_id, rc, log_file in finished:
            if log_file is not None:
                log_file.close()
            finished_ns = now_ns()
            manifest = self.store.load(job_id)
            queue = manifest.get("queue") or {}
            # replicheck: ignore[R004] -- completion wall stamp for SLO analytics; daemon-side bookkeeping
            self.store.stamp_queue(job_id, finished_s=time.time(),
                                   finished_ns=finished_ns)
            final = self.store.finalize_orphan(job_id)
            launched_ns = queue.get("launched_ns")
            trace_id = str(manifest.get("trace_id") or "")
            if trace_id and launched_ns is not None:
                record_service_spans(self.store.root / job_id, [
                    service_span("run", trace_id, int(launched_ns),
                                 finished_ns, status=final, exit_code=rc),
                ])
            self._log(f"[serve] job {job_id} finished: {final} "
                      f"(exit {rc})")

    def tick(self, now: float | None = None) -> None:
        """One scheduler heartbeat (reap, select, launch).

        The daemon lock is held only for the in-memory scheduler state
        (child maps, skip reasons) — every registry access
        (``pending``, launch stamps, reap finalization) runs unlocked so
        the flock sidecar can never stall HTTP threads behind a tick.
        """
        if now is None:
            # replicheck: ignore[R004] -- scheduler bookkeeping in the daemon; jobs run in their own processes
            now = time.time()
        self._reap()
        pending = self.store.pending()
        grants: list[PendingJob] = []
        skipped: dict[str, str] = {}
        with self._lock:
            if not self._draining.is_set() and pending:
                free = self.policy.pool_ranks - self._busy_ranks()
                selection = select(self.policy, pending, free,
                                   self._running_by_tenant(), now)
                self._skip_reasons = selection.skipped
                skipped = selection.skipped
                grants = list(selection.grants)
            elif not pending:
                self._skip_reasons = {}
        if skipped:
            self._note_skips(skipped)
        for grant in grants:
            self._launch(grant)

    def _note_skips(self, skipped: dict[str, str]) -> None:
        """Trace a ``sched_skip`` instant when a job's skip reason
        changes (never per tick — a stable reason is traced once)."""
        with self._lock:
            changed = [(job_id, skipped[job_id])
                       for job_id in sorted(skipped)
                       if self._noted_skips.get(job_id) != skipped[job_id]]
            for job_id, reason in changed:
                self._noted_skips[job_id] = reason
        for job_id, reason in changed:
            try:
                manifest = self.store.load(job_id)
            except (FileNotFoundError, OSError):
                continue
            trace_id = str(manifest.get("trace_id") or "")
            if not trace_id:
                continue
            record_service_spans(self.store.root / job_id, [
                service_instant("sched_skip", trace_id, reason=reason),
            ])

    # -- lifecycle ------------------------------------------------------ #
    def drain(self) -> None:
        """Stop admitting and starting jobs; running jobs may finish.

        Async-signal-safe by construction: it only sets an Event.  The
        run loop (and :meth:`_drain_log_once`) does the logging — a
        SIGTERM arriving while some thread holds an I/O or logging lock
        must not make the handler re-enter it.
        """
        self._draining.set()

    def _drain_log_once(self) -> None:
        if self._draining.is_set() and not self._drain_noted:
            self._drain_noted = True
            self._log("[serve] draining: admission closed, waiting for "
                      "running jobs")

    def run(self) -> int:
        """Blocking daemon loop; returns the process exit code."""
        from repro.serve.httpd import start_http

        requeued = self.store.recover()
        for job_id in requeued:
            self._log(f"[serve] recovered job {job_id}: re-queued "
                      f"(previous daemon died mid-run)")
        prev_term = signal.signal(signal.SIGTERM,
                                  lambda signum, frame: self.drain())
        prev_int = signal.signal(signal.SIGINT,
                                 lambda signum, frame: self.drain())
        server = start_http(self, self.host, self.port)
        self.port = server.server_address[1]
        self._log(f"[serve] listening on http://{self.host}:{self.port} "
                  f"(pool {self.policy.pool_ranks} rank(s), root "
                  f"{self.store.root})")
        try:
            while True:
                self._drain_log_once()
                self.tick()
                with self._lock:
                    idle = not self._children
                if self._draining.is_set() and idle:
                    break
                time.sleep(self.tick_s)
            # final reap pass so every manifest is terminal before exit
            self.tick()
        finally:
            self._stopped.set()
            server.shutdown()
            server.server_close()
            signal.signal(signal.SIGTERM, prev_term)
            signal.signal(signal.SIGINT, prev_int)
        self._log("[serve] drained: all jobs terminal, exiting 0")
        return 0
