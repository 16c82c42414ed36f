"""End-to-end job lifecycle tracing, service telemetry, and live event
streams: trace-context propagation, daemon service spans, the merged
Chrome trace, ``/jobs/<id>/events``, and the offline ``repro slo``
report.

Layered like ``test_serve.py``: pure unit tests over the new obs/serve
pieces first, then one live acceptance run — an HTTP submission whose
merged trace must show the daemon's queued/sized/granted/launched spans
and the ranks' search spans under a single ``trace_id``, with the
queue-wait agreeing across the manifest stamps, the ``/metrics``
histogram, the merged trace, and the offline SLO report.
"""

from __future__ import annotations

import contextlib
import json
import signal
import socket
import subprocess
import sys
import time
import urllib.request
from dataclasses import replace
from pathlib import Path

import pytest

from repro.model.substitution import JC69
from repro.obs.context import (
    DAEMON_RANK,
    TRACE_ENV,
    child_env,
    current_trace_id,
    new_trace_id,
    record_service_spans,
    service_instant,
    service_span,
)
from repro.obs.export import chrome_trace, merge_job_trace, write_jsonl
from repro.obs.slo import (
    JobStats,
    collect_job_stats,
    compute_slo,
    percentile,
    render_prom,
)
from repro.seq.io_fasta import write_fasta
from repro.seq.simulate import simulate_alignment
from repro.serve import (
    JobSizing,
    JobSpec,
    JobStore,
    ServeDaemon,
    ServePolicy,
)
from repro.serve.client import (
    ServeClientError,
    request,
    stream_events,
    submit_job,
    wait_for_job,
)
from repro.serve.events import iter_job_events, lifecycle_events
from repro.tree.random_trees import yule_tree


@pytest.fixture(scope="module")
def fasta_path(tmp_path_factory) -> Path:
    taxa = [f"t{i}" for i in range(8)]
    tree = yule_tree(taxa, rng=5, mean_branch_length=0.15)
    aln = simulate_alignment(tree, JC69(), 240, rng=6)
    path = tmp_path_factory.mktemp("serve_obs_data") / "aln.fasta"
    write_fasta(aln, path)
    return path


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


# --------------------------------------------------------------------- #
# trace context
# --------------------------------------------------------------------- #
class TestTraceContext:
    def test_new_ids_are_unique_hex(self):
        a, b = new_trace_id(), new_trace_id()
        assert a != b
        assert len(a) == 16 and int(a, 16) >= 0

    def test_env_round_trip(self):
        tid = new_trace_id()
        env = child_env(tid, base={"PATH": "/bin"})
        assert env[TRACE_ENV] == tid and env["PATH"] == "/bin"
        assert current_trace_id(env) == tid
        assert current_trace_id({}) == ""
        # no id -> env untouched
        assert TRACE_ENV not in child_env("", base={})

    def test_service_span_schema(self):
        span = service_span("queued", "abc", 10, 30, tenant="t1")
        assert span == {"name": "queued", "kind": "service",
                        "rank": DAEMON_RANK, "t0_ns": 10, "t1_ns": 30,
                        "trace_id": "abc", "attrs": {"tenant": "t1"}}
        inst = service_instant("granted", "abc", t_ns=50, ranks=2)
        assert inst["t0_ns"] == inst["t1_ns"] == 50

    def test_merged_job_trace_interleaves_daemon_and_ranks(self, tmp_path):
        tid = new_trace_id()
        record_service_spans(tmp_path, [
            service_span("queued", tid, 100, 300),
            service_span("launched", tid, 300, 400, pid=7),
        ])
        write_jsonl([
            {"name": "initial_smooth", "kind": "search", "rank": 0,
             "t0_ns": 450, "t1_ns": 600, "trace_id": tid},
        ], tmp_path / "trace" / "trace-rank0.jsonl")
        merged = merge_job_trace(tmp_path)
        assert [r["name"] for r in merged] == ["queued", "launched",
                                               "initial_smooth"]
        assert {r["trace_id"] for r in merged} == {tid}

        doc = chrome_trace(merged)
        procs = {e["pid"]: e["args"]["name"] for e in doc["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "process_name"}
        assert procs == {DAEMON_RANK: "daemon", 0: "rank 0"}
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert all(e["args"]["trace_id"] == tid for e in spans)


# --------------------------------------------------------------------- #
# lifecycle + event streams (synthetic manifests, no daemon)
# --------------------------------------------------------------------- #
def _sizing() -> JobSizing:
    return JobSizing(taxa=8, sites=240, patterns=120, partitions=1,
                     pattern_loads=(120,))


class TestEventStreams:
    def test_lifecycle_events_follow_queue_stamps(self, tmp_path):
        store = JobStore(tmp_path / "runs")
        spec = JobSpec(alignment="a.fasta", tenant="acme")
        job_id = store.submit(spec, _sizing(), ranks=2, now=100.0,
                              trace_id="tid1", now_ns=1_000)
        events = lifecycle_events(store.load(job_id))
        assert [e["event"] for e in events] == ["queued"]
        assert events[0]["tenant"] == "acme" and events[0]["t_s"] == 100.0

        store.mark_running(job_id, ranks=2, start_seq=1,
                           granted_s=101.0, granted_ns=2_000,
                           launched_s=101.5, launched_ns=3_000, pid=77)
        events = lifecycle_events(store.load(job_id))
        assert [e["event"] for e in events] == ["queued", "granted",
                                                "launched"]
        assert events[1]["start_seq"] == 1 and events[2]["pid"] == 77

        store.stamp_queue(job_id, finished_s=105.0, finished_ns=9_000)
        store.registry.update(job_id, status="completed",
                              result={"logl": -1.5})
        events = lifecycle_events(store.load(job_id))
        assert events[-1]["event"] == "terminal"
        assert events[-1]["status"] == "completed"
        assert events[-1]["result"] == {"logl": -1.5}

    def test_iter_job_events_replays_and_terminates(self, tmp_path):
        root = tmp_path / "runs"
        store = JobStore(root)
        job_id = store.submit(JobSpec(alignment="a.fasta"), _sizing(),
                              ranks=1, now=10.0, now_ns=100)
        store.mark_running(job_id, ranks=1, start_seq=1,
                           granted_s=11.0, granted_ns=200,
                           launched_s=11.1, launched_ns=300, pid=5)
        progress = root / job_id / "monitor" / "progress-rank0.jsonl"
        progress.parent.mkdir(parents=True)
        with progress.open("w") as fh:
            for event in ({"event": "run_start", "rank": 0, "t_ns": 1},
                          {"event": "iteration", "rank": 0, "t_ns": 2,
                           "iteration": 1, "logl": -3.5},
                          {"event": "run_end", "rank": 0, "t_ns": 3}):
                fh.write(json.dumps(event) + "\n")
        store.stamp_queue(job_id, finished_s=12.0, finished_ns=900)
        store.registry.update(job_id, status="completed")

        events = list(iter_job_events(root, job_id, poll_s=0.01,
                                      timeout_s=10.0))
        kinds = [(e["source"], e["event"]) for e in events]
        assert kinds == [
            ("daemon", "queued"), ("daemon", "granted"),
            ("daemon", "launched"), ("rank0", "run_start"),
            ("rank0", "iteration"), ("rank0", "run_end"),
            ("daemon", "terminal"),
        ]

    def test_iter_job_events_times_out_on_stuck_job(self, tmp_path):
        root = tmp_path / "runs"
        store = JobStore(root)
        job_id = store.submit(JobSpec(alignment="a.fasta"), _sizing(),
                              ranks=1)
        events = list(iter_job_events(root, job_id, poll_s=0.01,
                                      timeout_s=0.05))
        assert events[0]["event"] == "queued"
        assert events[-1]["event"] == "stream_timeout"

    def test_unknown_job_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            list(iter_job_events(tmp_path / "runs", "nope"))


# --------------------------------------------------------------------- #
# offline SLO analytics
# --------------------------------------------------------------------- #
def _make_job(store, *, tenant, submitted_ns, granted_ns, launched_ns,
              finished_ns, ranks=1, status="completed", pool_ranks=4):
    """A job manifest as the daemon leaves it: queue stamps up to
    ``finished_ns`` (None = never granted), then ``status``."""
    job_id = store.submit(
        JobSpec(alignment="a.fasta", tenant=tenant), _sizing(),
        ranks=ranks, now=submitted_ns / 1e9, now_ns=submitted_ns)
    if granted_ns is not None:
        store.mark_running(
            job_id, ranks=ranks, start_seq=1,
            granted_s=granted_ns / 1e9, granted_ns=granted_ns,
            launched_s=launched_ns / 1e9, launched_ns=launched_ns,
            pid=1, pool_ranks=pool_ranks)
        store.stamp_queue(job_id, finished_s=finished_ns / 1e9,
                          finished_ns=finished_ns)
    store.registry.update(job_id, status=status)
    return job_id


class TestSlo:
    def test_percentile_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 50.0) == 2.0
        assert percentile(values, 75.0) == 3.0
        assert percentile(values, 100.0) == 4.0
        assert percentile([], 50.0) == 0.0
        with pytest.raises(ValueError):
            percentile(values, 101.0)

    def test_report_from_manifests_alone(self, tmp_path):
        store = JobStore(tmp_path / "runs")
        s = 1_000_000_000  # 1s in ns
        _make_job(store, tenant="t1", submitted_ns=0,
                  granted_ns=1 * s, launched_ns=1 * s,
                  finished_ns=3 * s, ranks=2)
        _make_job(store, tenant="t2", submitted_ns=0,
                  granted_ns=3 * s, launched_ns=3 * s,
                  finished_ns=4 * s)
        _make_job(store, tenant="t2", submitted_ns=2 * s,
                  granted_ns=None, launched_ns=None,
                  finished_ns=None, status="cancelled")

        stats = collect_job_stats(store.root)
        assert len(stats) == 3
        report = compute_slo(stats)
        assert report.jobs_total == 3
        assert report.by_status == {"completed": 2, "cancelled": 1}
        assert report.abandoned == 1
        assert report.queue_wait["p50"] == pytest.approx(1.0)
        assert report.queue_wait["max"] == pytest.approx(3.0)
        assert report.turnaround["max"] == pytest.approx(4.0)
        # 2 ranks * 2s + 1 rank * 1s over a 4-rank pool * 4s window
        assert report.utilization == pytest.approx(5.0 / 16.0)
        assert report.tenants["t1"]["rank_s_share"] == (
            pytest.approx(4.0 / 5.0))

        md = report.format_markdown()
        assert "queue wait" in md and "t2" in md
        json.dumps(report.to_dict())  # JSON-safe

    def test_empty_root(self, tmp_path):
        report = compute_slo(collect_job_stats(tmp_path / "runs"))
        assert report.jobs_total == 0
        assert report.utilization is None
        report.format_markdown()  # renders without jobs


# --------------------------------------------------------------------- #
# /metrics rendered from the manifests
# --------------------------------------------------------------------- #
def _samples(text: str) -> dict[str, float]:
    return {line.rsplit(" ", 1)[0]: float(line.rsplit(" ", 1)[1])
            for line in text.splitlines() if not line.startswith("#")}


class TestMetricsFromManifests:
    def stats(self, *, reaped: bool) -> list[JobStats]:
        # the job wrote "completed" itself; the daemon stamps finished_*
        # (and so run_s) only when it reaps the process
        done = JobStats("done", "acme", "completed", 1, queue_wait_s=0.5,
                        sched_latency_s=0.03)
        if reaped:
            done = replace(done, finished_s=9.0, run_s=2.0)
        return [
            JobStats("big", "we.ird-tenant", "completed", 2,
                     finished_s=8.0, queue_wait_s=1.5,
                     sched_latency_s=0.02, run_s=700.0),
            done,
            JobStats("gone", "acme", "cancelled", 1, abandoned=True),
            JobStats("wait", "zeta", "queued", 1),
            JobStats("run", "acme", "running", 1, queue_wait_s=0.2,
                     sched_latency_s=0.01),
        ]

    def render(self, stats: list[JobStats]) -> str:
        return render_prom(stats, running=1, tenant_ranks={"acme": 1},
                           pool_ranks=4, rejected=2)

    def test_counters_gauges_and_histograms(self):
        text = self.render(self.stats(reaped=False))
        assert text.endswith("\n")
        samples = _samples(text)
        # completed-but-unreaped is not counted yet; cancelled in the
        # queue counts at once; a zero counter is not rendered
        assert samples["repro_serve_jobs_submitted"] == 5.0
        assert samples["repro_serve_jobs_completed"] == 1.0
        assert samples["repro_serve_jobs_cancelled"] == 1.0
        assert samples["repro_serve_jobs_rejected"] == 2.0
        assert "repro_serve_jobs_failed" not in samples
        assert "# TYPE repro_serve_jobs_submitted counter" in text
        assert samples["repro_serve_queue_depth"] == 1.0
        assert samples["repro_serve_jobs_running"] == 1.0
        assert samples["repro_serve_pool_utilization"] == 0.25
        # tenants that ever launched keep a gauge, sanitised; a tenant
        # that only queued has none
        assert samples["repro_serve_tenant_running_ranks_acme"] == 1.0
        assert samples[
            "repro_serve_tenant_running_ranks_we_ird_tenant"] == 0.0
        assert not any("zeta" in name for name in samples)
        for line in text.splitlines():
            name = line.split()[2] if line.startswith("#") else (
                line.split("{")[0].split()[0])
            assert all(c.isalnum() or c == "_" for c in name), line

        # queue wait 0.2, 0.5, 1.5: cumulative per edge, +Inf == _count
        q = "repro_serve_queue_wait_s"
        assert "# TYPE repro_serve_queue_wait_s histogram" in text
        assert samples[q + '_bucket{le="0.1"}'] == 0
        assert samples[q + '_bucket{le="0.25"}'] == 1
        assert samples[q + '_bucket{le="0.5"}'] == 2
        assert samples[q + '_bucket{le="1.0"}'] == 2
        assert samples[q + '_bucket{le="2.5"}'] == 3
        assert samples[q + '_bucket{le="600.0"}'] == 3
        assert samples[q + '_bucket{le="+Inf"}'] == samples[q + "_count"]
        assert samples[q + "_count"] == 3.0
        assert samples[q + "_sum"] == pytest.approx(2.2)
        assert samples[q + "_min"] == 0.2
        assert samples[q + "_max"] == 1.5
        assert text.index(q + "_bucket") < text.index(q + "_count")
        # only the reaped 700 s run so far, past the last edge
        r = "repro_serve_run_duration_s"
        assert samples[r + '_bucket{le="600.0"}'] == 0
        assert samples[r + '_bucket{le="+Inf"}'] == 1.0
        assert samples[r + "_count"] == 1.0
        assert samples[r + "_sum"] == 700.0
        assert samples["repro_serve_sched_latency_s_count"] == 3.0

    def test_reaping_counts_the_completed_job(self):
        samples = _samples(self.render(self.stats(reaped=True)))
        assert samples["repro_serve_jobs_completed"] == 2.0
        assert samples["repro_serve_run_duration_s_count"] == 2.0
        assert samples['repro_serve_run_duration_s_bucket{le="2.5"}'] == 1
        assert samples["repro_serve_run_duration_s_min"] == 2.0

    def test_restarted_daemon_reports_finished_jobs(self, tmp_path):
        """The counters live in the manifests, not in the daemon that
        ran the jobs: a fresh daemon over the root reports them."""
        store = JobStore(tmp_path / "runs")
        s = 1_000_000_000
        for k in range(3):
            _make_job(store, tenant="t1", submitted_ns=k * s,
                      granted_ns=(k + 1) * s, launched_ns=(k + 1) * s,
                      finished_ns=(k + 3) * s)
        _make_job(store, tenant="t2", submitted_ns=0, granted_ns=None,
                  launched_ns=None, finished_ns=None, status="cancelled")
        daemon = ServeDaemon(ServePolicy(pool_ranks=3), root=store.root,
                             log=lambda msg: None)
        samples = _samples(daemon.prom_metrics())
        assert samples["repro_serve_jobs_submitted"] == 4.0
        assert samples["repro_serve_jobs_completed"] == 3.0
        assert samples["repro_serve_jobs_cancelled"] == 1.0
        assert samples["repro_serve_run_duration_s_count"] == 3.0
        assert samples["repro_serve_run_duration_s_sum"] == 6.0
        assert samples["repro_serve_queue_wait_s_count"] == 3.0
        assert samples["repro_serve_queue_depth"] == 0.0
        assert samples["repro_serve_pool_ranks"] == 3.0
        assert samples["repro_serve_tenant_running_ranks_t1"] == 0.0


# --------------------------------------------------------------------- #
# live acceptance: one HTTP submission, one merged story
# --------------------------------------------------------------------- #
@contextlib.contextmanager
def live_daemon(root: Path, *extra_args: str):
    port = free_port()
    log_path = root.parent / f"{root.name}-daemon.log"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--port", str(port), "--root", str(root), "--tick", "0.05",
         *extra_args],
        stderr=open(log_path, "wb"),
    )
    url = f"http://127.0.0.1:{port}"
    try:
        deadline = time.monotonic() + 20
        while True:
            try:
                request(url, "/healthz", timeout=2)
                break
            except ServeClientError:
                if time.monotonic() > deadline or proc.poll() is not None:
                    raise AssertionError(
                        f"daemon never came up; log:\n"
                        f"{log_path.read_text()}")
                time.sleep(0.1)
        yield proc, url
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


def _prom_value(text: str, name: str) -> float:
    for line in text.splitlines():
        if line.startswith(name + " "):
            return float(line.split()[-1])
    raise AssertionError(f"{name} not in /metrics:\n{text}")


class TestLiveTracing:
    def test_submit_trace_events_metrics_slo_agree(
            self, fasta_path, tmp_path):
        """The acceptance story: one HTTP job; its merged Chrome trace
        holds daemon + rank spans under one trace_id; the queue wait
        agrees across manifest stamps, /metrics, the queued span, and
        the offline SLO report; /jobs/<id>/events replays run_start →
        iteration → run_end."""
        root = tmp_path / "queue"
        with live_daemon(root, "--pool-ranks", "2") as (proc, url):
            reply = submit_job(url, {
                "alignment": str(fasta_path), "ranks": 2,
                "iterations": 2, "seed": 3, "supervise": False,
            })
            job_id = reply["job_id"]
            manifest = wait_for_job(url, job_id, timeout=300)
            assert manifest["status"] == "completed"
            # the job process stamps its own terminal status; the
            # daemon's reap (run-duration observation, "run" span,
            # finished stamps) lands a tick later — wait for it
            deadline = time.monotonic() + 60
            while "finished_ns" not in (manifest.get("queue") or {}):
                assert time.monotonic() < deadline, "job never reaped"
                time.sleep(0.05)
                manifest = request(url, f"/jobs/{job_id}")
            trace_id = manifest["trace_id"]
            queue = manifest["queue"]
            wait_s = (queue["granted_ns"] - queue["submitted_ns"]) / 1e9
            assert wait_s >= 0.0

            # the /metrics histogram saw exactly this wait
            with urllib.request.urlopen(url + "/metrics",
                                        timeout=10) as resp:
                prom = resp.read().decode()
            assert _prom_value(
                prom, "repro_serve_queue_wait_s_count") == 1.0
            assert _prom_value(
                prom, "repro_serve_queue_wait_s_sum") == (
                    pytest.approx(wait_s, rel=1e-6, abs=1e-9))
            assert 'repro_serve_queue_wait_s_bucket{le="+Inf"} 1' in prom
            assert _prom_value(prom, "repro_serve_run_duration_s_count") \
                == 1.0

            # live event stream replays the whole job story
            events = list(stream_events(url, job_id))
            kinds = [e["event"] for e in events]
            for required in ("queued", "granted", "launched"):
                assert required in kinds
            rank0 = [e["event"] for e in events
                     if e["source"] == "rank0"]
            start = rank0.index("run_start")
            iteration = rank0.index("iteration")
            end = rank0.index("run_end")
            assert start < iteration < end
            assert kinds[-1] == "terminal"
            assert events[-1]["status"] == "completed"

        # daemon drained: merge its spans with the ranks' into one trace
        records = merge_job_trace(root / job_id)
        assert {r["trace_id"] for r in records} == {trace_id}
        daemon_spans = {r["name"] for r in records
                        if r["kind"] == "service"}
        assert {"admit", "sized", "queued", "granted",
                "launched", "run"} <= daemon_spans
        search_spans = {r["name"] for r in records
                        if r["kind"] == "search"}
        assert "initial_smooth" in search_spans
        assert {r["rank"] for r in records} >= {DAEMON_RANK, 0, 1}

        # the queued span is the manifest's queue wait, exactly
        queued_span = next(r for r in records if r["name"] == "queued")
        span_wait = (queued_span["t1_ns"] - queued_span["t0_ns"]) / 1e9
        assert span_wait == pytest.approx(wait_s, rel=1e-9)

        # ... and the trace exports cleanly with both process tracks
        doc = chrome_trace(records)
        json.dumps(doc)
        procs = {e["args"]["name"] for e in doc["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "process_name"}
        assert {"daemon", "rank 0", "rank 1"} <= procs

        # offline SLO report reproduces the same queue wait percentile
        report = compute_slo(collect_job_stats(root))
        assert report.jobs_total == 1
        assert report.queue_wait["p50"] == pytest.approx(wait_s,
                                                         rel=1e-9)

        # ... as does the CLI, manifests alone, daemon long gone
        out = subprocess.run(
            [sys.executable, "-m", "repro", "slo", "--root", str(root),
             "--json"],
            check=True, capture_output=True, timeout=60)
        cli_report = json.loads(out.stdout)
        assert cli_report["queue_wait_s"]["p50"] == (
            pytest.approx(wait_s, rel=1e-9))
