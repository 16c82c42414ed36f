"""Live run telemetry: heartbeats, progress streams and stall diagnosis.

The acceptance scenario of the observability PR, executed for real: a
4-rank decentralized run with an injected hang is diagnosed by the
parent-side monitor as *hung rank N at collective call K* strictly
before the bounded-recv timeout triggers recovery; a transiently slow
rank is classified as a straggler (not a stall) and the run completes
with the same tree and likelihood as an unmonitored one; and with
monitoring disabled the telemetry layer costs nothing — no thread, no
files, no comm wrapper, identical collective traffic.
"""

import json
import threading
import time

import pytest

from repro.datasets import partitioned_workload
from repro.engines.launch import RunConfig, launch
from repro.engines.runtime import RankRuntime
from repro.obs.heartbeat import (
    HeartbeatInterceptor,
    HeartbeatState,
    HeartbeatWriter,
    heartbeat_path,
    read_heartbeat,
    read_heartbeats,
)
from repro.obs.monitor import (
    DIAGNOSIS_FILENAME,
    Monitor,
    MonitorThread,
    diagnose,
    format_watch_table,
    watch_loop,
)
from repro.obs.progress import (
    NULL_PROGRESS,
    ProgressReporter,
    ProgressStream,
    progress_path,
    read_progress,
)
from repro.par.comm import InterceptingComm
from repro.par.faultcomm import FaultPlan
from repro.par.seqcomm import SequentialComm
from repro.search.search import SearchConfig
from repro.tree.newick import write_newick

CONVERGED = SearchConfig(max_iterations=10, radius_max=2, model_opt=False,
                         epsilon=1e-6, branch_passes=3)
QUICK = SearchConfig(max_iterations=2, radius_max=2, model_opt=False)


@pytest.fixture(scope="module")
def setup():
    wl = partitioned_workload(4, n_taxa=8, sites_per_partition=30)
    lik = wl.build_likelihood("gamma")
    return lik.parts, lik.taxa, write_newick(wl.tree)


# --------------------------------------------------------------------- #
# heartbeat channel
# --------------------------------------------------------------------- #
class TestHeartbeatChannel:
    def test_writer_beats_and_final_phase(self, tmp_path):
        state = HeartbeatState(3)
        writer = HeartbeatWriter(tmp_path, state, interval=0.02).start()
        time.sleep(0.08)
        state.update(phase="spr_round", iteration=2, logl=-123.5)
        writer.stop(final_phase="done")
        record = read_heartbeat(heartbeat_path(tmp_path, 3))
        assert record is not None
        assert record["world_rank"] == 3
        assert record["phase"] == "done"
        assert record["iteration"] == 2
        assert record["logl"] == -123.5
        assert record["seq"] >= 2  # first synchronous beat + loop beats
        assert record["beat_ns"] > 0
        assert record["in_collective"] is False

    def test_torn_record_is_skipped(self, tmp_path):
        heartbeat_path(tmp_path, 0).write_text('{"world_rank": 0')
        state = HeartbeatState(1)
        HeartbeatWriter(tmp_path, state, interval=10.0).beat()
        assert read_heartbeat(heartbeat_path(tmp_path, 0)) is None
        records = read_heartbeats(tmp_path)
        assert set(records) == {1}

    def test_bad_interval_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            HeartbeatWriter(tmp_path, HeartbeatState(0), interval=0.0)

    def test_monitored_comm_brackets_every_call(self):
        state = HeartbeatState(0)
        comm = InterceptingComm(SequentialComm(),
                                [HeartbeatInterceptor(state)])
        assert state.calls == 0
        comm.allreduce(1.0, tag="log likelihood")
        assert state.calls == 1
        assert state.verb == "allreduce"
        assert state.tag == "log likelihood"
        assert state.in_collective is False  # exited
        assert state.entered_ns > 0
        comm.bcast({"a": 1}, tag="model parameters")
        comm.barrier()
        assert state.calls == 3
        assert state.verb == "barrier"
        # pure delegation: the wrapped comm's accounting is untouched
        assert comm.calls_by_tag["log likelihood"] == 1
        assert comm.rank == 0 and comm.size == 1

    def test_monitored_comm_marks_exit_on_error(self):
        class Boom(SequentialComm):
            def allreduce(self, obj, op=None, tag="generic"):
                raise RuntimeError("boom")

        state = HeartbeatState(0)
        comm = InterceptingComm(Boom(), [HeartbeatInterceptor(state)])
        with pytest.raises(RuntimeError):
            comm.allreduce(1.0)
        assert state.calls == 1
        assert state.in_collective is False  # finally-exit ran


# --------------------------------------------------------------------- #
# progress stream
# --------------------------------------------------------------------- #
class TestProgressStream:
    def test_events_stream_and_read_back(self, tmp_path):
        path = progress_path(tmp_path, 1)
        stream = ProgressStream(path, 1)
        state = HeartbeatState(1)
        reporter = ProgressReporter(state, stream)
        reporter.event("run_start", engine="decentralized", ranks=4)
        reporter.phase("initial_smooth")
        reporter.add_newton(7)
        reporter.iteration(1, logl=-500.25, radius=2, moves_accepted=3,
                          insertions_tried=40)
        reporter.close(final_phase="done")
        assert state.phase == "done"
        assert state.newton_iters == 7
        assert state.moves_accepted == 3
        events = read_progress(path)
        assert [e["event"] for e in events] == \
            ["run_start", "phase", "iteration"]
        it = events[-1]
        assert it["logl"] == -500.25
        assert it["newton_iters"] == 7
        assert it["insertions_rejected"] == 37
        assert all(e["rank"] == 1 for e in events)

    def test_torn_trailing_line_tolerated(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text('{"event":"a","rank":0,"t_ns":1}\n{"event":"b"')
        events = read_progress(path)
        assert [e["event"] for e in events] == ["a"]

    def test_null_progress_is_inert(self):
        assert NULL_PROGRESS.enabled is False
        assert NULL_PROGRESS.phase("x") is None
        assert NULL_PROGRESS.iteration(1, logl=0.0) is None
        assert NULL_PROGRESS.status(phase="y") is None
        assert NULL_PROGRESS.add_newton(3) is None
        assert NULL_PROGRESS.event("z") is None
        assert NULL_PROGRESS.close() is None


# --------------------------------------------------------------------- #
# stall taxonomy (synthetic heartbeat records, fixed clock)
# --------------------------------------------------------------------- #
NOW = 10_000_000_000_000  # arbitrary monotonic instant, ns


def record(rank, *, phase="spr_round", calls=10, in_collective=False,
           verb="", tag="", stale=0.0, beat=0.0, recoveries=0):
    return {
        "rank": rank, "world_rank": rank, "phase": phase, "iteration": 1,
        "logl": -100.0, "calls": calls, "verb": verb, "tag": tag,
        "in_collective": in_collective,
        "updated_ns": NOW - int(stale * 1e9),
        "beat_ns": NOW - int(beat * 1e9),
        "recoveries": recoveries,
    }


class TestDiagnose:
    def test_no_records_is_no_data(self):
        diag = diagnose({}, now_ns=NOW)
        assert diag.status == "no_data"
        assert not diag.is_stall

    def test_all_fresh_is_ok(self):
        diag = diagnose({r: record(r) for r in range(3)}, now_ns=NOW)
        assert diag.status == "ok"
        assert [h.state for h in diag.ranks] == ["healthy"] * 3

    def test_briefly_stale_is_straggler_not_stall(self):
        records = {
            0: record(0, calls=20, in_collective=True, verb="allreduce",
                      tag="log likelihood", stale=1.5),
            1: record(1, calls=19, stale=1.5),
            2: record(2, calls=20, stale=0.1),
        }
        diag = diagnose(records, now_ns=NOW)
        assert diag.status == "straggler"
        assert not diag.is_stall
        assert 1 in diag.stragglers
        assert 0 in diag.waiting

    def test_hung_rank_named_with_call_index(self):
        # the asymmetry: rank 1 froze *between* collectives at calls=24
        # while its peers are frozen *inside* call 25
        records = {
            0: record(0, calls=25, in_collective=True, verb="allreduce",
                      tag="branch length optimization", stale=5.0),
            1: record(1, calls=24, in_collective=False, stale=5.0),
            2: record(2, calls=25, in_collective=True, verb="allreduce",
                      tag="branch length optimization", stale=5.0),
        }
        diag = diagnose(records, now_ns=NOW)
        assert diag.status == "hung_rank"
        assert diag.is_stall
        assert diag.culprit == 1
        assert diag.call_index == 25
        assert diag.verb == "allreduce"
        assert diag.tag == "branch length optimization"
        assert set(diag.waiting) == {0, 2}
        assert "hung rank 1" in diag.message
        assert "call 25" in diag.message

    def test_everyone_inside_collectives_is_global_stall(self):
        records = {
            r: record(r, calls=30 + (r % 2), in_collective=True,
                      verb="allreduce", stale=6.0)
            for r in range(4)
        }
        diag = diagnose(records, now_ns=NOW)
        assert diag.status == "global_stall"
        assert diag.is_stall
        assert diag.call_index == 31
        assert set(diag.waiting) == {0, 1, 2, 3}

    def test_stalled_peers_with_progressing_rank_is_straggler(self):
        # peers frozen in a collective past stall_after, but the
        # not-in-collective rank is still updating: a slow rank holding
        # everyone up, not a hang
        records = {
            0: record(0, calls=25, in_collective=True, verb="allreduce",
                      stale=5.0),
            1: record(1, calls=24, stale=0.2),
            2: record(2, calls=25, in_collective=True, verb="allreduce",
                      stale=5.0),
        }
        diag = diagnose(records, now_ns=NOW)
        assert diag.status == "straggler"
        assert diag.stragglers == (1,)

    def test_silent_beats_mean_dead_rank(self):
        records = {
            0: record(0, calls=25, in_collective=True, verb="allreduce",
                      stale=8.0),
            1: record(1, calls=24, stale=8.0, beat=8.0),
            2: record(2, calls=25, in_collective=True, verb="allreduce",
                      stale=8.0),
        }
        diag = diagnose(records, now_ns=NOW)
        assert diag.status == "dead_rank"  # beats trump staleness
        assert diag.culprit == 1
        assert diag.dead == (1,)

    def test_recovery_in_flight_suppresses_stall_reports(self):
        records = {
            0: record(0, phase="recover", stale=0.1),
            1: record(1, calls=25, in_collective=True, verb="allreduce",
                      stale=9.0),
        }
        diag = diagnose(records, now_ns=NOW)
        assert diag.status == "recovering"
        assert diag.recovering == (0,)
        assert not diag.is_stall

    def test_finished_ranks_are_excluded(self):
        records = {
            0: record(0, phase="done", stale=30.0, beat=30.0),
            1: record(1, stale=0.1),
        }
        assert diagnose(records, now_ns=NOW).status == "ok"
        records[1] = record(1, phase="failed", stale=30.0, beat=30.0)
        assert diagnose(records, now_ns=NOW).status == "done"


class TestMonitorAndWatch:
    def _hung_mesh(self, monitor_dir):
        now = time.perf_counter_ns()
        for rank in range(3):
            rec = record(rank, calls=8 if rank == 1 else 9,
                         in_collective=rank != 1,
                         verb="" if rank == 1 else "reduce",
                         tag="" if rank == 1 else "log likelihood")
            rec["updated_ns"] = now - 10_000_000_000  # 10 s stale
            rec["beat_ns"] = now
            heartbeat_path(monitor_dir, rank).write_text(json.dumps(rec))

    def test_thresholds_validated(self, tmp_path):
        with pytest.raises(ValueError):
            Monitor(tmp_path, straggler_after=2.0, stall_after=1.0)

    def test_monitor_thread_records_first_stall_durably(self, tmp_path):
        self._hung_mesh(tmp_path)
        mon = MonitorThread(tmp_path, interval=0.05)
        diag = mon.poll_once()
        assert diag.status == "hung_rank"
        assert diag.culprit == 1
        assert diag.call_index == 9
        assert mon.first_stall is diag
        mon.poll_once()  # a second stall poll must not displace the first
        assert mon.first_stall is diag
        assert [d.status for d in mon.transitions] == ["hung_rank"]
        on_disk = json.loads((tmp_path / DIAGNOSIS_FILENAME).read_text())
        assert on_disk["status"] == "hung_rank"
        assert on_disk["culprit"] == 1
        assert on_disk["call_index"] == 9
        assert {h["rank"] for h in on_disk["ranks"]} == {0, 1, 2}

    def test_watch_table_names_the_verdict(self, tmp_path):
        self._hung_mesh(tmp_path)
        text = format_watch_table(Monitor(tmp_path).poll())
        assert "[hung_rank]" in text
        assert "hung rank 1" in text
        assert "in reduce/log likelihood" in text  # peers' waiting site

    def test_watch_loop_once(self, tmp_path):
        import io

        self._hung_mesh(tmp_path)
        out = io.StringIO()
        diag = watch_loop(tmp_path, once=True, out=out)
        assert diag.status == "hung_rank"
        assert "hung rank 1" in out.getvalue()


# --------------------------------------------------------------------- #
# live forked runs (the acceptance scenarios)
# --------------------------------------------------------------------- #
class TestLiveMonitoredRuns:
    def test_hang_diagnosed_before_recovery(self, setup, tmp_path):
        """4 ranks, rank 2 hangs at its 25th collective: the monitor
        names the hung rank and the call index it never entered, and it
        does so strictly before the bounded-recv timeout starts the
        agree/shrink/redistribute recovery."""
        parts, taxa, newick = setup
        mdir = tmp_path / "monitor"
        plan = FaultPlan.kill(rank=2, at_call=25, mode="hang",
                              hang_seconds=30.0)
        mon = MonitorThread(mdir, interval=0.1, straggler_after=0.5,
                            stall_after=2.0, beat_timeout=15.0).start()
        try:
            rec = launch(RunConfig("decentralized", parts, taxa, newick,
                                   n_ranks=4, config=CONVERGED,
                                   fault_plan=plan, detect_timeout=5.0,
                                   monitor_dir=mdir, beat_interval=0.05))
        finally:
            mon.stop()

        diag = mon.first_stall
        assert diag is not None, "monitor never saw the stall"
        assert diag.status == "hung_rank"
        assert diag.culprit == 2
        assert diag.call_index == 25  # the injection point, by name
        assert diag.verb  # peers name the collective they wait inside
        assert set(diag.waiting) == {0, 1, 3}
        # strictly before recovery: at diagnosis time no rank had begun
        # (or completed) the agree/shrink pipeline
        for h in diag.ranks:
            assert h.recoveries == 0
            assert h.phase != "recover"
        # the hung_rank verdict precedes any recovering status
        statuses = [d.status for d in mon.transitions]
        assert "hung_rank" in statuses
        if "recovering" in statuses:
            assert statuses.index("hung_rank") < statuses.index("recovering")
        # the durable report survives independently of the parent
        on_disk = json.loads((mdir / DIAGNOSIS_FILENAME).read_text())
        assert (on_disk["status"], on_disk["culprit"],
                on_disk["call_index"]) == ("hung_rank", 2, 25)
        # ... and the run then recovered exactly as the fault-tolerance
        # tests require: 3 consistent survivors
        assert rec[2] is None
        survivors = [r for r in rec if r is not None]
        assert len(survivors) == 3
        for r in survivors:
            assert r.failed_ranks == (2,)
            assert r.recoveries == 1
            assert r.logl == survivors[0].logl

    def test_slow_rank_is_straggler_not_stall(self, setup, tmp_path):
        """A transiently slow rank must be classified as a straggler —
        never a stall — and the run must finish unperturbed with the
        same tree and likelihood as an unmonitored run."""
        parts, taxa, newick = setup
        ref = launch(RunConfig("decentralized", parts, taxa, newick, n_ranks=3,
                               config=QUICK))

        mdir = tmp_path / "monitor"
        mdir.mkdir()
        plan = FaultPlan.kill(rank=1, at_call=15, mode="slow",
                              hang_seconds=3.0)
        seen = []
        stop = threading.Event()
        monitor = Monitor(mdir, straggler_after=0.5, stall_after=30.0,
                          beat_timeout=60.0)

        def poll_loop():
            while not stop.is_set():
                seen.append(monitor.poll())
                time.sleep(0.1)

        poller = threading.Thread(target=poll_loop, daemon=True)
        poller.start()
        try:
            rec = launch(RunConfig("decentralized", parts, taxa, newick,
                                   n_ranks=3, config=QUICK, fault_plan=plan,
                                   monitor_dir=mdir, beat_interval=0.05))
        finally:
            stop.set()
            poller.join(timeout=5.0)

        assert not any(d.is_stall for d in seen)
        straggles = [d for d in seen if d.status == "straggler"]
        assert any(1 in d.stragglers for d in straggles), \
            "the slow rank was never named a straggler"
        # nothing failed, nothing recovered, result identical
        assert all(r is not None for r in rec)
        for r in rec:
            assert r.failed_ranks == ()
            assert r.recoveries == 0
        assert rec[0].newick == ref[0].newick
        assert rec[0].logl == pytest.approx(ref[0].logl, abs=1e-10)

    def test_monitored_run_leaves_full_telemetry(self, setup, tmp_path):
        parts, taxa, newick = setup
        mdir = tmp_path / "monitor"
        rec = launch(RunConfig("decentralized", parts, taxa, newick, n_ranks=2,
                               config=QUICK, monitor_dir=mdir,
                               beat_interval=0.05))
        records = read_heartbeats(mdir)
        assert set(records) == {0, 1}
        for rank, hb in records.items():
            assert hb["phase"] == "done"
            assert hb["calls"] > 0
            assert hb["in_collective"] is False
        for r in rec:
            assert r.monitor_dir == str(mdir)
            events = read_progress(r.progress_path)
            kinds = [e["event"] for e in events]
            assert kinds[0] == "run_start"
            assert kinds[-1] == "run_end"
            assert "iteration" in kinds
            iters = [e for e in events if e["event"] == "iteration"]
            assert iters[-1]["logl"] == pytest.approx(r.logl)
        assert Monitor(mdir).poll().status == "done"

    def test_disabled_monitoring_is_zero_cost(self, setup, tmp_path):
        """No monitor_dir ⇒ no wrapper, no thread, no files — and
        byte-for-byte identical collective traffic to a monitored run."""
        parts, taxa, newick = setup
        before = threading.active_count()
        comm = SequentialComm()
        runtime = RankRuntime(
            RunConfig("decentralized", parts, taxa, newick, 1), 0)
        assert runtime.open(comm) is comm  # not wrapped
        assert runtime._heartbeat is None  # no heartbeat thread
        assert runtime.progress is NULL_PROGRESS  # the shared no-op singleton
        assert threading.active_count() == before

        plain = launch(RunConfig("decentralized", parts, taxa, newick,
                                 n_ranks=2, config=QUICK))
        mdir = tmp_path / "monitor"
        monitored = launch(RunConfig("decentralized", parts, taxa, newick,
                                     n_ranks=2, config=QUICK, monitor_dir=mdir,
                                     beat_interval=0.05))
        for p, m in zip(plain, monitored):
            assert p.monitor_dir is None
            assert p.progress_path is None
            assert m.logl == p.logl
            assert m.newick == p.newick
            # observation-only wrapper: identical collective counts
            assert m.calls_by_tag == p.calls_by_tag
            assert m.bytes_by_tag == p.bytes_by_tag
