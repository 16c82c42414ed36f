"""Unit tests for the observability subsystem (:mod:`repro.obs`).

Covers the tracer's ring buffer and error semantics, the
instrumentation wrappers (delegation fidelity + span accuracy against a
real communicator), the JSONL/Chrome exporters (valid
JSON, per-rank monotonic timestamps, pid = rank, tid named after the
span kind), and the reconciliation arithmetic.
"""

import json

import numpy as np
import pytest

from repro.obs.export import (
    chrome_trace,
    merge_job_trace,
    merge_rank_streams,
    rank_trace_path,
    read_jsonl,
    span_to_dict,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.instrument import TraceInterceptor
from repro.obs.reconcile import (
    DECENTRALIZED_REL_TOL,
    CategoryDelta,
    ReconcileReport,
    reconcile,
)
from repro.obs.tracer import NULL_TRACER, Span, Tracer
from repro.par.comm import InterceptingComm, ReduceOp, payload_nbytes
from repro.par.seqcomm import SequentialComm


# ---------------------------------------------------------------------- #
# tracer
# ---------------------------------------------------------------------- #


class TestTracer:
    def test_span_records_timing_and_metadata(self):
        tr = Tracer(rank=3)
        with tr.span("allreduce", kind="comm", category="likelihood",
                     nbytes=64, iteration=2):
            pass
        (span,) = tr.spans()
        assert span.name == "allreduce"
        assert span.kind == "comm"
        assert span.rank == 3
        assert span.category == "likelihood"
        assert span.nbytes == 64
        assert span.attrs == {"iteration": 2}
        assert span.t1_ns >= span.t0_ns
        assert not span.error

    def test_exception_sets_error_flag_and_propagates(self):
        tr = Tracer(rank=0)
        with pytest.raises(RuntimeError):
            with tr.span("bcast", kind="comm"):
                raise RuntimeError("boom")
        (span,) = tr.spans()
        assert span.error
        assert span.t1_ns >= span.t0_ns  # closed despite the unwind

    def test_instant_is_zero_duration(self):
        tr = Tracer(rank=1)
        tr.instant("rank_failure", kind="recovery", failed=[2])
        (span,) = tr.spans()
        assert span.is_instant
        assert span.attrs == {"failed": [2]}

    def test_ring_buffer_drops_oldest(self):
        tr = Tracer(rank=0, capacity=4)
        for i in range(7):
            tr.instant(f"e{i}")
        assert len(tr) == 4
        assert tr.dropped == 3
        assert [s.name for s in tr.spans()] == ["e3", "e4", "e5", "e6"]

    def test_clear_resets(self):
        tr = Tracer(rank=0, capacity=2)
        for i in range(5):
            tr.instant(f"e{i}")
        tr.clear()
        assert len(tr) == 0 and tr.dropped == 0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            Tracer(rank=0, capacity=0)

    def test_null_tracer_is_inert_and_allocation_free(self):
        ctx1 = NULL_TRACER.span("x", kind="comm", nbytes=8)
        ctx2 = NULL_TRACER.span("y")
        assert ctx1 is ctx2  # one shared context: no per-call allocation
        with ctx1 as span:
            assert span is None
        NULL_TRACER.instant("z")
        assert not NULL_TRACER.enabled
        assert NULL_TRACER.spans() == []
        assert len(NULL_TRACER) == 0

    def test_null_tracer_never_swallows_exceptions(self):
        with pytest.raises(ValueError):
            with NULL_TRACER.span("x"):
                raise ValueError("must escape")


# ---------------------------------------------------------------------- #
# instrumentation: TraceInterceptor over a real communicator
# ---------------------------------------------------------------------- #


class TestTracingComm:
    @pytest.fixture
    def traced(self):
        tracer = Tracer(rank=0)
        comm = InterceptingComm(SequentialComm(), [TraceInterceptor(tracer)])
        return comm, tracer

    def test_results_identical_to_inner(self, traced):
        comm, _ = traced
        arr = np.arange(4.0)
        assert np.array_equal(comm.bcast(arr, tag="model parameters"), arr)
        out = comm.allreduce(arr, ReduceOp.SUM, tag="likelihood")
        assert np.array_equal(out, arr)
        assert comm.gather(7, tag="generic") == [7]
        assert comm.scatter([5], tag="generic") == 5
        comm.barrier(tag="sync")
        assert comm.rank == 0 and comm.size == 1

    def test_spans_carry_tag_and_nbytes(self, traced):
        comm, tracer = traced
        arr = np.arange(4.0)
        comm.allreduce(arr, ReduceOp.SUM, tag="likelihood")
        (span,) = tracer.spans()
        assert span.name == "allreduce"
        assert span.kind == "comm"
        assert span.category == "likelihood"
        assert span.nbytes == arr.nbytes

    def test_wire_accounting_untouched(self, traced):
        """Tracing must not perturb the byte ledger the engines report."""
        comm, _ = traced
        arr = np.ones(8)
        comm.allreduce(arr, ReduceOp.SUM, tag="t")
        assert comm.bytes_by_tag["t"] == arr.nbytes
        assert comm.calls_by_tag["t"] == 1

    def test_counters_track_calls_and_bytes(self, traced):
        comm, tracer = traced
        arr = np.ones(8)
        comm.allreduce(arr, ReduceOp.SUM, tag="t")
        comm.allreduce(arr, ReduceOp.SUM, tag="t")
        spans = tracer.spans()
        assert [(s.name, s.category, s.nbytes) for s in spans] == [
            ("allreduce", "t", arr.nbytes)] * 2
        # the comm's own counters and the stream agree call for call
        assert comm.calls_by_tag["t"] == len(spans) == 2
        assert comm.bytes_by_tag["t"] == sum(s.nbytes for s in spans)

    def test_pure_receive_records_result_bytes(self, traced):
        # bcast of None carries 0 contributed bytes; the span must pick
        # up the received payload's size instead (set before commit).
        comm, tracer = traced
        comm.bcast(None, tag="t")
        (span,) = tracer.spans()
        assert span.nbytes == 0  # SequentialComm returns the None payload
        comm.scatter([np.ones(4)], tag="t")
        span = tracer.spans()[-1]
        assert span.nbytes == payload_nbytes([np.ones(4)])


# ---------------------------------------------------------------------- #
# search-phase spans
# ---------------------------------------------------------------------- #


class TestSearchSpans:
    def test_hill_climb_uses_an_empty_tracer(self):
        # regression: a span-less Tracer has len 0 and is falsy, so a
        # truthiness-based fallback would silently swap in NULL_TRACER
        from repro.datasets import partitioned_workload
        from repro.likelihood.backend import SequentialBackend
        from repro.search.search import SearchConfig, hill_climb

        wl = partitioned_workload(2, n_taxa=6, sites_per_partition=20)
        backend = SequentialBackend(wl.build_likelihood("gamma"))
        tracer = Tracer(rank=0)
        assert not tracer  # the trap this test pins
        backend.tracer = tracer
        hill_climb(backend, SearchConfig(max_iterations=1, radius_max=1,
                                         alpha_iterations=4))
        names = {s.name for s in tracer.spans() if s.kind == "search"}
        assert {"initial_smooth", "model_opt", "spr_round",
                "smooth_branches"} <= names


# ---------------------------------------------------------------------- #
# export: JSONL round trip + Chrome trace shape
# ---------------------------------------------------------------------- #


def _two_rank_streams(tmp_path):
    """Two interleaved rank traces written to disk, as the launcher does."""
    paths = []
    for rank, offsets in ((0, (0, 100, 400)), (1, (50, 200, 300))):
        tr = Tracer(rank=rank)
        spans = []
        for i, off in enumerate(offsets):
            kind = "comm" if i % 2 == 0 else "kernel"
            spans.append(Span(name=f"r{rank}e{i}", kind=kind, rank=rank,
                              t0_ns=1000 + off, t1_ns=1000 + off + 10,
                              category="likelihood", nbytes=8 * (i + 1)))
        tr.instant("marker", kind="recovery")
        path = rank_trace_path(tmp_path, rank)
        write_jsonl(spans + tr.spans(), path)
        paths.append(path)
    return paths


class TestExport:
    def test_jsonl_round_trip(self, tmp_path):
        tr = Tracer(rank=2)
        with tr.span("s", kind="comm", category="t", nbytes=16, extra=1):
            pass
        path = write_jsonl(tr.spans(), tmp_path / "t.jsonl")
        (rec,) = read_jsonl(path)
        assert rec == span_to_dict(tr.spans()[0])
        assert rec["rank"] == 2 and rec["nbytes"] == 16
        assert rec["attrs"] == {"extra": 1}

    def test_merge_orders_by_start_time(self, tmp_path):
        paths = _two_rank_streams(tmp_path)
        merged = merge_rank_streams(paths)
        starts = [s["t0_ns"] for s in merged]
        assert starts == sorted(starts)
        assert {s["rank"] for s in merged} == {0, 1}

    def test_chrome_trace_is_valid_json(self, tmp_path):
        paths = _two_rank_streams(tmp_path)
        out = write_chrome_trace(merge_rank_streams(paths),
                                 tmp_path / "trace.json")
        doc = json.loads(out.read_text())
        assert isinstance(doc["traceEvents"], list)
        assert doc["traceEvents"]

    def test_chrome_pid_is_rank_tid_named_after_kind(self, tmp_path):
        doc = chrome_trace(merge_rank_streams(_two_rank_streams(tmp_path)))
        events = doc["traceEvents"]
        threads = [e for e in events
                   if e["ph"] == "M" and e["name"] == "thread_name"]
        # one thread_name per (rank, kind) actually present
        named = {(e["pid"], e["args"]["name"]) for e in threads}
        assert named == {(0, "comm"), (0, "kernel"), (0, "recovery"),
                         (1, "comm"), (1, "kernel"), (1, "recovery")}
        # ... and one process_name per rank
        procs = {e["pid"]: e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "process_name"}
        assert procs == {0: "rank 0", 1: "rank 1"}
        # every real event's (pid, tid) maps back to its kind
        tid_kind = {(e["pid"], e["tid"]): e["args"]["name"]
                    for e in threads}
        for e in events:
            if e["ph"] == "M":
                continue
            assert tid_kind[(e["pid"], e["tid"])] == e["cat"]

    def test_chrome_timestamps_monotonic_per_rank(self, tmp_path):
        doc = chrome_trace(merge_rank_streams(_two_rank_streams(tmp_path)))
        by_rank: dict[int, list[float]] = {}
        for e in doc["traceEvents"]:
            if e["ph"] == "M":
                continue
            by_rank.setdefault(e["pid"], []).append(e["ts"])
        assert set(by_rank) == {0, 1}
        for ts in by_rank.values():
            assert ts == sorted(ts)
        # relative to the earliest span
        assert min(min(ts) for ts in by_rank.values()) == 0.0

    def test_chrome_complete_vs_instant_phases(self, tmp_path):
        doc = chrome_trace(merge_rank_streams(_two_rank_streams(tmp_path)))
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert len(complete) == 6 and len(instants) == 2
        for e in complete:
            assert e["dur"] == pytest.approx(0.01)  # 10 ns in µs
        for e in instants:
            assert e["s"] == "t" and e["name"] == "marker"

    def test_empty_trace(self):
        assert chrome_trace([]) == {"traceEvents": [],
                                    "displayTimeUnit": "ms"}


class TestTornStreams:
    """Merge tolerance for writers killed mid-record.

    A job's daemon stream may be absent (plain launches) or end in a
    torn half-record (daemon SIGKILL, disk-full truncation); the merge
    must keep every record written before the tear rather than failing
    the whole trace.
    """

    def _rank_stream(self, tmp_path, rank=0):
        path = tmp_path / "trace" / f"trace-rank{rank}.jsonl"
        write_jsonl([
            {"name": "a", "kind": "comm", "rank": rank,
             "t0_ns": 10, "t1_ns": 20},
            {"name": "b", "kind": "comm", "rank": rank,
             "t0_ns": 30, "t1_ns": 40},
        ], path)
        return path

    def test_merge_job_trace_without_daemon_stream(self, tmp_path):
        self._rank_stream(tmp_path)
        merged = merge_job_trace(tmp_path)
        assert [r["name"] for r in merged] == ["a", "b"]

    def test_merge_job_trace_with_torn_daemon_stream(self, tmp_path):
        self._rank_stream(tmp_path)
        good = json.dumps({"name": "queued", "kind": "service",
                           "rank": -1, "t0_ns": 1, "t1_ns": 2})
        (tmp_path / "trace-daemon.jsonl").write_text(
            good + '\n{"name": "laun')  # writer died mid-record
        merged = merge_job_trace(tmp_path)
        assert [r["name"] for r in merged] == ["queued", "a", "b"]

    def test_merge_drops_torn_trailing_rank_record(self, tmp_path):
        path = self._rank_stream(tmp_path)
        with path.open("a") as fh:
            fh.write('{"name": "c", "kind": "comm", "rank": 0, "t0_ns"')
        merged = merge_job_trace(tmp_path)
        assert [r["name"] for r in merged] == ["a", "b"]

    def test_read_jsonl_strict_modes(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"name": "a"}\n{"name": "b"\n')
        with pytest.raises(json.JSONDecodeError):
            read_jsonl(path)
        assert read_jsonl(path, strict=False) == [{"name": "a"}]


# ---------------------------------------------------------------------- #
# reconciliation arithmetic
# ---------------------------------------------------------------------- #


class TestReconcileArithmetic:
    def test_category_delta_properties(self):
        row = CategoryDelta("likelihood", measured=120.0, modeled=100.0)
        assert row.delta == 20.0
        assert row.ratio == 1.2
        assert row.rel_error == pytest.approx(0.2)
        assert row.within(0.25)
        assert not row.within(0.1)
        assert row.within(0.0, abs_tol=20.0)

    def test_zero_modeled_edge_cases(self):
        empty = CategoryDelta("x", measured=0.0, modeled=0.0)
        assert empty.ratio == 1.0 and empty.rel_error == 0.0
        assert empty.within(0.0)
        surprise = CategoryDelta("x", measured=8.0, modeled=0.0)
        assert surprise.ratio == float("inf")
        assert not surprise.within(1.0)

    def test_rows_follow_model_vocabulary(self):
        report = reconcile(
            {"a": 100.0, "stray": 8.0},
            {"a": 100.0, "b": 50.0},
            engine="decentralized",
            measured_calls_by_tag={"a": 4},
            modeled_calls={"a": 4, "b": 2},
            measured_rank=1,
        )
        assert [r.category for r in report.rows] == ["a", "b"]
        assert report.unmodeled == {"stray": 8.0}
        a, b = report.rows
        assert a.within(DECENTRALIZED_REL_TOL)
        assert a.measured_calls == a.modeled_calls == 4
        assert b.measured == 0.0 and not b.within(0.5)
        assert not report.within(0.5)

    def test_report_totals_and_table(self):
        report = ReconcileReport(
            engine="forkjoin",
            rows=[CategoryDelta("a", 30.0, 20.0),
                  CategoryDelta("b", 10.0, 10.0)],
            unmodeled={"control": 8.0},
            measured_rank=0,
        )
        assert report.measured_total == 40.0
        assert report.modeled_total == 30.0
        assert report.worst_rel_error == pytest.approx(0.5)
        assert report.within(0.5) and not report.within(0.4)
        table = report.format_table()
        assert "forkjoin (rank 0)" in table
        assert "control" in table
        doc = report.to_dict()
        assert json.loads(json.dumps(doc)) == doc
        assert doc["worst_rel_error"] == pytest.approx(0.5)


class TestLazyPackage:
    """``repro.obs`` resolves its re-exports on first access, so a plain
    ``infer`` never imports the analysis and reporting half."""

    def test_every_export_resolves_to_its_submodule(self):
        import importlib

        import repro.obs

        assert len(repro.obs.__all__) == 79 == len(set(repro.obs.__all__))
        # a re-export named like a submodule would read as either, depending
        # on what was imported first
        assert not set(repro.obs.__all__) & set(repro.obs._EXPORTS)
        for module, names in repro.obs._EXPORTS.items():
            submodule = importlib.import_module(f"repro.obs.{module}")
            # replicheck: ignore[R002] -- names is a tuple literal of _EXPORTS, not a set
            for name in names:
                assert getattr(repro.obs, name) is getattr(submodule, name)
        with pytest.raises(AttributeError, match="no_such_name"):
            repro.obs.no_such_name

    def test_infer_setup_leaves_the_report_half_unimported(self):
        """What ``infer`` does before its search — import the CLI, build
        its parser, build a likelihood — in a fresh interpreter."""
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parents[1] / "src"
        code = "\n".join([
            "import sys",
            "import repro.cli",
            "import repro.obs.context",
            "repro.cli.build_parser()",
            "from repro.datasets import partitioned_workload",
            "workload = partitioned_workload(2, n_taxa=5, sites_per_partition=12)",
            "lik = workload.build_likelihood('gamma')",
            "u, v = lik.tree.edges()[0]",
            "lik.evaluate(u, v)",
            "unwanted = ('repro.obs.analyze', 'repro.obs.slo', 'repro.obs.scaling',",
            "            'repro.obs.monitor', 'repro.obs.hotspots',",
            "            'repro.perf', 'repro.serve', 'repro.analysis', 'repro.supervise')",
            "loaded = [m for m in sys.modules if m.startswith(unwanted)]",
            "assert not loaded, loaded",
        ])
        subprocess.run([sys.executable, "-c", code], check=True,
                       env={"PYTHONPATH": str(src)}, timeout=120)
