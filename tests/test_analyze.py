"""Unit tests for trace analytics (:mod:`repro.obs.analyze`).

The attribution tests run on hand-built two-rank traces with known span
timestamps, so every inferred quantity (barrier wait, transfer,
compute, critical-path length) has an exact expected value rather than
a tolerance band.
"""

import pytest

from repro.obs.analyze import (
    analyze_trace,
    attribute_wait,
    critical_path,
    load_imbalance,
    match_collectives,
    RankBreakdown,
)
from repro.obs.export import merge_rank_streams, write_jsonl


def rec(rank, name, kind, t0, t1, category="", nbytes=0, error=False,
        attrs=None):
    out = {"name": name, "kind": kind, "rank": rank,
           "t0_ns": t0, "t1_ns": t1}
    if category:
        out["category"] = category
    if nbytes:
        out["nbytes"] = nbytes
    if error:
        out["error"] = True
    if attrs:
        out["attrs"] = attrs
    return out


def two_rank_trace():
    """Two ranks, two matched collectives, every gap known exactly.

    rank 0: kernel [0,100)   allreduce [100,210)  kernel [210,300)  barrier [300,410)
    rank 1: kernel [0,200)   allreduce [200,210)  kernel [210,400)  barrier [400,410)

    Rank 1 is the straggler at both collectives: rank 0 waits 100 ns at
    the allreduce (arrives t=100, last arrival t=200) and 100 ns at the
    barrier; the remaining 10 ns of each collective is transfer.
    """
    return [
        rec(0, "kernel_a", "kernel", 0, 100),
        rec(0, "allreduce", "comm", 100, 210, category="likelihood",
            nbytes=64),
        rec(0, "kernel_b", "kernel", 210, 300),
        rec(0, "barrier", "comm", 300, 410, category="traversal descriptor"),
        rec(1, "kernel_a", "kernel", 0, 200),
        rec(1, "allreduce", "comm", 200, 210, category="likelihood",
            nbytes=64),
        rec(1, "kernel_b", "kernel", 210, 400),
        rec(1, "barrier", "comm", 400, 410, category="traversal descriptor"),
    ]


class TestMatchCollectives:
    def test_matches_by_name_and_sequence(self):
        groups = match_collectives(two_rank_trace())
        assert len(groups) == 2
        by_name = {g.name: g for g in groups}
        assert set(by_name) == {"allreduce", "barrier"}
        assert by_name["allreduce"].last_arrival_ns == 200
        assert by_name["allreduce"].straggler == 1
        assert by_name["barrier"].straggler == 1

    def test_wait_is_gap_to_last_arrival_clamped_to_span(self):
        (group,) = [g for g in match_collectives(two_rank_trace())
                    if g.name == "allreduce"]
        assert group.wait_ns(0) == 100  # arrived 100, last arrival 200
        assert group.wait_ns(1) == 0    # the straggler never waits

    def test_wait_clamped_when_span_shorter_than_gap(self):
        # rank 0's span ends before rank 1 even arrives (an interrupted
        # collective): wait cannot exceed the span's own duration.
        spans = [
            rec(0, "bcast", "comm", 0, 30),
            rec(1, "bcast", "comm", 100, 130),
        ]
        (group,) = match_collectives(spans)
        assert group.wait_ns(0) == 30

    def test_prefers_strong_tag_over_command(self):
        # fork-join: master tags the bcast with its Table-I category,
        # the worker receives it under the generic "command" tag.
        spans = [
            rec(0, "bcast", "comm", 0, 10, category="branch lengths"),
            rec(1, "bcast", "comm", 5, 10, category="command"),
        ]
        (group,) = match_collectives(spans)
        assert group.category == "branch lengths"

    def test_single_rank_calls_and_errors_excluded(self):
        spans = [
            rec(0, "allreduce", "comm", 0, 10),          # only on rank 0
            rec(0, "bcast", "comm", 20, 30, error=True),  # aborted
            rec(1, "bcast", "comm", 20, 30, error=True),
        ]
        assert match_collectives(spans) == []


class TestAttribution:
    def test_exact_two_rank_decomposition(self):
        analysis = attribute_wait(two_rank_trace())
        assert analysis.window_ns == 410
        assert analysis.n_collectives == 2
        r0, r1 = analysis.ranks[0], analysis.ranks[1]

        assert r0.active_ns == 410
        assert r0.comm_ns == 220          # 110 + 110
        assert r0.wait_ns == 200          # 100 at each collective
        assert r0.transfer_ns == 20
        assert r0.compute_ns == 190       # the two kernel spans
        assert r0.comm_calls == 2
        assert r0.comm_bytes == 64

        assert r1.active_ns == 410
        assert r1.comm_ns == 20
        assert r1.wait_ns == 0            # straggler both times
        assert r1.transfer_ns == 20
        assert r1.compute_ns == 390

        # compute + comm == active on both ranks (no recovery here)
        for r in (r0, r1):
            assert r.compute_ns + r.comm_ns == r.active_ns

    def test_wait_reported_per_tag(self):
        analysis = attribute_wait(two_rank_trace())
        assert analysis.wait_by_tag == {
            "likelihood": 100,
            "traversal descriptor": 100,
        }
        assert analysis.comm_by_tag == {
            "likelihood": 120,            # 110 + 10
            "traversal descriptor": 120,
        }

    def test_wait_reported_per_phase_with_worker_inheritance(self):
        # rank 0 runs the search (has a phase span); rank 1 is a
        # fork-join-style worker with no search spans of its own and
        # inherits the phase of the matched master span.
        spans = two_rank_trace() + [
            rec(0, "spr_round", "search", 0, 250),
            rec(0, "smooth_branches", "search", 250, 410),
        ]
        analysis = attribute_wait(spans)
        assert analysis.wait_by_phase == {
            "spr_round": 100,             # rank 0's allreduce wait
            "smooth_branches": 100,       # rank 0's barrier wait
        }
        # rank 1's (zero-wait) collectives still count toward comm:
        assert analysis.comm_by_phase == {
            "spr_round": 120,
            "smooth_branches": 120,
        }

    def test_simultaneous_arrivals_have_zero_wait(self):
        spans = [
            rec(0, "allreduce", "comm", 100, 110),
            rec(1, "allreduce", "comm", 100, 112),
        ]
        analysis = attribute_wait(spans)
        assert analysis.total_wait_ns == 0
        assert analysis.n_collectives == 1

    def test_recovery_excludes_nested_comm(self):
        # 100 ns recovery span with a 40 ns redistribution bcast inside:
        # the bcast counts as comm, only the remainder as recovery.
        spans = [
            rec(0, "recover", "recovery", 0, 100),
            rec(0, "bcast", "comm", 30, 70),
            rec(1, "recover", "recovery", 0, 100),
            rec(1, "bcast", "comm", 30, 70),
        ]
        analysis = attribute_wait(spans)
        r0 = analysis.ranks[0]
        assert r0.comm_ns == 40
        assert r0.recovery_ns == 60
        assert r0.compute_ns == 0

    def test_truncation_marker_counts_dropped_spans(self):
        spans = two_rank_trace() + [
            rec(1, "trace_truncated", "meta", 410, 410,
                attrs={"dropped_spans": 7}),
        ]
        analysis = attribute_wait(spans)
        assert analysis.ranks[1].dropped_spans == 7
        assert analysis.ranks[0].dropped_spans == 0
        assert analysis.dropped_spans == 7
        assert "WARNING" in analysis.format_table()
        assert "7" in analysis.format_table()

    def test_no_warning_without_drops(self):
        analysis = attribute_wait(two_rank_trace())
        assert analysis.dropped_spans == 0
        assert "WARNING" not in analysis.format_table()

    def test_empty_trace(self):
        analysis = attribute_wait([])
        assert analysis.ranks == {}
        assert analysis.window_ns == 0
        assert analysis.wait_share == 0.0
        assert analysis.imbalance == 1.0

    def test_to_dict_round_trips_key_fields(self):
        analysis = attribute_wait(two_rank_trace())
        doc = analysis.to_dict()
        assert doc["window_ns"] == 410
        assert doc["ranks"]["0"]["wait_ns"] == 200
        assert doc["wait_by_tag"]["likelihood"] == 100
        assert 0.0 < doc["wait_share"] < 1.0


class TestImbalance:
    def test_perfect_balance_is_one(self):
        ranks = {r: RankBreakdown(rank=r, compute_ns=100) for r in range(4)}
        assert load_imbalance(ranks) == 1.0

    def test_max_over_mean(self):
        ranks = {
            0: RankBreakdown(rank=0, compute_ns=300),
            1: RankBreakdown(rank=1, compute_ns=100),
        }
        assert load_imbalance(ranks) == pytest.approx(300 / 200)

    def test_empty_and_all_idle_are_one(self):
        assert load_imbalance({}) == 1.0
        assert load_imbalance({0: RankBreakdown(rank=0)}) == 1.0

    def test_two_rank_trace_imbalance(self):
        analysis = attribute_wait(two_rank_trace())
        # busy = compute + transfer: rank 0 = 210, rank 1 = 410
        assert analysis.imbalance == pytest.approx(410 / 310)


class TestCriticalPath:
    def test_path_spans_window_and_charges_straggler(self):
        cpath = critical_path(two_rank_trace())
        assert cpath.window_ns == 410
        # The path covers the whole window with no gaps: the straggler's
        # kernels plus only the [last_arrival, end] slice of each
        # collective — inferred waits are never on the path.
        assert cpath.length_ns == 410
        by_kind = cpath.contribution_by_kind()
        assert by_kind == {"kernel": 390, "comm": 20}
        # the path runs through the straggler (rank 1)
        assert any(s.rank == 1 and s.kind == "kernel" for s in cpath.steps)
        assert cpath.rank_switches >= 1

    def test_shares_sum_to_one(self):
        cpath = critical_path(two_rank_trace())
        assert sum(cpath.contribution_shares().values()) == pytest.approx(1.0)

    def test_untraced_gaps_become_compute_segments(self):
        spans = [
            rec(0, "allreduce", "comm", 0, 10),
            rec(0, "allreduce", "comm", 110, 120),
            rec(1, "allreduce", "comm", 0, 10),
            rec(1, "allreduce", "comm", 100, 120),
        ]
        cpath = critical_path(spans)
        assert cpath.length_ns == 120
        assert cpath.contribution_by_kind().get("compute", 0) > 0

    def test_empty_trace(self):
        cpath = critical_path([])
        assert cpath.steps == []
        assert cpath.length_ns == 0
        assert cpath.format_summary()  # never raises

    def test_format_summary_lists_heaviest_segments(self):
        text = critical_path(two_rank_trace()).format_summary(top=2)
        assert "critical path" in text
        assert "kernel" in text

    def test_analyze_trace_combines_both(self):
        analysis, cpath = analyze_trace(two_rank_trace())
        assert analysis.window_ns == cpath.window_ns == 410


class TestMergeIdenticalTimestamps:
    """Cross-rank merge with identical timestamps (satellite test)."""

    def test_tie_broken_by_rank_deterministically(self, tmp_path):
        paths = []
        for rank in (1, 0, 2):  # written out of order on purpose
            spans = [rec(rank, f"e{i}", "comm", 1000, 1010)
                     for i in range(2)]
            paths.append(write_jsonl(spans, tmp_path / f"r{rank}.jsonl"))
        merged = merge_rank_streams(paths)
        assert [s["rank"] for s in merged] == [0, 0, 1, 1, 2, 2]
        # merging twice (any path order) gives the identical sequence
        again = merge_rank_streams(reversed(paths))
        assert merged == again

    def test_identical_timestamps_still_match_and_attribute(self):
        spans = [rec(r, "barrier", "comm", 500, 510) for r in range(3)]
        analysis = attribute_wait(spans)
        assert analysis.n_collectives == 1
        assert analysis.total_wait_ns == 0

