"""Kernel-level compute observability (:mod:`repro.obs.hotspots`).

The load-bearing claims, in test form:

* the analytic FLOP/byte-per-unit formulas match hand-derived counts
  for the DNA kernels and scale correctly with the state count;
* an :class:`OpProfiler` attached to a real likelihood counts *exactly*
  the work the recorded region stream of the same search implies (same
  virtual-pattern accounting, float-equal on pattern_scale = 1
  workloads), its units read off the stacks' shapes;
* the disabled :class:`NullOpProfiler` path reads no clock, and a kernel
  call hands its hook nothing it computed for it (the kernels keep their
  hooks unconditional);
* profile emission → merged span records → :func:`build_hotspot_report`
  round-trips into a ranked report (shares sum to 1, FLOPs priced once on
  the summed units, CLV bytes inside the documented band);
* a real 2-rank traced run produces a healthy report end to end.
"""

import json
from types import SimpleNamespace

import pytest

from repro.datasets import partitioned_workload
from repro.engines.executor import DescriptorExecutor
from repro.engines.launch import RunConfig, launch
from repro.errors import LikelihoodError
from repro.likelihood.backend import SequentialBackend
from repro.likelihood.kernel import bytes_per_unit, flops_per_unit
from repro.likelihood.partitioned import PartitionedLikelihood
from repro.likelihood.stack import StackShape
from repro.obs.export import merge_rank_streams, span_to_dict, write_jsonl
from repro.obs.hotspots import (
    CLV_MEMORY_SPAN,
    CLV_RATIO_MAX,
    CLV_RATIO_MIN,
    KERNEL_OP_SPAN,
    NULL_OP_PROFILER,
    NullOpProfiler,
    OpProfiler,
    build_hotspot_report,
    emit_kernel_profile,
    hotspot_metrics,
    reports_under,
)
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.par.ledger import OpKind
from repro.par.machine import HITS_CLUSTER
from repro.perf.costmodel import modeled_bytes, modeled_flops
from repro.search.search import SearchConfig, hill_climb
from repro.tree.newick import write_newick

from region_work import PATTERN_OPS, region_work


def exact_workload(n_partitions=2, n_taxa=8, sites=30):
    """A workload whose cost patterns equal its real patterns
    (pattern_scale = 1), so region-log and profiler totals are integers and
    float-exact comparison is legitimate."""
    return partitioned_workload(
        n_partitions, n_taxa=n_taxa, sites_per_partition=sites,
        virtual_sites_per_partition=sites,
    )


def modeled_clv_footprint(lik: PartitionedLikelihood) -> float:
    """The memory model's raw CLV bytes: one CLV per inner node."""
    return (len(lik.taxa) - 2) * sum(
        p.n_patterns * p.n_cats * p.model.n_states * 8.0 for p in lik.parts
    )


def executor_fixture(lik):
    """The wire descriptor reaching one edge, as the comm layer ships it."""
    tree = lik.tree
    u, v = tree.edges()[0]
    # a fresh likelihood's descriptor: every CLV toward the edge
    wire = PartitionedLikelihood(tree, lik.parts, lik.taxa).descriptors_for_edge(
        u, v).ops
    node_taxon = {
        leaf.id: lik.taxon_row[leaf.label] for leaf in tree.leaves()
    }
    return u, v, wire, node_taxon


class TestFlopByteFormulas:
    def test_dna_gamma_hand_counts(self):
        # newview: 4n^2+3n MADD-style flops, (3n+2) doubles of traffic
        assert flops_per_unit("newview", 4) == 76
        assert bytes_per_unit("newview", 4) == 112
        assert flops_per_unit("evaluate", 4) == 2 * 16 + 12 + 4
        assert flops_per_unit("sumtable", 4) == 4 * 16 + 4
        assert flops_per_unit("derivative", 4) == 9 * 4 + 6
        assert flops_per_unit("pmatrix", 4) == 2 * 64 + 16 + 4

    def test_state_count_scaling(self):
        # protein kernels (n=20) pay the quadratic/cubic terms
        assert flops_per_unit("newview", 20) == 4 * 400 + 60
        assert flops_per_unit("pmatrix", 20) == 2 * 8000 + 400 + 20
        assert bytes_per_unit("pmatrix", 20) == 3 * 400 * 8

    def test_unknown_op_is_loud(self):
        with pytest.raises(LikelihoodError):
            flops_per_unit("fft")
        with pytest.raises(LikelihoodError):
            bytes_per_unit("fft")

    def test_costmodel_wrappers(self):
        assert modeled_flops("newview", 10.0) == 760.0
        assert modeled_flops(OpKind.NEWVIEW, 10.0) == 760.0
        assert modeled_bytes("newview", 10.0) == 1120.0

    def test_dna_newview_is_memory_bound(self):
        # 76 / 112 ≈ 0.68 FLOP/B sits left of the HITS ridge point
        intensity = flops_per_unit("newview") / bytes_per_unit("newview")
        assert intensity < HITS_CLUSTER.ridge_intensity


class TestRoofline:
    def test_ridge_point(self):
        m = HITS_CLUSTER
        assert m.ridge_intensity == pytest.approx(
            m.peak_flops_per_core / m.mem_bandwidth_per_core_bps)

    def test_attainable_flops(self):
        m = HITS_CLUSTER
        ridge = m.ridge_intensity
        # below the ridge: bandwidth-limited; above: compute-limited
        assert m.attainable_flops(ridge / 2) == pytest.approx(
            ridge / 2 * m.mem_bandwidth_per_core_bps)
        assert m.attainable_flops(ridge * 10) == m.peak_flops_per_core
        assert m.attainable_flops(0.0) == 0.0


def _stack(partition: int, n_patterns: int, unit: float) -> SimpleNamespace:
    """A one-partition stand-in for a stack: all the profiler reads."""
    return SimpleNamespace(shape=StackShape(
        (partition,), n_patterns=n_patterns, n_cats=1, n_states=4, n_rates=1,
        site_specific=False, unit=unit))


class TestOpProfiler:
    def test_accumulates_per_op_and_partition(self):
        first, second = _stack(0, 100, 100.0), _stack(1, 50, 50.0)
        prof = OpProfiler()
        t0 = prof.begin()
        prof.end(t0, "newview", first)
        prof.end(prof.begin(), "newview", first)
        prof.end(prof.begin(), "newview", second)
        prof.end(prof.begin(), "pmatrix", first, count=2)
        assert prof.units("newview") == 250.0
        assert prof.units("newview", partition=0) == 200.0
        assert prof.invocations("newview") == 3
        assert prof.invocations("pmatrix") == 2
        recs = prof.records()
        assert len(recs) == 3  # (op, partition) keys
        assert {r["op"] for r in recs} == {"newview", "pmatrix"}
        nv0 = next(r for r in recs if r["op"] == "newview"
                   and r["partition"] == 0)
        assert nv0["count"] == 2
        # two CLVs of 100 patterns, 4 states, one category, plus scales
        assert nv0["alloc_bytes"] == 2 * 100 * 5 * 8.0
        assert nv0["wall_ns"] >= 0

    def test_null_profiler_reads_no_clock(self):
        null = NullOpProfiler()
        assert null.begin() == 0  # no perf_counter call on this path
        assert null.end(0, "newview", _stack(0, 10, 10.0)) is None
        assert not null.enabled
        assert OpProfiler.enabled

    def test_disabled_is_the_default(self):
        wl = exact_workload()
        lik = wl.build_likelihood("gamma")
        assert lik.profiler is NULL_OP_PROFILER
        _, _, _, node_taxon = executor_fixture(lik)
        executor = DescriptorExecutor(lik.parts, node_taxon)
        assert executor.profiler is NULL_OP_PROFILER


class TestProfilerLedgerAgreement:
    def test_search_run_matches_ledger_exactly(self):
        wl = exact_workload()
        assert wl.pattern_scale == 1.0
        lik = wl.build_likelihood("gamma")
        prof = OpProfiler()
        lik.profiler = prof
        backend = SequentialBackend(lik)
        hill_climb(backend, SearchConfig(max_iterations=1, radius_max=2))
        work = region_work(backend.log, lik.parts)
        for op in PATTERN_OPS:
            assert (prof.units(op), prof.invocations(op)) == work[op]
            assert prof.invocations(op) > 0
        # pmatrix is profiled too (in matrix units, no region implies it)
        assert prof.invocations("pmatrix") > 0

    def test_per_partition_attribution(self):
        wl = exact_workload(n_partitions=3)
        lik = wl.build_likelihood("gamma")
        prof = OpProfiler()
        lik.profiler = prof
        tree = lik.tree
        u, v = tree.edges()[0]
        lik.evaluate(u, v)
        for p in range(3):
            part = lik.parts[p]
            assert prof.units("evaluate", partition=p) == (
                part.cost_patterns * part.n_cats)


class TestExecutorProfiling:
    def test_counts_and_units(self):
        lik = exact_workload().build_likelihood("gamma")
        u, v, wire, node_taxon = executor_fixture(lik)
        executor = DescriptorExecutor(lik.parts, node_taxon)
        prof = OpProfiler()
        executor.profiler = prof
        executor.run_ops(wire)
        n_parts = len(lik.parts)
        assert prof.invocations("newview") == len(wire) * n_parts
        # each newview computes the P matrices of both children
        assert prof.invocations("pmatrix") == 2 * len(wire) * n_parts
        assert prof.units("newview") == sum(
            p.cost_patterns * p.n_cats * len(wire) for p in lik.parts)

        executor.evaluate(u.id, v.id, lik.tree.edge_length(u, v))
        assert prof.invocations("evaluate") == n_parts
        assert prof.invocations("pmatrix") == (2 * len(wire) + 1) * n_parts

        tables = executor.sumtables(u.id, v.id)
        executor.derivatives(tables, lik.tree.edge_length(u, v),
                             n_branch_sets=1)
        assert prof.invocations("sumtable") == n_parts
        assert prof.invocations("derivative") == n_parts
        sumtable_rec = next(r for r in prof.records()
                            if r["op"] == "sumtable")
        assert sumtable_rec["alloc_bytes"] > 0

    def test_clv_stats_track_store(self):
        lik = exact_workload().build_likelihood("gamma")
        _, _, wire, node_taxon = executor_fixture(lik)
        executor = DescriptorExecutor(lik.parts, node_taxon)
        executor.run_ops(wire)
        stats = executor.clv_stats()
        assert len(stats) == len(lik.parts)
        for s in stats:
            assert s["entries"] == len(wire)
            assert s["live_bytes"] > 0
            assert s["peak_bytes"] >= s["live_bytes"]
            assert s["evictions"] == 0
        # rerunning the same wire overwrites in place: live must not grow
        live_before = sum(s["live_bytes"] for s in executor.clv_stats())
        executor.run_ops(wire)
        assert sum(
            s["live_bytes"] for s in executor.clv_stats()) == live_before


class TestEmitAndReport:
    def _profiled_run(self):
        wl = exact_workload()
        lik = wl.build_likelihood("gamma")
        prof = OpProfiler()
        lik.profiler = prof
        hill_climb(SequentialBackend(lik),
                   SearchConfig(max_iterations=1, radius_max=2))
        return lik, prof

    def test_round_trip_report_is_healthy(self):
        lik, prof = self._profiled_run()
        tracer = Tracer(rank=0)
        emitted = emit_kernel_profile(prof, tracer, clv_sources=(lik,))
        assert emitted == len(prof.records()) + len(lik.parts)
        records = [span_to_dict(s) for s in tracer.spans()]
        ops = [r["attrs"] for r in records if r["name"] == KERNEL_OP_SPAN]
        clv = [r["attrs"] for r in records if r["name"] == CLV_MEMORY_SPAN]
        assert sum(a["count"] for a in ops if a["op"] == "newview") == (
            prof.invocations("newview"))
        assert sum(a["live_bytes"] for a in clv) > 0

        report = build_hotspot_report(
            records, modeled_clv_bytes=modeled_clv_footprint(lik))
        assert report.check() == []
        assert report.n_ranks == 1
        assert sum(s.time_share for s in report.ops) == pytest.approx(1.0)
        walls = [s.wall_s for s in report.ops]
        assert walls == sorted(walls, reverse=True)
        ops_seen = {s.op for s in report.ops}
        assert set(PATTERN_OPS) | {"pmatrix"} <= ops_seen
        # FLOPs are priced on the summed units
        nv = next(s for s in report.ops if s.op == "newview")
        assert nv.flops == modeled_flops("newview", nv.units)
        assert nv.intensity == pytest.approx(76 / 112)
        # memory reconciles: post-gc live sits inside the documented band
        ratio = report.clv_ratio()
        assert ratio is not None
        assert CLV_RATIO_MIN <= ratio <= CLV_RATIO_MAX

    def test_markdown_json_and_bench_surfaces(self):
        lik, prof = self._profiled_run()
        tracer = Tracer(rank=0)
        emit_kernel_profile(prof, tracer, clv_sources=(lik,))
        report = build_hotspot_report(
            [span_to_dict(s) for s in tracer.spans()],
            modeled_clv_bytes=modeled_clv_footprint(lik))
        md = report.format_markdown()
        assert "newview" in md
        assert "## CLV memory" in md
        assert "roofline" in md.lower()
        top1 = report.format_markdown(top=1)
        assert "omitted" in top1
        json.dumps(report.to_dict())  # JSON-safe end to end
        metrics = hotspot_metrics({"seq": report})
        assert metrics["hotspots.total_kernel_s"] == report.total_wall_s
        assert metrics["hotspots.seq.newview.wall_s"] > 0
        assert "hotspots.seq.newview.ns_per_unit" in metrics
        # pmatrix units are matrices, not patterns: no modeled throughput
        assert "hotspots.seq.pmatrix.ns_per_unit" not in metrics
        pm = next(s for s in report.ops if s.op == "pmatrix")
        assert pm.modeled_gflops(HITS_CLUSTER) is None

    def test_disabled_paths_emit_nothing(self):
        lik, prof = self._profiled_run()
        assert emit_kernel_profile(NULL_OP_PROFILER, Tracer(rank=0)) == 0
        assert emit_kernel_profile(prof, NULL_TRACER,
                                   clv_sources=(lik,)) == 0

    def test_fractional_units_pass_check(self):
        """Pattern-scaled workloads carry fractional units: FLOPs and bytes
        are priced once, on the summed units, not summed record by record
        (which would differ in the last bit)."""
        units = [0.1 * (i + 1) for i in range(10)]
        records = [
            {"name": KERNEL_OP_SPAN, "rank": 0, "t0_ns": i,
             "attrs": {"op": op, "partition": i, "wall_ns": 1000,
                       "count": 1, "units": u}}
            for op in ("newview", "evaluate", "sumtable")
            for i, u in enumerate(units)
        ]
        assert sum(modeled_flops("newview", u) for u in units) != (
            modeled_flops("newview", sum(units)))
        report = build_hotspot_report(records)
        assert report.check() == []
        nv = next(s for s in report.ops if s.op == "newview")
        assert nv.units == sum(units)
        assert nv.flops == modeled_flops("newview", nv.units)
        assert nv.bytes_moved == modeled_bytes("newview", nv.units)

    def test_mixed_state_counts_priced_per_record(self):
        """One op over DNA and protein partitions: its units are priced
        per state count."""
        records = [
            {"name": KERNEL_OP_SPAN, "rank": 0, "t0_ns": p,
             "attrs": {"op": "newview", "partition": p, "wall_ns": 1000,
                       "count": 1, "units": 10.0, "n_states": k}}
            for p, k in enumerate((4, 20))
        ]
        report = build_hotspot_report(records)
        assert report.check() == []
        nv = report.ops[0]
        assert nv.flops == (modeled_flops("newview", 10.0, n_states=4)
                            + modeled_flops("newview", 10.0, n_states=20))

    def test_empty_records_build_empty_report(self):
        report = build_hotspot_report([])
        assert report.ops == []
        assert report.total_wall_s == 0.0
        assert report.check() == []
        assert report.clv_ratio() is None


class TestPartitionedClvAccounting:
    def test_gc_reclaims_and_accounts(self):
        wl = exact_workload()
        lik = wl.build_likelihood("gamma")
        tree = lik.tree
        u, v = tree.edges()[0]
        lik.evaluate(u, v)
        stats = lik.clv_stats()
        assert all(s["live_bytes"] > 0 for s in stats)
        assert all(s["peak_bytes"] >= s["live_bytes"] for s in stats)
        lik.gc()
        after = lik.clv_stats()
        for before, now in zip(stats, after):
            assert now["live_bytes"] <= before["live_bytes"]
            assert now["peak_bytes"] == before["peak_bytes"]
            # freed bytes land in the eviction account
            assert now["evicted_bytes"] == (
                before["live_bytes"] - now["live_bytes"])
        # everything still reachable evaluates identically
        total1, _, _ = lik.evaluate(u, v)
        assert total1 == lik.evaluate(u, v)[0]

    def test_live_bytes_reconcile_with_model(self):
        wl = exact_workload()
        lik = wl.build_likelihood("gamma")
        tree = lik.tree
        u, v = tree.edges()[0]
        lik.evaluate(u, v)
        lik.gc()
        live = sum(s["live_bytes"] for s in lik.clv_stats())
        ratio = live / modeled_clv_footprint(lik)
        assert CLV_RATIO_MIN <= ratio <= CLV_RATIO_MAX


class TestLiveTwoRankRun:
    """The acceptance scenario: a 2-rank traced run yields a report whose
    CLV bytes sit inside the documented band."""

    def test_decentralized_trace_to_report(self, tmp_path):
        wl = exact_workload()
        lik = wl.build_likelihood("gamma")
        launch(RunConfig("decentralized", lik.parts, lik.taxa,
                         write_newick(wl.tree), n_ranks=2,
                         config=SearchConfig(max_iterations=1, radius_max=2,
                                             model_opt=False),
                         trace_dir=tmp_path))
        paths = sorted(tmp_path.rglob("trace-rank*.jsonl"))
        assert len(paths) == 2
        merged = merge_rank_streams(paths)
        report = build_hotspot_report(
            merged, modeled_clv_bytes=modeled_clv_footprint(lik))
        assert report.n_ranks == 2
        assert report.check() == []
        assert {s.op for s in report.ops} >= {"newview", "evaluate",
                                              "pmatrix"}
        nv = next(s for s in report.ops if s.op == "newview")
        assert len(nv.by_partition) == len(lik.parts)


class TestReportsUnder:
    def test_one_report_per_trace_directory(self, tmp_path):
        """A trace root holding two configurations gives two reports,
        each with its own counts, never one merged table."""
        for name, calls in (("decentralized-cyclic-r2", 3),
                            ("forkjoin-cyclic-r2", 5)):
            for rank in range(2):
                write_jsonl([{
                    "name": KERNEL_OP_SPAN, "rank": rank, "t0_ns": 0,
                    "attrs": {"op": "newview", "partition": rank,
                              "wall_ns": 1000, "count": calls,
                              "units": 10.0 * calls},
                }], tmp_path / name / f"trace-rank{rank}.jsonl")
        reports = reports_under(tmp_path)
        assert sorted(reports) == ["decentralized-cyclic-r2",
                                   "forkjoin-cyclic-r2"]
        for name, calls in (("decentralized-cyclic-r2", 3),
                            ("forkjoin-cyclic-r2", 5)):
            (newview,) = reports[name].ops
            assert reports[name].n_ranks == 2
            assert newview.count == 2 * calls
            assert newview.units == 20.0 * calls
