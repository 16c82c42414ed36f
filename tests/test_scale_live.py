"""Live scaling acceptance tests: measured wait attribution vs the model.

These fork real engine processes through the measured scaling harness
(:func:`repro.obs.scaling.run_scaling`), so they are among the slowest
tests in the suite — one module-scoped harness run feeds every assertion.

The issue's acceptance criteria verified here:

* on a 4-rank partitioned run the fork-join engine shows a strictly
  higher collective-wait share than the decentralized engine (the
  paper's bandwidth-bound master/worker vs compute-bound decentralized
  contrast, measured live);
* the harness's measured orderings agree with the analytic predictions
  (the first run's region log priced by :mod:`repro.perf.price`);
* every configuration is read three ways from its one launch: a
  check-clean kernel hotspot report, a byte reconciliation within its
  engine's tolerance, and both in the one ``kind: profile`` record.
"""

import json

import pytest

from repro.datasets import partitioned_workload
from repro.obs.reconcile import REL_TOL
from repro.obs.scaling import run_scaling
from repro.search.search import SearchConfig
from repro.tree.newick import write_newick


RANKS = (2, 4)


@pytest.fixture(scope="module")
def scaling(tmp_path_factory):
    wl = partitioned_workload(4, n_taxa=8, sites_per_partition=30)
    cfg = SearchConfig(max_iterations=1, radius_max=2, alpha_iterations=6)
    newick = write_newick(wl.tree)
    root = tmp_path_factory.mktemp("trace_scale")
    return run_scaling(
        lambda: wl.build_likelihood("gamma"),
        newick,
        cfg,
        ranks_list=RANKS,
        trace_root=root,
        workload_info={"partitions": 4, "taxa": 8, "sites": 120},
    )


class TestMeasuredWaitOrdering:
    def test_forkjoin_waits_strictly_more_at_four_ranks(self, scaling):
        fj = scaling.wait_share("forkjoin", "cyclic", 4)
        dec = scaling.wait_share("decentralized", "cyclic", 4)
        assert fj > dec

    def test_measured_ordering_agrees_with_model_at_four_ranks(self, scaling):
        assert scaling.agreement["cyclic"]["4"] is True

    def test_model_predicts_forkjoin_comm_heavier(self, scaling):
        ordering = scaling.predicted["cyclic"]["ordering"]["comm_heavier"]
        assert ordering["4"] == "forkjoin"


class TestHarnessOutput:
    def test_every_configuration_measured(self, scaling):
        keys = {(p.engine, p.ranks) for p in scaling.points}
        assert keys == {(e, n) for e in ("decentralized", "forkjoin")
                        for n in RANKS}
        for p in scaling.points:
            assert p.wall_s > 0
            assert p.n_collectives > 0
            assert p.n_spans > 0
            assert p.dropped_spans == 0
            assert 0.0 <= p.wait_share <= 1.0
            assert p.imbalance >= 1.0

    def test_speedup_relative_to_smallest_rank_count(self, scaling):
        for p in scaling.points:
            assert p.base_ranks == min(RANKS)
            if p.ranks == p.base_ranks:
                assert p.speedup == pytest.approx(1.0)
                assert p.efficiency == pytest.approx(1.0)
            else:
                assert p.efficiency == pytest.approx(
                    p.speedup * p.base_ranks / p.ranks)

    def test_bench_record_is_gateable(self, scaling):
        doc = scaling.to_bench()
        assert doc["kind"] == "profile"
        metrics = doc["metrics"]
        assert "scale.forkjoin.cyclic.r4.wall_s" in metrics
        assert "scale.decentralized.cyclic.r4.wait_share" in metrics
        assert all(isinstance(v, float) for v in metrics.values())
        json.dumps(doc)  # JSON-safe end to end

    def test_markdown_report_pairs_measured_with_model(self, scaling):
        text = scaling.format_markdown()
        assert "| ranks | wall s | speedup | efficiency |" in text
        assert "Collective-wait comparison" in text
        assert "forkjoin" in text and "decentralized" in text
        assert "Model-predicted totals" in text

    def test_critical_path_shares_recorded(self, scaling):
        for p in scaling.points:
            assert p.critical_path_shares
            assert sum(p.critical_path_shares.values()) == pytest.approx(1.0)


class TestEveryPointReadThreeWays:
    def test_hotspot_reports_are_check_clean(self, scaling):
        for p in scaling.points:
            assert {"newview", "pmatrix"} <= {s.op for s in p.hotspots.ops}
            if p.engine == "decentralized":
                assert p.hotspots.check() == [], p.label

    def test_reconciliation_within_engine_tolerance(self, scaling):
        for p in scaling.points:
            assert p.reconcile.measured_rank == (
                1 if p.engine == "decentralized" else 0)
            assert p.reconcile.within(REL_TOL[p.engine]), p.label
        assert scaling.problems() == []

    def test_record_carries_all_three_metric_families(self, scaling):
        doc = scaling.to_bench()
        assert doc["kind"] == "profile"
        metrics = doc["metrics"]
        for p in scaling.points:
            assert f"scale.{p.label}.wait_share" in metrics
            assert f"hotspots.{p.label}.newview.wall_s" in metrics
            assert f"hotspots.{p.label}.newview.ns_per_unit" in metrics
        assert metrics["hotspots.total_kernel_s"] > 0
        for point in doc["points"]:
            assert point["hotspots"]["ops"]
            assert point["reconcile"]["within_tolerance"] is True
