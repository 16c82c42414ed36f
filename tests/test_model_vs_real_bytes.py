"""Cross-validation: the fork-join *communication model* against the
bytes a *real* distributed fork-join run actually transmits.

The Table-I model prices descriptors and payloads analytically; the real
master/worker implementation counts the bytes of every object it puts on
the wire.  The two are built independently, so order-of-magnitude (and
per-category ranking) agreement is strong evidence the model measures the
real protocol rather than itself.  The model prices the region log the
measuring rank kept in the same run: no second search.
"""

import numpy as np
import pytest

from repro.datasets import partitioned_workload
from repro.perf.price import comm_totals
from repro.engines.forkjoin import (
    CAT_BL_OPT,
    CAT_LIKELIHOOD,
    CAT_MODEL,
    CAT_TRAVERSAL,
)
from repro.engines.launch import RunConfig, first_survivor, launch
from repro.obs.reconcile import (
    DECENTRALIZED_REL_TOL,
    FORKJOIN_REL_TOL,
    reconcile_live_run,
)
from repro.search.search import SearchConfig
from repro.tree.newick import write_newick


@pytest.fixture(scope="module")
def master():
    wl = partitioned_workload(4, n_taxa=8, sites_per_partition=30)
    lik = wl.build_likelihood("gamma")
    cfg = SearchConfig(max_iterations=1, radius_max=2, alpha_iterations=6)
    return first_survivor(launch(RunConfig(
        "forkjoin", lik.parts, lik.taxa, write_newick(wl.tree), n_ranks=2,
        config=cfg)))


@pytest.fixture(scope="module")
def measured_and_modeled(master):
    return master.bytes_by_tag, comm_totals(master.log, "forkjoin").nbytes


class TestModelAgainstWire:
    def test_categories_present_in_both(self, measured_and_modeled):
        real, modeled = measured_and_modeled
        for cat in (CAT_TRAVERSAL, CAT_BL_OPT, CAT_LIKELIHOOD):
            assert real.get(cat, 0) > 0, cat
            assert modeled[cat] > 0, cat

    def test_same_dominant_category(self, measured_and_modeled):
        real, modeled = measured_and_modeled
        cats = [CAT_TRAVERSAL, CAT_BL_OPT, CAT_LIKELIHOOD, CAT_MODEL]
        real_top = max(cats, key=lambda c: real.get(c, 0))
        model_top = max(cats, key=lambda c: modeled[c])
        assert real_top == model_top == CAT_TRAVERSAL

    def test_totals_within_factor_four(self, measured_and_modeled):
        """Wire framing (tuples, small-object overhead, per-rank copies)
        differs from the idealized byte counts, but not wildly."""
        real, modeled = measured_and_modeled
        cats = [CAT_TRAVERSAL, CAT_BL_OPT, CAT_LIKELIHOOD]
        real_total = sum(real.get(c, 0) for c in cats)
        model_total = sum(modeled[c] for c in cats)
        ratio = real_total / model_total
        assert 0.25 < ratio < 4.0, ratio

    def test_traversal_share_agrees(self, measured_and_modeled):
        real, modeled = measured_and_modeled
        cats = [CAT_TRAVERSAL, CAT_BL_OPT, CAT_LIKELIHOOD, CAT_MODEL]
        share_real = real.get(CAT_TRAVERSAL, 0) / sum(
            real.get(c, 0) for c in cats
        )
        share_model = modeled[CAT_TRAVERSAL] / sum(modeled.values())
        assert abs(share_real - share_model) < 0.35


class TestDecentralizedReconciliation:
    """The strong version of the cross-validation, via ``obs.reconcile``:
    every decentralized collective is an allreduce of a flat float64
    array whose size the model knows, so a *non-root* rank's measured
    bytes must match the de-centralized ``region_events`` **exactly**
    (MPComm composes allreduce = reduce + bcast and only the root
    additionally accounts the broadcast result)."""

    @pytest.fixture(scope="class")
    def report(self):
        wl = partitioned_workload(4, n_taxa=8, sites_per_partition=30)
        lik = wl.build_likelihood("gamma")
        newick = write_newick(wl.tree)
        cfg = RunConfig("decentralized", lik.parts, lik.taxa, newick, 2,
                        SearchConfig(max_iterations=1, radius_max=2,
                                     alpha_iterations=6))
        measured = launch(cfg)[1]  # non-root: exactly one payload/allreduce
        return reconcile_live_run("decentralized", measured, measured_rank=1)

    def test_exact_byte_match(self, report):
        assert report.within(DECENTRALIZED_REL_TOL)
        for row in report.rows:
            assert row.delta == 0.0, row
        assert report.measured_total == report.modeled_total > 0

    def test_call_counts_match(self, report):
        for row in report.rows:
            assert row.measured_calls == row.modeled_calls, row

    def test_nothing_unmodeled(self, report):
        assert report.unmodeled == {}

    def test_report_names_the_measured_rank(self, report):
        assert report.measured_rank == 1
        assert "(rank 1)" in report.format_table()


class TestForkJoinReconciliation:
    """Same API on the fork-join engine: framed tuples on the wire, so
    the match is within the documented tolerance, not exact."""

    def test_within_documented_tolerance(self, master):
        report = reconcile_live_run("forkjoin", master, measured_rank=0)
        assert report.within(FORKJOIN_REL_TOL)
        assert report.worst_rel_error > 0  # genuinely inexact: framing
        # the unpriced STOP broadcast surfaces instead of vanishing
        assert "control" in report.unmodeled
