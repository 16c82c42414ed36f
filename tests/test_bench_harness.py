"""Benchmark-harness tests: recorded runs, caching, engine synthesis."""

import numpy as np
import pytest

from repro import bench
from repro.engines import decentral, forkjoin
from repro.par.machine import HITS_CLUSTER
from repro.perf.price import comm_totals


@pytest.fixture(scope="module")
def run():
    return bench.record_partitioned(10, "gamma")


class TestRecordedRun:
    def test_recording_is_cached(self, run):
        again = bench.record_partitioned(10, "gamma")
        assert again is run  # same object, no re-search

    def test_distinct_configs_are_distinct(self, run):
        other = bench.record_partitioned(10, "gamma",
                                         per_partition_branches=True)
        assert other is not run
        assert other.per_partition_branches

    def test_log_and_meta_shapes(self, run):
        assert len(run.log) > 100
        assert run.meta.n_partitions == 10
        # virtual pattern counts reflect the paper's ~1000 bp genes
        assert run.meta.cost_patterns.sum() == pytest.approx(10_000, rel=0.05)

    def test_distribution_switch(self, run):
        cyclic = run.distribution(192)
        assert cyclic.kind == "cyclic"  # only 10 partitions
        forced = run.distribution(4, use_mps=True)
        assert forced.kind == "mps"

    def test_runtime_reports(self, run):
        ex = run.runtime("decentralized", 192)
        li = run.runtime("forkjoin", 192)
        assert ex.total_s > 0
        assert li.comm_s > ex.comm_s
        assert ex.compute_s == pytest.approx(li.compute_s)

    def test_engine_pair_helper(self, run):
        ex, li = bench.engine_pair(run, 96)
        assert ex.n_ranks == li.n_ranks == 96
        assert li.total_s >= ex.total_s * 0.99

    def test_machine_override(self, run):
        small_ram = HITS_CLUSTER.with_ram(32 * 1024**2)  # 32 MiB nodes
        ex_small = run.runtime("decentralized", 48, machine=small_ram)
        ex_big = run.runtime("decentralized", 48)
        assert ex_small.swap_factor > ex_big.swap_factor
        assert ex_small.total_s > ex_big.total_s


class TestEngineContract:
    def test_models_disagree_only_on_communication(self, run):
        """Both engines price identical compute; all divergence is comm —
        the paper's controlled-comparison property, enforced."""
        for region in list(run.log)[:200]:
            fj_events = forkjoin.region_events(region)
            dc_events = decentral.region_events(region)
            # decentralized never out-communicates fork-join
            assert sum(e.nbytes for e in dc_events) <= max(
                sum(e.nbytes for e in fj_events), 1e-9
            ) or not fj_events

    def test_fork_join_totals_cover_all_bytes(self, run):
        totals = comm_totals(run.log, "forkjoin")
        per_region = sum(
            e.nbytes for r in run.log for e in forkjoin.region_events(r)
        )
        assert sum(totals.nbytes.values()) == pytest.approx(per_region)
        assert totals.regions == len(run.log)
