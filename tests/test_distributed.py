"""Distributed-engine consistency: the executable version of the paper's
correctness claims.

* Every decentralized replica finishes with the identical tree and
  likelihood (Section III-B's ``MPI_Allreduce`` reproducibility
  requirement — our rank-ordered reductions provide it).
* The fork-join master/worker run produces the *same* result as the
  decentralized run on the same rank count: both engines implement the
  same algorithm over the same data split.
* Both match the single-process reference when run without the
  chaotic-sensitivity amplifier (model optimization compares nearly-equal
  likelihoods, where the reduction *order* — split vs unsplit data —
  legitimately changes float rounding; see EXPERIMENTS.md).

These tests fork real OS processes; they are the slowest in the suite.
"""

import numpy as np
import pytest

from repro.datasets import partitioned_workload
from repro.engines.launch import (
    RunConfig,
    first_survivor,
    launch,
    run_sequential_reference,
)
from repro.search.search import SearchConfig
from repro.tree.newick import write_newick


@pytest.fixture(scope="module")
def setup():
    wl = partitioned_workload(4, n_taxa=8, sites_per_partition=30)
    lik = wl.build_likelihood("gamma")
    return lik.parts, lik.taxa, write_newick(wl.tree)


@pytest.fixture(scope="module")
def psr_setup():
    wl = partitioned_workload(3, n_taxa=7, sites_per_partition=24)
    lik = wl.build_likelihood("psr")
    return lik.parts, lik.taxa, write_newick(wl.tree)


NO_MODEL = SearchConfig(max_iterations=2, radius_max=2, model_opt=False)
WITH_MODEL = SearchConfig(max_iterations=2, radius_max=2, alpha_iterations=6,
                          psr_candidates=6)


class TestDecentralized:
    def test_replicas_bitwise_consistent(self, setup):
        parts, taxa, newick = setup
        replicas = launch(RunConfig("decentralized", parts, taxa, newick,
                                    n_ranks=3, config=WITH_MODEL))
        for r in replicas[1:]:
            assert r.newick == replicas[0].newick
            assert r.logl == replicas[0].logl  # bitwise
            assert r.iterations == replicas[0].iterations

    def test_matches_sequential_without_model_opt(self, setup):
        parts, taxa, newick = setup
        ref = run_sequential_reference(parts, taxa, newick, NO_MODEL)
        dec = launch(RunConfig("decentralized", parts, taxa, newick, n_ranks=3,
                               config=NO_MODEL))
        assert dec[0].newick == ref.newick
        assert dec[0].logl == pytest.approx(ref.logl, abs=1e-6)

    def test_communication_is_allreduce_only(self, setup):
        parts, taxa, newick = setup
        dec = launch(RunConfig("decentralized", parts, taxa, newick, n_ranks=2,
                               config=NO_MODEL))
        tags = set(dec[0].bytes_by_tag)
        assert "traversal descriptor" not in tags
        assert any("likelihood" in t for t in tags)

    def test_mps_distribution_agrees(self, setup):
        parts, taxa, newick = setup
        cyc = launch(RunConfig("decentralized", parts, taxa, newick, n_ranks=2,
                               config=NO_MODEL, dist_kind="cyclic"))
        mps = launch(RunConfig("decentralized", parts, taxa, newick, n_ranks=2,
                               config=NO_MODEL, dist_kind="mps"))
        assert cyc[0].newick == mps[0].newick
        assert cyc[0].logl == pytest.approx(mps[0].logl, abs=1e-5)


class TestForkJoin:
    def test_matches_decentralized_exactly(self, setup):
        """Same algorithm, same data split, same reduction order ⇒ the
        two engines must agree bitwise — the paper's premise."""
        parts, taxa, newick = setup
        dec = launch(RunConfig("decentralized", parts, taxa, newick, n_ranks=3,
                               config=WITH_MODEL))
        fj = first_survivor(launch(RunConfig("forkjoin", parts, taxa, newick,
                                             n_ranks=3, config=WITH_MODEL)))
        assert fj.newick == dec[0].newick
        assert fj.logl == dec[0].logl

    def test_matches_sequential_without_model_opt(self, setup):
        parts, taxa, newick = setup
        ref = run_sequential_reference(parts, taxa, newick, NO_MODEL)
        fj = first_survivor(launch(RunConfig("forkjoin", parts, taxa, newick,
                                             n_ranks=2, config=NO_MODEL)))
        assert fj.newick == ref.newick
        assert fj.logl == pytest.approx(ref.logl, abs=1e-6)

    def test_descriptor_traffic_dominates(self, setup):
        parts, taxa, newick = setup
        fj = first_survivor(launch(RunConfig("forkjoin", parts, taxa, newick,
                                             n_ranks=2, config=NO_MODEL)))
        bytes_by_tag = fj.bytes_by_tag
        trav = bytes_by_tag.get("traversal descriptor", 0)
        assert trav > 0.4 * sum(bytes_by_tag.values())


class TestPSRDistributed:
    def test_psr_replicas_consistent(self, psr_setup):
        parts, taxa, newick = psr_setup
        replicas = launch(RunConfig("decentralized", parts, taxa, newick,
                                    n_ranks=2, config=WITH_MODEL))
        assert replicas[0].newick == replicas[1].newick
        assert replicas[0].logl == replicas[1].logl

    def test_psr_engines_agree(self, psr_setup):
        parts, taxa, newick = psr_setup
        dec = launch(RunConfig("decentralized", parts, taxa, newick, n_ranks=2,
                               config=WITH_MODEL))
        fj = first_survivor(launch(RunConfig("forkjoin", parts, taxa, newick,
                                             n_ranks=2, config=WITH_MODEL)))
        assert fj.newick == dec[0].newick
        assert fj.logl == pytest.approx(dec[0].logl, rel=1e-9)


class TestPerPartitionBranchesDistributed:
    """The -M mode over real processes: per-partition derivative vectors
    are reduced (2p doubles) and replicas still agree."""

    def test_minus_m_consistency(self):
        wl = partitioned_workload(3, n_taxa=7, sites_per_partition=24)
        lik = wl.build_likelihood("gamma", per_partition_branches=True)
        newick = write_newick(wl.tree, branch_set=0)
        cfg = SearchConfig(max_iterations=1, radius_max=2, model_opt=False)
        ref = run_sequential_reference(lik.parts, lik.taxa, newick, cfg,
                                       n_branch_sets=3)
        dec = launch(RunConfig("decentralized", lik.parts, lik.taxa, newick,
                               n_ranks=2, config=cfg, n_branch_sets=3))
        assert dec[0].newick == dec[1].newick
        assert dec[0].logl == dec[1].logl
        assert dec[0].newick == ref.newick
        assert dec[0].logl == pytest.approx(ref.logl, abs=1e-6)

    def test_minus_m_forkjoin_agrees(self):
        wl = partitioned_workload(3, n_taxa=7, sites_per_partition=24)
        lik = wl.build_likelihood("gamma", per_partition_branches=True)
        newick = write_newick(wl.tree, branch_set=0)
        cfg = SearchConfig(max_iterations=1, radius_max=2, model_opt=False)
        dec = launch(RunConfig("decentralized", lik.parts, lik.taxa, newick,
                               n_ranks=2, config=cfg, n_branch_sets=3))
        fj = first_survivor(launch(RunConfig("forkjoin", lik.parts, lik.taxa,
                                             newick, n_ranks=2, config=cfg,
                                             n_branch_sets=3)))
        assert fj.newick == dec[0].newick
        assert fj.logl == dec[0].logl
