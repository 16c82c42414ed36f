"""Region-log tests: the log every backend keeps faithfully mirrors the
operations the search performs, every backend — each of them the one
:class:`SequentialBackend` body plus hooks — runs the same program, and
the live engines' ranks end with the sequential program's log."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import bench
from repro.datasets import partitioned_workload
from repro.engines.decentral import DecentralizedBackend
from repro.engines.forkjoin import (
    CAT_BL_OPT,
    CAT_LIKELIHOOD,
    CAT_MODEL,
    CAT_TRAVERSAL,
    ForkJoinMasterBackend,
)
from repro.engines.launch import (
    RunConfig,
    first_survivor,
    launch,
    run_sequential_reference,
)
from repro.likelihood.backend import EventLog, Region, RegionKind, SequentialBackend
from repro.likelihood.optimize_branch import optimize_branch, smooth_all_branches
from repro.likelihood.optimize_model import (
    default_psr_candidates,
    optimize_alphas,
    optimize_psr,
)
from repro.likelihood.partitioned import PartitionedLikelihood
from repro.model.rates import PerSiteRates
from repro.par.seqcomm import SequentialComm
from repro.perf.price import comm_totals
from repro.search.search import SearchConfig, hill_climb
from repro.tree.newick import write_newick

from test_stack import _inner_edge, _parts, _tree


@pytest.fixture()
def recorder(sim_dataset):
    aln, true_tree, _ = sim_dataset
    lik = PartitionedLikelihood.build(aln, true_tree.copy(), rate_mode="gamma")
    return SequentialBackend(lik)


class TestRegionStream:
    def test_evaluate_appends_one_log_entry(self, recorder):
        u, v = recorder.tree.edges()[0]
        recorder.evaluate(u, v)
        assert recorder.log.count(RegionKind.EVALUATE) == 1
        (first,) = recorder.log
        assert first.max_ops() > 0  # cold cache: full traversal

    def test_second_evaluate_has_empty_descriptor(self, recorder):
        u, v = recorder.tree.edges()[0]
        recorder.evaluate(u, v)
        recorder.evaluate(u, v)
        assert list(recorder.log)[1].max_ops() == 0

    def test_branch_optimization_regions(self, recorder):
        u, v = recorder.tree.edges()[1]
        optimize_branch(recorder, u, v)
        assert recorder.log.count(RegionKind.BRANCH_SETUP) == 1
        assert recorder.log.count(RegionKind.DERIVATIVE) >= 1

    def test_alpha_optimization_regions(self, recorder):
        u, v = recorder.tree.edges()[0]
        optimize_alphas(recorder, u, v, iterations=5)
        n_params = recorder.log.count(RegionKind.PARAM_ALPHA)
        n_evals = recorder.log.count(RegionKind.EVALUATE)
        assert n_params >= 5
        assert n_evals >= n_params  # every proposal gets evaluated

    def test_psr_scan_regions(self, sim_dataset):
        aln, true_tree, _ = sim_dataset
        lik = PartitionedLikelihood.build(aln, true_tree.copy(), rate_mode="psr")
        rec = SequentialBackend(lik)
        u, v = rec.tree.edges()[0]
        optimize_psr(rec, u, v, n_candidates=7)
        assert rec.log.count(RegionKind.PSR_SCAN) == 7
        assert rec.log.count(RegionKind.PARAM_PSR) == 1

    def test_recording_does_not_change_results(self, sim_dataset):
        aln, true_tree, _ = sim_dataset
        cfg = SearchConfig(max_iterations=2, radius_max=2, alpha_iterations=6)
        lik1 = PartitionedLikelihood.build(aln, true_tree.copy(), rate_mode="gamma")
        quiet = SequentialBackend(lik1)
        quiet._record = lambda *args: None  # a backend that keeps no log
        plain = hill_climb(quiet, cfg)
        lik2 = PartitionedLikelihood.build(aln, true_tree.copy(), rate_mode="gamma")
        backend = SequentialBackend(lik2)
        recorded = hill_climb(backend, cfg)
        assert len(quiet.log) == 0 < len(backend.log)
        assert recorded.logl == plain.logl

    def test_stream_is_deterministic(self, sim_dataset):
        aln, true_tree, _ = sim_dataset
        cfg = SearchConfig(max_iterations=1, radius_max=2)
        logs = []
        for _ in range(2):
            lik = PartitionedLikelihood.build(aln, true_tree.copy(),
                                              rate_mode="gamma")
            rec = SequentialBackend(lik)
            hill_climb(rec, cfg)
            logs.append(rec.log)
        assert logs[0] == logs[1]
        assert list(logs[0]) == list(logs[1])  # same order of first appearance

    def test_validates(self, recorder):
        smooth_all_branches(recorder, passes=1)
        recorder.log.validate()
        assert len(recorder.log) > 0

    def test_regions_with_per_partition_ops_compare_equal(self):
        """Regression: an ndarray op vector made ``Region == Region``
        raise, so two logs holding one could not be compared."""
        a = Region(RegionKind.EVALUATE, 3, 1, np.array([2., 3., 3.]))
        b = Region(RegionKind.EVALUATE, 3, 1, np.array([2., 3., 3.]))
        assert a == b and hash(a) == hash(b)
        assert a != Region(RegionKind.EVALUATE, 3, 1, (2, 3, 4))
        assert EventLog([a, a]) == EventLog([b, b]) != EventLog([a])

    def test_log_counts_shapes_not_regions(self, sim_dataset):
        """A search repeats a few region shapes: the log's distinct entries
        stay bounded while the number of regions grows with the run."""
        aln, _, start = sim_dataset
        logs = []
        for iterations in (2, 20):
            lik = PartitionedLikelihood.build(aln, start.copy(),
                                              rate_mode="gamma")
            backend = SequentialBackend(lik)
            hill_climb(backend, SearchConfig(
                max_iterations=iterations, radius_max=2, epsilon=1e-9,
                accept_epsilon=1e-9))
            logs.append(backend.log)
        short, long = logs
        assert len(long) > len(short) > 0
        assert len(long.counts) <= 64
        assert sum(long.counts.values()) == len(long) == len(list(long))


# --------------------------------------------------------------------- #
# the Table-I region stream, pinned
# --------------------------------------------------------------------- #
#: ``record_partitioned(10, mode, -M)`` as captured before the backends
#: were folded into one body: region count, count per kind, total
#: descriptor length, bytes per Table-I category under either scheme.
#: Three of the four moved by a few ops when a CLV whose child had been
#: recomputed off the descriptor's path stopped passing as valid (the
#: search used to read such stale CLVs now and then).
STREAM_PINS = {
    ("gamma", False): (
        6971,
        {"evaluate": 616, "branch_setup": 1122, "derivative": 5200,
         "param_alpha": 33},
        7160.0,
        {CAT_BL_OPT: 83200.0, CAT_LIKELIHOOD: 49280.0, CAT_MODEL: 0.0},
        {CAT_BL_OPT: 124800.0, CAT_LIKELIHOOD: 49280.0, CAT_MODEL: 2640.0,
         CAT_TRAVERSAL: 1267112.0}),
    ("gamma", True): (
        9584,
        {"evaluate": 661, "branch_setup": 1121, "derivative": 7769,
         "param_alpha": 33},
        7233.0,
        {CAT_BL_OPT: 1243040.0, CAT_LIKELIHOOD: 52880.0, CAT_MODEL: 0.0},
        {CAT_BL_OPT: 1864560.0, CAT_LIKELIHOOD: 52880.0, CAT_MODEL: 2640.0,
         CAT_TRAVERSAL: 1280136.0}),
    ("psr", False): (
        6885,
        {"evaluate": 597, "branch_setup": 1092, "derivative": 5169,
         "param_psr": 3, "psr_scan": 24},
        7229.0,
        {CAT_BL_OPT: 82704.0, CAT_LIKELIHOOD: 47760.0, CAT_MODEL: 480.0},
        {CAT_BL_OPT: 124056.0, CAT_LIKELIHOOD: 47760.0, CAT_MODEL: 912.0,
         CAT_TRAVERSAL: 1279156.0}),
    ("psr", True): (
        9845,
        {"evaluate": 628, "branch_setup": 1137, "derivative": 8053,
         "param_psr": 3, "psr_scan": 24},
        6817.0,
        {CAT_BL_OPT: 1288480.0, CAT_LIKELIHOOD: 50240.0, CAT_MODEL: 480.0},
        {CAT_BL_OPT: 1932720.0, CAT_LIKELIHOOD: 50240.0, CAT_MODEL: 912.0,
         CAT_TRAVERSAL: 1206948.0}),
}


@pytest.mark.skipif(bench.FULL, reason="pins are the default-size recordings")
@pytest.mark.parametrize("mode,minus_m", sorted(STREAM_PINS))
def test_table1_region_stream_is_pinned(mode, minus_m):
    """A recorder that drops, adds or reorders a region moves one of these."""
    log = bench.record_partitioned(10, mode, minus_m).log
    n_regions, kinds, ops, examl_bytes, light_bytes = STREAM_PINS[mode, minus_m]
    assert len(log) == n_regions
    assert {k.value: log.count(k) for k in RegionKind if log.count(k)} == kinds
    assert sum(r.max_ops() for r in log) == ops
    assert comm_totals(log, "decentralized").nbytes == examl_bytes
    light = comm_totals(log, "forkjoin")
    assert light.nbytes == light_bytes
    assert light.regions == n_regions


# --------------------------------------------------------------------- #
# one rank of any engine is the sequential program
# --------------------------------------------------------------------- #
BACKENDS = {
    "sequential": SequentialBackend,
    "decentralized": lambda lik: DecentralizedBackend(SequentialComm(), lik),
    "forkjoin": lambda lik: ForkJoinMasterBackend(SequentialComm(), lik),
}


def _one_rank_run(make, seed, g, mode, minus_m):
    """Every protocol region once, then a 1-iteration search."""
    rng = np.random.default_rng(seed)
    taxa = [f"t{i}" for i in range(6)]
    parts = _parts(rng, g, 9, mode, 4, len(taxa), minus_m)
    tree = _tree(rng, taxa, g if minus_m else 1)
    backend = make(PartitionedLikelihood(tree, parts, taxa))
    u, v = _inner_edge(tree)
    total, per_part = backend.evaluate(u, v)
    d1, d2 = backend.derivatives(backend.begin_branch(u, v),
                                 tree.edge_length(u, v) * 1.3)
    assert d1.shape == d2.shape == (tree.n_branch_sets,)
    backend.optimize_psr(u, v, default_psr_candidates(5))
    rates = [p.rate_het.rates.copy() for p in parts
             if isinstance(p.rate_het, PerSiteRates)]
    result = hill_climb(backend, SearchConfig(
        max_iterations=1, radius_max=2, alpha_iterations=3, psr_candidates=4,
        optimize_gtr=True, gtr_iterations=2))
    lengths = [tree.edge_length(a, b) for a, b in tree.edges()]
    return backend, (total, per_part, d1, d2, *rates, result.logl,
                     *lengths), [(a.id, b.id) for a, b in tree.edges()]


@given(st.integers(0, 2**31), st.sampled_from([1, 3, 5]),
       st.sampled_from(["gamma", "psr", "none"]), st.booleans())
@settings(max_examples=10, deadline=None)
def test_one_rank_of_any_engine_is_the_sequential_program(seed, g, mode, minus_m):
    """The paper's premise, bitwise: likelihoods, per-set derivatives, PSR
    rates, the searched tree, its logL and the region log do not depend on
    the hooks."""
    runs = {name: _one_rank_run(make, seed, g, mode, minus_m)
            for name, make in BACKENDS.items()}
    seq, want, want_edges = runs["sequential"]
    for name, (backend, got, edges) in runs.items():
        assert edges == want_edges, name
        assert len(got) == len(want)
        for mine, theirs in zip(got, want):
            assert np.array_equal(mine, theirs), name
        assert backend.log == seq.log, name
    # ... and the replica's collectives are the ones the de-centralized
    # model assigns to the region log, call for call, byte for byte
    log = seq.log
    comm = runs["decentralized"][0].comm
    modeled = comm_totals(log, "decentralized")
    assert dict(comm.bytes_by_tag) == {
        cat: nbytes for cat, nbytes in modeled.nbytes.items() if nbytes}
    assert dict(comm.calls_by_tag) == {
        cat: calls for cat, calls in modeled.calls.items() if calls}
    assert sum(comm.calls_by_tag.values()) == modeled.regions


# --------------------------------------------------------------------- #
# live ranks keep the sequential program's log
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("minus_m", [False, True], ids=["joint", "M"])
@pytest.mark.parametrize("mode", ["gamma", "psr"])
@pytest.mark.parametrize("ranks", [2, 3])
def test_live_ranks_log_the_sequential_regions(ranks, mode, minus_m):
    """The premise the models rest on, checked on live streams: under MPS
    every replica, the fork-join master and the sequential program count
    the same regions — a rank's op counts do not depend on its share."""
    wl = partitioned_workload(4, n_taxa=8, sites_per_partition=30)
    lik = wl.build_likelihood(mode, per_partition_branches=minus_m)
    newick = write_newick(wl.tree, branch_set=0)
    cfg = RunConfig("decentralized", lik.parts, lik.taxa, newick, ranks,
                    SearchConfig(max_iterations=1, radius_max=2,
                                 alpha_iterations=4, psr_candidates=4),
                    dist_kind="mps", n_branch_sets=lik.n_branch_sets)
    replicas = launch(cfg)
    master = first_survivor(launch(replace(cfg, engine="forkjoin")))
    reference = run_sequential_reference(lik.parts, lik.taxa, newick,
                                         cfg.config, lik.n_branch_sets)
    assert len(reference.log) > 0
    for replica in replicas:
        assert replica.log == master.log
    assert master.log == reference.log
