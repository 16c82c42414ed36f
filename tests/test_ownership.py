"""Ownership: a rank computes only the partitions it holds patterns of.

A rank's share of a partition it does not own (MPS), or of a partition
with fewer patterns than ranks (cyclic), is a zero-pattern
``PartitionData``.  These tests pin what that means on live runs of 2 and
3 forked ranks, both engines, Γ and PSR, joint and ``-M`` branch lengths:

* the reduced per-partition vector is the owner's value plus exact zeros,
  so under MPS it is *bitwise* the sequential backend's;
* kernel calls follow ownership: per (op, partition) a rank performs the
  sequential run's calls where it holds patterns and none where it does
  not — summed over the ranks of an MPS run that is the sequential count
  (the deterministic form of ``dist.call_replication == 1.0``);
* the collective streams (calls and bytes per Table-I tag) are untouched;
* recovery under MPS re-schedules the dead rank's partitions onto the
  survivors and finishes like the undisturbed run.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist import (
    cyclic_distribution,
    mps_assignment,
    mps_distribution,
    split_local_data,
)
from repro.engines.decentral import DecentralizedBackend
from repro.engines.forkjoin import ForkJoinMasterBackend, forkjoin_worker
from repro.engines.launch import (
    RunConfig,
    _rebuild_tree,
    first_survivor,
    launch,
)
from repro.errors import ModelError
from repro.likelihood.backend import SequentialBackend
from repro.likelihood.partitioned import PartitionData, PartitionedLikelihood
from repro.model.rates import NoRateHeterogeneity, PerSiteRates
from repro.model.substitution import JC69
from repro.obs.export import rank_trace_path, read_jsonl
from repro.obs.hotspots import KERNEL_OP_SPAN, OpProfiler
from repro.par.faultcomm import FaultPlan
from repro.par.mpcomm import run_mpi
from repro.search.search import SearchConfig, hill_climb
from repro.seq.partitions import PartitionScheme
from repro.seq.simulate import simulate_partitioned_alignment
from repro.tree.newick import write_newick
from repro.tree.random_trees import random_topology, yule_tree

from region_work import region_work

KERNEL_OPS = ("pmatrix", "newview", "evaluate", "sumtable", "derivative")

# gene0 has a single pattern: fewer than any rank count used here, so the
# cyclic split leaves every rank but 0 without a share of it
SIZES = [1, 18, 22, 26]
N_PARTS = len(SIZES)
SEARCH = SearchConfig(max_iterations=1, radius_max=2, alpha_iterations=4,
                      psr_candidates=4)


def _workload(rate_mode: str, minus_m: bool):
    """``(full parts, taxa, start newick, n_branch_sets)``"""
    from repro.datasets.generators import _random_gtr

    rng = np.random.default_rng(1305)
    taxa = [f"t{i}" for i in range(7)]
    truth = yule_tree(taxa, rng=rng, mean_branch_length=0.1)
    models = [_random_gtr(rng) for _ in SIZES]
    alignment = simulate_partitioned_alignment(
        truth, models, SIZES, rng=rng, gamma_alphas=[0.5, 0.8, 1.1, 0.6])
    scheme = PartitionScheme.contiguous_blocks(
        SIZES, names=[f"gene{i}" for i in range(N_PARTS)])
    start = random_topology(taxa, rng=rng, default_length=0.08)
    lik = PartitionedLikelihood.build(
        alignment, start.copy(), scheme=scheme, rate_mode=rate_mode,
        per_partition_branches=minus_m)
    assert lik.parts[0].n_patterns == 1
    return (lik.parts, lik.taxa, write_newick(start, branch_set=0),
            lik.n_branch_sets)


def _copies(parts):
    return [p.subset(np.arange(p.n_patterns)) for p in parts]


def _probe_edge(tree):
    """An inner edge, found the same way on every replica."""
    for u, v in tree.edges():
        if not u.is_leaf and not v.is_leaf:
            return u, v
    raise AssertionError("tree has no inner edge")


# --------------------------------------------------------------------- #
# one MPS assignment
# --------------------------------------------------------------------- #
def _bare_parts(pattern_counts: list[int], scale: float) -> list[PartitionData]:
    model = JC69()
    return [
        PartitionData(f"p{j}", np.ones((3, n), dtype=np.uint32), np.ones(n),
                      model, NoRateHeterogeneity(), pattern_scale=scale)
        for j, n in enumerate(pattern_counts)
    ]


class TestOneAssignment:
    @given(st.lists(st.integers(1, 40), min_size=1, max_size=12),
           st.integers(1, 6), st.sampled_from([1.0, 2.5]))
    @settings(max_examples=60, deadline=None)
    def test_owned_matrix_is_the_real_split(self, counts, ranks, scale):
        """``DataDistribution.owned[r, j]`` is the ``cost_patterns`` of
        the share ``split_local_data`` hands rank ``r``."""
        parts = _bare_parts(counts, scale)
        loads = np.array([p.cost_patterns for p in parts])
        kinds = {"cyclic": cyclic_distribution(loads, ranks)}
        if len(counts) >= ranks:
            kinds["mps"] = mps_distribution(loads, ranks)
            assert np.array_equal(kinds["mps"].assignment,
                                  mps_assignment(loads, ranks))
        for kind, dist in kinds.items():
            for r in range(ranks):
                share = split_local_data(parts, r, ranks, kind)
                assert len(share) == len(parts)
                real = np.array([p.cost_patterns for p in share])
                if kind == "mps" or scale == 1.0:
                    assert np.array_equal(dist.owned[r], real), kind
                else:  # the model spreads fractional virtual patterns
                    assert np.allclose(dist.owned.sum(axis=0), loads)

    @given(st.lists(st.integers(1, 40), min_size=1, max_size=12),
           st.integers(1, 60))
    @settings(max_examples=40, deadline=None)
    def test_service_budget_is_met_by_the_real_shares(self, counts, target):
        """The rank count ``serve`` grants an MPS job is the smallest whose
        *real* per-rank shares fit the per-rank pattern target."""
        from repro.serve.spec import JobSizing, JobSpec, rank_budget

        sizing = JobSizing(taxa=3, sites=sum(counts), patterns=sum(counts),
                           partitions=len(counts),
                           pattern_loads=tuple(counts))
        granted = rank_budget(JobSpec(alignment="x.fasta", dist="mps"),
                              sizing, target, max_ranks=8)
        parts = _bare_parts(counts, 1.0)

        def heaviest_rank(ranks: int) -> float:
            return max(
                sum(p.n_patterns for p in
                    split_local_data(parts, r, ranks, "mps"))
                for r in range(ranks))

        ceiling = min(8, len(counts))
        assert 1 <= granted <= ceiling
        if heaviest_rank(granted) > target:
            assert granted == ceiling  # nothing fits: as wide as allowed
        for narrower in range(1, granted):
            assert heaviest_rank(narrower) > target


# --------------------------------------------------------------------- #
# zero-pattern shares: typed or working, never half-working
# --------------------------------------------------------------------- #
class TestZeroPatternShares:
    def test_share_keeps_model_state_and_nothing_else(self):
        parts, _, _, _ = _workload("gamma", False)
        empty = parts[2].subset(np.arange(0))
        assert empty.n_patterns == 0 and empty.cost_patterns == 0.0
        assert empty.weights.shape == (0,)
        assert empty.model is parts[2].model
        assert empty.rate_het.alpha == parts[2].rate_het.alpha
        assert empty.branch_set == parts[2].branch_set

    def test_empty_psr_share(self):
        psr = PerSiteRates(rates=np.empty(0))
        rates, weights = psr.category_rates(0)
        assert rates.shape == (0,) and weights is None
        psr.set_rates(np.empty(0))
        # a local mean over nothing is not 1.0 and not NaN: it is an error
        with pytest.raises(ModelError, match="empty PSR share"):
            psr.normalize(np.empty(0))

    def test_likelihood_skips_the_share(self):
        """No kernel, no profiler record, no CLV entry — but the
        orientation is stamped valid like every other partition."""
        parts, taxa, newick, nbs = _workload("gamma", False)
        local = split_local_data(parts, 1, 2, "mps")
        mine = [j for j, p in enumerate(local) if p.n_patterns]
        assert mine and len(mine) < N_PARTS
        tree = _rebuild_tree(newick, nbs)
        lik = PartitionedLikelihood(tree, local, taxa)
        lik.profiler = OpProfiler()
        u, v = _probe_edge(tree)
        total, per_part, descriptors = lik.evaluate(u, v)
        ws = lik.prepare_branch(u, v)
        assert len(ws.sumtables) == len(lik.stacks)
        d1, d2 = lik.branch_derivatives(ws, tree.edge_length(u, v))
        # every partition took part in every op, and none needs one now
        assert descriptors.op_counts() == [len(descriptors.ops)] * N_PARTS
        assert lik.descriptors_for_edge(u, v).ops == []
        for j in range(N_PARTS):
            stats = lik.clv_stats()[j]
            calls = sum(lik.profiler.invocations(op, j) for op in KERNEL_OPS)
            if j in mine:
                assert per_part[j] < 0.0 and d2[j] != 0.0
                assert stats["entries"] > 0 and stats["live_bytes"] > 0
                assert calls > 0
            else:
                assert per_part[j] == 0.0 and d1[j] == 0.0 and d2[j] == 0.0
                assert all(j not in stack.partitions for stack in lik.stacks)
                assert stats == {"partition": j, "entries": 0,
                                 "live_bytes": 0, "peak_bytes": 0,
                                 "evictions": 0, "evicted_bytes": 0}
                assert calls == 0
                assert not any(r["partition"] == j
                               for r in lik.profiler.records())
        assert total == per_part.sum()
        # the profiler and the region log of the same three calls still
        # agree float-exactly on this rank
        again = PartitionedLikelihood(_rebuild_tree(newick, nbs), local, taxa)
        again.profiler = OpProfiler()
        recorder = SequentialBackend(again)
        _probe(recorder)
        for op, work in region_work(recorder.log, local).items():
            assert (again.profiler.units(op),
                    again.profiler.invocations(op)) == work
            assert again.profiler.units(op) == lik.profiler.units(op)

    def test_gc_counts_arrays_not_stamps(self):
        parts, taxa, newick, nbs = _workload("gamma", False)
        local = split_local_data(parts, 0, 2, "mps")
        tree = _rebuild_tree(newick, nbs)
        lik = PartitionedLikelihood(tree, local, taxa)
        u, v = _probe_edge(tree)
        lik.evaluate(u, v)
        arrays = sum(s["entries"] for s in lik.clv_stats())
        lik.invalidate_all()
        assert lik.gc() == arrays
        assert not lik._stamps
        assert all(s["entries"] == 0 and s["live_bytes"] == 0
                   for s in lik.clv_stats())


# --------------------------------------------------------------------- #
# (a) the reduced per-partition vector
# --------------------------------------------------------------------- #
def _probe(backend):
    """One evaluate + one Newton derivative at the start tree."""
    u, v = _probe_edge(backend.tree)
    _, per_part = backend.evaluate(u, v)
    handle = backend.begin_branch(u, v)
    d1, d2 = backend.derivatives(handle, backend.tree.edge_length(u, v).copy())
    backend.finish()
    return per_part, d1, d2


def _probe_rank(comm, payload):
    """:func:`_probe` through the real backend of ``payload['engine']``."""
    local = split_local_data(payload["parts"], comm.rank, comm.size,
                             payload["dist"])
    nbs = payload["n_branch_sets"]
    if payload["engine"] == "forkjoin" and comm.rank > 0:
        forkjoin_worker(comm, local, payload["node_taxon"], nbs)
        return None
    tree = _rebuild_tree(payload["newick"], nbs)
    lik = PartitionedLikelihood(tree, local, payload["taxa"])
    if payload["engine"] == "forkjoin":
        return _probe(ForkJoinMasterBackend(comm, lik))
    return _probe(DecentralizedBackend(comm, lik))


def _probe_sequential(parts, taxa, newick, nbs):
    tree = _rebuild_tree(newick, nbs)
    return _probe(SequentialBackend(PartitionedLikelihood(tree, parts, taxa)))


def _launch_probe(engine, dist, ranks, parts, taxa, newick, nbs):
    tree = _rebuild_tree(newick, nbs)
    row = {label: i for i, label in enumerate(taxa)}
    payload = {"engine": engine, "dist": dist, "parts": parts, "taxa": taxa,
               "newick": newick, "n_branch_sets": nbs,
               "node_taxon": {leaf.id: row[leaf.label]
                              for leaf in tree.leaves()}}
    results = run_mpi(ranks, _probe_rank, [payload] * ranks)
    if engine == "decentralized":
        for other in results[1:]:  # replicas hold the same bits
            for a, b in zip(results[0], other):
                assert np.array_equal(a, b)
    return results[0]


@pytest.mark.parametrize("minus_m", [False, True], ids=["joint", "minusM"])
@pytest.mark.parametrize("rate_mode", ["gamma", "psr"])
@pytest.mark.parametrize("ranks", [2, 3])
@pytest.mark.parametrize("engine", ["decentralized", "forkjoin"])
class TestReducedVector:
    def test_mps_is_bitwise_the_sequential_vector(self, engine, ranks,
                                                  rate_mode, minus_m):
        parts, taxa, newick, nbs = _workload(rate_mode, minus_m)
        ref_ll, ref_d1, ref_d2 = _probe_sequential(_copies(parts), taxa,
                                                   newick, nbs)
        per_part, d1, d2 = _launch_probe(engine, "mps", ranks, parts, taxa,
                                         newick, nbs)
        # x + 0.0 + ... : the owner's value survives the collective intact
        assert np.array_equal(per_part, ref_ll)
        # derivatives arrive per branch set from every backend
        assert d1.shape == d2.shape == ref_d1.shape == (nbs,)
        if minus_m:  # one partition per branch set: same again
            assert np.array_equal(d1, ref_d1)
            assert np.array_equal(d2, ref_d2)
        else:        # the joint sum is taken in another order
            assert d1 == pytest.approx(ref_d1, rel=1e-12, abs=1e-9)
            assert d2 == pytest.approx(ref_d2, rel=1e-12, abs=1e-9)

    def test_cyclic_with_more_ranks_than_patterns(self, engine, ranks,
                                                  rate_mode, minus_m):
        """Ranks without a share add exactly 0.0: the reduced vector is
        the rank-ordered sum of what the holders compute on their own."""
        parts, taxa, newick, nbs = _workload(rate_mode, minus_m)
        per_part, _, _ = _launch_probe(engine, "cyclic", ranks, parts, taxa,
                                       newick, nbs)
        expected = np.zeros(N_PARTS)
        for r in range(ranks):
            local = split_local_data(parts, r, ranks, "cyclic")
            assert (local[0].n_patterns == 0) == (r > 0)
            # only the shares this rank holds, each as a 1-partition problem
            # (an oracle that never meets a zero-pattern partition)
            mine = np.zeros(N_PARTS)
            for j, share in enumerate(local):
                if share.n_patterns == 0:
                    continue
                tree = _rebuild_tree(newick, nbs)
                lik = PartitionedLikelihood(tree, [share], taxa)
                mine[j] = lik.evaluate(*_probe_edge(tree))[1][0]
            expected = expected + mine
        assert np.array_equal(per_part, expected)
        ref_ll, _, _ = _probe_sequential(_copies(parts), taxa, newick, nbs)
        assert per_part == pytest.approx(ref_ll, rel=1e-12)


# --------------------------------------------------------------------- #
# (b) kernel calls follow ownership; final tree/logL match
# --------------------------------------------------------------------- #
def _sequential_search(parts, taxa, newick, nbs):
    """Reference search with a profiler: ``(calls[op][partition], wire ops,
    logl, newick)``; *wire ops* is the length of every region's longest
    per-partition descriptor, summed — what a fork-join master broadcasts."""
    tree = _rebuild_tree(newick, nbs)
    lik = PartitionedLikelihood(tree, _copies(parts), taxa)
    lik.profiler = OpProfiler()
    backend = SequentialBackend(lik)
    result = hill_climb(backend, SEARCH)
    calls = {op: [lik.profiler.invocations(op, j) for j in range(N_PARTS)]
             for op in KERNEL_OPS}
    wire_ops = int(sum(region.max_ops() for region in backend.log))
    return calls, wire_ops, result.logl, write_newick(tree)


def _rank_calls(trace_dir, rank):
    calls = {op: [0] * N_PARTS for op in KERNEL_OPS}
    for rec in read_jsonl(rank_trace_path(trace_dir, rank)):
        if rec.get("name") == KERNEL_OP_SPAN:
            attrs = rec["attrs"]
            calls[attrs["op"]][attrs["partition"]] += attrs["count"]
    return calls


@pytest.mark.parametrize("minus_m", [False, True], ids=["joint", "minusM"])
@pytest.mark.parametrize("rate_mode", ["gamma", "psr"])
@pytest.mark.parametrize("ranks,dist", [(2, "mps"), (3, "mps"), (3, "cyclic")])
class TestKernelCallsFollowOwnership:
    def test_decentralized(self, ranks, dist, rate_mode, minus_m, tmp_path):
        parts, taxa, newick, nbs = _workload(rate_mode, minus_m)
        seq_calls, _, seq_logl, seq_newick = _sequential_search(
            parts, taxa, newick, nbs)
        replicas = launch(RunConfig("decentralized", parts, taxa, newick,
                                    n_ranks=ranks, config=SEARCH,
                                    dist_kind=dist, n_branch_sets=nbs,
                                    trace_dir=tmp_path))
        assert replicas[0].newick == seq_newick
        if dist == "mps" and minus_m and rate_mode == "gamma":
            # every reduced number is one rank's value plus zeros
            assert replicas[0].logl == seq_logl
        else:
            assert replicas[0].logl == pytest.approx(seq_logl, abs=1e-6)
        total = {op: [0] * N_PARTS for op in KERNEL_OPS}
        for r in range(ranks):
            local = split_local_data(parts, r, ranks, dist)
            mine = _rank_calls(tmp_path, r)
            for op in KERNEL_OPS:
                for j in range(N_PARTS):
                    want = seq_calls[op][j] if local[j].n_patterns else 0
                    assert mine[op][j] == want, (r, op, j)
                    total[op][j] += mine[op][j]
        if dist == "mps":  # dist.call_replication == 1.0, per op
            assert total == seq_calls

    def test_forkjoin(self, ranks, dist, rate_mode, minus_m, tmp_path):
        parts, taxa, newick, nbs = _workload(rate_mode, minus_m)
        seq_calls, wire_ops, seq_logl, seq_newick = _sequential_search(
            parts, taxa, newick, nbs)
        master = first_survivor(launch(RunConfig("forkjoin", parts, taxa,
                                                 newick, n_ranks=ranks,
                                                 config=SEARCH, dist_kind=dist,
                                                 n_branch_sets=nbs,
                                                 trace_dir=tmp_path)))
        assert master.newick == seq_newick
        assert master.logl == pytest.approx(seq_logl, abs=1e-6)
        # Workers run the *longest* per-partition descriptor of a region
        # for every partition they hold: never more newview calls than the
        # master put on the wire, never fewer than their own partition
        # needs.  Everything else is call-for-call sequential.
        for r in range(ranks):
            local = split_local_data(parts, r, ranks, dist)
            mine = _rank_calls(tmp_path, r)
            for j in range(N_PARTS):
                if local[j].n_patterns == 0:
                    assert all(mine[op][j] == 0 for op in KERNEL_OPS), (r, j)
                    continue
                for op in ("evaluate", "sumtable", "derivative"):
                    assert mine[op][j] == seq_calls[op][j], (r, op, j)
                if r == 0:  # the master is tree-aware: its own descriptor
                    assert mine["newview"][j] == seq_calls["newview"][j]
                else:
                    assert (seq_calls["newview"][j] <= mine["newview"][j]
                            <= wire_ops), (r, j)
                assert (mine["pmatrix"][j]
                        == 2 * mine["newview"][j] + mine["evaluate"][j])


# --------------------------------------------------------------------- #
# (c) the collective streams do not move
# --------------------------------------------------------------------- #
#: Calls / bytes per Table-I tag of a 2-rank ``--dist mps`` run of
#: :func:`_workload` ("gamma", joint) under ``SEARCH``, recorded at the
#: parent commit, where the shares were ε-weight stubs.  Ownership changes
#: who computes, never what is communicated.
BL, LL = "branch length optimization", "per-site/per-partition likelihoods"
PINNED_DECENTRALIZED = [  # per rank (rank 0 also relays the result back)
    ({BL: 298, LL: 46}, {BL: 4768, LL: 1472}),
    ({BL: 149, LL: 23}, {BL: 2384, LL: 736}),
]
PINNED_FORKJOIN = (
    {"traversal descriptor": 107, BL: 298, LL: 23, "model parameters": 10,
     "control": 1},
    {"traversal descriptor": 10152, BL: 5662, LL: 736,
     "model parameters": 780, "control": 8},
)
#: The same run with per-partition branch lengths (``-M``) and with PSR.
PINNED_FORKJOIN_MODES = {
    ("gamma", True): (
        {"traversal descriptor": 107, BL: 410, LL: 23, "model parameters": 10,
         "control": 1},
        {"traversal descriptor": 18528, BL: 22550, LL: 736,
         "model parameters": 780, "control": 8}),
    ("psr", False): (
        {"traversal descriptor": 105, BL: 342, LL: 13, "model parameters": 14,
         "control": 1},
        {"traversal descriptor": 10072, BL: 6498, LL: 416,
         "model parameters": 448, "control": 8}),
}
#: The sequential region log of :func:`_workload` under ``SEARCH``:
#: ``(regions, distinct region shapes, descriptor ops summed)`` — the
#: work every engine prices, pinned where no communicator is involved.
PINNED_SEQUENTIAL_LOGS = {
    ("gamma", False): (224, 12, 142),
    ("gamma", True): (280, 12, 142),
    ("psr", False): (236, 13, 142),
}


class TestCollectiveStreamsUnchanged:
    def test_decentralized(self):
        parts, taxa, newick, _ = _workload("gamma", False)
        replicas = launch(RunConfig("decentralized", parts, taxa, newick,
                                    n_ranks=2, config=SEARCH, dist_kind="mps"))
        for replica, (calls, nbytes) in zip(replicas, PINNED_DECENTRALIZED):
            assert replica.calls_by_tag == calls
            assert replica.bytes_by_tag == nbytes

    def test_forkjoin(self):
        parts, taxa, newick, _ = _workload("gamma", False)
        master = first_survivor(launch(RunConfig("forkjoin", parts, taxa,
                                                 newick, n_ranks=2,
                                                 config=SEARCH,
                                                 dist_kind="mps")))
        assert (master.calls_by_tag, master.bytes_by_tag) == PINNED_FORKJOIN

    @pytest.mark.parametrize("rate_mode,minus_m", sorted(PINNED_FORKJOIN_MODES))
    def test_forkjoin_minus_m_and_psr(self, rate_mode, minus_m):
        parts, taxa, newick, nbs = _workload(rate_mode, minus_m)
        master = first_survivor(launch(RunConfig("forkjoin", parts, taxa,
                                                 newick, n_ranks=2,
                                                 config=SEARCH, dist_kind="mps",
                                                 n_branch_sets=nbs)))
        assert ((master.calls_by_tag, master.bytes_by_tag)
                == PINNED_FORKJOIN_MODES[rate_mode, minus_m])

    @pytest.mark.parametrize("rate_mode,minus_m", sorted(PINNED_SEQUENTIAL_LOGS))
    def test_sequential_region_log(self, rate_mode, minus_m):
        parts, taxa, newick, nbs = _workload(rate_mode, minus_m)
        lik = PartitionedLikelihood(_rebuild_tree(newick, nbs), _copies(parts),
                                    taxa)
        backend = SequentialBackend(lik)
        hill_climb(backend, SEARCH)
        log = backend.log
        assert ((len(log), len(log.counts), sum(r.max_ops() for r in log))
                == PINNED_SEQUENTIAL_LOGS[rate_mode, minus_m])


# --------------------------------------------------------------------- #
# (d) recovery under MPS
# --------------------------------------------------------------------- #
class TestRecoveryUnderMPS:
    CONVERGED = SearchConfig(max_iterations=10, radius_max=2, model_opt=False,
                             epsilon=1e-6, branch_passes=3)

    def test_survivors_take_over_the_dead_ranks_partitions(self):
        parts, taxa, newick, nbs = _workload("gamma", False)
        ref = launch(RunConfig("decentralized", parts, taxa, newick, n_ranks=3,
                               config=self.CONVERGED, dist_kind="mps"))
        rec = launch(RunConfig("decentralized", parts, taxa, newick, n_ranks=3,
                               config=self.CONVERGED, dist_kind="mps",
                               fault_plan=FaultPlan.kill(rank=1, at_call=25),
                               detect_timeout=20.0))
        assert rec[1] is None
        survivors = [r for r in rec if r is not None]
        assert len(survivors) == 2
        for r in survivors:
            assert r.failed_ranks == (1,) and r.recoveries == 1
            assert r.newick == ref[0].newick
            assert r.logl == survivors[0].logl  # bitwise across survivors
            assert r.logl == pytest.approx(ref[0].logl, abs=1e-8)
        # the re-split is the 2-rank MPS schedule: every partition has
        # exactly one holder again, nobody keeps a stub
        holders = np.zeros(N_PARTS, dtype=int)
        for r in range(2):
            holders += [p.n_patterns > 0
                        for p in split_local_data(parts, r, 2, "mps")]
        assert np.array_equal(holders, np.ones(N_PARTS, dtype=int))
