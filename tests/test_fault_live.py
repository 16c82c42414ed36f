"""Live fault tolerance: kill real ranks mid-search and recover.

The executable version of the paper's Section V argument.  These tests
fork real OS processes, inject rank deaths at deterministic points, and
check the full ULFM-style pipeline — detect (pipe EOF / receive timeout)
→ agree → shrink → redistribute → resume:

* a 4-rank decentralized run with a rank killed mid-search finishes with
  the *same* tree and log likelihood (within 1e-8) as an undisturbed run
  (replicas hold the full search state, so only data shares are lost);
* the fork-join contrast: a worker death aborts the run and restarts it
  from the last periodic checkpoint; a master death is unrecoverable.
"""

import os

import numpy as np
import pytest

from repro.datasets import partitioned_workload
from repro.engines.launch import RunConfig, first_survivor, launch
from repro.errors import CommError, RankFailureError
from repro.par.comm import InterceptingComm, ReduceOp
from repro.par.faultcomm import (
    FAULT_EXIT_CODE,
    FaultInjector,
    FaultPlan,
    FaultSpec,
)
from repro.par.mpcomm import run_mpi
from repro.par.seqcomm import SequentialComm
from repro.search.search import SearchConfig
from repro.tree.newick import write_newick


@pytest.fixture(scope="module")
def setup():
    wl = partitioned_workload(4, n_taxa=8, sites_per_partition=30)
    lik = wl.build_likelihood("gamma")
    return lik.parts, lik.taxa, write_newick(wl.tree)


# Tight convergence so the disturbed and undisturbed searches reach the
# same fixed point: the recovery restarts the hill climb from the
# replicated tree/model state, so equality holds at convergence.
CONVERGED = SearchConfig(max_iterations=10, radius_max=2, model_opt=False,
                         epsilon=1e-6, branch_passes=3)
QUICK = SearchConfig(max_iterations=2, radius_max=2, model_opt=False)


class TestDecentralizedRecovery:
    """The acceptance scenario: kill a rank on 4, finish on 3."""

    @pytest.fixture(scope="class")
    def killed_vs_undisturbed(self, setup):
        parts, taxa, newick = setup
        ref = launch(RunConfig("decentralized", parts, taxa, newick, n_ranks=4,
                               config=CONVERGED))
        plan = FaultPlan.kill(rank=2, at_call=25)
        rec = launch(RunConfig("decentralized", parts, taxa, newick, n_ranks=4,
                               config=CONVERGED, fault_plan=plan,
                               detect_timeout=20.0))
        return ref, rec

    def test_failed_rank_returns_nothing(self, killed_vs_undisturbed):
        _, rec = killed_vs_undisturbed
        assert rec[2] is None
        assert sum(r is None for r in rec) == 1

    def test_survivors_record_the_failure(self, killed_vs_undisturbed):
        _, rec = killed_vs_undisturbed
        for r in rec:
            if r is None:
                continue
            assert r.failed_ranks == (2,)
            assert r.recoveries == 1

    def test_same_tree_and_logl_as_undisturbed(self, killed_vs_undisturbed):
        ref, rec = killed_vs_undisturbed
        survivor = next(r for r in rec if r is not None)
        assert survivor.newick == ref[0].newick
        assert survivor.logl == pytest.approx(ref[0].logl, abs=1e-8)

    def test_survivors_bitwise_consistent(self, killed_vs_undisturbed):
        _, rec = killed_vs_undisturbed
        survivors = [r for r in rec if r is not None]
        assert len(survivors) == 3
        for r in survivors[1:]:
            assert r.newick == survivors[0].newick
            assert r.logl == survivors[0].logl  # bitwise

    def test_survivors_carry_equal_logs(self, killed_vs_undisturbed):
        """Each survivor's region log runs on through the recovery (the
        rebuilt backend continues it), and all of them count the same
        regions."""
        _, rec = killed_vs_undisturbed
        logs = [r.log for r in rec if r is not None]
        assert len(logs) == 3 and len(logs[0]) > 0
        assert all(log == logs[0] for log in logs[1:])

    def test_hang_detected_by_timeout(self, setup):
        parts, taxa, newick = setup
        plan = FaultPlan.kill(rank=1, at_call=15, mode="hang",
                              hang_seconds=6.0)
        rec = launch(RunConfig("decentralized", parts, taxa, newick, n_ranks=3,
                               config=QUICK, fault_plan=plan,
                               detect_timeout=1.5))
        survivors = [r for r in rec if r is not None]
        assert rec[1] is None
        assert len(survivors) == 2
        for r in survivors:
            assert r.failed_ranks == (1,)
            assert r.recoveries == 1
            assert r.logl == survivors[0].logl

    def test_unplanned_failure_raises_with_failed_set(self):
        with pytest.raises(RankFailureError) as exc_info:
            run_mpi(3, _die_on_rank_one, timeout=60.0, detect_timeout=10.0)
        assert 1 in exc_info.value.failed_ranks


class TestForkJoinContrast:
    """Worker death → checkpoint restart; master death → catastrophic."""

    def test_worker_death_restarts_from_checkpoint(self, setup, tmp_path):
        parts, taxa, newick = setup
        ckpt = tmp_path / "fj.npz"
        config = SearchConfig(max_iterations=10, radius_max=2,
                              model_opt=False, epsilon=1e-6, branch_passes=3,
                              checkpoint_every=1, checkpoint_path=str(ckpt))
        ref = first_survivor(launch(RunConfig(
            "forkjoin", parts, taxa, newick, n_ranks=3,
            config=SearchConfig(max_iterations=10, radius_max=2,
                                model_opt=False, epsilon=1e-6,
                                branch_passes=3))))
        plan = FaultPlan.kill(rank=1, at_call=40)
        res = first_survivor(launch(RunConfig("forkjoin", parts, taxa, newick,
                                              n_ranks=3, config=config,
                                              fault_plan=plan,
                                              detect_timeout=20.0)))
        assert res.restarts == 1
        assert ckpt.exists()  # the restart had a checkpoint to resume from
        assert res.newick == ref.newick
        assert res.logl == pytest.approx(ref.logl, abs=1e-8)

    def test_worker_death_without_checkpoint_restarts_from_scratch(
            self, setup):
        parts, taxa, newick = setup
        ref = first_survivor(launch(RunConfig("forkjoin", parts, taxa, newick,
                                              n_ranks=3, config=QUICK)))
        plan = FaultPlan.kill(rank=2, at_call=30)
        res = first_survivor(launch(RunConfig("forkjoin", parts, taxa, newick,
                                              n_ranks=3, config=QUICK,
                                              fault_plan=plan,
                                              detect_timeout=20.0)))
        assert res.restarts == 1
        assert res.newick == ref.newick

    def test_master_death_is_unrecoverable(self, setup):
        parts, taxa, newick = setup
        plan = FaultPlan.kill(rank=0, at_call=20)
        with pytest.raises(CommError, match="unrecoverable"):
            launch(RunConfig("forkjoin", parts, taxa, newick, n_ranks=3,
                             config=QUICK, fault_plan=plan,
                             detect_timeout=20.0))

    def test_restart_budget_exhausts(self, setup):
        parts, taxa, newick = setup
        plan = FaultPlan.kill(rank=1, at_call=30)
        with pytest.raises(CommError, match="restart"):
            launch(RunConfig("forkjoin", parts, taxa, newick, n_ranks=3,
                             config=QUICK, fault_plan=plan,
                             detect_timeout=20.0, max_restarts=0))


class TestTracingUnderFailure:
    """Observability across a failure: the collective a RankFailureError
    unwinds through closes as an error-flagged span, and every recovery
    step (detect → agree → shrink → redistribute → resume) is an explicit
    trace event, so the merged timeline shows the whole pipeline."""

    @pytest.fixture(scope="class")
    def traced_recovery(self, setup, tmp_path_factory):
        from repro.obs.export import read_jsonl

        parts, taxa, newick = setup
        trace_dir = tmp_path_factory.mktemp("fault_trace")
        plan = FaultPlan.kill(rank=2, at_call=25)
        rec = launch(RunConfig("decentralized", parts, taxa, newick, n_ranks=4,
                               config=QUICK, fault_plan=plan,
                               detect_timeout=20.0, trace_dir=trace_dir))
        survivors = [r for r in rec if r is not None]
        spans = {r.trace_path: read_jsonl(r.trace_path) for r in survivors}
        return survivors, spans

    def test_error_flagged_comm_span_on_every_survivor(
            self, traced_recovery):
        survivors, spans = traced_recovery
        assert len(survivors) == 3
        for r in survivors:
            errors = [s for s in spans[r.trace_path]
                      if s["kind"] == "comm" and s.get("error")]
            assert errors, r.trace_path
            # the aborted collective still carries its Table-I tag
            assert all(s.get("category") for s in errors)

    def test_recovery_pipeline_traced_in_order(self, traced_recovery):
        survivors, spans = traced_recovery
        pipeline = ["rank_failure", "agree", "shrink", "redistribute",
                    "resume"]
        for r in survivors:
            recovery = [s["name"] for s in spans[r.trace_path]
                        if s["kind"] == "recovery"]
            order = [recovery.index(n) for n in pipeline]
            assert order == sorted(order), recovery
            assert "recover" in recovery  # the enclosing timed span

    def test_recovery_event_attributes(self, traced_recovery):
        _, spans = traced_recovery
        for stream in spans.values():
            by_name = {s["name"]: s for s in stream
                       if s["kind"] == "recovery"}
            assert by_name["rank_failure"]["attrs"]["failed"] == [2]
            assert by_name["agree"]["attrs"]["agreed"] == [2]
            assert by_name["shrink"]["attrs"]["failed_world"] == [2]
            assert by_name["shrink"]["attrs"]["new_size"] == 3
            assert by_name["redistribute"]["attrs"]["survivors"] == 3

    def test_failure_and_recovery_counted(self, traced_recovery):
        survivors, spans = traced_recovery
        for r in survivors:
            stream = spans[r.trace_path]
            assert sum(bool(s.get("error")) for s in stream) >= 1
            assert r.recoveries == 1
            rounds = [s for s in stream if s["name"] in ("agree", "shrink")]
            assert [s["name"] for s in rounds] == ["agree", "shrink"]
            assert rounds[1]["attrs"]["new_size"] == 3

    def test_streams_named_by_original_world_rank(self, traced_recovery):
        # the shrink renumbers ranks, but trace files keep the original
        # world numbering so streams never collide; the killed rank
        # (os._exit, no flush) leaves no stream
        from pathlib import Path

        survivors, _ = traced_recovery
        names = sorted(Path(r.trace_path).name for r in survivors)
        assert names == ["trace-rank0.jsonl", "trace-rank1.jsonl",
                         "trace-rank3.jsonl"]


# ---------------------------------------------------------------------- #
# communicator-level machinery, exercised directly
# ---------------------------------------------------------------------- #


def _die_on_rank_one(comm, payload):
    if comm.rank == 1:
        os._exit(FAULT_EXIT_CODE)
    comm.barrier(tag="sync")
    return comm.rank


def _shrink_probe(comm, payload):
    """Rank 1 dies immediately; survivors agree, shrink and allreduce."""
    if comm.rank == 1:
        os._exit(FAULT_EXIT_CODE)
    try:
        comm.allreduce(np.ones(3), ReduceOp.SUM, tag="probe")
    except RankFailureError as exc:
        # every survivor sees the same RankFailureError (failure detection
        # is itself collective), so the handler path is replica-consistent
        agreed = comm.agree(exc.failed_ranks)  # replicheck: ignore[R003] -- deliberate ULFM recovery probe: agree is the consensus step itself
        new = comm.shrink(agreed)  # replicheck: ignore[R003] -- every survivor reaches shrink after agreeing on the failed set
        total = new.allreduce(np.array([float(new.rank)]), ReduceOp.SUM,  # replicheck: ignore[R003] -- post-shrink collective on the agreed survivor mesh
                              tag="post-shrink")
        return {
            "agreed": sorted(agreed),
            "new_rank": new.rank,
            "new_size": new.size,
            "world": [new.world_rank(r) for r in range(new.size)],
            "total": float(total[0]),
        }
    return {"unreached": True}


class TestShrink:
    def test_shrink_renumbers_and_preserves_order(self):
        results = run_mpi(4, _shrink_probe, timeout=120.0,
                          detect_timeout=10.0, allow_failures=True)
        assert results[1] is None
        survivors = [r for r in results if r is not None]
        assert len(survivors) == 3
        for r in survivors:
            assert r["agreed"] == [1]
            assert r["new_size"] == 3
            # order-preserving renumbering: old ranks 0,2,3 -> new 0,1,2
            assert r["world"] == [0, 2, 3]
            assert r["total"] == pytest.approx(0.0 + 1.0 + 2.0)
        assert sorted(r["new_rank"] for r in survivors) == [0, 1, 2]


# ---------------------------------------------------------------------- #
# FaultPlan semantics (in-process; on_fire is injectable so nothing dies)
# ---------------------------------------------------------------------- #


class _Fired(Exception):
    def __init__(self, mode, call):
        self.mode = mode
        self.call = call


def _firing_calls(plan, plan_rank, n_calls=200):
    """Call numbers at which the plan fires for ``plan_rank``."""
    fired = []

    comm = SequentialComm()

    def record(mode, hang_seconds):
        fired.append((injector.calls, mode))

    injector = FaultInjector(plan, plan_rank, on_fire=record)
    wrapper = InterceptingComm(comm, [injector])
    for _ in range(n_calls):
        wrapper.barrier()
    return fired


class TestFaultPlan:
    def test_explicit_spec_fires_exactly_once(self):
        plan = FaultPlan.kill(rank=0, at_call=5)
        assert _firing_calls(plan, plan_rank=0) == [(5, "die")]

    def test_spec_matches_world_rank_only(self):
        plan = FaultPlan.kill(rank=2, at_call=5)
        assert _firing_calls(plan, plan_rank=0) == []
        assert _firing_calls(plan, plan_rank=2) == [(5, "die")]

    def test_hang_mode_propagates(self):
        plan = FaultPlan.kill(rank=0, at_call=3, mode="hang")
        assert _firing_calls(plan, plan_rank=0) == [(3, "hang")]

    def test_probabilistic_plan_is_deterministic(self):
        plan = FaultPlan.random(probability=0.05, seed=42)
        first = _firing_calls(plan, plan_rank=1)
        second = _firing_calls(plan, plan_rank=1)
        assert first == second
        assert first  # p=0.05 over 200 calls: fires w.p. ~1 under seed 42

    def test_probabilistic_streams_differ_by_rank(self):
        plan = FaultPlan.random(probability=0.05, seed=42)
        by_rank = {r: _firing_calls(plan, plan_rank=r) for r in range(4)}
        assert len({tuple(v) for v in by_rank.values()}) > 1

    def test_parse_round_trip(self):
        plan = FaultPlan.parse("2@40")
        assert plan.specs == (FaultSpec(2, 40, "die"),)
        plan = FaultPlan.parse("1@25:hang")
        assert plan.specs == (FaultSpec(1, 25, "hang"),)
        plan = FaultPlan.parse("0@10,3@80")
        assert plan.specs == (FaultSpec(0, 10, "die"), FaultSpec(3, 80, "die"))

    def test_parse_rejects_garbage(self):
        for bad in ("", "2", "2@", "x@3", "2@3:explode"):
            with pytest.raises(CommError):
                FaultPlan.parse(bad)

    def test_plan_validation(self):
        with pytest.raises(CommError):
            FaultPlan.kill(rank=0, at_call=0)
        with pytest.raises(CommError):
            FaultPlan.random(probability=1.5, seed=1)
        with pytest.raises(CommError):
            FaultPlan(probability=0.1)  # no seed

    def test_shrink_preserves_plan_identity(self):
        class _ShrinkableStub(SequentialComm):
            def shrink(self, failed):
                return _ShrinkableStub()

        plan = FaultPlan.kill(rank=3, at_call=10)
        wrapper = InterceptingComm(
            _ShrinkableStub(),
            [FaultInjector(plan, 3, on_fire=lambda m, h: None)])
        for _ in range(4):
            wrapper.barrier()
        shrunk = wrapper.shrink(frozenset())
        assert isinstance(shrunk, InterceptingComm)
        (carried,) = shrunk.interceptors
        assert isinstance(carried, FaultInjector)
        assert carried.plan_rank == 3
        assert carried.calls == 4  # later triggers still line up post-shrink
