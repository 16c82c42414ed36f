"""Supervisor tests: the escalation ladder over the live engines.

Unit layers first (policy arithmetic, attempt-chain bookkeeping,
recovery-scoped fault triggers); then live multi-process scenarios in
the style of ``test_fault_live.py`` — tier-0 in-mesh recovery, the
quorum boundary (finish at ``min_ranks``, escalate one below), and the
acceptance scenario: a fork-join master death restarted from its latest
checkpoint, bitwise-identical to the undisturbed run.
"""

import numpy as np
import pytest

from repro.datasets import partitioned_workload
from repro.engines.launch import RunConfig, first_survivor, launch
from repro.errors import CommError, MasterLostError
from repro.obs.registry import RunRegistry, format_attempt_chain
from repro.par.comm import InterceptingComm
from repro.par.faultcomm import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
)
from repro.par.seqcomm import SequentialComm
from repro.search.search import SearchConfig
from repro.supervise import (
    TIER_DEGRADE,
    TIER_FAIL,
    TIER_IN_MESH,
    TIER_RESTART,
    RecoveryPolicy,
    Supervisor,
)
from repro.tree.newick import write_newick


@pytest.fixture(scope="module")
def setup():
    wl = partitioned_workload(4, n_taxa=8, sites_per_partition=30)
    lik = wl.build_likelihood("gamma")
    return lik.parts, lik.taxa, write_newick(wl.tree)


# Tight convergence so disturbed and undisturbed searches reach the same
# fixed point (the same contract test_fault_live.py relies on).
CONVERGED = SearchConfig(max_iterations=10, radius_max=2, model_opt=False,
                         epsilon=1e-6, branch_passes=3)
QUICK = SearchConfig(max_iterations=2, radius_max=2, model_opt=False)


def quick_policy(**kw) -> RecoveryPolicy:
    """A policy whose backoffs don't slow the test suite down."""
    kw.setdefault("backoff_base_s", 0.01)
    kw.setdefault("backoff_max_s", 0.05)
    return RecoveryPolicy(**kw)


# ---------------------------------------------------------------------- #
# RecoveryPolicy: pure arithmetic, seeded jitter
# ---------------------------------------------------------------------- #


class TestRecoveryPolicy:
    def test_backoff_is_deterministic_under_a_seed(self):
        pol = RecoveryPolicy()
        assert pol.backoff_s(2, rng=7) == pol.backoff_s(2, rng=7)

    def test_backoff_jitter_stays_in_band(self):
        pol = RecoveryPolicy(backoff_base_s=0.5, backoff_factor=2.0,
                             backoff_max_s=100.0, backoff_jitter=0.5)
        rng = np.random.default_rng(0)
        for retry in range(1, 8):
            raw = 0.5 * 2.0 ** (retry - 1)
            got = pol.backoff_s(retry, rng)
            assert raw <= got <= raw * 1.5

    def test_backoff_caps_at_max(self):
        pol = RecoveryPolicy(backoff_base_s=1.0, backoff_factor=10.0,
                             backoff_max_s=5.0, backoff_jitter=0.0)
        assert pol.backoff_s(4) == 5.0

    def test_backoff_retry_counts_from_one(self):
        with pytest.raises(ValueError, match="retry"):
            RecoveryPolicy().backoff_s(0)

    def test_reduced_ranks_halves_and_floors_at_quorum(self):
        pol = RecoveryPolicy(min_ranks=2, rank_shrink=0.5)
        assert pol.reduced_ranks(8) == 4
        assert pol.reduced_ranks(4) == 2
        assert pol.reduced_ranks(3) == 2  # floor: never below quorum
        assert pol.reduced_ranks(2) == 2

    def test_other_dist_flips_both_ways(self):
        assert RecoveryPolicy.other_dist("cyclic") == "mps"
        assert RecoveryPolicy.other_dist("mps") == "cyclic"

    @pytest.mark.parametrize("bad", [
        {"max_attempts": 0},
        {"min_ranks": 0},
        {"backoff_base_s": -1.0},
        {"backoff_factor": 0.5},
        {"backoff_base_s": 2.0, "backoff_max_s": 1.0},
        {"backoff_jitter": 1.5},
        {"attempt_timeout_s": 0.0},
        {"rank_shrink": 0.0},
    ])
    def test_validation_rejects(self, bad):
        with pytest.raises(ValueError):
            RecoveryPolicy(**bad)


# ---------------------------------------------------------------------- #
# Attempt chains in the run registry
# ---------------------------------------------------------------------- #


class TestAttemptChain:
    def test_record_attempt_appends_and_indexes(self, tmp_path):
        reg = RunRegistry(tmp_path)
        run_id = reg.register({"command": "infer"})
        reg.record_attempt(run_id, {"tier": 0, "engine": "forkjoin",
                                    "ranks": 3, "dist": "cyclic",
                                    "verdict": "master_lost"})
        manifest = reg.record_attempt(
            run_id, {"tier": 1, "engine": "forkjoin", "ranks": 3,
                     "dist": "cyclic", "verdict": "ok"})
        chain = manifest["attempts"]
        assert [a["attempt"] for a in chain] == [0, 1]
        assert [a["verdict"] for a in chain] == ["master_lost", "ok"]

    def test_format_attempt_chain_renders_the_story(self, tmp_path):
        reg = RunRegistry(tmp_path)
        run_id = reg.register({"command": "infer"})
        reg.record_attempt(run_id, {
            "tier": 0, "engine": "decentralized", "ranks": 4,
            "dist": "cyclic", "verdict": "quorum_lost",
            "detail": "QuorumLostError: 2 < 3", "backoff_s": 0.0})
        reg.record_attempt(run_id, {
            "tier": 2, "engine": "decentralized", "ranks": 2,
            "dist": "mps", "verdict": "ok", "backoff_s": 0.12})
        text = format_attempt_chain(reg.load(run_id))
        assert "attempt chain:" in text
        assert "quorum_lost" in text and "QuorumLostError" in text
        assert "mps" in text

    def test_format_attempt_chain_empty_without_attempts(self, tmp_path):
        reg = RunRegistry(tmp_path)
        run_id = reg.register({"command": "infer"})
        assert format_attempt_chain(reg.load(run_id)) == ""


# ---------------------------------------------------------------------- #
# Recovery-scoped fault triggers (in-process, nothing really dies)
# ---------------------------------------------------------------------- #


class _AgreeableComm(SequentialComm):
    def agree(self, failed):
        return frozenset(failed)


class TestRecoveryScopedFaults:
    def _wrap(self, plan, fired):
        return InterceptingComm(_AgreeableComm(), [FaultInjector(
            plan, 0, on_fire=lambda m, h: fired.append(m))])

    def test_recovery_spec_is_silent_during_normal_calls(self):
        fired: list[str] = []
        comm = self._wrap(
            FaultPlan.kill(rank=0, at_call=1, when="recovery"), fired)
        for _ in range(50):
            comm.barrier()
        assert fired == []

    def test_recovery_spec_fires_entering_agreement(self):
        fired: list[str] = []
        comm = self._wrap(
            FaultPlan.kill(rank=0, at_call=1, when="recovery"), fired)
        comm.barrier()
        comm.agree(frozenset({1}))  # recovery call 1
        assert fired == ["die"]

    def test_post_resume_collectives_keep_counting(self):
        fired: list[str] = []
        comm = self._wrap(
            FaultPlan.kill(rank=0, at_call=3, when="recovery"), fired)
        comm.agree(frozenset({1}))  # recovery call 1
        comm.barrier()              # recovery call 2 (post-resume)
        assert fired == []
        comm.barrier()              # recovery call 3
        assert fired == ["die"]

    def test_parse_round_trips_mode_and_scope(self):
        plan = FaultPlan.parse("2@40,1@2:die:recovery")
        assert plan.specs == (
            FaultSpec(2, 40, "die", "any"),
            FaultSpec(1, 2, "die", "recovery"),
        )
        assert FaultPlan.parse(plan.describe()) == plan

    def test_parse_rejects_unknown_scope(self):
        with pytest.raises(CommError, match="scope"):
            FaultPlan.parse("1@2:die:sometimes")


# ---------------------------------------------------------------------- #
# Live: the ladder over real meshes
# ---------------------------------------------------------------------- #


class TestSupervisorLive:
    @pytest.fixture(scope="class")
    def decentral_ref(self, setup):
        parts, taxa, newick = setup
        return launch(RunConfig("decentralized", parts, taxa, newick,
                                n_ranks=4, config=CONVERGED))[0]

    def test_tier0_in_mesh_recovery_suffices(self, setup, decentral_ref,
                                             tmp_path):
        parts, taxa, newick = setup
        sup = Supervisor(quick_policy(), work_dir=tmp_path, rng=0,
                         monitor=False)
        out = sup.run(RunConfig(
            "decentralized", parts, taxa, newick, 4, config=CONVERGED,
            detect_timeout=20.0,
            fault_plan=FaultPlan.kill(rank=2, at_call=25)))
        assert out.ok and out.tier == TIER_IN_MESH
        assert len(out.attempts) == 1 and out.attempts[0].verdict == "ok"
        assert out.result.newick == decentral_ref.newick
        assert out.result.logl == pytest.approx(decentral_ref.logl, abs=1e-8)

    def test_mesh_at_quorum_finishes_in_place(self, setup, decentral_ref,
                                              tmp_path):
        # 4 ranks, quorum 3: one death shrinks to exactly min_ranks —
        # graceful degradation is still allowed to finish.
        parts, taxa, newick = setup
        sup = Supervisor(quick_policy(min_ranks=3), work_dir=tmp_path,
                         rng=0, monitor=False)
        out = sup.run(RunConfig(
            "decentralized", parts, taxa, newick, 4, config=CONVERGED,
            detect_timeout=20.0,
            fault_plan=FaultPlan.kill(rank=2, at_call=25)))
        assert out.ok and out.tier == TIER_IN_MESH
        assert len(out.attempts) == 1
        assert out.result.newick == decentral_ref.newick

    def test_below_quorum_escalates_to_degraded_restart(self, setup,
                                                        decentral_ref,
                                                        tmp_path):
        # 3 ranks, quorum 3: the shrink would leave 2 — tier 2 restart
        # at the quorum floor with the other distribution, resumed from
        # the supervisor's forced checkpoint.
        parts, taxa, newick = setup
        reg = RunRegistry(tmp_path / "runs")
        run_id = reg.register({"command": "infer"})
        sup = Supervisor(quick_policy(min_ranks=3), work_dir=tmp_path,
                         registry=reg, run_id=run_id, rng=0, monitor=False)
        out = sup.run(RunConfig(
            "decentralized", parts, taxa, newick, 3, config=CONVERGED,
            detect_timeout=20.0,
            fault_plan=FaultPlan.kill(rank=1, at_call=25)))
        assert out.ok and out.tier == TIER_DEGRADE
        first, second = out.attempts
        assert first.verdict == "quorum_lost"
        assert second.ranks == 3  # reduced_ranks floors at the quorum
        assert second.dist == "mps"
        assert out.result.newick == decentral_ref.newick
        assert out.result.logl == pytest.approx(decentral_ref.logl, abs=1e-8)
        # the whole story landed in the registry manifest
        manifest = reg.load(run_id)
        assert [a["verdict"] for a in manifest["attempts"]] == [
            "quorum_lost", "ok"]
        assert manifest["supervised"]["final_tier"] == TIER_DEGRADE
        assert "quorum_lost" in format_attempt_chain(manifest)


class TestForkJoinMasterDeath:
    @pytest.fixture(scope="class")
    def forkjoin_ref(self, setup):
        parts, taxa, newick = setup
        return first_survivor(launch(RunConfig("forkjoin", parts, taxa, newick,
                                               n_ranks=3, config=CONVERGED)))

    @pytest.fixture(scope="class")
    def late_kill(self, forkjoin_ref):
        """A master call number past the first periodic checkpoint (the
        search checkpoints every iteration; 70% in is deep mid-search)."""
        return int(0.7 * sum(forkjoin_ref.calls_by_tag.values()))

    def test_master_loss_is_typed_and_names_the_checkpoint(
            self, setup, forkjoin_ref, late_kill, tmp_path):
        parts, taxa, newick = setup
        config = SearchConfig(
            max_iterations=10, radius_max=2, model_opt=False,
            epsilon=1e-6, branch_passes=3, checkpoint_every=1,
            checkpoint_path=str(tmp_path / "state.ckpt"))
        with pytest.raises(MasterLostError) as excinfo:
            launch(RunConfig("forkjoin", parts, taxa, newick, n_ranks=3,
                             config=config,
                             fault_plan=FaultPlan.kill(rank=0,
                                                       at_call=late_kill)))
        err = excinfo.value
        assert err.checkpoint is not None and err.checkpoint.endswith(".npz")
        assert (tmp_path / "state.ckpt.npz").exists()
        assert 0 in err.failed_ranks

    def test_tier1_restart_resumes_from_checkpoint_bitwise(
            self, setup, forkjoin_ref, late_kill, tmp_path):
        # The acceptance scenario: kill the master mid-search, let the
        # supervisor restart from the checkpoint it forced — the result
        # must match the undisturbed run exactly.
        parts, taxa, newick = setup
        sup = Supervisor(quick_policy(), work_dir=tmp_path, rng=7,
                         monitor=False)
        out = sup.run(RunConfig(
            "forkjoin", parts, taxa, newick, 3, config=CONVERGED,
            fault_plan=FaultPlan.kill(rank=0, at_call=late_kill)))
        assert out.ok and out.tier == TIER_RESTART
        first, second = out.attempts
        assert first.verdict == "master_lost"
        assert second.resumed_from is not None  # not a from-scratch redo
        assert out.result.newick == forkjoin_ref.newick
        assert out.result.logl == pytest.approx(forkjoin_ref.logl, abs=1e-8)


# ---------------------------------------------------------------------- #
# Checkpoint/restart equivalence, mid-search, both engines
# ---------------------------------------------------------------------- #


class TestMidSearchRestartEquivalence:
    """A search stopped between SPR rounds and resumed from its
    checkpoint converges to the same tree and logL as one that never
    stopped — the property every tier-1/tier-2 restart leans on."""

    def _truncated(self, ckpt) -> SearchConfig:
        return SearchConfig(max_iterations=2, radius_max=2,
                            model_opt=False, epsilon=1e-6,
                            branch_passes=3, checkpoint_every=1,
                            checkpoint_path=str(ckpt))

    def test_forkjoin_resume_matches_uninterrupted(self, setup, tmp_path):
        parts, taxa, newick = setup
        ref = first_survivor(launch(RunConfig("forkjoin", parts, taxa, newick,
                                              n_ranks=2, config=CONVERGED)))
        ckpt = tmp_path / "fj.ckpt"
        launch(RunConfig("forkjoin", parts, taxa, newick, n_ranks=2,
                         config=self._truncated(ckpt)))
        resumed = first_survivor(launch(RunConfig(
            "forkjoin", parts, taxa, newick, n_ranks=2, config=CONVERGED,
            resume_from=str(ckpt) + ".npz")))
        assert resumed.newick == ref.newick
        assert resumed.logl == pytest.approx(ref.logl, abs=1e-8)

    def test_decentralized_resume_matches_uninterrupted(self, setup,
                                                        tmp_path):
        parts, taxa, newick = setup
        ref = launch(RunConfig("decentralized", parts, taxa, newick, n_ranks=2,
                               config=CONVERGED))[0]
        ckpt = tmp_path / "dc.ckpt"
        launch(RunConfig("decentralized", parts, taxa, newick, n_ranks=2,
                         config=self._truncated(ckpt)))
        resumed = launch(RunConfig("decentralized", parts, taxa, newick,
                                   n_ranks=2, config=CONVERGED,
                                   resume_from=str(ckpt) + ".npz"))[0]
        assert resumed.newick == ref.newick
        assert resumed.logl == pytest.approx(ref.logl, abs=1e-8)
