"""Chaos-campaign tests: seeded schedules and the supervision invariant.

Schedule generation is pure arithmetic over a seeded stream — those
tests are instant.  The live campaign at the end is deliberately small
(CI runs the bigger one through ``repro chaos``): every run must end
bitwise-identical to the undisturbed reference or fail cleanly at
tier 3 — never hang, never return a partial result.
"""

import json

import pytest

from repro.datasets import partitioned_workload
from repro.engines.launch import RunConfig
from repro.obs.registry import RunRegistry
from repro.par.faultcomm import MODE_DIE, MODE_HANG, WHEN_RECOVERY
from repro.rng import ensure_rng
from repro.search.search import SearchConfig
from repro.supervise.chaos import (
    DEFAULT_LOGL_TOL,
    REPORT_FILENAME,
    ChaosReport,
    ChaosRun,
    generate_schedule,
    run_campaign,
)
from repro.supervise.policy import RecoveryPolicy
from repro.tree.newick import write_newick


class TestScheduleGeneration:
    def test_same_seed_same_schedule(self):
        a = generate_schedule(ensure_rng(11), n_ranks=4)
        b = generate_schedule(ensure_rng(11), n_ranks=4)
        assert a == b

    def test_seeds_draw_different_schedules(self):
        plans = {generate_schedule(ensure_rng(s), n_ranks=4).describe()
                 for s in range(20)}
        assert len(plans) > 10

    def test_lethal_faults_capped_at_ranks_minus_one(self):
        for seed in range(100):
            plan = generate_schedule(ensure_rng(seed), n_ranks=3,
                                     max_faults=5)
            lethal = sum(1 for s in plan.specs
                         if s.mode in (MODE_DIE, MODE_HANG))
            assert lethal <= 2

    def test_single_rank_mesh_only_draws_stragglers(self):
        for seed in range(30):
            plan = generate_schedule(ensure_rng(seed), n_ranks=1)
            assert all(s.mode == "slow" for s in plan.specs)

    def test_recovery_scoped_faults_target_the_repair_window(self):
        saw_recovery = False
        for seed in range(200):
            plan = generate_schedule(ensure_rng(seed), n_ranks=4,
                                     max_faults=3)
            for spec in plan.specs:
                if spec.when == WHEN_RECOVERY:
                    saw_recovery = True
                    assert 1 <= spec.at_call <= 4
        assert saw_recovery  # ~0.3 per follow-up draw: 200 seeds suffice

    def test_one_fault_per_rank_and_scope(self):
        for seed in range(50):
            plan = generate_schedule(ensure_rng(seed), n_ranks=2,
                                     max_faults=5)
            keys = [(s.rank, s.when) for s in plan.specs]
            assert len(keys) == len(set(keys))


class TestReportShape:
    def _run(self, ok, matched=None, clean=None, tier=0):
        return ChaosRun(index=0, schedule="1@5", ok=ok, matched=matched,
                        clean_failure=clean, tier=tier, attempts=1,
                        verdict="ok" if ok else "comm_error")

    def test_invariant_held_definitions(self):
        assert self._run(ok=True, matched=True).invariant_held
        assert not self._run(ok=True, matched=False).invariant_held
        assert self._run(ok=False, clean=True, tier=3).invariant_held
        assert not self._run(ok=False, clean=False, tier=3).invariant_held

    def test_report_serializes_and_formats(self):
        report = ChaosReport(seed=1, engine="decentralized", n_ranks=3,
                             dist_kind="cyclic", reference_logl=-12.5,
                             reference_newick="(a,b);")
        report.runs.append(self._run(ok=True, matched=True))
        d = report.to_dict()
        assert d["ok"] and d["n_runs"] == 1 and d["n_recovered"] == 1
        table = report.format_table()
        assert "recovered" in table and "VIOLATION" not in table

    def test_hang_must_stay_under_detection(self):
        with pytest.raises(ValueError, match="hang_seconds"):
            run_campaign(RunConfig("decentralized", [], [], "();", 3,
                                   detect_timeout=6.0), hang_seconds=6.0)


class TestLiveCampaign:
    @pytest.fixture(scope="class")
    def mini_campaign(self, tmp_path_factory):
        wl = partitioned_workload(2, n_taxa=8, sites_per_partition=30)
        lik = wl.build_likelihood("gamma")
        out = tmp_path_factory.mktemp("chaos")
        report = run_campaign(
            RunConfig("decentralized", lik.parts, lik.taxa,
                      write_newick(wl.tree), 2,
                      config=SearchConfig(max_iterations=10, radius_max=2,
                                          model_opt=False, epsilon=1e-6,
                                          branch_passes=3),
                      detect_timeout=6.0),
            n_runs=3, seed=5,
            policy=RecoveryPolicy(max_attempts=3, backoff_base_s=0.01,
                                  backoff_max_s=0.05,
                                  attempt_timeout_s=120.0),
            out_dir=out, max_faults=2, hang_seconds=2.0,
        )
        return report, out

    def test_invariant_holds_on_every_run(self, mini_campaign):
        report, _ = mini_campaign
        assert report.ok, report.violations
        assert len(report.runs) == 3
        assert all(r.invariant_held for r in report.runs)

    def test_recovered_runs_are_bitwise_identical(self, mini_campaign):
        report, _ = mini_campaign
        recovered = [r for r in report.runs if r.ok]
        assert recovered  # seeded: at least one run survives its faults
        for r in recovered:
            assert r.matched
            assert abs(r.logl - report.reference_logl) <= DEFAULT_LOGL_TOL

    def test_report_and_manifests_land_on_disk(self, mini_campaign):
        report, out = mini_campaign
        payload = json.loads((out / REPORT_FILENAME).read_text())
        assert payload["kind"] == "chaos_campaign"
        assert payload["n_runs"] == 3
        registry = RunRegistry(out / "runs")
        for run in report.runs:
            manifest = registry.load(run.run_id)
            assert manifest["fault_schedule"] == run.schedule
            assert len(manifest["attempts"]) == run.attempts
