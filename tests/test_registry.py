"""Persistent run registry + the `repro runs` / `repro watch` surface.

Every launch leaves a manifest under ``.repro_runs/`` (isolated to a
per-test directory by the conftest ``REPRO_RUNS_DIR`` fixture); a bench
snapshot stored alongside puts its metrics in the manifest, and ``repro
runs compare`` reports bench-metric deltas between any two registered
runs.
"""

import json
import time

import pytest

from repro.cli import main
from repro.model.substitution import JC69
from repro.obs.heartbeat import read_heartbeats
from repro.obs.monitor import resolve_monitor_dir
from repro.obs.registry import (
    BENCH_FILENAME,
    RunRegistry,
    compare_runs,
    format_compare_table,
    runs_root,
)
from repro.seq.io_fasta import write_fasta
from repro.seq.simulate import simulate_alignment
from repro.tree.random_trees import yule_tree


@pytest.fixture()
def fasta_path(tmp_path):
    taxa = [f"t{i}" for i in range(8)]
    tree = yule_tree(taxa, rng=1, mean_branch_length=0.15)
    aln = simulate_alignment(tree, JC69(), 300, rng=2)
    path = tmp_path / "data.fasta"
    write_fasta(aln, path)
    return path


def bench_doc(wall=1.0, wait=0.2):
    return {
        "kind": "obs_profile",
        "metrics": {
            "profile.decentralized.wall_s": wall,
            "profile.decentralized.wait_share": wait,
        },
    }


class TestRunRegistry:
    def test_root_resolution_order(self, tmp_path, monkeypatch):
        explicit = runs_root(tmp_path / "explicit")
        assert explicit == tmp_path / "explicit"
        # the conftest fixture sets REPRO_RUNS_DIR; the default follows it
        assert RunRegistry().root == runs_root(None)
        monkeypatch.delenv("REPRO_RUNS_DIR")
        assert runs_root(None).name == ".repro_runs"

    def test_register_update_load_round_trip(self):
        reg = RunRegistry()
        run_id = reg.register({"command": "infer", "engine": "sequential"})
        manifest = reg.load(run_id)
        assert manifest["status"] == "running"
        assert manifest["created"]
        reg.update(run_id, status="completed", result={"logl": -500.5})
        manifest = reg.load(run_id)
        assert manifest["status"] == "completed"
        assert manifest["result"]["logl"] == -500.5
        assert reg.run_ids() == [run_id]

    def test_new_run_ids_never_collide(self):
        # ids are *reserved* by atomically creating their directory, so
        # even two allocations in the same process and second (e.g. two
        # daemon HTTP threads) can never be handed the same id
        reg = RunRegistry()
        first = reg.new_run_id()
        second = reg.new_run_id()
        assert second != first
        assert (reg.root / first).is_dir()
        assert (reg.root / second).is_dir()
        # a reserved-but-unwritten id is invisible to readers
        assert reg.run_ids() == []

    def test_resolve_full_prefix_latest_ambiguous(self):
        reg = RunRegistry()
        a = reg.register({"run_id": "20260101-000000-11"})
        b = reg.register({"run_id": "20260102-000000-22"})
        assert reg.resolve(a) == a
        assert reg.resolve("20260102") == b
        assert reg.resolve("latest") == b
        with pytest.raises(FileNotFoundError, match="ambiguous"):
            reg.resolve("2026")
        with pytest.raises(FileNotFoundError, match="no run matching"):
            reg.resolve("1999")

    def test_resolve_latest_on_empty_registry(self):
        with pytest.raises(FileNotFoundError, match="no runs"):
            RunRegistry().resolve("latest")

    def test_record_bench_stores_metrics_in_manifest(self):
        reg = RunRegistry()
        run_id = reg.register({"command": "profile"})
        path = reg.record_bench(run_id, bench_doc())
        assert path.name == BENCH_FILENAME
        manifest = reg.load(run_id)
        assert manifest["bench_path"] == str(path)
        assert manifest["bench_metrics"]["profile.decentralized.wall_s"] == 1.0

    def test_list_runs_skips_non_run_dirs(self):
        reg = RunRegistry()
        run_id = reg.register({"command": "infer"})
        (reg.root / "stray").mkdir()
        (reg.root / "stray" / "notes.txt").write_text("x")
        assert [m["run_id"] for m in reg.list_runs()] == [run_id]


class TestDurableManifests:
    """An acknowledged run survives a crash: the manifest reaches the disk
    before ``register`` returns, and a failed rewrite leaves the old one."""

    def test_register_fsyncs_the_manifest_and_its_directory(self, tmp_path,
                                                            monkeypatch):
        import os

        reg = RunRegistry(tmp_path / "runs")
        synced = []
        real_fsync = os.fsync

        def recording_fsync(fd):
            synced.append(os.path.realpath(f"/proc/self/fd/{fd}"))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        run_id = reg.register({"command": "infer"})
        run_dir = os.path.realpath(reg.root / run_id)
        # the tmp sibling's data, then the directory holding the rename
        assert synced[-1] == run_dir
        assert synced[-2].startswith(os.path.join(run_dir, "manifest.json.tmp"))

    def test_failed_update_keeps_the_old_manifest(self, tmp_path, monkeypatch):
        import os

        reg = RunRegistry(tmp_path / "runs")
        run_id = reg.register({"command": "infer"})
        before = sorted((reg.root / run_id).iterdir())
        old = (reg.root / run_id / "manifest.json").read_bytes()

        def failing_replace(src, dst):
            raise OSError("disk went away")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError):
            reg.update(run_id, status="completed")
        monkeypatch.undo()
        assert (reg.root / run_id / "manifest.json").read_bytes() == old
        assert sorted((reg.root / run_id).iterdir()) == before
        assert reg.load(run_id)["status"] == "running"


class TestCompareRuns:
    def test_metric_deltas_and_ratios(self):
        reg = RunRegistry()
        a = reg.register({"run_id": "run-a", "status": "completed",
                          "result": {"logl": -100.0}})
        b = reg.register({"run_id": "run-b", "status": "completed",
                          "result": {"logl": -100.0}})
        reg.record_bench(a, bench_doc(wall=2.0, wait=0.4))
        reg.record_bench(b, bench_doc(wall=1.0, wait=0.2))
        comparison = compare_runs(reg, "run-a", "run-b")
        rows = {r["metric"]: r for r in comparison["rows"]}
        wall = rows["profile.decentralized.wall_s"]
        assert wall["a"] == 2.0 and wall["b"] == 1.0
        assert wall["delta"] == -1.0
        assert wall["ratio"] == 0.5
        table = format_compare_table(comparison)
        assert "run-a" in table and "run-b" in table
        assert "profile.decentralized.wall_s" in table
        assert "0.500" in table

    def test_compare_without_bench_records(self):
        reg = RunRegistry()
        reg.register({"run_id": "x1"})
        reg.register({"run_id": "x2"})
        comparison = compare_runs(reg, "x1", "x2")
        assert comparison["rows"] == []
        assert "no bench metrics" in format_compare_table(comparison)


class TestRunsCLI:
    def _seed(self):
        reg = RunRegistry()
        a = reg.register({"run_id": "20260101-000000-1", "command": "infer",
                          "engine": "decentralized", "ranks": 4,
                          "status": "completed",
                          "result": {"logl": -1234.5678}})
        b = reg.register({"run_id": "20260102-000000-2", "command": "profile",
                          "engine": "both", "ranks": 2,
                          "status": "completed"})
        reg.record_bench(a, bench_doc(wall=2.0))
        reg.record_bench(b, bench_doc(wall=1.5))
        return reg, a, b

    def test_list(self, capsys):
        _, a, b = self._seed()
        assert main(["runs", "list"]) == 0
        out = capsys.readouterr().out
        assert a in out and b in out
        assert "-1234.5678" in out
        assert "yes" in out  # bench column

    def test_list_after_a_registered_profile(self, fasta_path, tmp_path,
                                             capsys):
        """``profile`` takes several rank counts and distributions; its
        manifest still lists as one row."""
        assert main(["profile", str(fasta_path), "--engine", "decentralized",
                     "--ranks", "1", "2", "-n", "1", "-r", "1",
                     "--trace-out", str(tmp_path / "trace")]) == 0
        capsys.readouterr()
        assert main(["runs", "list"]) == 0
        (row,) = [ln for ln in capsys.readouterr().out.splitlines()
                  if " profile " in ln]
        assert "decentralized" in row and "1 2" in row

    def test_list_empty(self, capsys):
        assert main(["runs", "list"]) == 0
        assert "no runs under" in capsys.readouterr().err

    def test_show_resolves_tokens(self, capsys):
        _, a, b = self._seed()
        assert main(["runs", "show", "latest"]) == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["run_id"] == b
        with pytest.raises(SystemExit):
            main(["runs", "show", "1999"])

    def test_compare_reports_deltas(self, capsys, tmp_path):
        _, a, b = self._seed()
        out_json = tmp_path / "cmp.json"
        assert main(["runs", "compare", a, b, "--out", str(out_json)]) == 0
        out = capsys.readouterr().out
        assert "profile.decentralized.wall_s" in out
        assert "0.750" in out  # 1.5 / 2.0
        saved = json.loads(out_json.read_text())
        assert saved["a"]["run_id"] == a and saved["b"]["run_id"] == b

    def test_explicit_root_flag(self, capsys, tmp_path):
        other = RunRegistry(tmp_path / "elsewhere")
        other.register({"run_id": "r-other", "command": "infer"})
        assert main(["runs", "--root", str(tmp_path / "elsewhere"),
                     "list"]) == 0
        assert "r-other" in capsys.readouterr().out


class TestInferRegistration:
    def test_sequential_infer_registers_and_finalizes(self, fasta_path,
                                                      tmp_path):
        out = tmp_path / "t.nwk"
        assert main(["infer", str(fasta_path), "-n", "1", "-r", "1",
                     "-o", str(out), "--no-gtr"]) == 0
        reg = RunRegistry()
        (run_id,) = reg.run_ids()
        manifest = reg.load(run_id)
        assert manifest["command"] == "infer"
        assert manifest["engine"] == "sequential"
        assert manifest["status"] == "completed"
        assert isinstance(manifest["result"]["logl"], float)

    def test_no_register_leaves_no_manifest(self, fasta_path, tmp_path):
        assert main(["infer", str(fasta_path), "-n", "1", "-r", "1",
                     "-o", str(tmp_path / "t.nwk"), "--no-gtr",
                     "--no-register"]) == 0
        assert RunRegistry().run_ids() == []

    def test_monitor_rejected_for_sequential(self, fasta_path):
        with pytest.raises(SystemExit):
            main(["infer", str(fasta_path), "--monitor"])


class TestMonitoredInferCLI:
    def test_monitored_run_end_to_end_with_watch(self, fasta_path, tmp_path,
                                                 capsys):
        out = tmp_path / "dec.nwk"
        rc = main(["infer", str(fasta_path), "-n", "2", "-r", "2",
                   "-o", str(out), "--no-gtr",
                   "--engine", "decentralized", "--ranks", "2",
                   "--monitor", "--beat-interval", "0.05"])
        assert rc == 0
        reg = RunRegistry()
        (run_id,) = reg.run_ids()
        manifest = reg.load(run_id)
        assert manifest["status"] == "completed"
        assert manifest["diagnosis"] is None  # clean run: no stall
        mdir = manifest["monitor_dir"]
        assert set(read_heartbeats(mdir)) == {0, 1}
        # `repro watch` resolves run ids, prefixes and `latest` through
        # the registry and exits 0 for a finished (non-stalled) run
        assert resolve_monitor_dir(run_id) == resolve_monitor_dir("latest")
        capsys.readouterr()
        assert main(["watch", "latest", "--once"]) == 0
        watched = capsys.readouterr().out
        assert "[done]" in watched
        assert "rank" in watched

    def test_watch_unmonitored_run_fails_clearly(self, fasta_path, tmp_path):
        assert main(["infer", str(fasta_path), "-n", "1", "-r", "1",
                     "-o", str(tmp_path / "t.nwk"), "--no-gtr"]) == 0
        with pytest.raises(SystemExit, match="--monitor"):
            main(["watch", "latest", "--once"])

    def test_injected_hang_diagnosed_via_cli(self, fasta_path, tmp_path,
                                             capsys):
        """The CI monitor-smoke scenario, in-process: an injected hang is
        named (rank + collective call index) in the diagnosis file and
        the run still recovers and completes."""
        out = tmp_path / "rec.nwk"
        diag_path = tmp_path / "diagnosis.json"
        rc = main(["infer", str(fasta_path), "-n", "2", "-r", "2",
                   "-o", str(out), "--no-gtr",
                   "--engine", "decentralized", "--ranks", "3",
                   "--inject-failure", "1@15:hang",
                   "--detect-timeout", "5.0",
                   "--monitor", "--beat-interval", "0.05",
                   "--straggler-after", "0.5", "--stall-after", "2.0",
                   "--diagnosis-out", str(diag_path)])
        assert rc == 0
        err = capsys.readouterr().err
        assert "recovered" in err
        assert "[monitor] diagnosis:" in err
        diagnosis = json.loads(diag_path.read_text())
        assert diagnosis["status"] == "hung_rank"
        assert diagnosis["culprit"] == 1
        assert diagnosis["call_index"] == 15
        manifest = RunRegistry().load(RunRegistry().resolve("latest"))
        assert manifest["status"] == "completed"
        assert manifest["diagnosis"]["culprit"] == 1
        assert manifest["result"]["recoveries"] == 1
        assert manifest["result"]["failed_ranks"] == [1]


def _hammer_attempts(root, run_id: str, worker: int, n: int) -> None:
    reg = RunRegistry(root)
    for i in range(n):
        reg.record_attempt(run_id, {"worker": worker, "i": i})


class TestManifestLocking:
    def test_concurrent_writers_never_lose_updates(self):
        """8 processes x 20 read-modify-write attempt records on ONE
        manifest; without the per-run advisory lock this interleaves and
        silently drops records (and can tear the JSON mid-rewrite)."""
        import multiprocessing as mp

        reg = RunRegistry()
        run_id = reg.register({"command": "hammer"})
        ctx = mp.get_context("fork")
        procs = [
            ctx.Process(target=_hammer_attempts,
                        args=(reg.root, run_id, w, 20))
            for w in range(8)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=120)
            assert p.exitcode == 0
        manifest = reg.load(run_id)  # also proves the JSON is not torn
        attempts = manifest["attempts"]
        assert len(attempts) == 8 * 20
        seen = {(a["worker"], a["i"]) for a in attempts}
        assert len(seen) == 8 * 20


class TestRunsGc:
    OLD = "2026-01-01T00:00:00"
    FRESH = "2026-01-30T00:00:00"
    NOW = time.mktime(time.strptime("2026-02-01T00:00:00",
                                    "%Y-%m-%dT%H:%M:%S"))

    def seed(self, reg):
        """Two old terminal runs, one fresh terminal, one live each way."""
        for run_id, status, created in [
            ("run-0", "completed", self.OLD),
            ("run-1", "failed", self.OLD),
            ("run-2", "completed", self.FRESH),
            ("run-3", "running", self.OLD),
            ("run-4", "queued", self.OLD),
        ]:
            reg.register({"run_id": run_id, "status": status,
                          "created": created})

    def test_no_bounds_is_a_noop(self):
        reg = RunRegistry()
        self.seed(reg)
        assert reg.gc() == []
        assert len(reg.run_ids()) == 5

    def test_keep_last_spares_newest_terminal_runs(self):
        reg = RunRegistry()
        self.seed(reg)
        pruned = reg.gc(keep_last=2)
        assert pruned == ["run-0"]
        assert not (reg.root / "run-0").exists()
        assert sorted(reg.run_ids()) == ["run-1", "run-2", "run-3",
                                         "run-4"]

    def test_keep_days_prunes_only_old_terminal_runs(self):
        reg = RunRegistry()
        self.seed(reg)
        pruned = reg.gc(keep_days=7.0, now=self.NOW)
        assert pruned == ["run-0", "run-1"]  # fresh run-2 is younger
        assert (reg.root / "run-2").exists()

    def test_live_runs_are_untouchable_regardless_of_age(self):
        reg = RunRegistry()
        self.seed(reg)
        reg.gc(keep_days=0.0, now=self.NOW)  # maximally aggressive
        assert sorted(reg.run_ids()) == ["run-3", "run-4"]

    def test_bounds_compose(self):
        reg = RunRegistry()
        self.seed(reg)
        # keep the newest terminal run, then age-filter the rest
        pruned = reg.gc(keep_days=7.0, keep_last=1, now=self.NOW)
        assert pruned == ["run-0", "run-1"]

    def test_dry_run_reports_without_deleting(self):
        reg = RunRegistry()
        self.seed(reg)
        pruned = reg.gc(keep_last=1, dry_run=True)
        assert pruned == ["run-0", "run-1"]
        assert len(reg.run_ids()) == 5

    def test_cli_runs_gc(self, capsys):
        reg = RunRegistry()
        self.seed(reg)
        with pytest.raises(SystemExit):
            main(["runs", "gc"])  # needs at least one bound
        assert main(["runs", "gc", "--keep-last", "1", "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "would prune" in out and "run-0" in out
        assert main(["runs", "gc", "--keep-days", "0",
                     "--keep-last", "1"]) == 0
        out = capsys.readouterr().out
        assert "pruned" in out
        assert sorted(reg.run_ids()) == ["run-2", "run-3", "run-4"]
