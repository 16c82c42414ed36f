"""replicheck's project call graph, the concurrency rule pack, rule
selection, SARIF export, and the serve-layer regression fixes the
concurrency rules motivated.

The headline acceptance test is :class:`TestInterprocedural`: a
rank-dependent branch in one module reaching a collective two modules
away, where no single file violates R003 on its own, is caught by the
project analyzer (``analyze_paths``).
"""

from __future__ import annotations

import json
import signal
import textwrap
import threading
from collections import Counter
from pathlib import Path

import pytest

from repro.analysis import RULES, analyze_paths, to_sarif
from repro.cli import main
from repro.model.substitution import JC69
from repro.seq.io_fasta import write_fasta
from repro.seq.simulate import simulate_alignment
from repro.serve import JobSpec, JobStore, ServeDaemon, presize
from repro.serve.scheduler import PendingJob
from repro.tree.random_trees import yule_tree

FIXTURES = Path(__file__).parent / "fixtures" / "replicheck"
INTERPROC = FIXTURES / "interproc"
NEW_RULES = ["R006", "R007", "R008", "R009", "R010", "R011"]


def project_of(source: str, tmp_path: Path, name: str = "mod.py"):
    """Write ``source`` to ``tmp_path/name`` and run the project analyzer
    on that one file."""
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return analyze_paths([path])


# --------------------------------------------------------------------- #
# the cross-module call-chain acceptance fixture
# --------------------------------------------------------------------- #
class TestInterprocedural:
    def test_v2_project_analysis_catches_it(self):
        report = analyze_paths([INTERPROC])
        assert [f.rule for f in report.findings] == ["R003"]
        finding = report.findings[0]
        assert finding.path.endswith("driver.py")
        # the message names the collective resolved through the chain
        assert "bcast" in finding.message

    def test_finding_anchors_at_the_rank_branch(self):
        report = analyze_paths([INTERPROC])
        finding = report.findings[0]
        line = (INTERPROC / "driver.py").read_text().splitlines()[
            finding.line - 1]
        assert "comm.rank" in line


# --------------------------------------------------------------------- #
# the concurrency pack fixture matrix
# --------------------------------------------------------------------- #
class TestConcurrencyFixtures:
    @pytest.mark.parametrize("rule", NEW_RULES)
    def test_good_fixture_is_clean(self, rule):
        report = analyze_paths([FIXTURES / f"good_{rule.lower()}.py"])
        assert report.findings == [], [f.format() for f in report.findings]

    @pytest.mark.parametrize("rule", NEW_RULES)
    def test_suppressed_fixture_is_justified_and_used(self, rule):
        report = analyze_paths([FIXTURES / f"suppressed_{rule.lower()}.py"])
        assert report.findings == []
        assert len(report.suppressed) >= 1
        assert all(f.rule == rule for f in report.suppressed)
        assert report.unjustified_suppressions == []
        assert report.unused_suppressions == []


class TestR006:
    def test_chain_finding_names_the_intermediate(self):
        report = analyze_paths([FIXTURES / "bad_r006.py"])
        chained = [f for f in report.findings if "via" in f.message]
        assert chained and "_reduce_step" in chained[0].message


class TestR007:
    def test_callee_held_only_under_lock_is_not_flagged(self, tmp_path):
        # good_r007's _bump covers the positive case; this is the
        # negative: the same helper with one unlocked call site demotes
        # it from the held set and the unprotected write is reported.
        report = project_of("""
            import threading

            class C:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.n = 0

                def locked(self):
                    with self._lock:
                        self._bump()

                def unlocked(self):
                    self._bump()

                def _bump(self):
                    self.n += 1
        """, tmp_path)
        assert [f.rule for f in report.findings] == ["R007"]


class TestR008:
    def test_finding_names_the_inverting_function(self):
        report = analyze_paths([FIXTURES / "bad_r008.py"])
        messages = {f.message for f in report.findings}
        assert any("backward" in m for m in messages)
        assert any("forward" in m for m in messages)

    def test_flock_vs_threading_lock_order(self, tmp_path):
        report = project_of("""
            import contextlib
            import fcntl
            import threading

            _STATE_LOCK = threading.Lock()

            @contextlib.contextmanager
            def _file_lock(fd):
                fcntl.flock(fd, fcntl.LOCK_EX)
                yield

            def stamp(fd):
                with _STATE_LOCK:
                    with _file_lock(fd):
                        pass

            def publish(fd):
                with _file_lock(fd):
                    with _STATE_LOCK:
                        pass
        """, tmp_path)
        r008 = [f for f in report.findings if f.rule == "R008"]
        assert len(r008) == 2
        assert any("flock" in f.message for f in r008)


class TestR009:
    def test_blocking_via_call_chain(self, tmp_path):
        report = project_of("""
            import time
            import threading

            _LOCK = threading.Lock()

            def _settle():
                time.sleep(1)

            def tick():
                with _LOCK:
                    _settle()
        """, tmp_path)
        assert [f.rule for f in report.findings] == ["R009"]
        assert "via" in report.findings[0].message
        assert "_settle" in report.findings[0].message


class TestR010:
    def test_durable_token_from_function_name(self, tmp_path):
        report = project_of("""
            import json

            def save_checkpoint(state, out):
                out.write_text(json.dumps(state))
        """, tmp_path)
        assert [f.rule for f in report.findings] == ["R010"]


class TestR011:
    def test_transitive_unsafety_is_reported_with_the_chain(self, tmp_path):
        report = project_of("""
            import signal

            def _notify():
                print("bye")

            def _on_term(signum, frame):
                _notify()

            signal.signal(signal.SIGTERM, _on_term)
        """, tmp_path)
        assert [f.rule for f in report.findings] == ["R011"]
        assert "_notify" in report.findings[0].message


# --------------------------------------------------------------------- #
# select, exclude, order-safe
# --------------------------------------------------------------------- #
class TestProfiles:
    def test_inactive_rule_suppressions_leave_hygiene_alone(self):
        # a run selecting only the replica rules must not call
        # suppressed_r009's pragma "unused": its rule is not being checked
        report = analyze_paths(
            [FIXTURES / "suppressed_r009.py"],
            select=frozenset({"R001", "R002", "R003", "R004", "R005",
                              "R006"}))
        assert report.findings == []
        assert report.unused_suppressions == []

    def test_select_restricts_rules(self):
        report = analyze_paths([FIXTURES / "bad_r002.py"],
                               select=frozenset({"R005"}))
        assert report.findings == []

    def test_exclude_prunes_subtrees(self):
        full = analyze_paths([FIXTURES])
        pruned = analyze_paths([FIXTURES],
                               exclude=(str(FIXTURES / "interproc"),))
        assert pruned.files_scanned == full.files_scanned - 3
        assert not any(f.path.endswith("driver.py")
                       for f in pruned.findings)

    def test_order_safe_allowlist(self, tmp_path):
        code = """
            def digest(items):
                return hash(tuple(items))

            def support(splits: set):
                return digest(list(splits))
        """
        flagged = project_of(code, tmp_path)
        assert [f.rule for f in flagged.findings] == ["R002"]
        ok = analyze_paths([tmp_path / "mod.py"],
                           order_safe=frozenset({"digest"}))
        assert ok.findings == []


class TestLintCLIv2:
    @pytest.mark.parametrize("select", ["R099", ","])
    def test_select_flag_rejects_unknown_rule(self, select, capsys):
        # a usage error (2), not a failing gate (1) nor a run of every rule
        with pytest.raises(SystemExit) as exc:
            main(["lint", str(FIXTURES / "good_clean.py"),
                  "--select", select])
        assert exc.value.code == 2
        assert "--select" in capsys.readouterr().err

    def test_sarif_out_writes_artifact(self, tmp_path, capsys):
        out = tmp_path / "findings.sarif"
        main(["lint", str(FIXTURES / "bad_r010.py"),
              "--sarif-out", str(out)])
        log = json.loads(out.read_text())
        assert log["version"] == "2.1.0"
        assert log["runs"][0]["tool"]["driver"]["name"] == "replicheck"
        assert {r["ruleId"] for run in log["runs"]
                for r in run["results"]} == {"R010"}


# --------------------------------------------------------------------- #
# SARIF structure + schema validation
# --------------------------------------------------------------------- #
class TestSarif:
    def full_report(self, tmp_path):
        return project_of(
            "import random\n"
            "random.shuffle([])\n"
            "random.random()\n"
            "random.vonmisesvariate(0, 1)"
            "  # replicheck: ignore[R001] -- demo\n", tmp_path)

    def test_structure_covers_all_finding_classes(self, tmp_path):
        report = self.full_report(tmp_path)
        assert report.findings and report.suppressed
        log = to_sarif(report, RULES)
        results = log["runs"][0]["results"]
        assert len(results) == 3
        kinds = Counter(
            r["suppressions"][0]["kind"] if "suppressions" in r else "new"
            for r in results)
        assert kinds == {"new": 2, "inSource": 1}
        for r in results:
            assert r["ruleId"] in RULES
            assert r["level"] in ("warning", "error")
            region = r["locations"][0]["physicalLocation"]["region"]
            assert region["startLine"] >= 1
            assert region["startColumn"] >= 1
            assert r["partialFingerprints"]["replicheck/v1"]

    def test_rule_catalog_is_embedded(self, tmp_path):
        log = to_sarif(self.full_report(tmp_path), RULES)
        rules = log["runs"][0]["tool"]["driver"]["rules"]
        assert [r["id"] for r in rules] == sorted(RULES)
        assert all(r["shortDescription"]["text"] for r in rules)

    def test_validates_against_sarif_schema(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads(
            (Path(__file__).parent / "fixtures"
             / "sarif-2.1.0-trimmed.schema.json").read_text())
        log = to_sarif(self.full_report(tmp_path), RULES)
        jsonschema.validate(instance=log, schema=schema)
        # and a run over the live fixture corpus validates too
        jsonschema.validate(
            instance=to_sarif(analyze_paths([FIXTURES]), RULES),
            schema=schema)


# --------------------------------------------------------------------- #
# suppression hygiene + fingerprints under the new rules
# --------------------------------------------------------------------- #
class TestNewRuleHygiene:
    def test_unjustified_new_rule_pragma_is_reported(self, tmp_path):
        report = project_of("""
            import threading

            _LOCK = threading.Lock()

            def locked_sync(comm, x):
                with _LOCK:
                    return comm.allreduce(x, tag="a")  # replicheck: ignore[R006]
        """, tmp_path)
        assert report.findings == []
        assert len(report.suppressed) == 1
        assert len(report.unjustified_suppressions) == 1

    def test_fingerprints_stable_under_line_shifts(self, tmp_path):
        path = tmp_path / "svc.py"
        body = (
            "import threading\n"
            "\n"
            "\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.n = 0\n"
            "\n"
            "    def locked(self):\n"
            "        with self._lock:\n"
            "            self.n = 1\n"
            "\n"
            "    def racy(self):\n"
            "        self.n = 2\n"
        )
        path.write_text(body)
        first = analyze_paths([path])
        path.write_text("# moved\n# down\n\n" + body)
        second = analyze_paths([path])
        assert [f.rule for f in first.findings] == ["R007"]
        assert first.findings[0].fingerprint == second.findings[0].fingerprint
        assert first.findings[0].line != second.findings[0].line


# --------------------------------------------------------------------- #
# serve-layer regressions the new rules flagged
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def small_fasta(tmp_path_factory) -> Path:
    taxa = [f"t{i}" for i in range(6)]
    tree = yule_tree(taxa, rng=3, mean_branch_length=0.2)
    aln = simulate_alignment(tree, JC69(), 120, rng=4)
    path = tmp_path_factory.mktemp("replicheck_serve") / "aln.fasta"
    write_fasta(aln, path)
    return path


def queue_job(store: JobStore, fasta: Path) -> str:
    spec = JobSpec.from_dict({"alignment": str(fasta)})
    return store.submit(spec, presize(spec), ranks=1)


class DummyProc:
    def __init__(self, returncode=None):
        self.pid = 4242
        self.signals: list[int] = []
        self._rc = returncode

    def poll(self):
        return self._rc

    def send_signal(self, sig):
        self.signals.append(sig)


class TestServeRegressions:
    def test_cancel_of_queued_job_also_stamps_cancel_requested(
            self, small_fasta):
        store = JobStore()
        job_id = queue_job(store, small_fasta)
        assert store.request_cancel(job_id) == "cancelled"
        q = store.load(job_id)["queue"]
        assert q["state"] == "cancelled"
        assert q["cancel_requested"] is True

    def test_mark_running_preserves_cancel_requested(self, small_fasta):
        # the daemon's grant raced a cancel: the stamp must survive the
        # queue-block rewrite so the launch path's re-check sees it
        store = JobStore()
        job_id = queue_job(store, small_fasta)
        store.request_cancel(job_id)
        store.mark_running(job_id, ranks=1, start_seq=1)
        assert store.load(job_id)["queue"]["cancel_requested"] is True

    def test_cancel_landing_during_launch_still_signals_the_child(
            self, small_fasta, monkeypatch):
        daemon = ServeDaemon(log=lambda msg: None)
        job_id = queue_job(daemon.store, small_fasta)
        proc = DummyProc()
        monkeypatch.setattr(
            "repro.serve.daemon.subprocess.Popen",
            lambda *a, **k: proc)
        real_mark = daemon.store.mark_running

        def racing_mark(jid, ranks, start_seq, **stamps):
            real_mark(jid, ranks, start_seq, **stamps)
            # the cancel arrives after the job went "running" but
            # before the daemon registered the child process
            assert daemon.store.request_cancel(jid) == "cancelling"

        monkeypatch.setattr(daemon.store, "mark_running", racing_mark)
        grant = PendingJob(job_id=job_id, ranks=1, tenant="default",
                           priority=0, submitted_s=0.0, seq=0)
        daemon._launch(grant)
        assert proc.signals == [signal.SIGTERM]
        assert job_id in daemon._children

    def test_launch_skips_jobs_cancelled_before_the_grant(
            self, small_fasta, monkeypatch):
        daemon = ServeDaemon(log=lambda msg: None)
        job_id = queue_job(daemon.store, small_fasta)
        daemon.store.request_cancel(job_id)

        def boom(*a, **k):
            raise AssertionError("must not launch a cancelled job")

        monkeypatch.setattr("repro.serve.daemon.subprocess.Popen", boom)
        grant = PendingJob(job_id=job_id, ranks=1, tenant="default",
                           priority=0, submitted_s=0.0, seq=0)
        daemon._launch(grant)
        assert job_id not in daemon._children

    def test_reap_finalizes_without_holding_the_daemon_lock(
            self, small_fasta, monkeypatch):
        daemon = ServeDaemon(log=lambda msg: None)
        job_id = queue_job(daemon.store, small_fasta)
        daemon.store.mark_running(job_id, ranks=1, start_seq=1)
        with daemon._lock:
            daemon._children[job_id] = DummyProc(returncode=0)
            daemon._child_ranks[job_id] = 1
            daemon._child_tenants[job_id] = "default"

        entered = threading.Event()
        release = threading.Event()
        real_stamp = daemon.store.stamp_queue

        def slow_stamp(jid, **stamps):
            entered.set()
            assert release.wait(timeout=10)
            real_stamp(jid, **stamps)

        monkeypatch.setattr(daemon.store, "stamp_queue", slow_stamp)
        reaper = threading.Thread(target=daemon._reap, daemon=True)
        reaper.start()
        try:
            assert entered.wait(timeout=10)
            # registry finalization is mid-flight; the daemon lock must
            # be free so HTTP threads keep answering
            acquired = daemon._lock.acquire(timeout=2)
            assert acquired, "daemon lock held across reap-path I/O"
            daemon._lock.release()
        finally:
            release.set()
            reaper.join(timeout=10)
        assert not reaper.is_alive()
        assert daemon.store.load(job_id)["status"] == "failed"

    def test_drain_only_sets_the_event(self):
        calls: list[str] = []
        daemon = ServeDaemon(log=calls.append)
        daemon.drain()
        assert daemon._draining.is_set()
        assert calls == []  # async-signal-safe: no logging in the handler
        daemon._drain_log_once()
        daemon._drain_log_once()
        assert len(calls) == 1  # the run loop logs it, exactly once
