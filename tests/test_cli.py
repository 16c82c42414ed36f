"""CLI tests (argument parsing + end-to-end command runs)."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.errors import NewickError
from repro.seq.io_fasta import read_fasta, write_fasta
from repro.seq.simulate import simulate_alignment
from repro.model.substitution import JC69
from repro.tree.random_trees import yule_tree
from repro.tree.newick import parse_newick


@pytest.fixture()
def fasta_path(tmp_path):
    taxa = [f"t{i}" for i in range(8)]
    tree = yule_tree(taxa, rng=1, mean_branch_length=0.15)
    aln = simulate_alignment(tree, JC69(), 300, rng=2)
    path = tmp_path / "data.fasta"
    write_fasta(aln, path)
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_infer_defaults(self, fasta_path):
        args = build_parser().parse_args(["infer", str(fasta_path)])
        assert args.model == "gamma"
        assert not args.per_partition_branches

    def test_verbs(self):
        """One traced-run verb: ``profile`` reads each run three ways."""
        sub = next(a for a in build_parser()._actions
                   if a.dest == "command")
        assert sorted(sub.choices) == sorted([
            "infer", "simulate", "convert", "report", "profile", "lint",
            "chaos", "watch", "serve", "submit", "status", "cancel", "slo",
            "runs"])

    def test_minus_m_flag(self, fasta_path):
        args = build_parser().parse_args(["infer", str(fasta_path), "-M"])
        assert args.per_partition_branches

    @pytest.mark.parametrize("verb, flag, value, extra", [
        ("infer", "--detect-timeout", "0", []),
        ("infer", "--detect-timeout", "-1", []),
        ("infer", "--beat-interval", "-1", ["--monitor"]),
        ("infer", "--max-attempts", "0", ["--supervise"]),
        ("infer", "--min-ranks", "0", ["--supervise"]),
        ("infer", "--backoff", "-1", ["--supervise"]),
        ("infer", "--attempt-timeout", "-5", ["--supervise"]),
        ("infer", "--straggler-after", "-1", ["--monitor"]),
        ("profile", "--ranks", "0", []),
        ("chaos", "--max-attempts", "0", []),
        ("chaos", "--min-ranks", "0", []),
        ("chaos", "--attempt-timeout", "0", []),
        ("chaos", "--detect-timeout", "-1", []),
    ])
    def test_out_of_range_number_is_a_usage_error(self, fasta_path, tmp_path,
                                                  capsys, verb, flag, value,
                                                  extra):
        """A number outside its flag's range stops the parse (exit 2) with
        a message naming the flag, before any rank is started."""
        common = {"infer": ["--engine", "decentralized", "--no-register"],
                  "profile": ["--no-register"],
                  "chaos": ["--runs", "1", "--out", str(tmp_path / "out")]}
        with pytest.raises(SystemExit) as exc:
            main([verb, str(fasta_path), "-n", "1", "-r", "1", *common[verb],
                  *extra, flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}: {value} is not" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["1.5", "2"])
    def test_chaos_detect_timeout_must_exceed_the_slow_fault(self, tmp_path,
                                                            capsys, value):
        """A chaos timeout at or under the drawn faults' sleep would count
        every benign straggler as a dead rank: a usage error naming the
        floor, raised before the campaign's reference run."""
        from repro.supervise.chaos import SLOW_FAULT_SECONDS

        with pytest.raises(SystemExit) as exc:
            main(["chaos", "--runs", "1", "--out", str(tmp_path / "out"),
                  "--detect-timeout", value])
        assert exc.value.code == 2
        assert (f"argument --detect-timeout: {value} is not > "
                f"{SLOW_FAULT_SECONDS}") in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestInfer:
    def test_writes_valid_tree(self, fasta_path, tmp_path):
        out = tmp_path / "tree.nwk"
        rc = main(["infer", str(fasta_path), "-n", "2", "-r", "2",
                   "-o", str(out), "--no-gtr"])
        assert rc == 0
        tree = parse_newick(out.read_text())
        assert tree.n_taxa == 8

    def test_checkpoint_and_resume(self, fasta_path, tmp_path):
        ckpt = tmp_path / "state.npz"
        out1 = tmp_path / "t1.nwk"
        main(["infer", str(fasta_path), "-n", "1", "-r", "1",
              "-o", str(out1), "--checkpoint", str(ckpt), "--no-gtr"])
        assert ckpt.exists()
        out2 = tmp_path / "t2.nwk"
        rc = main(["infer", str(fasta_path), "-n", "1", "-r", "1",
                   "-o", str(out2), "--resume", str(ckpt), "--no-gtr"])
        assert rc == 0
        assert parse_newick(out2.read_text()).n_taxa == 8

    def test_partitioned_run(self, fasta_path, tmp_path):
        part_file = tmp_path / "parts.txt"
        part_file.write_text("DNA, g1 = 1-150\nDNA, g2 = 151-300\n")
        out = tmp_path / "tree.nwk"
        rc = main(["infer", str(fasta_path), "-q", str(part_file),
                   "-n", "1", "-r", "1", "-o", str(out), "--no-gtr", "-M"])
        assert rc == 0


    def test_typed_error_is_one_line(self, fasta_path, tmp_path):
        """``python -m repro`` reports a typed error in one line with exit
        status 1 (what the serve daemon records); in process it stays an
        exception."""
        start = tmp_path / "neg.nwk"
        start.write_text("((t0:-1,t1:0.1):0.1,t2:0.1,(t3:0.1,t4:0.1):0.1);")
        args = ["infer", str(fasta_path), "-t", str(start), "-n", "1",
                "--no-register"]
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *args], capture_output=True,
            text=True, timeout=120, cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            "repro: error: NewickError: negative branch length"]
        with pytest.raises(NewickError, match="negative branch length"):
            main(args)

    @pytest.mark.parametrize("argv,error", [
        (["infer", "{missing}"], "AlignmentError"),
        (["convert", "{missing}", "out.phy"], "AlignmentError"),
        (["profile", "{missing}", "--no-register"], "AlignmentError"),
        (["infer", "{fasta}", "-q", "{missing}"], "AlignmentError"),
        (["infer", "{fasta}", "-t", "{missing}"], "NewickError"),
    ], ids=["infer", "convert", "profile", "partitions", "tree"])
    def test_missing_input_is_typed_error(self, fasta_path, tmp_path,
                                          monkeypatch, capsys, argv, error):
        """An input file that is not there is one ``repro: error:`` line
        naming it, not an ``OSError`` traceback."""
        from repro.__main__ import run

        missing = tmp_path / "missing"
        argv = [a.format(missing=missing, fasta=fasta_path) for a in argv]
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(sys, "argv", ["repro", *argv])
        assert run() == 1
        assert capsys.readouterr().err.splitlines() == [
            f"repro: error: {error}: cannot read {missing}: "
            f"No such file or directory"]


class TestSimulateAndConvert:
    def test_simulate(self, tmp_path):
        out = tmp_path / "sim.phy"
        rc = main(["simulate", "-t", "6", "-l", "120", "-o", str(out),
                   "--tree-out", str(tmp_path / "true.nwk")])
        assert rc == 0
        from repro.seq.io_phylip import read_phylip

        aln = read_phylip(out)
        assert aln.n_taxa == 6 and aln.n_sites == 120
        parse_newick((tmp_path / "true.nwk").read_text())

    def test_convert_round_trip(self, fasta_path, tmp_path):
        rba = tmp_path / "x.rba"
        back = tmp_path / "y.fasta"
        assert main(["convert", str(fasta_path), str(rba)]) == 0
        assert main(["convert", str(rba), str(back)]) == 0
        assert read_fasta(back) == read_fasta(fasta_path)

    def test_bad_output_format(self, fasta_path, tmp_path):
        with pytest.raises(SystemExit):
            main(["convert", str(fasta_path), str(tmp_path / "x.unknown")])


class TestReport:
    def test_report_runs(self, fasta_path, capsys):
        rc = main(["report", str(fasta_path), "-n", "1", "-r", "1",
                   "--ranks", "48", "96"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "traversal descriptor" in out
        assert "ExaML" in out
        # Table I through its one renderer: a region count is an integer
        regions = next(line for line in out.splitlines()
                       if line.startswith("# parallel regions"))
        assert regions.split()[-1].isdigit(), regions

    @pytest.fixture()
    def climbs(self, monkeypatch):
        import repro.search.search as search_module

        calls = []
        search = search_module.hill_climb

        def counting(*args, **kwargs):
            calls.append(args)
            return search(*args, **kwargs)

        monkeypatch.setattr(search_module, "hill_climb", counting)
        return calls

    @pytest.mark.parametrize("ranks", ["0", "2401"])
    def test_ranks_beyond_the_machine_rejected_before_searching(
            self, fasta_path, climbs, capsys, ranks):
        """The reference machine has 50 × 48 = 2400 cores."""
        with pytest.raises(SystemExit) as exc:
            main(["report", str(fasta_path), "-n", "1", "-r", "1",
                  "--ranks", "48", ranks])
        assert exc.value.code == 2
        assert "1..2400" in capsys.readouterr().err
        assert climbs == []


class TestDistributedInfer:
    def test_decentralized_engine(self, fasta_path, tmp_path):
        out = tmp_path / "dec.nwk"
        rc = main(["infer", str(fasta_path), "-n", "2", "-r", "2",
                   "-o", str(out), "--no-gtr",
                   "--engine", "decentralized", "--ranks", "2"])
        assert rc == 0
        assert parse_newick(out.read_text()).n_taxa == 8

    def test_decentralized_survives_injected_failure(self, fasta_path,
                                                     tmp_path, capsys):
        out = tmp_path / "rec.nwk"
        rc = main(["infer", str(fasta_path), "-n", "2", "-r", "2",
                   "-o", str(out), "--no-gtr",
                   "--engine", "decentralized", "--ranks", "3",
                   "--inject-failure", "1@25"])
        assert rc == 0
        assert parse_newick(out.read_text()).n_taxa == 8
        err = capsys.readouterr().err
        assert "recovered" in err

    def test_forkjoin_engine_with_periodic_checkpoint(self, fasta_path,
                                                      tmp_path):
        out = tmp_path / "fj.nwk"
        ckpt = tmp_path / "fj.npz"
        rc = main(["infer", str(fasta_path), "-n", "2", "-r", "2",
                   "-o", str(out), "--no-gtr",
                   "--engine", "forkjoin", "--ranks", "2",
                   "--checkpoint", str(ckpt), "--checkpoint-every", "1"])
        assert rc == 0
        assert ckpt.exists()

    def test_checkpoint_every_requires_path(self, fasta_path):
        with pytest.raises(SystemExit):
            main(["infer", str(fasta_path), "--checkpoint-every", "2"])

    def test_resume_rejected_for_distributed(self, fasta_path, tmp_path):
        with pytest.raises(SystemExit):
            main(["infer", str(fasta_path), "--engine", "forkjoin",
                  "--resume", str(tmp_path / "x.npz")])

    @pytest.mark.parametrize("extra", [
        ["--engine", "decentralized"],
        ["--engine", "forkjoin"],
        ["--engine", "forkjoin", "--supervise"],
    ])
    def test_final_checkpoint_rejected_for_distributed(self, fasta_path,
                                                       tmp_path, extra):
        """Only the sequential engine writes a final checkpoint: a
        distributed run given just ``--checkpoint`` would write nothing."""
        ckpt = tmp_path / "final.npz"
        with pytest.raises(SystemExit, match="--checkpoint-every"):
            main(["infer", str(fasta_path), "-n", "1", "-r", "1", "--no-gtr",
                  "--checkpoint", str(ckpt), *extra])
        assert not ckpt.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--monitor-dir", "mon"),
        ("--diagnosis-out", "diagnosis.json"),
        ("--straggler-after", "0.5"),
        ("--stall-after", "2.0"),
    ])
    def test_monitor_flags_rejected_under_supervise(self, fasta_path,
                                                    flag, value):
        """A supervised run builds each attempt's monitor itself, so a
        monitor flag given with ``--supervise`` would do nothing."""
        with pytest.raises(SystemExit, match=flag):
            main(["infer", str(fasta_path), "-n", "1", "-r", "1", "--no-gtr",
                  "--engine", "forkjoin", "--supervise", "--monitor",
                  flag, value])


class TestEnginesAgree:
    """With no ``-t``, sequential, decentralized and fork-join ``infer``
    search the same start tree: one ``logL`` line, one ``-o`` file with
    its branch lengths — also under ``-M`` (the paper's per-partition
    branch lengths)."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        work = tmp_path_factory.mktemp("agree")
        fasta = work / "data.fasta"
        # a random start tree whose Newick round trip renumbers its nodes
        assert main(["simulate", "-t", "6", "-l", "60", "-s", "3",
                     "-o", str(fasta)]) == 0
        genes = work / "genes.txt"
        genes.write_text("DNA, g1 = 1-30\nDNA, g2 = 31-60\n")
        return fasta, genes

    @staticmethod
    def _infer(inputs, tmp_path, capsys, *extra):
        fasta, genes = inputs
        out = tmp_path / "tree.nwk"
        assert main(["infer", str(fasta), "-q", str(genes), "-n", "1",
                     "-r", "1", "--no-register", "-o", str(out),
                     *extra]) == 0
        err = capsys.readouterr().err
        (line,) = [ln for ln in err.splitlines() if ln.startswith("logL = ")]
        return line.split(" (")[0], out.read_text()

    @pytest.mark.parametrize("mode", [[], ["-M"]], ids=["joint", "-M"])
    def test_same_logl_and_topology(self, inputs, tmp_path, capsys, mode):
        runs = [self._infer(inputs, tmp_path, capsys, *mode, *engine)
                for engine in (
                    ["--engine", "sequential"],
                    ["--engine", "decentralized", "--ranks", "2",
                     "--dist", "mps"],
                    ["--engine", "forkjoin", "--ranks", "2", "--dist", "mps"],
                )]
        assert runs[1] == runs[0]
        assert runs[2] == runs[0]


class TestModelReadsTheLiveLog:
    """``profile`` prices the region logs the live ranks kept: the CLI
    process itself runs no search.  The runs use two ranks: those are
    forked, so their climbs do not reach this process's counter (a
    one-rank mesh would search in-process)."""

    @pytest.fixture()
    def climbs(self, monkeypatch):
        import repro.engines.launch as launch_module

        calls = []
        search = launch_module.hill_climb

        def counting(*args, **kwargs):
            calls.append(args)
            return search(*args, **kwargs)

        monkeypatch.setattr(launch_module, "hill_climb", counting)
        return calls

    def test_profile_reconcile(self, fasta_path, tmp_path, climbs, capsys):
        rc = main(["profile", str(fasta_path), "--engine", "both",
                   "--ranks", "2", "-n", "1", "-r", "1",
                   "--trace-out", str(tmp_path / "trace"), "--no-register"])
        assert rc == 0
        assert capsys.readouterr().out.count("reconciliation — ") == 2
        assert climbs == []

    def test_scale(self, fasta_path, tmp_path, climbs):
        genes = tmp_path / "genes.partitions"
        genes.write_text("DNA, g1 = 1-150\nDNA, g2 = 151-300\n")
        report = tmp_path / "scaling.md"
        rc = main(["profile", str(fasta_path), "-q", str(genes),
                   "--ranks", "2", "-n", "1", "-r", "1",
                   "--dist", "cyclic", "mps",
                   "--trace-out", str(tmp_path / "trace"),
                   "--report-out", str(report), "--no-register"])
        assert rc == 0
        text = report.read_text()
        assert "Model-predicted totals" in text
        assert text.count("reconciliation — ") == 4
        assert text.count("Kernel hotspots") == 4
        assert climbs == []

    def test_profile_from_trace_reports_each_configuration(
            self, fasta_path, tmp_path, capsys):
        """A trace root of two configurations re-reads as two kernel
        tables, each with the counts its live run reported."""
        import json

        trace, live, offline = (tmp_path / "trace", tmp_path / "live.json",
                                tmp_path / "offline.json")
        assert main(["profile", str(fasta_path), "--ranks", "2", "-n", "1",
                     "-r", "1", "--trace-out", str(trace),
                     "--trace-format", "jsonl", "--bench-out", str(live),
                     "--no-register"]) == 0
        capsys.readouterr()
        assert main(["profile", "--from-trace", str(trace),
                     "--bench-out", str(offline)]) == 0
        assert capsys.readouterr().out.count("Kernel hotspots") == 2
        tables = json.loads(offline.read_text())["hotspots"]
        assert sorted(tables) == ["decentralized-cyclic-r2",
                                  "forkjoin-cyclic-r2"]
        for point in json.loads(live.read_text())["points"]:
            label = f"{point['engine']}-{point['dist']}-r{point['ranks']}"
            assert ({o["op"]: (o["count"], o["units"])
                     for o in tables[label]["ops"]}
                    == {o["op"]: (o["count"], o["units"])
                        for o in point["hotspots"]["ops"]})

    def test_profile_needs_an_alignment_or_a_trace(self, capsys):
        assert main(["profile", "--no-register"]) == 2
