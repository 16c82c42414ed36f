"""replicheck: the determinism & collective-consistency static analyzer.

The fixture corpus under ``tests/fixtures/replicheck/`` carries the
known-bad patterns (one file per rule, >= 2 seeded violations each) and
known-good counterparts; the acceptance test at the bottom runs the
analyzer over ``src/repro`` itself and requires zero unsuppressed
findings.  Snippet tests write their source to a file and run the same
project analyzer (``analyze_paths``) the CI gate runs.
"""

import json
import textwrap
from collections import Counter
from pathlib import Path

import pytest
from test_replicheck_v2 import project_of

from repro.analysis import RULES, analyze_paths, parse_suppressions
from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures" / "replicheck"
SRC = Path(__file__).parent.parent / "src" / "repro"


def findings_for(path: Path):
    report = analyze_paths([path])
    assert not report.parse_errors, report.parse_errors
    return report


def from_snippet(code: str, tmp_path: Path):
    return project_of(code, tmp_path).findings


class TestRuleCatalog:
    def test_full_catalog_documented(self):
        assert sorted(RULES) == [
            "R001", "R002", "R003", "R004", "R005", "R006",
            "R007", "R008", "R009", "R010", "R011",
        ]

    @pytest.mark.parametrize("rule", sorted(RULES))
    def test_bad_fixture_flags_only_its_rule(self, rule):
        report = findings_for(FIXTURES / f"bad_{rule.lower()}.py")
        counts = Counter(f.rule for f in report.findings)
        assert counts[rule] >= 2, counts
        assert set(counts) == {rule}, counts

    def test_good_fixture_is_clean(self):
        report = findings_for(FIXTURES / "good_clean.py")
        assert report.findings == []

    def test_every_finding_carries_location_and_hint(self):
        report = analyze_paths([FIXTURES])
        for f in report.all_findings():
            assert f.rule in RULES
            assert f.severity in ("error", "warning")
            assert f.line > 0 and f.path
            assert f.message
            formatted = f.format()
            assert f"{f.path}:{f.line}" in formatted
            assert f.rule in formatted


class TestR001:
    def test_seeded_generator_is_clean(self, tmp_path):
        assert from_snippet("""
            import numpy as np
            rng = np.random.default_rng(42)
            x = rng.random()
        """, tmp_path) == []

    def test_unseeded_default_rng_flagged(self, tmp_path):
        findings = from_snippet("""
            import numpy as np
            rng = np.random.default_rng()
        """, tmp_path)
        assert [f.rule for f in findings] == ["R001"]

    def test_none_default_parameter_flagged(self, tmp_path):
        findings = from_snippet("""
            import numpy as np
            def build(rng=None):
                return np.random.default_rng(rng)
        """, tmp_path)
        assert [f.rule for f in findings] == ["R001"]

    def test_threaded_parameter_without_none_default_is_clean(self, tmp_path):
        assert from_snippet("""
            import numpy as np
            def build(seed):
                return np.random.default_rng(seed)
        """, tmp_path) == []


class TestR002:
    def test_sorted_wrapper_is_clean(self, tmp_path):
        assert from_snippet("""
            def f(splits: set):
                return [len(s) for s in sorted(splits, key=sorted)]
        """, tmp_path) == []

    def test_order_insensitive_consumers_are_clean(self, tmp_path):
        assert from_snippet("""
            def f(splits: set):
                return len(splits), max(splits), any(splits)
        """, tmp_path) == []

    def test_cross_module_set_return_annotation(self, tmp_path):
        (tmp_path / "producer.py").write_text(textwrap.dedent("""
            def bipartitions(tree) -> set:
                return {frozenset([1]), frozenset([2])}
        """))
        (tmp_path / "consumer.py").write_text(textwrap.dedent("""
            from producer import bipartitions

            def support(tree):
                return {s: 0 for s in bipartitions(tree)}
        """))
        report = analyze_paths([tmp_path])
        assert [f.rule for f in report.findings] == ["R002"]
        assert report.findings[0].path.endswith("consumer.py")


class TestR003:
    def test_data_dependent_branch_is_clean(self, tmp_path):
        # both replicas evaluate the same replicated value identically
        assert from_snippet("""
            def step(comm, x):
                total = comm.allreduce(x, tag="a")
                if total > 0:
                    comm.allreduce(x, tag="b")
        """, tmp_path) == []

    def test_rank_branch_same_sequence_is_clean(self, tmp_path):
        assert from_snippet("""
            def step(comm, x):
                if comm.rank == 0:
                    comm.bcast(x, root=0, tag="a")
                else:
                    comm.bcast(None, root=0, tag="a")
        """, tmp_path) == []

    @pytest.mark.parametrize("code, line", [
        ("""
            def step(comm, x):
                if comm.rank == 0:
                    comm.bcast(x, root=0, tag="a")
        """, 3),
        # module level: a rank branch outside any function ...
        ("""
            from mesh import world

            comm = world()
            x = comm.allreduce(1.0, tag="a")
            if comm.rank == 0:
                comm.bcast(x, root=0, tag="b")
        """, 6),
        # ... and a collective in a module-level except handler
        ("""
            from mesh import world

            comm = world()
            try:
                x = float("nan")
            except ValueError:
                comm.allreduce(0.0, tag="c")
        """, 8),
    ], ids=["function", "module-branch", "module-except"])
    def test_rank_branch_different_sequence_flagged(self, code, line,
                                                    tmp_path):
        findings = from_snippet(code, tmp_path)
        assert [(f.rule, f.line) for f in findings] == [("R003", line)]

    def test_functools_reduce_not_a_collective(self, tmp_path):
        assert from_snippet("""
            from functools import reduce
            def total(xs, rank):
                if rank == 0:
                    return reduce(lambda a, b: a + b, xs)
                return 0
        """, tmp_path) == []


class TestR004:
    def test_wall_clock_in_loop_test_is_error(self, tmp_path):
        findings = from_snippet("""
            import time
            def run(budget):
                start = time.time()
                while time.time() - start < budget:
                    pass
        """, tmp_path)
        assert {f.rule for f in findings} == {"R004"}
        assert any(f.severity == "error" for f in findings)

    def test_obs_layer_is_exempt(self, tmp_path):
        (tmp_path / "obs").mkdir()
        report = project_of("import time\nt = time.perf_counter()\n",
                            tmp_path, "obs/tracer.py")
        assert report.findings == []


class TestR005:
    def test_sum_over_list_is_clean(self, tmp_path):
        assert from_snippet(
            "def f(xs: list):\n    return sum(xs)\n", tmp_path) == []

    def test_sum_over_sorted_set_is_clean(self, tmp_path):
        assert from_snippet(
            "def f(xs: set):\n    return sum(sorted(xs))\n", tmp_path) == []

    def test_sum_over_set_flagged_once(self, tmp_path):
        findings = from_snippet(
            "def f(xs: set):\n    return sum(xs)\n", tmp_path)
        assert [f.rule for f in findings] == ["R005"]


class TestSuppressions:
    def test_same_line_and_next_line_pragmas(self):
        source = textwrap.dedent("""
            import time
            # replicheck: ignore[R004] -- standalone pragma, next line
            a = time.time()
            b = time.time()  # replicheck: ignore[R004] -- same line
        """)
        sups = parse_suppressions(source)
        assert [(s.line, s.justified) for s in sups] == [(4, True), (5, True)]

    def test_pragma_in_docstring_is_not_a_suppression(self):
        source = '"""# replicheck: ignore[R001] -- docs only"""\n'
        assert parse_suppressions(source) == []

    def test_suppressed_fixture_reports_hygiene(self):
        report = findings_for(FIXTURES / "good_suppressed.py")
        assert report.findings == []
        assert len(report.suppressed) == 3
        assert len(report.unjustified_suppressions) == 1
        assert report.unused_suppressions == []

    def test_wrong_rule_pragma_does_not_suppress(self, tmp_path):
        report = project_of(
            "import time\nt = time.time()"
            "  # replicheck: ignore[R001] -- wrong rule\n",
            tmp_path,
        )
        assert [f.rule for f in report.findings] == ["R004"]
        assert [s.rules for _, s in report.unused_suppressions] == [
            frozenset({"R001"})]


class TestBaseline:
    """Fingerprints: line-shift stable, distinct per repeated snippet
    (code scanning tracks SARIF results by them)."""

    def test_fingerprints_survive_line_shifts(self, tmp_path):
        code = "import random\nrandom.shuffle([])\n"
        shifted = "import random\n\n\n# moved\nrandom.shuffle([])\n"
        # same file path both times: the path is part of the fingerprint
        (f1,) = from_snippet(code, tmp_path)
        (f2,) = from_snippet(shifted, tmp_path)
        assert f1.fingerprint == f2.fingerprint
        assert f1.line != f2.line

    def test_identical_snippets_get_distinct_fingerprints(self, tmp_path):
        code = "import random\nrandom.shuffle([])\nrandom.shuffle([])\n"
        findings = from_snippet(code, tmp_path)
        prints = {f.fingerprint for f in findings}
        assert len(prints) == 2


class TestLintCLI:
    def test_text_format_lists_findings(self, capsys):
        code = main(["lint", str(FIXTURES / "bad_r002.py")])
        assert code == 1
        out = capsys.readouterr().out
        assert "R002" in out and "bad_r002.py" in out

    def test_clean_paths_exit_zero(self, capsys):
        assert main(["lint", str(FIXTURES / "good_clean.py")]) == 0

    def test_out_writes_report_artifact(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["lint", str(FIXTURES / "bad_r003.py"),
                     "--out", str(out)])
        assert code == 1
        report = json.loads(out.read_text())
        assert report["counts"]["new"] >= 2
        assert all(f["rule"] == "R003" for f in report["findings"])

    def test_rules_listing(self, capsys):
        assert main(["lint", "--rules"]) == 0
        out = capsys.readouterr().out
        for rule in RULES:
            assert rule in out


class TestSelfCheck:
    """The triage satellite: src/repro itself must be clean."""

    def test_src_repro_has_zero_unsuppressed_findings(self):
        report = analyze_paths([SRC])
        assert not report.parse_errors, report.parse_errors
        assert report.findings == [], "\n".join(
            f.format() for f in report.findings
        )

    def test_src_repro_suppressions_all_justified_and_used(self):
        report = analyze_paths([SRC])
        assert report.unjustified_suppressions == []
        assert report.unused_suppressions == []
