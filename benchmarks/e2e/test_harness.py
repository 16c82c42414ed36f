"""Tests of the benchmark harness itself.

Not part of tier-1 (``testpaths = ["tests"]``); run explicitly::

    python -m pytest benchmarks/e2e/test_harness.py -q

``--smoke`` shrinks every workload to a couple of seconds, so the whole file
takes about two minutes.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import layers  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_py(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "benchmarks/e2e/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def test_benchmark_json_agrees_with_the_code():
    assert SPEC["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == \
        [(n, w.why) for n, w in harness.WORKLOADS.items()]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        harness.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == \
        layers.PER_LAYER
    for entry in SPEC["workloads"] + SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME_RE.fullmatch(entry["name"]), entry["name"]


def check_document(doc: dict, section: str) -> None:
    assert set(doc["workloads"]) == set(harness.WORKLOADS)
    for name, w in doc["workloads"].items():
        assert w["failed_runs"] == 0, (name, w["failures"])
        assert w["runs"] >= 2
        for metric, m in w[section].items():
            assert NAME_RE.fullmatch(metric), metric
            assert m["unit"], metric
            value = m["value"]
            if value is None:
                assert m["reason"], (name, metric)
            elif m["unit"] in ("count", "bytes"):
                assert isinstance(value, int), (name, metric, value)
            else:
                assert isinstance(value, float), (name, metric)
    assert doc["genes_agree"] is True


def test_smoke_untraced_set(tmp_path):
    out = tmp_path / "smoke.json"
    proc = run_py("--smoke", "--label", "smoke", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    check_document(doc, "end_to_end")
    for w in doc["workloads"].values():
        assert set(w["end_to_end"]) == set(harness.END_TO_END_UNITS)
        for m in w["end_to_end"].values():
            assert m["min"] <= m["value"] <= m["max"] and m["n"] >= 2
        assert w["end_to_end"]["time_to_tree_s"]["value"] == \
            w["end_to_end"]["time_to_tree_s"]["min"]  # the fastest repetition
    for metric in harness.END_TO_END_UNITS:  # every metric printed by name
        assert metric in proc.stdout


def test_smoke_traced_set(tmp_path):
    out = tmp_path / "smoke-traced.json"
    proc = run_py("--smoke", "--traced", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    check_document(doc, "per_layer")
    for name, w in doc["workloads"].items():
        assert set(w["per_layer"]) == set(layers.PER_LAYER)
        missing = [m for m, e in w["per_layer"].items()
                   if e["value"] is None and e["reason"] != layers.NOT_ON_PATH]
        assert not missing, (name, missing)

    def layer(workload: str, metric: str):
        return doc["workloads"][workload]["per_layer"][metric]["value"]

    # each layer is measured where it is on the path, and only there
    assert layer("wide_seq", "par.strong_scaling_eff") is not None
    assert layer("genes_seq", "par.strong_scaling_eff") is None
    assert layer("genes_seq", "cli.unattributed_frac") is not None
    assert layer("genes_seq", "engines.calls.likelihoods") is None
    assert layer("genes_dec2", "dist.call_replication") is not None
    assert layer("genes_fj2", "engines.calls.traversal") > 0
    spans = [json.loads(line) for line in
             (tmp_path / "trace-smoke-traced.jsonl").read_text().splitlines()]
    assert {"id", "name", "t0_ns", "t1_ns", "parent", "workload"} <= set(spans[0])
    assert {s["workload"] for s in spans} == set(harness.WORKLOADS)
    by_id = {s["id"]: s for s in spans}
    assert all(s["parent"] is None or s["parent"] in by_id for s in spans)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_driver_contract_line(trace):
    proc = run_py("--workload", "genes_dec2", "--seed", "5", "--seconds", "0",
                  "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in line["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = run_py("--workload", "wide_seq", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def fake_rep(tmp_path: Path, newick: str, logl: str = "-12.5000") -> harness.Rep:
    tree = tmp_path / "out.nwk"
    tree.write_text(newick)
    child = harness.Child(wall_s=1.0, peak_rss_mb=1.0, cpu_s=1.0, exit=0,
                          stdout="", stderr=f"logL = {logl} after 1 iterations")
    return harness.read_rep(child, tree, frozenset("abcde"))


def test_corrupted_output_tree_is_a_failed_run(tmp_path):
    expected = {"logl": -12.5, "tree": "((a,b),c,(d,e));"}
    good = fake_rep(tmp_path, "(a:0.1,b:0.2,(c:0.1,(e:0.3,d:0.1):0.2):0.1);")
    harness.cross_check([good], None, expected)
    assert good.ok, good.failures

    swapped = fake_rep(tmp_path, "((a,c),b,(d,e));")
    harness.cross_check([swapped], None, expected)
    assert any("RF distance 2" in f for f in swapped.failures)

    torn = fake_rep(tmp_path, "((a,b),c,(d,")
    assert any("unreadable tree" in f for f in torn.failures)

    dropped = fake_rep(tmp_path, "((a,b),c,d);")
    assert any("taxa differ" in f for f in dropped.failures)

    drifted = fake_rep(tmp_path, "((a,b),c,(d,e));", logl="-12.6000")
    harness.cross_check([drifted], None, expected)
    assert any("logL" in f for f in drifted.failures)

    # a distributed run must match the sequential reference of its files
    harness.cross_check([good], swapped, None)
    assert not good.ok


def test_failed_probe_nulls_its_metrics_and_fails_the_line(tmp_path, monkeypatch, capsys):
    import run

    def broken(ctx):
        raise ImportError("split_local_data has moved")

    probes = tuple((broken if fn is layers.probe_dist else fn, owns)
                   for fn, owns in layers.PROBES)
    monkeypatch.setattr(layers, "PROBES", probes)
    line_work = tmp_path / "line"
    line_work.mkdir()
    monkeypatch.setattr(run, "scratch_dir", lambda: line_work)
    assert run.main(["--workload", "genes_dec2", "--seed", "5", "--trace", "1",
                     "--smoke"]) == 0
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert line["correct"] is False and line["failed"] == 1
    assert line["metrics"]["engines.calls.likelihoods"]["value"] > 0  # others ran

    work = tmp_path / "again"
    work.mkdir()
    result = layers.trace_workload("genes_dec2", 5, work, scale=0.1)
    assert result["failed_probes"] == ["broken"]
    entry = result["per_layer"]["dist.imbalance"]
    assert entry["value"] is None and "has moved" in entry["reason"]


def test_compare_verdicts(tmp_path):
    import compare

    def doc(samples, failed=0):
        return {"workloads": {"wide_seq": {
            "runs": len(samples), "failed_runs": failed,
            "end_to_end": {"time_to_tree_s": harness.summarise(samples, "time_to_tree_s")}}}}

    bound = compare.bounds()["time_to_tree_s"][0]
    base = doc([10.0, 10.1, 10.2])
    inside, outside = 1.0 + bound / 2, 1.0 + bound * 1.5
    assert compare.compare(base, doc([v * inside for v in (10.0, 10.1, 10.2)]))[1] is False
    lines, failed = compare.compare(base, doc([v * outside for v in (10.0, 10.1, 10.2)]))
    assert failed and "regressed" in "\n".join(lines)
    lines, failed = compare.compare(doc([8.0, 10.0, 14.0]), doc([9.0, 13.5, 14.0]))
    assert not failed and "unresolved" in "\n".join(lines)
    assert compare.compare(base, doc([10.0, 10.1, 10.2], failed=1))[1] is True
    lacking = doc([10.0, 10.1, 10.2])
    lacking["workloads"]["wide_seq"]["end_to_end"] = {}
    lines, failed = compare.compare(base, lacking)
    assert failed and "missing from B" in "\n".join(lines)
