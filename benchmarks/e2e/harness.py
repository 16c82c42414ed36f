"""Shared machinery of the end-to-end benchmark: the workload table, child
processes with their resource usage, output checks, and the untraced
measurement of one workload.

Nothing here imports ``repro``: the program under test runs only as
``python -m repro infer ...`` in a fresh interpreter, with ``--no-register``,
one BLAS/OpenMP thread and ``REPRO_RUNS_DIR`` in a scratch directory.
"""

from __future__ import annotations

import json
import os
import re
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from gen_inputs import generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

DEFAULT_SEED = 2013
EXPECTED_PATH = HERE / "expected.json"
RESULTS_DIR = HERE / "results"

# Search flags shared by every workload: one hill-climbing iteration is
# enough to run every phase (smoothing, model optimisation, an SPR round)
# and keeps the amount of work nearly independent of the data.
SEARCH_FLAGS = ["-n", "1", "-r", "2", "--no-register"]
SEQUENTIAL = ["--engine", "sequential"]


@dataclass(frozen=True)
class Workload:
    shape: str            # input shape in gen_inputs.SHAPES
    engine: list[str]     # engine flags appended to the CLI call
    why: str

    @property
    def ranks(self) -> int:
        return int(self.engine[self.engine.index("--ranks") + 1]) \
            if "--ranks" in self.engine else 1


WORKLOADS: dict[str, Workload] = {
    "wide_seq": Workload(
        "wide", SEQUENTIAL,
        "one 3000-pattern partition on one process: kernel arithmetic on "
        "large arrays dominates, per-call overhead and communication are nil"),
    "genes_seq": Workload(
        "genes", SEQUENTIAL,
        "16 gene-sized partitions on one process: ~70k tiny kernel calls, so "
        "per-call and per-partition driver overhead dominates"),
    "genes_dec2": Workload(
        "genes", ["--engine", "decentralized", "--ranks", "2", "--dist", "mps"],
        "the paper's scheme on its partitioned regime: 2 replicas, whole "
        "partitions per rank, two allreduces per step"),
    "genes_fj2": Workload(
        "genes", ["--engine", "forkjoin", "--ranks", "2", "--dist", "mps"],
        "the same files under the fork-join scheme: descriptor and parameter "
        "broadcasts plus reduce, so a comm change that trades one scheme "
        "for the other is caught"),
}

END_TO_END_UNITS = {"time_to_tree_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# What a run reports of its samples.  A busy host only ever adds time, in
# stretches of seconds to minutes, so the fastest of several short
# repetitions is the one number that repeats; memory does not follow the host.
REPORTED = {"time_to_tree_s": min, "setup_s": min,
            "peak_rss_mb": statistics.median}

CHILD_TIMEOUT_S = 60.0  # a repetition takes 3-4 s, twice that on a busy host
LOGL_RE = re.compile(r"logL = (-?\d+(?:\.\d+)?)")


# --------------------------------------------------------------------- #
# child processes
# --------------------------------------------------------------------- #
def child_env(work: Path) -> dict[str, str]:
    """Environment of every process the benchmark starts."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["REPRO_RUNS_DIR"] = str(work / "runs")
    env.pop("REPRO_TRACE_ID", None)
    return env


@dataclass
class Child:
    """Outcome of one child process: wall time from spawn to exit, the
    largest resident set of any process in its tree, and its output."""

    wall_s: float
    peak_rss_mb: float
    cpu_s: float
    exit: int
    stdout: str
    stderr: str
    timed_out: bool = False


def run_child(cmd: list[str], env: dict[str, str], work: Path,
              timeout: float = CHILD_TIMEOUT_S) -> Child:
    """Run ``cmd`` to completion in its own session and reap it with
    ``wait4``, whose rusage covers the child and every descendant it
    waited for (the forked ranks)."""
    with tempfile.TemporaryFile(dir=work) as out, \
            tempfile.TemporaryFile(dir=work) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL, cwd=work,
                                start_new_session=True)
        timed_out = threading.Event()

        def kill_tree() -> None:
            timed_out.set()
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        watchdog = threading.Timer(timeout, kill_tree)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            watchdog.join()
        wall_s = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        try:  # ranks orphaned by a killed launcher
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        out.seek(0)
        err.seek(0)
        return Child(
            wall_s=wall_s,
            peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
            cpu_s=usage.ru_utime + usage.ru_stime,
            exit=proc.returncode,
            stdout=out.read().decode(errors="replace"),
            stderr=err.read().decode(errors="replace"),
            timed_out=timed_out.is_set(),
        )


def infer_cmd(inputs: dict, engine: list[str], out_tree: Path,
              extra: list[str] | None = None) -> list[str]:
    files = inputs["files"]
    cmd = [sys.executable, "-m", "repro", "infer", files["alignment"],
           "-t", files["start_tree"], "-o", str(out_tree), *SEARCH_FLAGS]
    if "partitions" in files:
        cmd += ["-q", files["partitions"]]
    return cmd + engine + (extra or [])


def setup_cmd(inputs: dict, extra: list[str] | None = None) -> list[str]:
    files = inputs["files"]
    cmd = [sys.executable, str(HERE / "probe_setup.py"),
           files["alignment"], files["start_tree"]]
    if "partitions" in files:
        cmd.append(files["partitions"])
    return cmd + (extra or [])


# --------------------------------------------------------------------- #
# output checks (independent of repro: own Newick reader)
# --------------------------------------------------------------------- #
def bipartitions(newick: str) -> tuple[frozenset[str], frozenset[frozenset[str]]]:
    """Leaf set and non-trivial splits of a Newick tree.  Each split is
    named by its side that does not hold the smallest label, so two
    strings of one unrooted topology give equal sets."""
    tokens = re.findall(r"[(),;]|[^(),;:\s]+|:[^(),;]*", newick)
    pos = 0
    splits: list[frozenset[str]] = []

    def clade() -> frozenset[str]:
        nonlocal pos
        if tokens[pos] == "(":
            pos += 1
            leaves = set(clade())
            while tokens[pos] == ",":
                pos += 1
                leaves |= clade()
            if tokens[pos] != ")":
                raise ValueError(f"expected ')' at token {pos}")
            pos += 1
            if pos < len(tokens) and tokens[pos][0] not in "(),;:":
                pos += 1  # inner label
            result = frozenset(leaves)
            splits.append(result)
        else:
            if tokens[pos][0] in "(),;:":
                raise ValueError(f"expected a label at token {pos}")
            result = frozenset([tokens[pos]])
            pos += 1
        if pos < len(tokens) and tokens[pos].startswith(":"):
            pos += 1
        return result

    everything = clade()
    if pos >= len(tokens) or tokens[pos] != ";":
        raise ValueError("missing ';'")
    anchor = min(everything)
    normal = set()
    for side in splits:
        if anchor in side:
            side = everything - side
        if 1 < len(side) < len(everything) - 1:
            normal.add(side)
    return everything, frozenset(normal)


@dataclass
class Rep:
    """One timed repetition of a workload and what its checks found."""

    child: Child
    logl: float | None = None
    newick: str | None = None
    splits: frozenset | None = None
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def read_rep(child: Child, out_tree: Path, taxa: frozenset[str]) -> Rep:
    """Per-repetition checks: exit code, the printed logL, a readable
    binary tree over exactly the input taxa."""
    rep = Rep(child)
    if child.timed_out:
        rep.failures.append("timeout")
    if child.exit != 0:
        tail = child.stderr.strip().splitlines()[-1:] or [""]
        rep.failures.append(f"exit {child.exit}: {tail[0][:200]}")
    match = LOGL_RE.search(child.stderr)
    if match:
        rep.logl = float(match.group(1))
    else:
        rep.failures.append("no 'logL = ...' line on stderr")
    try:
        rep.newick = out_tree.read_text().strip()
        leaves, rep.splits = bipartitions(rep.newick)
    except (OSError, ValueError, IndexError) as exc:
        rep.failures.append(f"unreadable tree: {exc}")
    else:
        if leaves != taxa:
            rep.failures.append("tree taxa differ from the alignment's")
        elif len(rep.splits) != len(taxa) - 3:
            rep.failures.append("tree is not fully resolved")
    return rep


def same_result(rep: Rep, logl: float, splits: frozenset, what: str,
                rel_tol: float = 0.0) -> list[str]:
    """Failures of ``rep`` against a wanted logL and topology."""
    out = []
    if rep.logl is not None and abs(rep.logl - logl) > rel_tol * abs(logl):
        out.append(f"logL {rep.logl} differs from {what} ({logl})")
    if rep.splits is not None and rep.splits != splits:
        rf = len(rep.splits ^ splits)
        out.append(f"topology differs from {what} (RF distance {rf})")
    return out


def cross_check(reps: list[Rep], reference: Rep | None,
                expected: dict | None, inputs_match: bool | None = None) -> None:
    """Checks between runs: all repetitions agree exactly; a distributed
    workload matches the sequential run of the same files (the paper's
    replica-consistency contract); at the default seed everything matches
    ``expected.json``, the generated inputs (``inputs_match``) included."""
    first = next((r for r in reps if r.logl is not None and r.splits is not None),
                 None)
    for rep in reps:
        if first is not None and rep is not first:
            rep.failures += same_result(rep, first.logl, first.splits,
                                        "the first repetition")
        if reference is not None:
            if reference.ok:
                rep.failures += same_result(rep, reference.logl,
                                            reference.splits,
                                            "the sequential reference")
            else:
                rep.failures.append(
                    "sequential reference failed: " + reference.failures[0])
        if expected is not None:
            rep.failures += same_result(
                rep, expected["logl"], bipartitions(expected["tree"])[1],
                "expected.json", rel_tol=1e-6)
        if inputs_match is False:
            rep.failures.append("generated inputs differ from expected.json")


# --------------------------------------------------------------------- #
# one workload, end to end
# --------------------------------------------------------------------- #
def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text()) if EXPECTED_PATH.exists() else {}


def prepare_inputs(name: str, seed: int, work: Path, scale: float) -> dict:
    """Generate the workload's files; at the default seed and full size
    they must be byte-identical to the ones ``expected.json`` was made
    from, so generator drift cannot silently move the baseline."""
    shape = WORKLOADS[name].shape
    inputs = generate(shape, seed, work / "inputs", scale=scale)
    inputs["taxon_set"] = frozenset(f"t{i:02d}" for i in range(inputs["taxa"]))
    inputs["expected_match"] = None
    if seed == DEFAULT_SEED and scale == 1.0:
        want = load_expected().get("inputs", {}).get(shape)
        if want is not None:
            inputs["expected_match"] = want == inputs["sha256"]
    return inputs


def expected_result(name: str, seed: int, scale: float) -> dict | None:
    if seed != DEFAULT_SEED or scale != 1.0:
        return None
    return load_expected().get("workloads", {}).get(name)


def tally(name: str, seed: int, inputs: dict, runs: list[Rep], log) -> dict:
    """The part of a workload's result both kinds of run share: what was
    run on, and how many runs of the program failed which checks."""
    for i, rep in enumerate(runs):
        for failure in rep.failures:
            log(f"{name}: run {i + 1} FAILED: {failure}")
    return {
        "workload": name, "seed": seed, "why": WORKLOADS[name].why,
        "inputs": {k: inputs[k] for k in
                   ("taxa", "genes", "sites", "patterns", "sha256",
                    "expected_match")},
        "runs": len(runs),
        "failed_runs": sum(not r.ok for r in runs),
        "failures": sorted({f for r in runs for f in r.failures}),
    }


def summarise(values: list[float], metric: str) -> dict:
    return {"value": REPORTED[metric](values),
            "median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values),
            "unit": END_TO_END_UNITS[metric], "samples": values}


def measure_workload(name: str, seed: int, seconds: float, work: Path,
                     scale: float = 1.0, log=lambda msg: None) -> dict:
    """The untraced measurement of one workload: cycles of one set-up probe
    and one timed repetition, as many as fit into ``seconds`` (one cycle at
    least; two when the inputs are shrunk, so the repetitions-agree check
    runs), then the output checks.  Every sample is raw wall from spawning
    the child to reaping it; the first ones also byte-compile the program."""
    wl = WORKLOADS[name]
    env = child_env(work)
    inputs = prepare_inputs(name, seed, work, scale)
    taxa = inputs["taxon_set"]
    t_start = time.perf_counter()
    min_cycles = 1 if scale == 1.0 else 2
    probes: list[Child] = []
    reps: list[Rep] = []
    out_tree = work / f"{name}.out.nwk"
    fastest = 0.0   # a cycle starts only if the fastest one so far still fits
    while (len(reps) < min_cycles
           or time.perf_counter() - t_start + fastest <= seconds):
        t_cycle = time.perf_counter()
        probes.append(run_child(setup_cmd(inputs), env, work))
        if probes[-1].exit != 0:
            raise SystemExit(f"set-up probe failed:\n{probes[-1].stderr}")
        out_tree.unlink(missing_ok=True)
        child = run_child(infer_cmd(inputs, wl.engine, out_tree), env, work)
        reps.append(read_rep(child, out_tree, taxa))
        log(f"{name}: rep {len(reps)} {child.wall_s:.3f} s wall "
            f"{child.peak_rss_mb:.1f} MB logL {reps[-1].logl}, "
            f"set-up {probes[-1].wall_s:.3f} s")
        cycle = time.perf_counter() - t_cycle
        fastest = min(fastest or cycle, cycle)

    reference = None
    if wl.engine != SEQUENTIAL:
        ref_tree = work / f"{name}.ref.nwk"
        child = run_child(infer_cmd(inputs, SEQUENTIAL, ref_tree), env, work)
        reference = read_rep(child, ref_tree, taxa)
    cross_check(reps, reference, expected_result(name, seed, scale),
                inputs["expected_match"])

    good = [r for r in reps if r.ok] or reps
    return {
        **tally(name, seed, inputs, reps, log),
        "logl": good[0].logl, "tree": good[0].newick,
        "end_to_end": {
            "time_to_tree_s": summarise(
                [r.child.wall_s for r in good], "time_to_tree_s"),
            "setup_s": summarise([c.wall_s for c in probes], "setup_s"),
            "peak_rss_mb": summarise(
                [r.child.peak_rss_mb for r in good], "peak_rss_mb"),
        },
    }
