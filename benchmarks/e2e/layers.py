"""The traced run: per-layer metrics measured from outside the program.

Layers are the packages of ``src/repro``.  Each is measured by timing calls
into its public functions from this file, by the existing ``infer
--trace-dir`` flag, or by the existing ``lik.profiler = OpProfiler()`` hook;
nothing under ``src/`` knows about the benchmark.  Spans (name, start, end,
parent, workload) are kept in memory and written out once at the end; a
layer's self time is its span minus the spans it caused.

Public import surface the probes rely on::

    repro.seq.io_fasta.read_fasta          repro.seq.partitions.read_partition_file
    repro.tree.newick.parse_newick         repro.likelihood.partitioned.PartitionedLikelihood.build
    repro.likelihood.backend.SequentialBackend (+ the LikelihoodBackend protocol)
    repro.likelihood.kernel.flops_per_unit repro.obs.hotspots.OpProfiler
    repro.search.search.{SearchConfig, hill_climb}
    repro.search.checkpoint.{save_checkpoint, load_checkpoint}
    repro.dist.{auto_distribution, split_local_data}
    repro.par.mpcomm.run_mpi               repro.obs.export.read_jsonl
    repro.obs.analyze.analyze_trace        repro.cli.main (probe_cli.py)

Every probe is independent: one that fails reports its metrics as ``null``
with the reason and is counted as a failure, and the others still run.  A
layer that is not on a workload's path is ``null`` there too, with
``NOT_ON_PATH`` as the reason, and is no failure.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from harness import (
    HERE, ROOT, SEQUENTIAL, WORKLOADS, Rep, child_env, cross_check,
    expected_result, infer_cmd, prepare_inputs, read_rep, run_child,
    same_result, setup_cmd, tally,
)

OPS = ("newview", "evaluate", "sumtable", "derivative", "pmatrix")
# the paper's Table-I categories, as the program's trace records name them
CATEGORIES = {
    "traversal": "traversal descriptor",
    "branch_length": "branch length optimization",
    "likelihoods": "per-site/per-partition likelihoods",
    "model_params": "model parameters",
    "control": "control",
}

# name -> (unit, better).  BENCHMARK.json's per_layer list is this table.
PER_LAYER: dict[str, tuple[str, str]] = {
    "cli.interp_s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.cpu_s": ("s", "lower"),
    "cli.unattributed_frac": ("ratio", "lower"),
    "seq.parse_s": ("s", "lower"),
    "seq.compress_s": ("s", "lower"),
    "seq.patterns": ("count", "lower"),
    "seq.partitions": ("count", "lower"),
    "tree.parse_s": ("s", "lower"),
    "likelihood.build_s": ("s", "lower"),
    **{f"likelihood.{op}.{what}": (unit, "lower")
       for op in OPS
       for what, unit in (("s", "s"), ("calls", "count"), ("units", "count"),
                          ("ns_per_unit", "ns"))},
    "likelihood.newview.gflops_computed": ("GFLOP/s", "higher"),
    "likelihood.kernel_share": ("ratio", "higher"),
    "likelihood.alloc_mb": ("MB", "lower"),
    "likelihood.driver_self_s": ("s", "lower"),
    "model.set_gtr_s": ("s", "lower"),
    "model.set_alpha_s": ("s", "lower"),
    "search.wall_s": ("s", "lower"),
    "search.self_s": ("s", "lower"),
    "search.iterations": ("count", "lower"),
    "search.insertions_tried": ("count", "lower"),
    "search.moves_accepted": ("count", "higher"),
    "search.calls.evaluate": ("count", "lower"),
    "search.calls.begin_branch": ("count", "lower"),
    "search.calls.derivatives": ("count", "lower"),
    "search.checkpoint_write_s": ("s", "lower"),
    "search.checkpoint_load_s": ("s", "lower"),
    "search.checkpoint_bytes": ("bytes", "lower"),
    "dist.split_s": ("s", "lower"),
    "dist.imbalance": ("ratio", "lower"),
    "dist.call_replication": ("ratio", "lower"),
    "par.spawn_s": ("s", "lower"),
    "par.allreduce_us": ("us", "lower"),
    "par.bcast_us": ("us", "lower"),
    "par.strong_scaling_eff": ("ratio", "higher"),
    **{f"engines.calls.{cat}": ("count", "lower") for cat in CATEGORIES},
    **{f"engines.bytes.{cat}": ("bytes", "lower") for cat in CATEGORIES},
    "engines.rank_kernel_s": ("s", "lower"),
    "engines.speedup_vs_seq": ("ratio", "higher"),
    "obs.wait_share": ("ratio", "lower"),
    "obs.imbalance": ("ratio", "lower"),
    "obs.spans": ("count", "lower"),
    "obs.dropped_spans": ("count", "lower"),
    "obs.trace_overhead_frac": ("ratio", "lower"),
    "obs.profiler_overhead_frac": ("ratio", "lower"),
}

NOT_ON_PATH = "layer is not on this workload's path"
PAR_ROUNDS = 2000


# --------------------------------------------------------------------- #
# spans
# --------------------------------------------------------------------- #
class Spans:
    """In-memory span store of one benchmark process."""

    def __init__(self) -> None:
        self.records: list[dict] = []
        self._open: list[int] = []
        self.workload = ""

    def add(self, name: str, t0_ns: int, t1_ns: int, parent: int | None) -> int:
        self.records.append({"id": len(self.records), "name": name,
                             "t0_ns": t0_ns, "t1_ns": t1_ns, "parent": parent,
                             "workload": self.workload})
        return len(self.records) - 1

    @contextmanager
    def span(self, name: str):
        """Record a span around the block; yields the span's id."""
        parent = self._open[-1] if self._open else None
        sid = self.add(name, time.perf_counter_ns(), 0, parent)
        self._open.append(sid)
        try:
            yield sid
        finally:
            self._open.pop()
            self.records[sid]["t1_ns"] = time.perf_counter_ns()

    def seconds(self, sid: int) -> float:
        rec = self.records[sid]
        return (rec["t1_ns"] - rec["t0_ns"]) / 1e9

    def self_seconds(self, sid: int) -> float:
        """Span minus its direct children."""
        children = sum(r["t1_ns"] - r["t0_ns"] for r in self.records
                       if r["parent"] == sid)
        rec = self.records[sid]
        return (rec["t1_ns"] - rec["t0_ns"] - children) / 1e9

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for rec in self.records:
                fh.write(json.dumps(rec) + "\n")


class TimedBackend:
    """``LikelihoodBackend`` proxy that times every call into the backend
    it wraps.  ``hill_climb`` only sees the protocol, so the time it
    spends outside these calls is the search layer's own."""

    METHODS = ("partition_info", "evaluate", "begin_branch", "derivatives",
               "set_branch_length", "set_alphas", "set_gtr_rates",
               "get_alpha", "get_gtr_rates", "optimize_psr", "finish")

    def __init__(self, inner) -> None:
        self.tree = inner.tree
        self.n_partitions = inner.n_partitions
        self.n_branch_sets = inner.n_branch_sets
        self.calls: list[tuple[str, int, int]] = []
        for name in self.METHODS:
            setattr(self, name, self._timed(name, getattr(inner, name)))

    def _timed(self, name: str, fn):
        calls = self.calls

        def call(*args):
            t0 = time.perf_counter_ns()
            try:
                return fn(*args)
            finally:
                calls.append((name, t0, time.perf_counter_ns()))
        return call

    def seconds(self, name: str | None = None) -> float:
        return sum(t1 - t0 for n, t0, t1 in self.calls
                   if name is None or n == name) / 1e9

    def count(self, name: str) -> int:
        return sum(n == name for n, _, _ in self.calls)


# --------------------------------------------------------------------- #
# probes (each returns {metric: value}; see PROBES below)
# --------------------------------------------------------------------- #
def _build(inputs: dict):
    from repro.likelihood.partitioned import PartitionedLikelihood
    from repro.seq.io_fasta import read_fasta
    from repro.seq.partitions import read_partition_file
    from repro.tree.newick import parse_newick

    files = inputs["files"]
    alignment = read_fasta(Path(files["alignment"]))
    scheme = (read_partition_file(files["partitions"])
              if "partitions" in files else None)
    tree = parse_newick(Path(files["start_tree"]).read_text())
    return PartitionedLikelihood.build(alignment, tree, scheme=scheme)


def _search_config():
    from repro.search.search import SearchConfig

    # what `infer -n 1 -r 2` builds (GTR optimisation is on by default)
    return SearchConfig(max_iterations=1, radius_max=2, optimize_gtr=True)


def probe_startup(ctx: dict) -> dict:
    """cli/seq/tree set-up steps, from fresh interpreters."""
    env, work, inputs = ctx["env"], ctx["work"], ctx["inputs"]
    with ctx["spans"].span("cli.interp"):
        interp = [run_child([sys.executable, "-c", "pass"], env, work).wall_s
                  for _ in range(3)]
    steps = []
    for _ in range(3):
        with ctx["spans"].span("cli.setup_probe"):
            child = run_child(setup_cmd(inputs, ["--compress"]), env, work)
        if child.exit != 0:
            raise RuntimeError(child.stderr.strip().splitlines()[-1])
        steps.append(json.loads(child.stdout))

    def med(key: str) -> float:
        return statistics.median(s[key] for s in steps)

    ctx["setup_s"] = (statistics.median(interp) + med("import_s") + med("parse_s")
                      + med("partitions_s") + med("tree_parse_s") + med("build_s"))
    return {
        "cli.interp_s": statistics.median(interp),
        "cli.import_s": med("import_s"),
        "seq.parse_s": med("parse_s") + med("partitions_s"),
        "seq.compress_s": med("compress_s"),
        "seq.patterns": int(steps[0]["patterns"]),
        "seq.partitions": int(steps[0]["partitions"]),
        "tree.parse_s": med("tree_parse_s"),
        "likelihood.build_s": med("build_s"),
    }


def probe_search(ctx: dict) -> dict:
    """likelihood/model/search: the sequential search on this workload's
    files, in this process, behind the timing proxy and with the op
    profiler attached.  On the 2-rank workloads this is the sequential
    reference their kernel-call counts are divided by.  On the sequential
    ones the same search runs plain first: what the profiled search is
    slower than it by is the profiler's (and the proxy's) cost."""
    from repro.likelihood.backend import SequentialBackend
    from repro.likelihood.kernel import flops_per_unit
    from repro.obs.hotspots import OpProfiler
    from repro.search.checkpoint import load_checkpoint, save_checkpoint
    from repro.search.search import hill_climb

    spans = ctx["spans"]
    out: dict = {}
    if ctx["workload"].ranks == 1:
        plain = SequentialBackend(_build(ctx["inputs"]))
        with spans.span("search.hill_climb.plain") as sid:
            hill_climb(plain, _search_config())
        ctx["plain_search_s"] = spans.seconds(sid)

    lik = _build(ctx["inputs"])
    profiler = OpProfiler()
    lik.profiler = profiler
    backend = TimedBackend(SequentialBackend(lik))
    with spans.span("search.hill_climb") as sid:
        result = hill_climb(backend, _search_config())
    for name, t0, t1 in backend.calls:
        spans.add(f"backend.{name}", t0, t1, sid)
    wall = spans.seconds(sid)
    ctx["inproc_logl"] = result.logl

    per_op = {op: [0.0, 0, 0.0, 0.0] for op in OPS}
    for rec in profiler.records():
        if rec["op"] in per_op:
            acc = per_op[rec["op"]]
            acc[0] += rec["wall_ns"] / 1e9
            acc[1] += rec["count"]
            acc[2] += rec["units"]
            acc[3] += rec["alloc_bytes"]
    for op, (secs, calls, units, _) in per_op.items():
        out[f"likelihood.{op}.s"] = secs
        out[f"likelihood.{op}.calls"] = int(calls)
        out[f"likelihood.{op}.units"] = int(units)
        out[f"likelihood.{op}.ns_per_unit"] = secs * 1e9 / units if units else None
    kernel_s = sum(acc[0] for acc in per_op.values())
    ctx["seq_kernel_s"] = kernel_s
    ctx["seq_kernel_calls"] = sum(acc[1] for acc in per_op.values())
    nv = per_op["newview"]
    out["likelihood.newview.gflops_computed"] = (
        nv[2] * flops_per_unit("newview") / nv[0] / 1e9 if nv[0] else None)
    out["likelihood.kernel_share"] = kernel_s / wall
    out["likelihood.alloc_mb"] = sum(acc[3] for acc in per_op.values()) / 1e6
    out["likelihood.driver_self_s"] = backend.seconds() - kernel_s
    out["model.set_gtr_s"] = backend.seconds("set_gtr_rates")
    out["model.set_alpha_s"] = backend.seconds("set_alphas")

    out["search.wall_s"] = wall
    out["search.self_s"] = spans.self_seconds(sid)
    out["search.iterations"] = int(result.iterations)
    out["search.insertions_tried"] = int(result.insertions_tried)
    out["search.moves_accepted"] = int(result.moves_accepted)
    for method in ("evaluate", "begin_branch", "derivatives"):
        out[f"search.calls.{method}"] = backend.count(method)

    ckpt = ctx["work"] / "probe.ckpt.npz"
    with spans.span("search.checkpoint_write") as w:
        save_checkpoint(ckpt, lik, result.iterations, 1, result.logl)
    with spans.span("search.checkpoint_load") as r:
        load_checkpoint(ckpt)
    out["search.checkpoint_write_s"] = spans.seconds(w)
    out["search.checkpoint_load_s"] = spans.seconds(r)
    out["search.checkpoint_bytes"] = ckpt.stat().st_size
    if "plain_search_s" in ctx:
        out["obs.profiler_overhead_frac"] = wall / ctx["plain_search_s"] - 1.0
    return out


def probe_budget(ctx: dict) -> dict:
    """cli.unattributed_frac of a sequential workload: the share of a CLI
    run's wall that neither the set-up steps nor the search explain.  The
    search is timed inside that very run (``probe_cli.py``)."""
    if ctx["workload"].ranks > 1:
        return {}   # probe_trace budgets the traced 2-rank run
    rep = ctx["cli"]("cli.run.budget", ctx["workload"].engine,
                     launcher=str(HERE / "probe_cli.py"))
    search_s = json.loads(rep.child.stdout.strip().splitlines()[-1])["search_s"]
    return {"cli.unattributed_frac":
            1.0 - (ctx["setup_s"] + search_s) / rep.child.wall_s}


def probe_dist(ctx: dict) -> dict:
    """dist: splitting the gene files over two ranks as `--dist mps` does."""
    if ctx["workload"].ranks == 1:
        return {}
    import numpy as np
    from repro.dist import auto_distribution, split_local_data

    kind = "mps"
    lik = _build(ctx["inputs"])
    with ctx["spans"].span("dist.split") as sid:
        for rank in range(2):
            split_local_data(lik.parts, rank, 2, kind)
    loads = np.array([part.cost_patterns for part in lik.parts])
    dist = auto_distribution(loads, 2, use_mps=True)
    return {"dist.split_s": ctx["spans"].seconds(sid),
            "dist.imbalance": 1.0 / dist.balance()}


def _par_noop(comm, payload):
    return None


def _par_rounds(comm, payload):
    """Rank function of the `par` probe: round trips as rank 0 sees them."""
    import numpy as np

    vector = np.zeros(16)       # 8·16 bytes: one double per partition
    blob = bytes(456)           # a full-traversal descriptor of the gene files
    allreduce = []
    for _ in range(payload):
        t0 = time.perf_counter_ns()
        comm.allreduce(vector, tag="branch length optimization")
        allreduce.append(time.perf_counter_ns() - t0)
    comm.barrier()
    t0 = time.perf_counter_ns()
    for _ in range(payload):
        comm.bcast(blob if comm.rank == 0 else None, root=0,
                   tag="traversal descriptor")
    comm.barrier()  # the last broadcast has arrived
    bcast = (time.perf_counter_ns() - t0) / payload
    return statistics.median(allreduce) / 1e3, bcast / 1e3


@functools.cache
def _par_numbers(spans: Spans) -> dict:
    """Independent of the workload's data, so measured once per process."""
    from repro.par.mpcomm import run_mpi

    with spans.span("par.spawn") as sid:
        run_mpi(2, _par_noop)
    with spans.span("par.rounds"):
        (allreduce_us, bcast_us), _ = run_mpi(2, _par_rounds,
                                              [PAR_ROUNDS, PAR_ROUNDS])
    return {"par.spawn_s": spans.seconds(sid),
            "par.allreduce_us": allreduce_us, "par.bcast_us": bcast_us}


def probe_par(ctx: dict) -> dict:
    """par: process spawn and the two collectives the engines lean on,
    on two ranks."""
    return {} if ctx["workload"].ranks == 1 else _par_numbers(ctx["spans"])


def probe_scaling(ctx: dict) -> dict:
    """par.strong_scaling_eff: the single-partition files once more on two
    decentralized ranks with the cyclic distribution, T1 / (2 T2)."""
    if ctx["workload"].ranks > 1 or ctx["inputs"]["genes"] > 1:
        return {}
    two = ctx["cli"]("cli.run.decentralized2",
                     ["--engine", "decentralized", "--ranks", "2",
                      "--dist", "cyclic"])
    return {"par.strong_scaling_eff":
            ctx["untraced"].child.wall_s / (2.0 * two.child.wall_s)}


def probe_trace(ctx: dict) -> dict:
    """engines/obs: one run of a 2-rank workload with `--trace-dir`; the
    program's own per-rank JSONL streams are read back."""
    if ctx["workload"].ranks == 1:
        return {}   # `--trace-dir` is a distributed-engine flag
    from repro.obs.analyze import analyze_trace
    from repro.obs.export import read_jsonl

    trace_dir = ctx["work"] / "rank-traces"
    rep = ctx["cli"]("cli.run.traced", ctx["workload"].engine,
                     ["--trace-dir", str(trace_dir)])
    streams = {rank: read_jsonl(trace_dir / f"trace-rank{rank}.jsonl")
               for rank in range(ctx["workload"].ranks)}
    out: dict = {}
    # rank 0 is the fork-join master and any replica of the decentralized
    # scheme: its collectives carry the Table-I categories
    comm = [r for r in streams[0] if r.get("kind") == "comm"]
    for cat, label in CATEGORIES.items():
        mine = [r for r in comm if r.get("category") == label]
        out[f"engines.calls.{cat}"] = len(mine)
        out[f"engines.bytes.{cat}"] = int(sum(r.get("nbytes", 0) for r in mine))
    kernel = {rank: [r["attrs"] for r in recs if r.get("name") == "kernel_op"
                     and r["attrs"]["op"] in OPS]
              for rank, recs in streams.items()}
    out["engines.rank_kernel_s"] = max(
        sum(a["wall_ns"] for a in attrs) for attrs in kernel.values()) / 1e9
    calls = sum(a["count"] for attrs in kernel.values() for a in attrs)
    analysis, _ = analyze_trace([r for recs in streams.values() for r in recs])
    out["obs.wait_share"] = analysis.wait_share
    out["obs.imbalance"] = analysis.imbalance
    out["obs.spans"] = sum(len(recs) for recs in streams.values())
    out["obs.dropped_spans"] = int(analysis.dropped_spans)
    ctx["metrics"].update(out)  # kept if another probe's number is missing
    # the budget of this very run: set-up, rank spawn, the ranks' window
    attributed = (ctx["setup_s"] + ctx["metrics"]["par.spawn_s"]
                  + analysis.window_ns / 1e9)
    return {
        "dist.call_replication": calls / ctx["seq_kernel_calls"],
        "obs.trace_overhead_frac":
            rep.child.wall_s / ctx["untraced"].child.wall_s - 1.0,
        "cli.unattributed_frac": 1.0 - attributed / rep.child.wall_s,
    }


# --------------------------------------------------------------------- #
# one workload, traced
# --------------------------------------------------------------------- #
# probe -> prefixes of the metrics it owns (nulled, with the reason, if it
# fails).  A probe whose layer is not on the workload's path returns nothing.
PROBES = (
    (probe_startup, ("cli.interp_s", "cli.import_s", "seq.", "tree.",
                     "likelihood.build_s")),
    (probe_budget, ("cli.unattributed_frac",)),
    (probe_search, ("likelihood.", "model.", "search.",
                    "obs.profiler_overhead_frac")),
    (probe_dist, ("dist.split_s", "dist.imbalance")),
    (probe_par, ("par.spawn_s", "par.allreduce_us", "par.bcast_us")),
    (probe_scaling, ("par.strong_scaling_eff",)),
    (probe_trace, ("engines.", "obs.", "dist.call_replication",
                   "cli.unattributed_frac")),
)


def trace_workload(name: str, seed: int, work: Path, scale: float = 1.0,
                   log=lambda msg: None, spans: Spans | None = None) -> dict:
    """Per-layer metrics of one workload.  Returns a result shaped like
    ``harness.measure_workload``'s, with ``per_layer`` in place of
    ``end_to_end``."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    wl = WORKLOADS[name]
    spans = spans if spans is not None else Spans()
    spans.workload = name
    env = child_env(work)
    inputs = prepare_inputs(name, seed, work, scale)
    taxa = inputs["taxon_set"]
    runs: list[Rep] = []          # every run of the program, for the tally
    metrics: dict = {}
    reasons: dict[str, str] = {}
    failed_probes: list[str] = []

    def cli(span_name: str, engine: list[str], extra: list[str] | None = None,
            launcher: str | None = None) -> Rep:
        out_tree = work / f"{name}.{span_name}.nwk"
        cmd = infer_cmd(inputs, engine, out_tree, extra)
        if launcher:   # in place of `-m repro`
            cmd[1:3] = [launcher]
        with spans.span(span_name):
            child = run_child(cmd, env, work)
        runs.append(read_rep(child, out_tree, taxa))
        log(f"{name}: {span_name} {child.wall_s:.3f} s logL {runs[-1].logl}")
        return runs[-1]

    with spans.span("workload"):
        run_child([sys.executable, "-c", "import repro.cli"], env, work)
        untraced = cli("cli.run", wl.engine)
        metrics["cli.cpu_s"] = untraced.child.cpu_s
        ctx = {"workload": wl, "inputs": inputs, "env": env, "work": work,
               "spans": spans, "cli": cli, "untraced": untraced,
               "metrics": metrics}
        for fn, owns in PROBES:
            try:
                metrics.update(fn(ctx))
            except Exception as exc:  # noqa: BLE001 - a probe must not end the run
                log(f"{name}: probe {fn.__name__} FAILED: {exc!r}")
                failed_probes.append(fn.__name__)
                reasons.update({m: f"{fn.__name__}: {exc!r}" for m in PER_LAYER
                                if m.startswith(owns) and m not in metrics})
        checked = [r for r in runs if r is not untraced]  # vs the untraced run

        reference = None
        if wl.ranks > 1:
            # the same files on one process: the correctness reference
            reference = cli("cli.run.sequential", SEQUENTIAL)
            metrics["engines.speedup_vs_seq"] = (
                reference.child.wall_s / untraced.child.wall_s)

    cross_check([untraced], reference, expected_result(name, seed, scale),
                inputs["expected_match"])
    if untraced.ok:
        for rep in checked:
            rep.failures += same_result(rep, untraced.logl, untraced.splits,
                                        "the untraced run")
    if (wl.ranks == 1 and None not in (ctx.get("inproc_logl"), untraced.logl)
            and abs(ctx["inproc_logl"] - untraced.logl) > 1e-4):
        untraced.failures.append(
            f"in-process search logL {ctx['inproc_logl']:.4f} differs")

    per_layer = {}
    for metric, (unit, _) in PER_LAYER.items():
        entry = {"value": metrics.get(metric), "unit": unit}
        if entry["value"] is None:
            entry["reason"] = reasons.get(metric, NOT_ON_PATH)
        per_layer[metric] = entry
    if abs(metrics.get("cli.unattributed_frac") or 0.0) > 0.10:
        log(f"{name}: WARNING: |cli.unattributed_frac| "
            f"{metrics['cli.unattributed_frac']:.3f} > 0.10: the measured "
            "layers do not add up to the run's wall time")
    return {
        **tally(name, seed, inputs, runs, log),
        "logl": untraced.logl, "tree": untraced.newick,
        "time_to_tree_s": untraced.child.wall_s,
        "failed_probes": failed_probes,
        "per_layer": per_layer,
    }
