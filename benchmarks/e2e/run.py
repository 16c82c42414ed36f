#!/usr/bin/env python3
"""End-to-end benchmark of ``repro infer``: time-to-tree on four workloads.

Two ways to run it, both from the repository root:

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
    One workload, as ``BENCHMARK.json`` declares it.  Generates the inputs
    from the seed, measures for about ``S`` seconds, checks the outputs and
    prints one JSON object as the last line of stdout: the end-to-end
    metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

``python3 benchmarks/e2e/run.py --label L [--seed N] [--traced] [--smoke]``
    Every workload in turn; prints every metric by name with its unit and
    writes the result document ``results/<L>.json`` (and, traced, the spans
    to ``results/trace-<L>.jsonl``) for ``compare.py``.

The program under test only ever runs as ``python -m repro infer ...`` in a
fresh interpreter, with tracing off, ``--no-register``, one BLAS/OpenMP
thread and ``REPRO_RUNS_DIR`` in a scratch directory.  This process never
imports ``repro`` unless a traced run asks for the per-layer probes
(``layers.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from harness import (  # noqa: E402
    DEFAULT_SEED, EXPECTED_PATH, RESULTS_DIR, ROOT, WORKLOADS, bipartitions,
    measure_workload,
)


# --------------------------------------------------------------------- #
# entry points
# --------------------------------------------------------------------- #
def scratch_dir() -> Path:
    base = HERE / ".work"
    base.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="run-", dir=base))


def log_stderr(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def run_one(args: argparse.Namespace) -> int:
    """The ``BENCHMARK.json`` contract: one workload, one JSON line."""
    work = scratch_dir()
    try:
        if args.trace:
            import layers

            result = layers.trace_workload(
                args.workload, args.seed, work, scale=args.scale, log=log_stderr)
            # The line carries numbers only: a layer that is not on this
            # workload's path reads 0; a probe that failed also reads 0,
            # and is counted below as a failed attempt.
            metrics = {name: {"value": m["value"] or 0, "unit": m["unit"]}
                       for name, m in result["per_layer"].items()}
            attempted = result["runs"] + len(layers.PROBES)
            failed = result["failed_runs"] + len(result["failed_probes"])
        else:
            result = measure_workload(args.workload, args.seed, args.seconds,
                                      work, scale=args.scale, log=log_stderr)
            metrics = {name: {"value": m["value"], "unit": m["unit"]}
                       for name, m in result["end_to_end"].items()}
            attempted, failed = result["runs"], result["failed_runs"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_set(args: argparse.Namespace) -> int:
    """Every workload; the result document ``compare.py`` reads."""
    doc = {
        "schema": 1, "label": args.label, "seed": args.seed,
        "mode": "traced" if args.traced else "untraced",
        "smoke": args.smoke, "seconds": args.seconds,
        "python": sys.version.split()[0], "cpus": os.cpu_count(),
        "workloads": {},
    }
    spans = None
    work = scratch_dir()
    try:
        if args.traced:
            import layers

            spans = layers.Spans()
        for name in WORKLOADS:
            if args.traced:
                doc["workloads"][name] = layers.trace_workload(
                    name, args.seed, work, scale=args.scale, log=log_stderr,
                    spans=spans)
            else:
                doc["workloads"][name] = measure_workload(
                    name, args.seed, args.seconds, work, scale=args.scale,
                    log=log_stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    genes = [w for n, w in doc["workloads"].items()
             if WORKLOADS[n].shape == "genes"]
    doc["genes_agree"] = (
        len({w["logl"] for w in genes}) == 1
        and len({bipartitions(w["tree"])[1] for w in genes if w["tree"]}) == 1)

    for name, w in doc["workloads"].items():
        print(f"{name}: {w['failed_runs']}/{w['runs']} runs failed, "
              f"logL {w['logl']}"
              + "".join(f", probe {p} failed" for p in w.get("failed_probes", ())))
        for metric, m in w.get("end_to_end", {}).items():
            print(f"  {metric:<40}{m['value']:>14.4f} {m['unit']:<6}"
                  f"min {m['min']:.4f} median {m['median']:.4f} "
                  f"max {m['max']:.4f} n {m['n']}")
        for metric, m in w.get("per_layer", {}).items():
            shown = "null" if m["value"] is None else f"{m['value']:.6g}"
            print(f"  {metric:<40}{shown:>14} {m['unit']:<6}"
                  + (f" ({m['reason']})" if m.get("reason") else ""))
    print(f"genes_* workloads agree on logL and topology: {doc['genes_agree']}")

    out = args.out or RESULTS_DIR / f"{args.label}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    if spans is not None:
        trace_out = out.with_name(f"trace-{out.stem}.jsonl")
        spans.write(trace_out)
        print(f"wrote {trace_out} ({len(spans.records)} spans)")
    if args.write_expected:
        write_expected(doc)
    failed = sum(w["failed_runs"] + len(w.get("failed_probes", ()))
                 for w in doc["workloads"].values())
    return 1 if failed or not doc["genes_agree"] else 0


def write_expected(doc: dict) -> None:
    """Refresh ``expected.json`` from an untraced default-seed set."""
    if doc["seed"] != DEFAULT_SEED or doc["smoke"] or doc["mode"] != "untraced":
        raise SystemExit("--write-expected needs an untraced, full-size run "
                         f"at seed {DEFAULT_SEED}")
    expected = {"seed": DEFAULT_SEED, "inputs": {}, "workloads": {}}
    for name, w in doc["workloads"].items():
        expected["inputs"][WORKLOADS[name].shape] = w["inputs"]["sha256"]
        expected["workloads"][name] = {"logl": w["logl"], "tree": w["tree"]}
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED_PATH}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    help="run this workload only and print one JSON line")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=27.0,
                    help="new cycles of one set-up probe and one timed "
                    "repetition start until this long has passed (one runs "
                    "in any case)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="with --workload: 1 prints the per-layer metrics")
    ap.add_argument("--label", default="local",
                    help="without --workload: name of the result set")
    ap.add_argument("--out", type=Path, help="result document "
                    "(default results/<label>.json)")
    ap.add_argument("--traced", action="store_true",
                    help="without --workload: the per-layer run")
    ap.add_argument("--smoke", action="store_true",
                    help="shrink every workload to seconds (harness test)")
    ap.add_argument("--write-expected", action="store_true",
                    help="refresh expected.json from this run")
    args = ap.parse_args(argv)
    args.scale = 0.1 if args.smoke else 1.0
    if args.smoke:
        args.seconds = 0.0

    if not (ROOT / "src" / "repro" / "__main__.py").exists():
        log_stderr(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
        return 2
    if args.write_expected:
        EXPECTED_PATH.unlink(missing_ok=True)  # do not check against the old one
    return run_one(args) if args.workload else run_set(args)


if __name__ == "__main__":
    raise SystemExit(main())
