#!/usr/bin/env python3
"""Compare two result sets of ``run.py``: ``compare.py A.json B.json``.

A is the base (the parent commit), B the candidate.  One row per (workload,
end-to-end metric) with both reported values (the fastest repetition for
the two times, the median for memory), the ratio B/A, the bound from
``BENCHMARK.json`` and a verdict:

``ok``          B's value is not worse than A's by more than the bound;
``regressed``   it is;
``unresolved``  the run-to-run spread of either side (interquartile range
                over median) is wider than the bound and the two sides'
                samples interleave, so one pair of sets settles nothing.

Exits 1 on any ``regressed`` row, when B lacks a workload or metric A
has, or when B has a higher share of failed runs on a workload.  When both
sets are traced, per-layer counts that differ are listed too: counts repeat
exactly between runs of one commit, so a difference is a change in the work
done.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
COUNT_UNITS = ("count", "bytes")


def bounds() -> dict[str, tuple[float, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}


def spread(samples: list[float]) -> float:
    """Interquartile range as a share of the median."""
    if len(samples) < 2:
        return 0.0
    q = statistics.quantiles(samples, n=4)
    return (q[2] - q[0]) / statistics.median(samples)


def verdict(a: dict, b: dict, bound: float, better: str) -> tuple[float, str]:
    ratio = b["value"] / a["value"]
    worse_by = ratio - 1.0 if better == "lower" else 1.0 / ratio - 1.0
    interleave = not (min(b["samples"]) > max(a["samples"])
                      or max(b["samples"]) < min(a["samples"]))
    if max(spread(a["samples"]), spread(b["samples"])) > bound and interleave:
        return ratio, "unresolved"
    return ratio, "regressed" if worse_by > bound else "ok"


def compare(doc_a: dict, doc_b: dict) -> tuple[list[str], bool]:
    """Report lines and whether the comparison fails."""
    lines = [f"{'workload':<12}{'metric':<16}{'A':>12}{'B':>12}"
             f"{'B/A':>8}{'bound':>7}  verdict"]
    failed = False
    metric_bounds = bounds()
    for name, wa in doc_a["workloads"].items():
        wb = doc_b["workloads"].get(name)
        if wb is None:
            lines.append(f"{name:<12}missing from B")
            failed = True
            continue
        for metric, (bound, better) in metric_bounds.items():
            a = wa.get("end_to_end", {}).get(metric)
            b = wb.get("end_to_end", {}).get(metric)
            if a is None:
                continue
            if b is None:
                lines.append(f"{name:<12}{metric:<16}missing from B")
                failed = True
                continue
            ratio, word = verdict(a, b, bound, better)
            failed |= word == "regressed"
            lines.append(f"{name:<12}{metric:<16}{a['value']:>12.4f}"
                         f"{b['value']:>12.4f}{ratio:>8.3f}{bound:>7.2f}  {word}")
        share_a = wa["failed_runs"] / wa["runs"]
        share_b = wb["failed_runs"] / wb["runs"]
        lines.append(f"{name:<12}{'failed_runs':<16}"
                     f"{wa['failed_runs']:>9}/{wa['runs']:<2}"
                     f"{wb['failed_runs']:>9}/{wb['runs']:<2}"
                     f"{'':>15}  {'more failures' if share_b > share_a else 'ok'}")
        failed |= share_b > share_a

    differing = []
    for name, wa in doc_a["workloads"].items():
        layers_b = doc_b["workloads"].get(name, {}).get("per_layer", {})
        for metric, a in wa.get("per_layer", {}).items():
            b = layers_b.get(metric)
            if b and a["unit"] in COUNT_UNITS and a["value"] != b["value"]:
                differing.append(f"{name:<12}{metric:<36}{a['value']!s:>14}"
                                 f"{b['value']!s:>14}")
    if differing:
        lines += ["", "per-layer counts that differ (A, B):", *differing]
    return lines, failed


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    doc_a, doc_b = (json.loads(Path(p).read_text()) for p in argv)
    lines, failed = compare(doc_a, doc_b)
    print("\n".join(lines))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
