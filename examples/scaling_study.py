#!/usr/bin/env python3
"""Scaling study on the paper's cluster model.

Runs one search on a partitioned workload and prices its region log
for both engines across rank counts and distributions — a miniature of
the paper's whole evaluation section, including a fault-tolerance drill.

Run:  python examples/scaling_study.py            (a few seconds)
"""

from repro.bench import engine_pair, record_partitioned
from repro.engines.fault import recovery_time, redistribute_after_failure
from repro.par.machine import HITS_CLUSTER
from repro.perf.price import format_table1


def main() -> None:
    print("searching (100 partitions, Γ) ...")
    run = record_partitioned(100, "gamma")
    print(f"  {len(run.log)} parallel regions, final logl {run.result.logl:.0f}")

    print(f"\n{'ranks':>7}{'ExaML [s]':>12}{'RAxML-Light [s]':>17}{'speedup':>9}")
    for nodes in (1, 2, 4, 8, 16):
        ex, li = engine_pair(run, 48 * nodes)
        print(f"{48 * nodes:>7}{ex.total_s:>12.2f}{li.total_s:>17.2f}"
              f"{li.total_s / ex.total_s:>9.2f}")

    print("\ncommunication breakdown of the fork-join run (Table I style):")
    print(format_table1({"Γ, joint": run.log}))

    print("\nfault drill: kill 5 of 192 ranks under the decentralized scheme")
    dist = run.distribution(192)
    report = redistribute_after_failure(dist, failed_ranks=[3, 50, 77, 130, 191])
    secs = recovery_time(report, HITS_CLUSTER)
    print(f"  re-homed {report.bytes_moved / 1e6:.2f} MB to "
          f"{report.survivors} survivors in {secs * 1e3:.1f} ms (model)")
    print(f"  {report.reason}")


if __name__ == "__main__":
    main()
