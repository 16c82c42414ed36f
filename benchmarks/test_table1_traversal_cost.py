"""Table I: fork-join MPI communication breakdown on the 10-partition
dataset, four configurations (Γ/PSR × per-partition/joint branches).

Paper rows (relative contribution to total bytes):

====================================  Γ,-M   Γ,joint  PSR,-M  PSR,joint
branch length optimization [%]        29.22     1.17   68.16       1.11
per-site/per-partition likelihoods    0.25      0.40    0.51       0.39
model parameters [%]                  0.33      0.52    0.99       2.78
traversal descriptor [%]              70.20    97.91   30.34      95.72
====================================  =====   ======  ======      =====

Shape criteria:

* the traversal descriptor dominates under joint branch lengths (>80%)
  and remains a major contributor under ``-M``;
* ``-M`` shifts a large share of bytes into branch-length optimization;
* per-site likelihood reductions and model-parameter broadcasts stay
  small (single-digit percent);
* ``-M`` runs trigger more parallel regions and move more bytes than
  joint runs.
"""

import pytest

from repro.bench import record_partitioned
from repro.engines.forkjoin import (
    CAT_BL_OPT,
    CAT_LIKELIHOOD,
    CAT_MODEL,
    CAT_TRAVERSAL,
)
from repro.perf.price import format_table1, table1_rows

CONFIGS = [
    ("Γ, per-partition", "gamma", True),
    ("Γ, joint", "gamma", False),
    ("PSR, per-partition", "psr", True),
    ("PSR, joint", "psr", False),
]


@pytest.fixture(scope="module")
def logs():
    return {
        label: record_partitioned(10, mode, per_partition_branches=pp).log
        for label, mode, pp in CONFIGS
    }


@pytest.mark.paper
def test_table1(benchmark, logs, show):
    rows = benchmark(lambda: {label: table1_rows(log) for label, log in logs.items()})
    show("Table I — fork-join communication breakdown (10 partitions)",
         format_table1(logs))

    for label, mode, pp in CONFIGS:
        r = rows[label]
        total = (
            r[f"{CAT_BL_OPT} [%]"]
            + r[f"{CAT_LIKELIHOOD} [%]"]
            + r[f"{CAT_MODEL} [%]"]
            + r[f"{CAT_TRAVERSAL} [%]"]
        )
        assert total == pytest.approx(100.0, abs=1e-6)
        # small rows stay small
        assert r[f"{CAT_LIKELIHOOD} [%]"] < 8.0, label
        assert r[f"{CAT_MODEL} [%]"] < 8.0, label

    # joint branches: the descriptor dominates (paper: 95.7-97.9%)
    for label in ("Γ, joint", "PSR, joint"):
        assert rows[label][f"{CAT_TRAVERSAL} [%]"] > 80.0, rows[label]

    # -M shifts bytes into branch-length optimization (paper: 29-68%)
    for gamma_label, joint_label in [
        ("Γ, per-partition", "Γ, joint"),
        ("PSR, per-partition", "PSR, joint"),
    ]:
        assert (
            rows[gamma_label][f"{CAT_BL_OPT} [%]"]
            > 5 * rows[joint_label][f"{CAT_BL_OPT} [%]"]
        )
        assert rows[gamma_label][f"{CAT_BL_OPT} [%]"] > 25.0

    # -M triggers more regions and more bytes than joint (paper: 5.8M vs
    # 1.7M regions, 2841 vs 1809 MB for Γ)
    for mode in ("Γ", "PSR"):
        pp = rows[f"{mode}, per-partition"]
        joint = rows[f"{mode}, joint"]
        assert pp["# parallel regions"] > joint["# parallel regions"]
        assert pp["# bytes communicated (MB)"] > joint["# bytes communicated (MB)"]
