"""Pricing a log once per distinct region: :mod:`repro.perf.price` against
the per-region walks it replaced (:mod:`reference_pricing`).

Bytes, calls and communicating regions must agree exactly; seconds up to
summation order (1e-12 relative).  Logs: the four Table-I recordings and
synthetic logs mixing uniform and per-partition ``newview_ops``, priced
under both engines, cyclic and MPS, on 1–768 ranks.
"""

import numpy as np
import pytest

from repro import bench
from repro.dist.distributions import auto_distribution
from repro.engines import ENGINES, EventLog, Region, RegionKind
from repro.errors import ReproError
from repro.par.machine import HITS_CLUSTER
from repro.perf.costmodel import WorkloadMeta
from repro.perf.price import comm_totals, simulate_runtime

from reference_pricing import reference_comm_totals, reference_runtime

RANKS = (1, 3, 48, 768)


def synthetic(p, seed, n_shapes=40):
    """A log of ``n_shapes`` random region shapes, each repeated 1–50
    times, about half with per-partition op counts; and its workload
    (mixed Γ and PSR partitions)."""
    rng = np.random.default_rng(seed)
    log = EventLog()
    kinds = list(RegionKind)
    for _ in range(n_shapes):
        kind = kinds[rng.integers(len(kinds))]
        nbs = int(rng.choice([1, p]))
        if rng.random() < 0.5:
            ops = tuple(int(c) for c in rng.integers(0, 7, size=p))
        else:
            ops = int(rng.integers(0, 7))
        for _ in range(int(rng.integers(1, 51))):
            log.append(Region(kind, p, nbs, ops))
    psr = rng.random(p) < 0.5
    meta = WorkloadMeta(
        n_taxa=20,
        cost_patterns=rng.uniform(10.0, 5000.0, size=p),
        n_cats=np.where(psr, 1, 4),
        site_specific=psr,
    )
    return log, meta


def recorded(mode, minus_m):
    run = bench.record_partitioned(10, mode, minus_m)
    return run.log, run.meta


LOGS = {
    "table1-gamma": lambda: recorded("gamma", False),
    "table1-gamma-M": lambda: recorded("gamma", True),
    "table1-psr": lambda: recorded("psr", False),
    "table1-psr-M": lambda: recorded("psr", True),
    "synthetic-3": lambda: synthetic(3, seed=1),
    "synthetic-24": lambda: synthetic(24, seed=2),
    "synthetic-800": lambda: synthetic(800, seed=3, n_shapes=12),
}


def _configs(meta):
    for n in RANKS:
        yield "cyclic", n
        if n <= meta.n_partitions:
            yield "mps", n


@pytest.mark.parametrize("name", sorted(LOGS))
def test_one_pass_equals_the_per_region_walk(name):
    log, meta = LOGS[name]()
    assert len(log.counts) < len(log)  # shapes repeat: a real test of n·x
    for engine in ENGINES:
        totals = comm_totals(log, engine)
        assert tuple(totals) == reference_comm_totals(log, engine), engine
        for kind, n in _configs(meta):
            dist = auto_distribution(meta.cost_patterns, n,
                                     use_mps=(kind == "mps"))
            rep = simulate_runtime(log, engine, meta, HITS_CLUSTER, dist)
            compute_s, comm_s, sfactor = reference_runtime(
                log, engine, meta, HITS_CLUSTER, dist)
            where = (engine, kind, n)
            assert rep.compute_s == pytest.approx(compute_s, rel=1e-12), where
            assert rep.comm_s == pytest.approx(comm_s, rel=1e-12, abs=0), where
            assert rep.swap_factor == sfactor
            assert type(rep.compute_s) is type(rep.comm_s) is float


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_region_events_runs_once_per_distinct_shape(engine, monkeypatch):
    log, meta = synthetic(5, seed=4)
    events_of, categories = ENGINES[engine]
    calls = []

    def counting(region):
        calls.append(region)
        return events_of(region)

    monkeypatch.setitem(ENGINES, engine, (counting, categories))
    comm_totals(log, engine)
    assert len(calls) == len(log.counts) < len(log)
    calls.clear()
    simulate_runtime(log, engine, meta, HITS_CLUSTER,
                     auto_distribution(meta.cost_patterns, 4))
    assert len(calls) == len(log.counts)


def test_rank_count_beyond_the_machine_is_rejected():
    log, meta = synthetic(3, seed=5, n_shapes=3)
    dist = auto_distribution(meta.cost_patterns, HITS_CLUSTER.total_cores + 1)
    with pytest.raises(ReproError, match="exceed"):
        simulate_runtime(log, "decentralized", meta, HITS_CLUSTER, dist)


def test_distribution_must_match_the_workload():
    log, meta = synthetic(3, seed=6, n_shapes=3)
    dist = auto_distribution(np.ones(4), 2)
    with pytest.raises(ReproError, match="does not match"):
        simulate_runtime(log, "forkjoin", meta, HITS_CLUSTER, dist)
