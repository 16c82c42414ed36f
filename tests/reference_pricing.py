"""Reference pricing: the per-region walks :mod:`repro.perf.price`
replaced, kept as an oracle.

Both functions visit every region of a log in stream order (each distinct
region as often as it occurred) and price it from scratch, exactly as the
model was first written.  :mod:`repro.perf.price` prices each distinct
region once and weighs it by its multiplicity; the two must agree — byte
and call totals exactly, seconds up to summation order.
"""

from __future__ import annotations

import numpy as np

from repro.engines import ENGINES
from repro.par.network import collective_time
from repro.perf.costmodel import (
    rank_second_vector_custom,
    rank_second_vectors,
    swap_multiplier,
)


def reference_comm_totals(log, engine):
    """(bytes per category, calls per category, communicating regions)."""
    events_of, categories = ENGINES[engine]
    nbytes = dict.fromkeys(categories, 0.0)
    calls = dict.fromkeys(categories, 0)
    regions = 0
    for region in log:
        events = events_of(region)
        regions += bool(events)
        for ev in events:
            nbytes[ev.category] += ev.nbytes
            calls[ev.category] += 1
    return nbytes, calls, regions


def reference_runtime(log, engine, meta, machine, dist):
    """(compute seconds, communication seconds, swap factor)."""
    events_of, _ = ENGINES[engine]
    n_ranks = dist.n_ranks
    # uniform regions: every op vector has the same per-rank shape, so
    # the maximum of c · B[op] is c · max(B[op])
    max_seconds_per_op = {op: float(vec.max()) for op, vec in
                          rank_second_vectors(meta, machine, dist).items()}
    sfactor = swap_multiplier(meta, machine, dist)
    compute_s = 0.0
    comm_s = 0.0
    for region in log:
        region_compute = 0.0
        for op, count in region.kernel_ops().items():
            if isinstance(count, np.ndarray):
                vec = rank_second_vector_custom(meta, machine, dist, op, count)
                region_compute += float(vec.max())
            elif count:
                region_compute += count * max_seconds_per_op[op]
        compute_s += region_compute
        events = events_of(region)
        if events:
            comm_s += machine.region_sync_noise(n_ranks)
        if n_ranks > 1:
            serial = sum(ev.nbytes for ev in events if ev.collective == "bcast")
            comm_s += serial * machine.master_pack_s_per_byte
        for ev in events:
            comm_s += collective_time(machine, n_ranks, ev.collective, ev.nbytes)
    return compute_s * sfactor, comm_s, sfactor
