"""Kernel work a region log implies — the second side of the profiler
checks.

The :class:`~repro.obs.hotspots.OpProfiler` counts the kernel calls that
ran and reads their units off the stacks' shapes; the region log a
backend kept over the same calls says what the *search* asked for,
derived from the traversal descriptors alone, so it is the independent
side.  ``Σ Region.kernel_ops()[op] × cost_patterns × n_cats`` over the
log must equal the profiler's units exactly (integers at
``pattern_scale = 1``).  Not collected by pytest (no ``test_`` prefix).
"""

from __future__ import annotations

import numpy as np

PATTERN_OPS = ("newview", "evaluate", "sumtable", "derivative")


def region_work(log, parts) -> dict[str, tuple[float, int]]:
    """``{op: (units, invocations)}`` over ``log`` for the partitions
    ``parts`` this process computes (a share with no local patterns runs
    no kernel: it adds neither units nor invocations)."""
    unit = np.array([part.cost_patterns * part.n_cats for part in parts])
    computed = unit > 0
    units = dict.fromkeys(PATTERN_OPS, 0.0)
    calls = dict.fromkeys(PATTERN_OPS, 0)
    for region in log:
        for kind, ops in region.kernel_ops().items():
            per_part = np.broadcast_to(np.asarray(ops, dtype=np.float64), unit.shape)
            units[kind.value] += float(per_part @ unit)
            calls[kind.value] += int(per_part[computed].sum())
    return {op: (units[op], calls[op]) for op in PATTERN_OPS}
