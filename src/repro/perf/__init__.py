"""Performance model: converts a recorded region stream plus a machine
description and data distribution into simulated wall-clock time,
communication-byte breakdowns and memory footprints."""

from repro.perf.costmodel import WorkloadMeta, memory_footprint_per_node, swap_multiplier
from repro.perf.price import (
    CommTotals,
    RuntimeReport,
    comm_totals,
    format_table1,
    simulate_runtime,
    table1_rows,
)

__all__ = [
    "WorkloadMeta",
    "memory_footprint_per_node",
    "swap_multiplier",
    "CommTotals",
    "RuntimeReport",
    "comm_totals",
    "format_table1",
    "simulate_runtime",
    "table1_rows",
]
