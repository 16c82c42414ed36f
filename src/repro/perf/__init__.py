"""Performance model: converts a recorded region stream plus a machine
description and data distribution into simulated wall-clock time,
communication-byte breakdowns and memory footprints."""

from repro.perf.costmodel import WorkloadMeta, memory_footprint_per_node, swap_multiplier
from repro.perf.runtime_sim import RuntimeReport, simulate_runtime
from repro.perf.report import format_table1
from repro.perf.scaling import PredictedScaling, predict_scaling, predicted_ordering

__all__ = [
    "WorkloadMeta",
    "memory_footprint_per_node",
    "swap_multiplier",
    "RuntimeReport",
    "simulate_runtime",
    "format_table1",
    "PredictedScaling",
    "predict_scaling",
    "predicted_ordering",
]
