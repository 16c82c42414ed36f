"""Data distribution: how site patterns are assigned to ranks."""

from repro.dist.distributions import (
    DataDistribution,
    cyclic_distribution,
    mps_distribution,
    auto_distribution,
    split_local_data,
)
from repro.dist.mps import lpt_schedule, mps_assignment, schedule_makespan

__all__ = [
    "DataDistribution",
    "cyclic_distribution",
    "mps_distribution",
    "auto_distribution",
    "split_local_data",
    "lpt_schedule",
    "mps_assignment",
    "schedule_makespan",
]
