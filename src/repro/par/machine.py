"""Machine descriptions for the performance model.

:data:`HITS_CLUSTER` mirrors the paper's test platform (Section IV-A): 50
AMD Magny-Cours nodes, 6 × Opteron 6174 (48 cores) per node, QLogic
InfiniBand, 46 nodes with 128 GB and 4 with 256 GB of RAM.

The kernel cost constants express that likelihood computation is *memory
bandwidth bound* (paper, Section V): each CLV entry is touched with only a
handful of floating point operations, so throughput per core is far below
peak FLOPS.  Constants are in nanoseconds per pattern·category and were
chosen so that absolute single-node runtimes land in the paper's range;
every claim we verify is about *relative* behaviour, which is insensitive
to the exact values (see EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.par.ledger import OpKind

__all__ = ["MachineSpec", "HITS_CLUSTER"]

GIB = 1024**3


def _default_op_costs() -> dict[OpKind, float]:
    return {
        OpKind.NEWVIEW: 14.0,
        OpKind.EVALUATE: 6.0,
        OpKind.SUMTABLE: 8.0,
        OpKind.DERIVATIVE: 4.0,
        OpKind.PMATRIX: 0.5,
    }


@dataclass(frozen=True)
class MachineSpec:
    """A cluster for the analytic performance model.

    Attributes
    ----------
    op_cost_ns:
        Nanoseconds per pattern·category for each kernel op on one core.
    psr_site_factor:
        Extra per-pattern cost multiplier for site-specific (PSR) kernels,
        which compute one P matrix per site instead of one per category.
    inter_latency_s / inter_bandwidth_bps:
        Per-message latency and bandwidth of the node interconnect.
    intra_latency_s / intra_bandwidth_bps:
        Same for the intra-node (shared-memory) stage of hierarchical
        collectives.
    ram_per_node_bytes:
        Usable RAM per node for the working set.
    mem_overhead_factor:
        Real resident footprint over the raw CLV bytes (allocator slack,
        tip data, sumtables, P-matrix workspaces, OS).
    swap_slowdown:
        Compute-time multiplier per unit of footprint excess beyond RAM
        (models the paging degradation the paper observed for Γ on 1–2
        nodes in Figure 3).
    """

    name: str
    n_nodes: int
    cores_per_node: int
    ram_per_node_bytes: float
    op_cost_ns: dict[OpKind, float] = field(default_factory=_default_op_costs)
    psr_site_factor: float = 1.7
    inter_latency_s: float = 8.0e-6
    inter_bandwidth_bps: float = 2.6e9
    intra_latency_s: float = 2.0e-6
    intra_bandwidth_bps: float = 7.0e9
    reduce_flop_s_per_byte: float = 2.5e-10
    #: Seconds per byte the fork-join master spends serially assembling,
    #: packing and staging broadcast payloads (descriptors, parameter
    #: arrays) while every worker idles.  This is the master-bottleneck
    #: term the de-centralized scheme eliminates: each replica derives its
    #: traversal locally and touches only its own partitions' bookkeeping.
    master_pack_s_per_byte: float = 60.0e-9
    #: Fixed per-parallel-region synchronization overhead at the reference
    #: rank count (192): OS-noise amplification, MPI progress and the wait
    #: for the slowest rank.  Scales with log2(ranks); both schemes pay it
    #: at every region where they synchronize.
    sync_noise_s: float = 2.2e-4
    mem_overhead_factor: float = 2.5
    swap_slowdown: float = 9.0
    #: Peak double-precision FLOP/s of one core (roofline ceiling).
    #: Default: Opteron 6174 at 2.2 GHz × 4 DP FLOPs/cycle (SSE FMA-less
    #: 2-wide mul+add) = 8.8 GFLOP/s.
    peak_flops_per_core: float = 8.8e9
    #: Sustained memory bandwidth available to one core when all cores
    #: stream (roofline slope).  Default: ≈85 GB/s STREAM per
    #: Magny-Cours node / 48 cores ≈ 1.8 GB/s.
    mem_bandwidth_per_core_bps: float = 1.8e9

    def __post_init__(self) -> None:
        if self.n_nodes < 1 or self.cores_per_node < 1:
            raise ReproError("machine needs at least one node and core")
        if self.ram_per_node_bytes <= 0:
            raise ReproError("RAM must be positive")

    @property
    def total_cores(self) -> int:
        return self.n_nodes * self.cores_per_node

    def region_sync_noise(self, n_ranks: int) -> float:
        """Per-synchronizing-region noise for a given rank count."""
        import math

        if n_ranks <= 1:
            return 0.0
        return self.sync_noise_s * math.log2(n_ranks) / math.log2(192)

    def nodes_for_ranks(self, n_ranks: int) -> int:
        """Nodes occupied when ranks are packed densely."""
        if n_ranks < 1:
            raise ReproError("need at least one rank")
        if n_ranks > self.total_cores:
            raise ReproError(
                f"{n_ranks} ranks exceed {self.total_cores} cores of {self.name}"
            )
        return -(-n_ranks // self.cores_per_node)

    @property
    def ridge_intensity(self) -> float:
        """Arithmetic intensity (FLOP/B) where the roofline's bandwidth
        slope meets the compute ceiling; kernels left of it are memory
        bound on this machine."""
        return self.peak_flops_per_core / self.mem_bandwidth_per_core_bps

    def attainable_flops(self, intensity: float) -> float:
        """Roofline ceiling (FLOP/s per core) at a given intensity:
        ``min(peak, intensity × bandwidth)``."""
        if intensity <= 0:
            return 0.0
        return min(
            self.peak_flops_per_core,
            intensity * self.mem_bandwidth_per_core_bps,
        )

    def with_ram(self, ram_per_node_bytes: float) -> "MachineSpec":
        """Same machine with different per-node RAM (the paper's runs used
        the four 256 GB nodes for low node counts)."""
        from dataclasses import replace

        return replace(self, ram_per_node_bytes=ram_per_node_bytes)


#: The paper's cluster (Section IV-A), with the 256 GB "fat" node RAM as
#: default — Figure 3's low-node-count runs were placed on those nodes.
HITS_CLUSTER = MachineSpec(
    name="HITS Magny-Cours",
    n_nodes=50,
    cores_per_node=48,
    ram_per_node_bytes=256 * GIB,
)
