"""GPU architecture specifications.

A :class:`GPUSpec` carries everything the rest of the library needs to
know about a device:

* topology (GPCs → TPCs → SMs → sub-partitions), mirroring paper §III;
* per-sub-partition pipeline parameters (functional-unit issue intervals
  and latencies, instruction-buffer and scheduler behaviour);
* memory-hierarchy geometry (L1/L2/constant caches, MIO queues, DRAM);
* PMU capacity (hardware counter registers per pass), which determines
  how many replay *passes* a profiling run needs (paper §II.A, §V.E).

Specs are plain frozen dataclasses so they can be hashed, compared and
used as dict keys by caches and registries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.compute_capability import ComputeCapability
from repro.errors import ArchitectureError


@dataclass(frozen=True)
class FunctionalUnitSpec:
    """Static description of one functional-unit class in a sub-partition.

    ``issue_interval`` is the number of cycles between back-to-back warp
    instructions accepted by the pipe (a 16-lane FP32 pipe accepts a
    32-thread warp every 2 cycles → issue_interval=2).  ``latency`` is
    the cycles until the result is visible to dependent instructions.
    """

    name: str
    issue_interval: int
    latency: int
    pipes: int = 1

    def __post_init__(self) -> None:
        if self.issue_interval < 1:
            raise ArchitectureError(f"{self.name}: issue_interval must be >= 1")
        if self.latency < 1:
            raise ArchitectureError(f"{self.name}: latency must be >= 1")
        if self.pipes < 1:
            raise ArchitectureError(f"{self.name}: pipes must be >= 1")


@dataclass(frozen=True)
class CacheSpec:
    """Geometry of a set-associative, sector-based cache."""

    name: str
    size_bytes: int
    line_bytes: int = 128
    sector_bytes: int = 32
    ways: int = 4
    hit_latency: int = 28
    miss_latency: int = 220

    def __post_init__(self) -> None:
        if self.size_bytes % (self.line_bytes * self.ways) != 0:
            raise ArchitectureError(
                f"{self.name}: size {self.size_bytes} not divisible by "
                f"line*ways = {self.line_bytes * self.ways}"
            )
        if self.line_bytes % self.sector_bytes != 0:
            raise ArchitectureError(f"{self.name}: line not a multiple of sector")
        if self.hit_latency < 1:
            raise ArchitectureError(f"{self.name}: hit_latency must be >= 1")
        if self.miss_latency < 1:
            raise ArchitectureError(f"{self.name}: miss_latency must be >= 1")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.ways)

    @property
    def sectors_per_line(self) -> int:
        return self.line_bytes // self.sector_bytes


@dataclass(frozen=True)
class MemorySpec:
    """Memory-hierarchy parameters shared by every SM of a device."""

    l1: CacheSpec
    l2: CacheSpec
    constant: CacheSpec
    dram_latency: int = 450
    #: entries in each sub-partition's MIO instruction queue (shared mem,
    #: SFU-via-MIO etc.); full queue → mio_throttle stalls.
    mio_queue_entries: int = 12
    #: entries in the L1 local/global instruction queue; full → lg_throttle.
    lg_queue_entries: int = 16
    #: entries in the texture queue; full → tex_throttle.
    tex_queue_entries: int = 8
    #: L1 wavefronts (sector groups) the LSU retires per cycle.
    lsu_sectors_per_cycle: int = 4
    #: shared-memory (MIO path) access latency in cycles.
    shared_latency: int = 24

    def __post_init__(self) -> None:
        if self.dram_latency < 1:
            raise ArchitectureError("dram_latency must be >= 1")
        if self.shared_latency < 1:
            raise ArchitectureError("shared_latency must be >= 1")


@dataclass(frozen=True)
class SMSpec:
    """One streaming multiprocessor: sub-partitions plus shared resources."""

    subpartitions: int
    warps_per_subpartition: int
    dispatch_units_per_subpartition: int
    functional_units: tuple[FunctionalUnitSpec, ...]
    #: instruction-buffer refill latency on an i-cache hit.
    ibuffer_fill_latency: int = 2
    #: extra latency of an instruction-cache miss (drives no_instruction).
    icache_miss_latency: int = 30
    #: i-cache reach, in instructions; programs larger than this start to
    #: miss when control flow jumps around.
    icache_capacity_instructions: int = 2048
    #: cycles a warp stays in branch_resolving after issuing a branch.
    branch_resolve_latency: int = 6
    #: instructions per i-cache fetch group (miss check granularity).
    fetch_group_size: int = 8
    registers_per_thread_limit: int = 255

    def __post_init__(self) -> None:
        if self.subpartitions < 1:
            raise ArchitectureError("subpartitions must be >= 1")
        if self.warps_per_subpartition < 1:
            raise ArchitectureError("warps_per_subpartition must be >= 1")
        if self.branch_resolve_latency < 1:
            raise ArchitectureError("branch_resolve_latency must be >= 1")
        names = [fu.name for fu in self.functional_units]
        if len(set(names)) != len(names):
            raise ArchitectureError(f"duplicate functional unit names: {names}")

    def functional_unit(self, name: str) -> FunctionalUnitSpec:
        for fu in self.functional_units:
            if fu.name == name:
                return fu
        raise ArchitectureError(f"SM has no functional unit named {name!r}")

    @property
    def max_warps(self) -> int:
        return self.subpartitions * self.warps_per_subpartition

    @property
    def dispatch_units(self) -> int:
        """Dispatch units per SM — the paper's IPC_MAX (§IV.C)."""
        return self.subpartitions * self.dispatch_units_per_subpartition


@dataclass(frozen=True)
class PMUSpec:
    """Capacity of the performance-monitoring unit.

    ``counters_per_pass`` bounds how many raw events one kernel execution
    can record; exceeding it forces kernel *replay passes* (paper §II.A).
    ``flush_overhead_factor`` models the inter-pass cache/memory flush the
    paper describes in §V.E (larger working sets flush longer).
    """

    counters_per_pass: int = 3
    flush_overhead_factor: float = 0.45
    #: fixed per-pass setup cost, as a fraction of kernel runtime.
    pass_setup_factor: float = 0.08


@dataclass(frozen=True)
class GPUSpec:
    """A complete device description (paper Table IX + simulator knobs)."""

    name: str
    compute_capability: ComputeCapability
    sm_count: int
    sm: SMSpec
    memory: MemorySpec
    pmu: PMUSpec = field(default_factory=PMUSpec)
    cuda_cores: int = 0
    memory_size_gb: int = 8
    memory_type: str = "GDDR5"
    tdp_watts: int = 150
    base_clock_mhz: int = 1500
    warp_size: int = 32
    max_blocks_per_sm: int = 16

    def __post_init__(self) -> None:
        if self.sm_count < 1:
            raise ArchitectureError("sm_count must be >= 1")
        if self.warp_size != 32:
            raise ArchitectureError("only 32-thread warps are supported")

    @property
    def ipc_max(self) -> float:
        """Theoretical per-SM max IPC = dispatch units per SM (eq. 7 text)."""
        return float(self.sm.dispatch_units)

    @property
    def uses_unified_metrics(self) -> bool:
        return self.compute_capability.uses_unified_metrics

    @property
    def default_profiler(self) -> str:
        """Which CLI tool the paper would drive for this device."""
        return "ncu" if self.uses_unified_metrics else "nvprof"

    def summary(self) -> dict[str, str]:
        """Row for the Table-IX reproduction."""
        return {
            "Feature": self.name,
            "Compute Capability": (
                f"{self.compute_capability} "
                f"({self.compute_capability.generation})"
            ),
            "Memory": f"{self.memory_size_gb}GB {self.memory_type}",
            "CUDA cores": str(self.cuda_cores),
            "SMs": str(self.sm_count),
            "SM Subpartitions": str(self.sm.subpartitions),
            "Power": f"{self.tdp_watts}W",
        }
