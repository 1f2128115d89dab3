"""Raw hardware event counters produced by a simulation.

:class:`EventCounters` is the boundary between the simulator and the
PMU layer: everything the profilers expose is derived from these counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.opcodes import OpClass
from repro.sim.stall_reasons import ALL_STATES, STALL_STATES, WarpState


@dataclass
class EventCounters:
    """Event counts for one simulated SM (summed over sub-partitions)."""

    #: cycles during which the SM had at least one resident warp.
    cycles_active: int = 0
    #: total cycles from launch to last warp exit (includes tail idle).
    cycles_elapsed: int = 0
    #: Σ over cycles of resident, not-yet-exited warps.
    warp_active_cycles: int = 0
    #: warp instructions completed (one per warp instruction).
    inst_executed: int = 0
    #: issue slots consumed (includes memory replays).
    inst_issued: int = 0
    #: Σ of active threads over executed instructions (≤ 32·inst_executed).
    thread_inst_executed: int = 0
    #: warp-cycles spent in each state (selected / not_selected / stalls).
    state_cycles: dict[WarpState, int] = field(
        default_factory=lambda: {s: 0 for s in ALL_STATES}
    )
    #: executed instructions per opcode class.
    inst_by_class: dict[OpClass, int] = field(
        default_factory=lambda: {c: 0 for c in OpClass}
    )
    # memory system
    l1_sector_accesses: int = 0
    l1_sector_hits: int = 0
    l2_sector_accesses: int = 0
    l2_sector_hits: int = 0
    constant_accesses: int = 0
    constant_hits: int = 0
    dram_accesses: int = 0
    #: extra issue slots from uncoalesced accesses (inst_issued - executed
    #: attributable to memory replays).
    replay_transactions: int = 0
    branches_executed: int = 0
    divergent_branches: int = 0
    barriers_executed: int = 0
    warps_launched: int = 0
    blocks_launched: int = 0

    # -- derived helpers -------------------------------------------------
    @property
    def total_stall_cycles(self) -> int:
        return sum(self.state_cycles[s] for s in STALL_STATES)

    def stall_fraction(self, state: WarpState) -> float:
        """Share of warp-active cycles spent in ``state`` (ncu .pct/100)."""
        if self.warp_active_cycles == 0:
            return 0.0
        return self.state_cycles[state] / self.warp_active_cycles

    def merge(self, other: "EventCounters") -> None:
        """Accumulate another SM's counters into this one (for HWPM-style
        whole-device aggregation)."""
        self.cycles_active += other.cycles_active
        self.cycles_elapsed = max(self.cycles_elapsed, other.cycles_elapsed)
        self.warp_active_cycles += other.warp_active_cycles
        self.inst_executed += other.inst_executed
        self.inst_issued += other.inst_issued
        self.thread_inst_executed += other.thread_inst_executed
        for s in ALL_STATES:
            self.state_cycles[s] += other.state_cycles[s]
        for c in OpClass:
            self.inst_by_class[c] += other.inst_by_class[c]
        self.l1_sector_accesses += other.l1_sector_accesses
        self.l1_sector_hits += other.l1_sector_hits
        self.l2_sector_accesses += other.l2_sector_accesses
        self.l2_sector_hits += other.l2_sector_hits
        self.constant_accesses += other.constant_accesses
        self.constant_hits += other.constant_hits
        self.dram_accesses += other.dram_accesses
        self.replay_transactions += other.replay_transactions
        self.branches_executed += other.branches_executed
        self.divergent_branches += other.divergent_branches
        self.barriers_executed += other.barriers_executed
        self.warps_launched += other.warps_launched
        self.blocks_launched += other.blocks_launched

    def diff(self, other: "EventCounters") -> list[str]:
        """Human-readable field-by-field differences against ``other``.

        Returns one ``"field: self != other"`` line per mismatching
        counter (empty list when bit-identical).  The equivalence tests
        use this so a golden/bit-identity failure names the diverging
        counters instead of dumping two whole records.
        """
        lines: list[str] = []
        for name in (
            "cycles_active", "cycles_elapsed", "warp_active_cycles",
            "inst_executed", "inst_issued", "thread_inst_executed",
            "l1_sector_accesses", "l1_sector_hits", "l2_sector_accesses",
            "l2_sector_hits", "constant_accesses", "constant_hits",
            "dram_accesses", "replay_transactions", "branches_executed",
            "divergent_branches", "barriers_executed", "warps_launched",
            "blocks_launched",
        ):
            a, b = getattr(self, name), getattr(other, name)
            if a != b:
                lines.append(f"{name}: {a} != {b}")
        for s in ALL_STATES:
            a, b = self.state_cycles[s], other.state_cycles[s]
            if a != b:
                lines.append(f"state_cycles[{s.name}]: {a} != {b}")
        for c in OpClass:
            a, b = self.inst_by_class[c], other.inst_by_class[c]
            if a != b:
                lines.append(f"inst_by_class[{c.name}]: {a} != {b}")
        return lines

    def validate(self) -> None:
        """Internal-consistency checks (used by tests and the launcher)."""
        assert self.inst_issued >= self.inst_executed, (
            "issued must include every executed instruction"
        )
        assert self.thread_inst_executed <= 32 * self.inst_executed
        assert self.l1_sector_hits <= self.l1_sector_accesses
        assert self.l2_sector_hits <= self.l2_sector_accesses
        assert self.constant_hits <= self.constant_accesses
        assert self.cycles_active <= self.cycles_elapsed
        total_states = sum(self.state_cycles.values())
        assert total_states == self.warp_active_cycles, (
            f"state cycles {total_states} != warp active "
            f"{self.warp_active_cycles}"
        )
