"""Per-warp execution state for the pipeline simulator."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.stall_reasons import WarpState

#: scoreboard entry kinds — which stall a pending source register causes.
SB_FIXED = 0      # fixed-latency ALU producer -> WAIT
SB_LONG = 1       # L1TEX producer -> LONG_SCOREBOARD
SB_SHORT = 2      # MIO producer -> SHORT_SCOREBOARD


@dataclass(eq=False, slots=True)
class Warp:
    """Mutable state of one resident warp.

    ``eq=False``: warps are tracked by identity (per-SM and
    per-sub-partition lists), never compared field-by-field.
    ``slots=True``: warp fields are the hottest loads/stores in the
    reference scan; slot descriptors shave the per-access dict lookup.
    """

    warp_id: int            # global id (unique across the launch)
    block_id: int           # CTA this warp belongs to
    smsp: int               # sub-partition index within the SM

    pc: int = 0             # index into the program body
    iteration: int = 0      # body repetition count so far
    exited: bool = False

    #: active threads for the *current* region (SIMT divergence).
    active_threads: int = 32
    #: pending divergence region: list of (until_pc, threads) phases, or
    #: empty when converged.  Only one level (structured, non-nested).
    region: list[tuple[int, int]] = field(default_factory=list)

    #: warp cannot issue before this cycle ...
    ready_cycle: int = 0
    #: ... and while waiting it reports this state.
    wait_state: WarpState = WarpState.NO_INSTRUCTION

    #: scoreboard: register id -> (ready_cycle, kind).
    pending_regs: dict[int, tuple[int, int]] = field(default_factory=dict)

    #: waiting at a CTA barrier (cleared by the last arriving warp).
    at_barrier: bool = False

    #: completion cycle of the latest outstanding memory op (EXIT drain).
    last_mem_complete: int = 0

    #: token (iteration*body_len + pc) of the last micro-hiccup taken, so
    #: a deterministic re-roll cannot stall the same instruction twice.
    hiccup_token: int = -1

    def scoreboard_block(self, srcs: tuple[int, ...], dst: int | None,
                         cycle: int) -> tuple[int, int] | None:
        """Return ``(kind, ready_cycle)`` of the last-arriving pending
        operand blocking this instruction, or ``None`` if none block.

        Checks RAW on sources and WAW on the destination; expired entries
        are dropped as a side effect (keeps the dict small).
        """
        pending = self.pending_regs
        if not pending:
            return None
        worst: int | None = None
        worst_cycle = -1
        get = pending.get
        for reg in srcs:
            entry = get(reg)
            if entry is None:
                continue
            ready, kind = entry
            if ready <= cycle:
                del pending[reg]
                continue
            if ready > worst_cycle:
                worst_cycle = ready
                worst = kind
        if dst is not None:
            # WAW on the destination, checked after the sources (ties
            # keep the first-seen kind, as the combined scan did).
            entry = get(dst)
            if entry is not None:
                ready, kind = entry
                if ready <= cycle:
                    del pending[dst]
                elif ready > worst_cycle:
                    worst_cycle = ready
                    worst = kind
        if worst is None:
            return None
        return worst, worst_cycle

    def enter_region(self, pc: int, if_length: int, else_length: int,
                     taken_fraction: float) -> None:
        """Begin a structured divergence region right after a branch."""
        taken = round(32 * taken_fraction)
        taken = min(32, max(0, taken))
        phases: list[tuple[int, int]] = []
        cursor = pc + 1
        if if_length > 0:
            phases.append((cursor + if_length, taken if taken > 0 else 1))
            cursor += if_length
        if else_length > 0:
            fallthrough = 32 - taken
            phases.append((cursor + else_length, fallthrough if fallthrough > 0 else 1))
        self.region = phases
        self._apply_region()

    def _apply_region(self) -> None:
        if self.region:
            self.active_threads = self.region[0][1]
        else:
            self.active_threads = 32

    def advance_pc(self, body_len: int, iterations: int) -> bool:
        """Move to the next instruction; returns True if the warp is at
        its implicit EXIT (all iterations finished)."""
        self.pc += 1
        # leave divergence phases whose end we reached
        while self.region and self.pc >= self.region[0][0]:
            self.region.pop(0)
            self._apply_region()
        if self.pc >= body_len:
            self.pc = 0
            self.iteration += 1
            self.region.clear()
            self.active_threads = 32
            if self.iteration >= iterations:
                return True
        return False
