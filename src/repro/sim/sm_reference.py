"""Frozen reference implementation of the SM cycle loop.

:class:`ReferenceSMSimulator` preserves the seed revision's *per-cycle
full scan*: every cycle, every resident warp is examined and charged
exactly one :class:`~repro.sim.stall_reasons.WarpState`, with a
fast-forward only when *no* sub-partition has an issue candidate.

It is the behavioural oracle of the cycle loop behind
:meth:`~repro.sim.sm.SMSimulator.run`:

* ``tests/test_sim_equivalence.py`` runs randomized and directed
  kernels through both and asserts bit-identical
  :class:`EventCounters`;
* ``benchmarks/test_bench_simcore.py`` uses it for the "before"
  timings in ``BENCH_SIMCORE.json``.

It is also the simulator of record wherever one issue at a time must
be observable: programs the cycle loop declines, the issue tracer
(:mod:`repro.sim.trace`) and the sanitizer's
``SanitizingSimulator`` all run here, hooking ``_attempt_issue`` and
``_release_barrier``.

The whole per-cycle path is pinned: the scan loop, the block/warp
bookkeeping (spawn, retire, barrier release), and the issue path
(``_attempt_issue`` and the ``_issue_*`` / ``_count_executed*`` /
``_advance`` helpers), exactly as the seed revision wrote them —
dictionary-keyed state counters, enum properties, plain
:func:`~repro.sim.rng.uniform` calls and all.  The shared memory-model
helpers the issue path leans on are pinned too: ``_SeedSectorCache`` /
``_SeedMemoryHierarchy`` / ``_SeedAddressGenerator`` and the
combined-scan scoreboard check are verbatim seed copies, wired in by
``__init__``.  The equivalence suite therefore proves the *entire*
fast stack — loop, issue path, caches, address generation, scoreboard
— against the seed, not just the loop.  Only the per-SM set-up
(geometry, queues, occupancy) is inherited from
:class:`~repro.sim.sm.SMSimulator`.  Do not "improve" this file: its
value is that it does not change.
"""

from __future__ import annotations

from repro.arch.spec import CacheSpec
from repro.errors import SimulationError
from repro.isa.instruction import AccessKind, Instruction
from repro.isa.opcodes import OpClass, Opcode
from repro.isa.program import AccessPattern
from repro.sim.counters import EventCounters
from repro.sim.functional_units import PipeSet
from repro.sim.rng import hash_u64, stable_str_hash, uniform
from repro.sim.sm import SMSimulator
from repro.sim.stall_reasons import WarpState
from repro.sim.warp import SB_LONG, SB_SHORT, Warp

_SECTOR_BYTES = 32

#: sentinel ready_cycle for barrier blocking (released by a sibling warp).
_BARRIER_WAIT = 1 << 60


class _SeedSectorCache:
    """Seed revision of :class:`repro.sim.caches.SectorCache`."""

    __slots__ = ("spec", "_sets", "_lines_per_sector_shift", "accesses",
                 "hits")

    def __init__(self, spec: CacheSpec) -> None:
        self.spec = spec
        self._sets: list[list[int]] = [[] for _ in range(spec.num_sets)]
        shift = 0
        ratio = spec.sectors_per_line
        while (1 << shift) < ratio:
            shift += 1
        self._lines_per_sector_shift = shift
        self.accesses = 0
        self.hits = 0

    def reset_stats(self) -> None:
        self.accesses = 0
        self.hits = 0

    def flush(self) -> None:
        for s in self._sets:
            s.clear()

    def probe(self, sector_id: int) -> bool:
        line = sector_id >> self._lines_per_sector_shift
        cache_set = self._sets[line % len(self._sets)]
        self.accesses += 1
        try:
            cache_set.remove(line)
        except ValueError:
            if len(cache_set) >= self.spec.ways:
                cache_set.pop(0)
            cache_set.append(line)
            return False
        cache_set.append(line)
        self.hits += 1
        return True

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class _SeedMemoryHierarchy:
    """Seed revision of :class:`repro.sim.caches.MemoryHierarchy`."""

    __slots__ = ("l1", "l2", "constant", "dram_latency", "l2_accesses",
                 "dram_accesses")

    def __init__(self, l1, l2, constant, dram_latency: int) -> None:
        self.l1 = l1
        self.l2 = l2
        self.constant = constant
        self.dram_latency = dram_latency
        self.l2_accesses = 0
        self.dram_accesses = 0

    def flush(self) -> None:
        self.l1.flush()
        self.l2.flush()
        self.constant.flush()

    def access_global(self, sector_ids: list[int]) -> int:
        worst = self.l1.spec.hit_latency
        for sid in sector_ids:
            if self.l1.probe(sid):
                continue
            self.l2_accesses += 1
            if self.l2.probe(sid):
                worst = max(worst, self.l2.spec.hit_latency)
            else:
                self.dram_accesses += 1
                worst = max(worst, self.dram_latency)
        return worst

    def access_constant(self, sector_ids: list[int]) -> tuple[bool, int]:
        missed = False
        worst = self.constant.spec.hit_latency
        for sid in sector_ids:
            if self.constant.probe(sid):
                continue
            missed = True
            self.l2_accesses += 1
            if self.l2.probe(sid):
                worst = max(worst, self.constant.spec.miss_latency)
            else:
                self.dram_accesses += 1
                worst = max(worst, self.dram_latency)
        return missed, worst


class _SeedAddressGenerator:
    """Seed revision of :class:`repro.sim.address_gen.AddressGenerator`."""

    __slots__ = ("pattern", "_base_sector", "_ws_sectors", "_seed")

    def __init__(self, pattern: AccessPattern, seed: int) -> None:
        self.pattern = pattern
        self._base_sector = pattern.base_address // _SECTOR_BYTES
        self._ws_sectors = max(1, pattern.working_set_bytes // _SECTOR_BYTES)
        self._seed = hash_u64(seed, stable_str_hash(pattern.name))

    def sectors(
        self,
        warp_global_id: int,
        iteration: int,
        slot: int,
        active_threads: int,
    ) -> list[int]:
        p = self.pattern
        if p.kind is AccessKind.UNIFORM:
            step = (iteration * 13 + slot * 3 + (warp_global_id & 7)) * 64
            offset = step % p.working_set_bytes
            return [self._base_sector + offset // _SECTOR_BYTES]

        if p.kind is AccessKind.RANDOM:
            out: set[int] = set()
            for lane in range(active_threads):
                h = hash_u64(self._seed, warp_global_id, iteration, slot,
                             lane)
                out.add(self._base_sector + h % self._ws_sectors)
            return sorted(out)

        stride_bytes = p.element_bytes * (
            p.stride_elements if p.kind is AccessKind.STRIDED else 1
        )
        cursor = (
            (warp_global_id * 131 + iteration) * 32 * stride_bytes
            + slot * 32 * p.element_bytes
        ) % p.working_set_bytes
        seen: set[int] = set()
        dedup: list[int] = []
        for lane in range(active_threads):
            byte = (cursor + lane * stride_bytes) % p.working_set_bytes
            sid = self._base_sector + byte // _SECTOR_BYTES
            if sid not in seen:
                seen.add(sid)
                dedup.append(sid)
        return dedup


def _scoreboard_block(warp: Warp, srcs, dst, cycle):
    """Seed revision of :meth:`repro.sim.warp.Warp.scoreboard_block`
    (combined ``(*srcs, dst)`` scan)."""
    pending = warp.pending_regs
    if not pending:
        return None
    worst = None
    worst_cycle = -1
    for reg in (*srcs, dst) if dst is not None else srcs:
        entry = pending.get(reg)
        if entry is None:
            continue
        ready, kind = entry
        if ready <= cycle:
            del pending[reg]
            continue
        if ready > worst_cycle:
            worst_cycle = ready
            worst = kind
    if worst is None:
        return None
    return worst, worst_cycle


class ReferenceSMSimulator(SMSimulator):
    """The seed SM simulator (O(resident warps) per cycle)."""

    def __init__(self, spec, program, launch, config, *, sm_index=0,
                 blocks_assigned=None, shared_l2=None):
        super().__init__(spec, program, launch, config, sm_index=sm_index,
                         blocks_assigned=blocks_assigned,
                         shared_l2=shared_l2)
        n_smsp = spec.sm.subpartitions
        self.pipes = [PipeSet(spec.sm) for _ in range(n_smsp)]
        self.warps: list[Warp] = []
        self.smsp_warps: list[list[Warp]] = [[] for _ in range(n_smsp)]
        self._rr: list[int] = [0] * n_smsp
        self._greedy: list[int] = [-1] * n_smsp  # GTO: last issued warp
        self._gto = config.scheduler == "gto"
        self._barrier_arrivals: dict[int, int] = {}
        self._block_live_warps: dict[int, int] = {}
        self._next_block = 0
        self._spawn_pending = 0
        self._exiting: set[int] = set()  # warp ids draining after EXIT

        # i-cache pressure: probability that a fetch-group boundary misses.
        footprint = program.footprint_instructions
        capacity = spec.sm.icache_capacity_instructions
        over = max(0, footprint - capacity)
        self._fetch_miss_p = min(0.92, over / max(footprint, 1))
        self._fetch_group = spec.sm.fetch_group_size

        # swap the optimized memory model and address generators for the
        # pinned seed copies; an externally shared L2 (multi-SM runs) is
        # kept as handed in — its owner decides the implementation.
        l2 = (shared_l2 if shared_l2 is not None
              else _SeedSectorCache(spec.memory.l2))
        self._l2_base = (l2.accesses, l2.hits)
        self.memory = _SeedMemoryHierarchy(
            l1=_SeedSectorCache(spec.memory.l1),
            l2=l2,
            constant=_SeedSectorCache(spec.memory.constant),
            dram_latency=spec.memory.dram_latency,
        )
        self.generators = {
            name: _SeedAddressGenerator(p, config.seed)
            for name, p in program.pattern_table.items()
        }

    # ------------------------------------------------------------------
    # block / warp management (seed revision)
    # ------------------------------------------------------------------
    def _spawn_block(self, cycle: int) -> None:
        """Make the next pending block resident and create its warps."""
        block_id = self._next_block
        self._next_block += 1
        wpb = self.launch.warps_per_block
        self._block_live_warps[block_id] = wpb
        self._barrier_arrivals[block_id] = 0
        base_id = (self.sm_index << 24) | (block_id << 8)
        for w in range(wpb):
            smsp = (block_id * wpb + w) % self.spec.sm.subpartitions
            warp = Warp(warp_id=base_id + w, block_id=block_id, smsp=smsp)
            # cold instruction fetch, slightly staggered per warp.
            warp.ready_cycle = cycle + self.spec.sm.icache_miss_latency + (w & 3)
            warp.wait_state = WarpState.NO_INSTRUCTION
            self.warps.append(warp)
            self.smsp_warps[smsp].append(warp)
        self.counters.blocks_launched += 1
        self.counters.warps_launched += wpb

    def _retire_warp(self, warp: Warp, cycle: int) -> None:
        """Mark a warp exited; schedule replacement blocks lazily."""
        warp.exited = True
        self._exiting.discard(warp.warp_id)
        block = warp.block_id
        remaining = self._block_live_warps[block] - 1
        self._block_live_warps[block] = remaining
        if remaining == 0:
            del self._block_live_warps[block]
            self._barrier_arrivals.pop(block, None)
            if self._next_block < self.blocks_total:
                self._spawn_pending += 1
        elif (
            self._barrier_arrivals.get(block, 0) >= remaining > 0
        ):
            # a warp exited while siblings wait at a barrier that is now
            # complete without it — release them.
            self._release_barrier(block, cycle)

    def _release_barrier(self, block: int, cycle: int) -> None:
        self._barrier_arrivals[block] = 0
        for other in self.warps:
            if other.block_id == block and other.at_barrier:
                other.at_barrier = False
                other.ready_cycle = cycle + 1
                other.wait_state = WarpState.NO_INSTRUCTION

    def _end_of_cycle_spawn(self, cycle: int) -> None:
        """Purge exited warps and make replacement blocks resident."""
        for lst in self.smsp_warps:
            lst[:] = [w for w in lst if not w.exited]
        self.warps = [w for w in self.warps if not w.exited]
        while self._spawn_pending > 0 and self._next_block < self.blocks_total:
            self._spawn_pending -= 1
            self._spawn_block(cycle + 1)
        self._spawn_pending = 0

    # ------------------------------------------------------------------
    # issue path (seed revision)
    # ------------------------------------------------------------------
    def _attempt_issue(self, warp: Warp, inst: Instruction,
                       cycle: int) -> WarpState:
        """Try to issue ``inst`` from ``warp`` at ``cycle``.

        Returns the warp's state for this cycle: ``SELECTED`` on issue, or
        a (timed) stall state when a structural hazard blocks it.
        """
        op = inst.opcode

        # pseudo-random micro-hiccups (register bank / dispatch glitches);
        # guarded by a per-dynamic-instruction token so the deterministic
        # roll cannot stall the same instruction more than once.
        token = warp.iteration * len(self.program.body) + warp.pc
        if token != warp.hiccup_token:
            if len(inst.srcs) >= 2 and self.config.bank_conflict_rate > 0.0:
                if (
                    uniform(self.config.seed, warp.warp_id, warp.iteration,
                            warp.pc, 7)
                    < self.config.bank_conflict_rate
                ):
                    warp.hiccup_token = token
                    warp.ready_cycle = cycle + 2
                    warp.wait_state = WarpState.MISC
                    return WarpState.MISC
            if self.config.dispatch_stall_rate > 0.0:
                if (
                    uniform(self.config.seed, warp.warp_id, warp.iteration,
                            warp.pc, 11)
                    < self.config.dispatch_stall_rate
                ):
                    warp.hiccup_token = token
                    warp.ready_cycle = cycle + 2
                    warp.wait_state = WarpState.DISPATCH_STALL
                    return WarpState.DISPATCH_STALL

        if op.is_memory:
            return self._issue_memory(warp, inst, cycle)
        if op is Opcode.BRA:
            return self._issue_branch(warp, inst, cycle)
        if op is Opcode.BAR:
            return self._issue_barrier(warp, cycle)
        if op is Opcode.MEMBAR:
            self._count_executed(warp, inst)
            wake = max(
                cycle + self.spec.memory.shared_latency,
                warp.last_mem_complete,
            )
            warp.ready_cycle = wake
            warp.wait_state = WarpState.MEMBAR
            self._advance(warp, cycle)
            return WarpState.SELECTED
        if op is Opcode.NANOSLEEP:
            self._count_executed(warp, inst)
            warp.ready_cycle = cycle + 40
            warp.wait_state = WarpState.SLEEPING
            self._advance(warp, cycle)
            return WarpState.SELECTED

        # ALU / control ops execute on a functional-unit pipe.
        unit = op.functional_unit or "ctrl"
        pipe = self.pipes[warp.smsp]
        if not pipe.available(unit, cycle):
            warp.ready_cycle = pipe.next_free(unit)
            warp.wait_state = WarpState.MATH_PIPE_THROTTLE
            return WarpState.MATH_PIPE_THROTTLE
        latency = pipe.issue(unit, cycle)
        self._count_executed(warp, inst)
        if inst.dst is not None:
            warp.pending_regs[inst.dst] = (cycle + latency, 0)  # SB_FIXED
        warp.ready_cycle = cycle + 1
        self._advance(warp, cycle)
        return WarpState.SELECTED

    def _issue_memory(self, warp: Warp, inst: Instruction,
                      cycle: int) -> WarpState:
        op = inst.opcode
        c = self.counters
        smsp = warp.smsp
        mem_spec = self.spec.memory
        assert inst.mem is not None
        gen = self.generators[inst.mem.pattern]

        if op.op_class is OpClass.MEM_CONSTANT:
            # constant reads go through the IMC; no LSU queue involved.
            sectors = gen.sectors(warp.warp_id, warp.iteration, warp.pc, 1)
            missed, latency = self.memory.access_constant(sectors)
            c.inst_issued += 1
            self._count_executed(warp, inst)
            if missed:
                warp.ready_cycle = cycle + latency
                warp.wait_state = WarpState.IMC_MISS
            else:
                warp.ready_cycle = cycle + 1
            if inst.dst is not None:
                warp.pending_regs[inst.dst] = (cycle + latency, 0)
            self._advance(warp, cycle)
            return WarpState.SELECTED

        sectors = gen.sectors(
            warp.warp_id, warp.iteration, warp.pc, warp.active_threads
        )
        lsu_width = mem_spec.lsu_sectors_per_cycle
        transactions = max(1, -(-len(sectors) // lsu_width))

        if op.op_class is OpClass.MEM_SHARED:
            queue = self.mio_queue[smsp]
            throttle = WarpState.MIO_THROTTLE
        elif op.op_class is OpClass.MEM_TEXTURE:
            queue = self.tex_queue[smsp]
            throttle = WarpState.TEX_THROTTLE
        else:
            queue = self.lg_queue[smsp]
            throttle = WarpState.LG_THROTTLE

        if queue.full(cycle, transactions):
            # wait until the queue drains enough to accept us.
            warp.ready_cycle = max(cycle + 1, queue.next_drain(cycle))
            warp.wait_state = throttle
            return throttle

        queue_delay = queue.push(cycle, transactions)
        if op.op_class is OpClass.MEM_SHARED:
            latency = mem_spec.shared_latency
            sb_kind = SB_SHORT
            # shared-memory bank conflicts genuinely replay at issue:
            # every extra wavefront consumes an issue slot.
            issue_slots = transactions
        else:
            latency = self.memory.access_global(sectors)
            sb_kind = SB_LONG
            # uncoalesced global accesses are mostly split inside the
            # LSU; only every fourth extra wavefront re-issues.
            issue_slots = 1 + (transactions - 1) // 4

        complete = cycle + queue_delay + latency
        c.inst_issued += issue_slots
        c.replay_transactions += issue_slots - 1
        self._count_executed(warp, inst)
        if op.is_load and inst.dst is not None:
            warp.pending_regs[inst.dst] = (complete, sb_kind)
        warp.last_mem_complete = max(warp.last_mem_complete, complete)
        if transactions > 1:
            # replayed wavefronts occupy the dispatch unit; dispatch
            # hands two wavefronts per cycle to the LSU front, so big
            # bursts outpace the queue's one-per-cycle drain and back
            # it up (lg/mio throttle).
            dispatch_cycles = (transactions + 1) // 2
            self.dispatch_busy_until[smsp] = max(
                self.dispatch_busy_until[smsp], cycle + dispatch_cycles
            )
            warp.ready_cycle = cycle + dispatch_cycles
        else:
            warp.ready_cycle = cycle + 1
        self._advance(warp, cycle)
        return WarpState.SELECTED

    def _issue_branch(self, warp: Warp, inst: Instruction,
                      cycle: int) -> WarpState:
        c = self.counters
        assert inst.branch is not None
        info = inst.branch
        self._count_executed(warp, inst)
        c.branches_executed += 1
        taken = round(32 * info.taken_fraction)
        if 0 < taken < 32 or info.else_length > 0:
            c.divergent_branches += 1
        warp.enter_region(warp.pc, info.if_length, info.else_length,
                          info.taken_fraction)
        warp.ready_cycle = cycle + self.spec.sm.branch_resolve_latency
        warp.wait_state = WarpState.BRANCH_RESOLVING
        self._advance(warp, cycle)
        return WarpState.SELECTED

    def _issue_barrier(self, warp: Warp, cycle: int) -> WarpState:
        c = self.counters
        self._count_executed_simple(warp)
        c.barriers_executed += 1
        block = warp.block_id
        self._barrier_arrivals[block] += 1
        expected = self._block_live_warps[block]
        if self._barrier_arrivals[block] >= expected:
            self._release_barrier(block, cycle)
            warp.ready_cycle = cycle + 1
        else:
            warp.at_barrier = True
            warp.ready_cycle = _BARRIER_WAIT
            warp.wait_state = WarpState.BARRIER
        self._advance(warp, cycle)
        return WarpState.SELECTED

    # ------------------------------------------------------------------
    # bookkeeping (seed revision)
    # ------------------------------------------------------------------
    def _count_executed(self, warp: Warp, inst: Instruction) -> None:
        c = self.counters
        c.inst_executed += 1
        if not inst.opcode.is_memory:
            c.inst_issued += 1
        c.thread_inst_executed += warp.active_threads
        c.inst_by_class[inst.opcode.op_class] += 1

    def _count_executed_simple(self, warp: Warp) -> None:
        c = self.counters
        c.inst_executed += 1
        c.inst_issued += 1
        c.thread_inst_executed += warp.active_threads
        c.inst_by_class[OpClass.CONTROL] += 1

    def _advance(self, warp: Warp, cycle: int) -> None:
        """Move the warp past the instruction it just issued."""
        at_exit = warp.advance_pc(len(self.program.body),
                                  self.program.iterations)
        if at_exit:
            # implicit EXIT: counts as one more executed instruction.
            self._count_executed_simple(warp)
            if warp.last_mem_complete > cycle:
                warp.ready_cycle = warp.last_mem_complete
                warp.wait_state = WarpState.DRAIN
                self._exiting.add(warp.warp_id)
            else:
                self._retire_warp(warp, cycle)
            return
        # instruction-fetch modelling: group boundaries may miss.
        if warp.pc % self._fetch_group == 0 and self._fetch_miss_p > 0.0:
            if (
                uniform(self.config.seed, warp.warp_id, warp.iteration,
                        warp.pc, 3)
                < self._fetch_miss_p
            ):
                miss_ready = cycle + 1 + self.spec.sm.icache_miss_latency
                if miss_ready > warp.ready_cycle:
                    warp.ready_cycle = miss_ready
                    warp.wait_state = WarpState.NO_INSTRUCTION

    # ------------------------------------------------------------------
    # cycle loop (seed revision)
    # ------------------------------------------------------------------
    def run(self) -> EventCounters:
        """Simulate until every assigned block completes; return events."""
        c = self.counters
        if self.blocks_total == 0:
            return c
        cycle = 0
        while self._next_block < min(self.max_concurrent_blocks,
                                     self.blocks_total):
            self._spawn_block(0)

        body = self.program.body
        dispatch_per_smsp = self.spec.sm.dispatch_units_per_subpartition
        n_smsp = self.spec.sm.subpartitions
        state_cycles = c.state_cycles

        while True:
            live_count = sum(1 for w in self.warps if not w.exited)
            if live_count == 0:
                if self._next_block >= self.blocks_total:
                    break
                self._spawn_block(cycle)
                live_count = self.launch.warps_per_block
            if cycle >= self.config.max_cycles:
                raise SimulationError(
                    f"kernel {self.program.name!r} exceeded "
                    f"{self.config.max_cycles} simulated cycles"
                )

            c.cycles_active += 1
            c.warp_active_cycles += live_count

            any_candidate = False
            for smsp in range(n_smsp):
                warps = self.smsp_warps[smsp]
                if not warps:
                    continue
                dispatch_budget = dispatch_per_smsp
                dispatch_blocked = self.dispatch_busy_until[smsp] > cycle
                candidates: list[Warp] = []
                for warp in warps:
                    if warp.exited:
                        continue
                    if warp.ready_cycle > cycle:
                        state_cycles[warp.wait_state] += 1
                        continue
                    if warp.warp_id in self._exiting:
                        # drain finished: retire; no state this cycle.
                        c.warp_active_cycles -= 1
                        self._retire_warp(warp, cycle)
                        continue
                    inst = body[warp.pc]
                    block = _scoreboard_block(warp, inst.srcs, inst.dst,
                                              cycle)
                    if block is not None:
                        kind, ready = block
                        warp.ready_cycle = ready
                        warp.wait_state = (
                            WarpState.LONG_SCOREBOARD if kind == SB_LONG
                            else WarpState.SHORT_SCOREBOARD if kind == SB_SHORT
                            else WarpState.WAIT
                        )
                        state_cycles[warp.wait_state] += 1
                        continue
                    candidates.append(warp)

                if not candidates:
                    continue
                any_candidate = True
                if dispatch_blocked:
                    state_cycles[WarpState.DISPATCH_STALL] += len(candidates)
                    continue
                if self._gto:
                    # greedy-then-oldest: the last issued warp first (if
                    # still a candidate), then by warp age.
                    greedy_id = self._greedy[smsp]
                    order = sorted(
                        candidates,
                        key=lambda w: (w.warp_id != greedy_id, w.warp_id),
                    )
                else:
                    # loose round-robin start point for fairness.
                    start = self._rr[smsp] % len(candidates)
                    self._rr[smsp] += 1
                    order = candidates[start:] + candidates[:start]
                for warp in order:
                    if dispatch_budget > 0:
                        state = self._attempt_issue(warp, body[warp.pc], cycle)
                        state_cycles[state] += 1
                        if state is WarpState.SELECTED:
                            dispatch_budget -= 1
                            self._greedy[smsp] = warp.warp_id
                    else:
                        state_cycles[WarpState.NOT_SELECTED] += 1

            if self._spawn_pending:
                self._end_of_cycle_spawn(cycle)

            if not any_candidate:
                # fast-forward to the next warp wake-up.
                live = [w for w in self.warps if not w.exited]
                if live:
                    nxt = min(w.ready_cycle for w in live)
                    if nxt >= _BARRIER_WAIT:
                        raise SimulationError(
                            f"kernel {self.program.name!r}: all warps "
                            "blocked at a barrier (deadlock)"
                        )
                    skipped = nxt - (cycle + 1)
                    if skipped > 0:
                        if cycle + skipped >= self.config.max_cycles:
                            raise SimulationError(
                                f"kernel {self.program.name!r} exceeded "
                                f"{self.config.max_cycles} simulated cycles"
                            )
                        for w in live:
                            state_cycles[w.wait_state] += skipped
                        c.cycles_active += skipped
                        c.warp_active_cycles += skipped * len(live)
                        cycle = nxt
                        continue
            cycle += 1

        c.cycles_elapsed = cycle
        # copy memory-system statistics into the counter record.
        c.l1_sector_accesses = self.memory.l1.accesses
        c.l1_sector_hits = self.memory.l1.hits
        c.l2_sector_accesses = self.memory.l2.accesses - self._l2_base[0]
        c.l2_sector_hits = self.memory.l2.hits - self._l2_base[1]
        c.constant_accesses = self.memory.constant.accesses
        c.constant_hits = self.memory.constant.hits
        c.dram_accesses = self.memory.dram_accesses
        c.validate()
        return c


__all__ = ["ReferenceSMSimulator"]
