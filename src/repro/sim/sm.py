"""Cycle-level simulation of one streaming multiprocessor.

The model follows the paper's §III pipeline sketch: per sub-partition a
warp scheduler selects among resident warps, a dispatch unit issues at
most ``dispatch_units_per_subpartition`` instructions per cycle, a
scoreboard blocks instructions whose operands are in flight, and
functional units / memory queues provide the structural hazards.

Per cycle every resident warp is assigned exactly one
:class:`~repro.sim.stall_reasons.WarpState` — the invariant the PMU
metrics rely on (``Σ state_cycles == warp_active_cycles``).

:class:`SMSimulator` holds the per-SM set-up — memory hierarchy,
address generators, LSU/MIO/TEX queues, occupancy, rate and seed
scalars, and the counters — and :meth:`SMSimulator.run` hands it to
the cycle loop of :mod:`repro.sim.specialize`, one function that
reads the program as per-pc tables built for the run.  The frozen
per-cycle scan (``sm_reference.ReferenceSMSimulator``) is the
behavioural oracle the loop is **bit-identical** to, pinned by
``tests/test_sim_equivalence.py`` and the golden fixture
``tests/data/golden_sim_counters.json``; it also runs the rare
programs the loop declines.
"""

from __future__ import annotations

from repro.arch.spec import GPUSpec
from repro.isa.opcodes import ALL_OP_CLASSES
from repro.isa.program import KernelProgram, LaunchConfig
from repro.obs.runtime import active_obs
from repro.sim.address_gen import AddressGenerator, build_generators
from repro.sim.caches import MemoryHierarchy, SectorCache
from repro.sim.config import SimConfig
from repro.sim.counters import EventCounters
from repro.sim.functional_units import DrainQueue
from repro.sim.rng import hash_u64
from repro.sim.stall_reasons import ALL_STATES


class SMSimulator:
    """Simulates the blocks assigned to one SM and collects its events."""

    def __init__(
        self,
        spec: GPUSpec,
        program: KernelProgram,
        launch: LaunchConfig,
        config: SimConfig,
        *,
        sm_index: int = 0,
        blocks_assigned: int | None = None,
        shared_l2: SectorCache | None = None,
    ) -> None:
        self.spec = spec
        self.program = program
        self.launch = launch
        self.config = config
        self.sm_index = sm_index
        total = blocks_assigned
        if total is None:
            total = _blocks_for_sm(launch.blocks, spec.sm_count, sm_index)
        self.blocks_total = total

        self.counters = EventCounters()
        # the L2 is a device-level resource: when several SMs are
        # simulated they share one array, so inter-SM interference (and
        # constructive sharing) is real.  Per-SM statistics are taken as
        # deltas around this SM's run.
        self._shared_l2 = shared_l2
        l2 = shared_l2 if shared_l2 is not None else SectorCache(
            spec.memory.l2
        )
        self._l2_base = (l2.accesses, l2.hits)
        self.memory = MemoryHierarchy(
            l1=SectorCache(spec.memory.l1),
            l2=l2,
            constant=SectorCache(spec.memory.constant),
            dram_latency=spec.memory.dram_latency,
        )
        self.generators: dict[str, AddressGenerator] = build_generators(
            program.pattern_table, config.seed
        )
        n_smsp = spec.sm.subpartitions
        mem = spec.memory
        self.lg_queue = [DrainQueue(mem.lg_queue_entries) for _ in range(n_smsp)]
        # the MIO/TEX paths drain slower than the LG path (shared memory
        # and texture pipes are narrower), so sustained pressure backs
        # the queues up into mio/tex_throttle stalls.
        self.mio_queue = [
            DrainQueue(mem.mio_queue_entries, drain_interval=2)
            for _ in range(n_smsp)
        ]
        self.tex_queue = [
            DrainQueue(mem.tex_queue_entries, drain_interval=2)
            for _ in range(n_smsp)
        ]
        self.dispatch_busy_until = [0] * n_smsp

        # the loop's accumulators: plain lists indexed by the enums'
        # int ``idx`` (no enum __hash__ per increment), folded back into
        # the enum-keyed EventCounters dicts when run() finishes.
        self._sc = [0] * len(ALL_STATES)
        self._cls = [0] * len(ALL_OP_CLASSES)
        self._hot = [0, 0, 0, 0]  # issued, executed, thread_exec, replay
        # scalars the loop's per-warp roll and memory tables read:
        # hash_u64(seed, warp_id) == mix64(_seed_acc ^ warp_id).
        self._seed_acc = hash_u64(config.seed)
        self._bank_rate = config.bank_conflict_rate
        self._disp_rate = config.dispatch_stall_rate
        self._lsu_width = mem.lsu_sectors_per_cycle
        # run() statistics, exported as obs metrics (docs/OBSERVABILITY.md).
        self._processed_cycles = 0
        self._skipped_cycles = 0
        self._wake_events = 0

        # resident-block limit: CUDA occupancy rules (warp slots, shared
        # memory, registers, block slots) capped by the config.
        from repro.arch.occupancy import KernelResources, theoretical_occupancy

        occupancy = theoretical_occupancy(
            spec, launch,
            KernelResources(
                registers_per_thread=program.registers_per_thread,
                shared_bytes_per_block=launch.shared_bytes_per_block,
            ),
        )
        self.occupancy = occupancy
        self.max_concurrent_blocks = max(
            1, min(occupancy.blocks_per_sm, config.max_resident_blocks)
        )

    def run(self) -> EventCounters:
        """Simulate until every assigned block completes; return events.

        :func:`repro.sim.specialize.driver_for` returns the cycle loop,
        or the reason it declines the program; a declined program runs
        on the reference scan instead, counted in
        ``sim.specialize_fallbacks``.
        """
        c = self.counters
        if self.blocks_total == 0:
            return c
        from repro.sim.specialize import driver_for

        loop = driver_for(self.program, self.spec, self.config)
        if isinstance(loop, str):
            return self._run_reference(loop)
        try:
            loop(self)
        finally:
            # fold the list-indexed accumulators into the enum-keyed
            # counter dicts, also when the loop raises (deadlock /
            # max_cycles) so partial counters stay sane.
            self._fold_fast_counters()
        # copy memory-system statistics into the counter record.
        c.l1_sector_accesses = self.memory.l1.accesses
        c.l1_sector_hits = self.memory.l1.hits
        c.l2_sector_accesses = self.memory.l2.accesses - self._l2_base[0]
        c.l2_sector_hits = self.memory.l2.hits - self._l2_base[1]
        c.constant_accesses = self.memory.constant.accesses
        c.constant_hits = self.memory.constant.hits
        c.dram_accesses = self.memory.dram_accesses
        c.validate()
        self._record_obs_metrics()
        return c

    def _run_reference(self, reason: str) -> EventCounters:
        """Run a declined program on the reference scan, visibly."""
        from repro.sim.sm_reference import ReferenceSMSimulator

        obs = active_obs()
        if obs.metrics.enabled:
            obs.metrics.inc("sim.specialize_fallbacks")
        obs.tracer.instant(
            "sim.specialize_fallback", cat="sim",
            kernel=self.program.name, reason=reason,
        )
        self.counters = ReferenceSMSimulator(
            self.spec, self.program, self.launch, self.config,
            sm_index=self.sm_index, blocks_assigned=self.blocks_total,
            shared_l2=self._shared_l2,
        ).run()
        return self.counters

    def _fold_fast_counters(self) -> None:
        """Fold ``_sc`` / ``_cls`` / ``_hot`` into the EventCounters."""
        c = self.counters
        for state, n in zip(ALL_STATES, self._sc):
            if n:
                c.state_cycles[state] += n
        self._sc = [0] * len(ALL_STATES)
        for op_class, n in zip(ALL_OP_CLASSES, self._cls):
            if n:
                c.inst_by_class[op_class] += n
        self._cls = [0] * len(ALL_OP_CLASSES)
        hot = self._hot
        c.inst_issued += hot[0]
        c.inst_executed += hot[1]
        c.thread_inst_executed += hot[2]
        c.replay_transactions += hot[3]
        self._hot = [0, 0, 0, 0]

    def _record_obs_metrics(self) -> None:
        """Export loop statistics as deterministic obs counters.

        Safe under the counters determinism contract: how many cycles
        the loop processed / skipped and how many warp wake-ups it
        served are pure functions of the inputs and the seed — nothing
        host-order or clock dependent (docs/OBSERVABILITY.md).
        """
        metrics = active_obs().metrics
        if metrics.enabled:
            metrics.inc("sim.processed_cycles", self._processed_cycles)
            metrics.inc("sim.skipped_cycles", self._skipped_cycles)
            metrics.inc("sim.wake_events", self._wake_events)


def _blocks_for_sm(total_blocks: int, sm_count: int, sm_index: int) -> int:
    """Blocks landing on ``sm_index`` under round-robin distribution."""
    base = total_blocks // sm_count
    return base + (1 if sm_index < total_blocks % sm_count else 0)
