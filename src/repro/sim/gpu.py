"""Whole-device simulation: block distribution across SMs and the
kernel-level result record.

Metrics in the paper are per-SM averages (§IV.A), so by default one
*representative* SM is simulated in detail and device duration follows
from the block share that SM receives under round-robin distribution.
``SimConfig.simulated_sms`` > 1 simulates additional SMs (different
block shares, different pseudo-random streams) and averages, matching
the SMPC collection mode where every SM is observed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.arch.spec import GPUSpec
from repro.isa.program import KernelProgram, LaunchConfig
from repro.sim.config import DEFAULT_CONFIG, SimConfig
from repro.sim.counters import EventCounters
from repro.sim.fingerprint import sim_fingerprint
from repro.sim.sm import _blocks_for_sm


@dataclass
class KernelSimResult:
    """Everything a profiler needs to know about one kernel execution."""

    program: KernelProgram
    launch: LaunchConfig
    spec: GPUSpec
    #: counters of each explicitly simulated SM.
    per_sm: list[EventCounters]
    #: device duration in cycles (max over simulated SMs' elapsed time).
    duration_cycles: int
    #: approximate bytes the kernel touched (drives replay-flush cost).
    working_set_bytes: int

    @cached_property
    def counters(self) -> EventCounters:
        """Aggregated (summed) counters across simulated SMs.

        Cached: the Top-Down math and the report layers read this
        repeatedly, and the merge walks every counter field of every
        simulated SM.  ``per_sm`` is never mutated after construction,
        so computing once is safe.
        """
        agg = EventCounters()
        for c in self.per_sm:
            agg.merge(c)
        return agg

    @property
    def duration_seconds(self) -> float:
        """Duration in seconds at the device's base clock."""
        return self.duration_cycles / (self.spec.base_clock_mhz * 1e6)

    @property
    def simulated_sm_count(self) -> int:
        return len(self.per_sm)


class GPUSimulator:
    """Launches kernels on a device spec and returns simulation results."""

    def __init__(self, spec: GPUSpec, config: SimConfig = DEFAULT_CONFIG) -> None:
        self.spec = spec
        self.config = config
        # kernel executions are deterministic given (program, launch,
        # config), so content-equal re-launches return the cached
        # result — exactly what profiler replay passes rely on.  Keyed
        # by content fingerprint, not id(program): the interpreter may
        # reuse a garbage-collected program's address for a *different*
        # program, which an id() key would silently alias.
        self._cache: dict[str, KernelSimResult] = {}

    def launch(self, program: KernelProgram,
               launch: LaunchConfig) -> KernelSimResult:
        """Simulate one kernel launch (memoized: deterministic)."""
        key = sim_fingerprint(program, launch, self.spec, self.config)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        from repro.sim.engine import current_engine

        result = current_engine().simulate(
            self.spec, program, launch, self.config, key=key
        )
        self._cache[key] = result
        return result

    def launch_uncached(self, program: KernelProgram,
                        launch: LaunchConfig) -> KernelSimResult:
        """Always simulate, in this process: the engine's cell task.

        The simulated SMs run in ``sm_index`` order.  With
        ``share_l2`` they share one device-level L2 (see
        :class:`SimConfig` for why this is opt-in), so SM *i+1*
        observes SM *i*'s fills.
        """
        from repro.sim.backend import make_sm_simulator
        from repro.sim.caches import SectorCache

        n_sim = min(self.config.simulated_sms, self.spec.sm_count)
        shared_l2 = (
            SectorCache(self.spec.memory.l2) if self.config.share_l2
            else None
        )
        per_sm = [
            make_sm_simulator(
                self.spec, program, launch, self.config,
                sm_index=sm_index, shared_l2=shared_l2,
            ).run()
            for sm_index in range(n_sim)
        ]
        return KernelSimResult(
            program=program,
            launch=launch,
            spec=self.spec,
            per_sm=per_sm,
            duration_cycles=max(c.cycles_elapsed for c in per_sm),
            working_set_bytes=sum(
                p.working_set_bytes for p in program.patterns
            ),
        )


def simulate_kernel(
    spec: GPUSpec,
    program: KernelProgram,
    launch: LaunchConfig,
    config: SimConfig = DEFAULT_CONFIG,
) -> KernelSimResult:
    """Convenience one-shot launcher."""
    return GPUSimulator(spec, config).launch(program, launch)


__all__ = [
    "GPUSimulator",
    "KernelSimResult",
    "simulate_kernel",
    "_blocks_for_sm",
]
