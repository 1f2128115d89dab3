"""CUPTI-like profiling session.

:class:`CuptiSession` is the low-level measurement API the CLI-tool
emulators (:mod:`repro.profilers`) are built on, mirroring how the real
``nvprof``/``ncu`` sit on top of the CUPTI library (paper §II.A/§II.B).

Replay is modelled, not executed: the kernel is simulated once (it is
deterministic, so replays would observe identical counters) and the
time cost of every pass is *charged* analytically: each pass costs the
kernel duration plus a setup fraction plus a cache-flush cost that
grows with the kernel's working set (paper §V.E).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.spec import GPUSpec
from repro.errors import CounterError
from repro.isa.program import KernelProgram, LaunchConfig
from repro.pmu.catalog import catalog_for
from repro.pmu.events import EVENT_CATALOG
from repro.pmu.metrics import MetricContext, MetricDef
from repro.pmu.passes import PassPlan, schedule_passes
from repro.sim.config import DEFAULT_CONFIG, SimConfig
from repro.sim.counters import EventCounters
from repro.sim.gpu import GPUSimulator, KernelSimResult


@dataclass
class CollectedKernel:
    """Result of profiling one kernel launch."""

    kernel_name: str
    metrics: dict[str, float]
    events: dict[str, float]
    plan: PassPlan
    #: duration of one un-instrumented execution, in device cycles.
    native_cycles: int
    #: total charged profiling time across all passes, in device cycles.
    profiled_cycles: int
    sim_result: KernelSimResult

    @property
    def overhead(self) -> float:
        """Profiled/native time ratio for this kernel."""
        return self.profiled_cycles / self.native_cycles if self.native_cycles else 1.0


class CuptiSession:
    """Collects metrics for kernel launches on one device."""

    def __init__(
        self,
        spec: GPUSpec,
        config: SimConfig = DEFAULT_CONFIG,
        *,
        measurement_noise: float = 0.0,
    ) -> None:
        """``measurement_noise`` models PMU sampling error: each raw
        event value is perturbed multiplicatively by up to ±noise
        (deterministic per seed/kernel/event).  Real multi-pass
        collections exhibit exactly this kind of pass-to-pass skew; the
        Top-Down equations must stay stable under it (see the
        noise-robustness ablation)."""
        if not 0.0 <= measurement_noise < 1.0:
            raise CounterError("measurement_noise must be in [0, 1)")
        self.spec = spec
        self.config = config
        self.measurement_noise = measurement_noise
        self._gpu = GPUSimulator(spec, config)
        self._context = MetricContext(spec=spec)
        self._catalog = catalog_for(spec.compute_capability)

    # -- metric resolution ------------------------------------------------
    def resolve(self, metric_names: list[str]) -> list[MetricDef]:
        out: list[MetricDef] = []
        for name in metric_names:
            metric = self._catalog.get(name)
            if metric is None:
                raise CounterError(
                    f"metric {name!r} not available on "
                    f"{self.spec.name} (CC {self.spec.compute_capability})"
                )
            out.append(metric)
        return out

    def available_metrics(self) -> list[str]:
        return sorted(self._catalog)

    # -- collection ---------------------------------------------------------
    def collect(
        self,
        program: KernelProgram,
        launch: LaunchConfig,
        metric_names: list[str],
    ) -> CollectedKernel:
        """Profile one kernel launch, charging every pass the plan
        requires."""
        metrics = self.resolve(metric_names)
        plan = schedule_passes(metrics, self.spec.pmu)

        result = self._gpu.launch(program, launch)
        counters = result.counters
        events = self._extract_events(counters, plan)
        values = {
            m.name: m.evaluate(events, self._context) for m in metrics
        }
        native = result.duration_cycles
        profiled = self.charge_passes(result, plan)
        return CollectedKernel(
            kernel_name=program.name,
            metrics=values,
            events=events,
            plan=plan,
            native_cycles=native,
            profiled_cycles=profiled,
            sim_result=result,
        )

    # -- internals -----------------------------------------------------------
    def _extract_events(
        self, counters: EventCounters, plan: PassPlan
    ) -> dict[str, float]:
        from repro.sim.rng import stable_str_hash, uniform

        out: dict[str, float] = {}
        for name in plan.all_events:
            value = EVENT_CATALOG[name].extract(counters)
            if self.measurement_noise > 0.0 and not EVENT_CATALOG[name].fixed:
                # symmetric multiplicative perturbation, deterministic
                # per (seed, event, kernel size) and across processes.
                u = uniform(self.config.seed, stable_str_hash(name),
                            counters.inst_executed)
                value *= 1.0 + self.measurement_noise * (2.0 * u - 1.0)
            out[name] = value
        return out

    def charge_passes(self, result: KernelSimResult, plan: PassPlan) -> int:
        """Total profiling cost in cycles (paper §V.E cost model)."""
        pmu = self.spec.pmu
        duration = result.duration_cycles
        # flushing grows with both kernel runtime (resident state) and the
        # working set that must be written back / refetched.
        flush = (
            pmu.flush_overhead_factor * duration
            + result.working_set_bytes / 4096.0
        )
        per_pass = duration * (1.0 + pmu.pass_setup_factor) + flush
        return int(round(per_pass * plan.num_passes))
