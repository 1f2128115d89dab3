"""Shared machinery for the emulated CLI profiling tools."""

from __future__ import annotations

from repro.arch.spec import GPUSpec
from repro.errors import ProfilerError
from repro.isa.program import KernelProgram, LaunchConfig
from repro.pmu.cupti import CuptiSession
from repro.profilers.records import ApplicationProfile, KernelProfile
from repro.sim.config import DEFAULT_CONFIG, SimConfig
from repro.workloads.base import Application


class ProfilerTool:
    """Base class for the ``nvprof``/``ncu`` emulations.

    Subclasses declare which compute capabilities they serve (mirroring
    the real tools' support matrices, paper §II.B) and how results are
    rendered to CSV.
    """

    tool_name: str = "profiler"

    def __init__(
        self,
        spec: GPUSpec,
        config: SimConfig = DEFAULT_CONFIG,
    ) -> None:
        self._check_supported(spec)
        self.spec = spec
        self.session = CuptiSession(spec, config)

    # -- capability gating ------------------------------------------------
    def _supports(self, spec: GPUSpec) -> bool:
        raise NotImplementedError

    def _check_supported(self, spec: GPUSpec) -> None:
        if not self._supports(spec):
            raise ProfilerError(
                f"{self.tool_name} does not support {spec.name} "
                f"(compute capability {spec.compute_capability})"
            )

    # -- profiling -----------------------------------------------------------
    def available_metrics(self) -> list[str]:
        return self.session.available_metrics()

    def profile_kernel(
        self,
        program: KernelProgram,
        launch: LaunchConfig,
        metric_names: list[str],
        *,
        invocation: int = 0,
    ) -> tuple[KernelProfile, int, int, int]:
        """Profile one launch.

        Returns ``(profile, native_cycles, profiled_cycles, passes)``.
        The ``profiler.metrics`` fault site models a partially-collected
        metric set (multiplexed counters dropped mid-run): the returned
        profile may then be missing requested metrics, which
        :meth:`profile_application` detects and quarantines.
        """
        from repro.resilience.faults import active_injector

        collected = self.session.collect(program, launch, metric_names)
        metrics = active_injector().corrupt_metrics(
            f"{program.name}#{invocation}", collected.metrics
        )
        profile = KernelProfile(
            kernel_name=program.name,
            invocation=invocation,
            metrics=metrics,
            duration_cycles=collected.native_cycles,
        )
        return (
            profile,
            collected.native_cycles,
            collected.profiled_cycles,
            collected.plan.num_passes,
        )

    def profile_application(
        self, app: Application, metric_names: list[str]
    ) -> ApplicationProfile:
        """Profile every kernel invocation of an application.

        When a parallel :class:`~repro.sim.engine.ExecutionEngine` is
        active, the application's *distinct* kernel simulations are
        fanned out across the process pool first; the serial collection
        loop below then only evaluates metrics against memoized
        results, so its output is bit-identical to an unparallelized
        run.

        **Degraded mode**: an invocation whose simulation cell was
        quarantined by the engine, or whose metric set came back
        incomplete, is skipped and recorded in the returned profile's
        :attr:`~repro.profilers.records.ApplicationProfile.quarantined`
        list instead of aborting the whole application.  Only when *no*
        invocation survives does this raise
        :class:`~repro.errors.QuarantineError`.
        """
        from repro.obs.runtime import active_obs

        obs = active_obs()
        with obs.tracer.span(
            "profiler.app", cat="profiler", tool=self.tool_name,
            app=app.name, invocations=len(app.invocations),
        ):
            profile = self._profile_application(app, metric_names)
        obs.metrics.inc("profiler.apps")
        obs.metrics.inc("profiler.kernels", len(profile.kernels))
        obs.metrics.inc("profiler.replay_passes",
                        profile.passes * len(profile.kernels))
        return profile

    def _profile_application(
        self, app: Application, metric_names: list[str]
    ) -> ApplicationProfile:
        from repro.errors import QuarantineError
        from repro.sim.engine import current_engine

        engine = current_engine()
        if engine.parallel and len(app.invocations) > 1:
            engine.simulate_batch([
                (self.spec, inv.program, inv.launch, self.session.config)
                for inv in app.invocations
            ])
        kernels: list[KernelProfile] = []
        quarantined: list[str] = []
        native = 0
        profiled = 0
        passes = 1
        counts: dict[str, int] = {}
        for inv in app.invocations:
            idx = counts.get(inv.name, 0)
            counts[inv.name] = idx + 1
            try:
                profile, k_native, k_profiled, k_passes = (
                    self.profile_kernel(
                        inv.program, inv.launch, metric_names,
                        invocation=idx,
                    )
                )
            except QuarantineError:
                quarantined.append(f"{inv.name}#{idx}")
                continue
            missing = [
                m for m in metric_names if m not in profile.metrics
            ]
            if missing:
                # partially-collected metric set: unusable for analysis.
                quarantined.append(f"{inv.name}#{idx}")
                continue
            kernels.append(profile)
            native += k_native
            profiled += k_profiled
            passes = max(passes, k_passes)
        if not kernels:
            raise QuarantineError(
                f"{app.name}@{self.spec.name}",
                f"all {len(app.invocations)} invocation(s) quarantined",
            )
        return ApplicationProfile(
            application=app.name,
            device_name=self.spec.name,
            compute_capability=self.spec.compute_capability,
            kernels=tuple(kernels),
            native_cycles=native,
            profiled_cycles=profiled,
            passes=passes,
            quarantined=tuple(quarantined),
        )

    # -- rendering -------------------------------------------------------------
    def to_csv(self, profile: ApplicationProfile) -> str:
        raise NotImplementedError
