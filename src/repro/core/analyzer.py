"""The Top-Down analyzer: profiler records → hierarchy breakdowns.

This is the automation of paper §IV.  The analyzer is deliberately
agnostic about where its input comes from: the emulated tools, a parsed
real-hardware CSV, or hand-constructed records in tests all feed the
same :class:`~repro.profilers.records.KernelProfile` shape.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.compute_capability import ComputeCapability
from repro.arch.spec import GPUSpec
from repro.core import tables
from repro.core.equations import Level1Inputs, stall_share_to_ipc
from repro.core.nodes import Node
from repro.core.result import TopDownResult
from repro.errors import AnalysisError
from repro.profilers.records import ApplicationProfile, KernelProfile


@dataclass(frozen=True)
class DeviceModel:
    """The minimal device facts the equations need.

    When a full :class:`GPUSpec` is unavailable (e.g. analyzing a CSV
    captured on someone else's machine) these three values suffice.
    """

    name: str
    compute_capability: ComputeCapability
    ipc_max: float
    subpartitions: int

    @classmethod
    def from_spec(cls, spec: GPUSpec) -> "DeviceModel":
        return cls(
            name=spec.name,
            compute_capability=spec.compute_capability,
            ipc_max=spec.ipc_max,
            subpartitions=spec.sm.subpartitions,
        )


class TopDownAnalyzer:
    """Computes Top-Down breakdowns for kernels and applications."""

    def __init__(
        self,
        device: GPUSpec | DeviceModel,
        *,
        normalize_stalls: bool = True,
    ) -> None:
        """``normalize_stalls=True`` (paper-figure behaviour) rescales
        the Frontend/Backend attribution so it covers all of IPC_STALL;
        ``False`` keeps the raw equations (8)–(14) and reports the
        uncovered residue as :attr:`Node.UNATTRIBUTED`."""
        if isinstance(device, GPUSpec):
            device = DeviceModel.from_spec(device)
        self.device = device
        self.normalize_stalls = normalize_stalls
        self._cc = device.compute_capability
        self._ipc_scale = tables.ipc_scale(self._cc, device.subpartitions)
        self._weff_scale = tables.warp_efficiency_scale(self._cc)
        self._entries = tables.entries_for(self._cc)

    # ------------------------------------------------------------------
    def required_metrics(self, level: int = 3) -> list[str]:
        """Metric names to collect for a level-``level`` analysis."""
        return tables.metric_names_for_level(self._cc, level)

    # ------------------------------------------------------------------
    def analyze_kernel(self, profile: KernelProfile) -> TopDownResult:
        """Top-Down breakdown of one kernel invocation."""
        reported = self._variable(profile, "IPC_REPORTED") * self._ipc_scale
        weff_raw = self._variable(profile, "WARP_EFFICIENCY")
        weff = min(1.0, max(0.0, weff_raw / self._weff_scale))
        issued = self._variable(profile, "IPC_ISSUED") * self._ipc_scale

        lvl1 = Level1Inputs(
            ipc_max=self.device.ipc_max,
            ipc_reported=reported,
            warp_efficiency=weff,
            ipc_issued=issued,
        ).compute()

        # stall percentages per variable and per level-3 leaf
        var_pct = {"STALL_FETCH": 0.0, "STALL_DECODE": 0.0,
                   "STALL_CORE": 0.0, "STALL_MEMORY": 0.0}
        leaf_pct: dict[Node, float] = {}
        import math

        for entry in self._entries:
            if entry.variable not in var_pct:
                continue
            value = profile.metric_or(entry.metric, 0.0)
            if not math.isfinite(value):
                raise AnalysisError(
                    f"kernel {profile.kernel_name!r}: non-finite value "
                    f"for {entry.metric}"
                )
            var_pct[entry.variable] += value
            if entry.leaf is not None:
                leaf_pct[entry.leaf] = leaf_pct.get(entry.leaf, 0.0) + value

        # equations (8)-(14): percentages of IPC_STALL
        ipc_stall_value = lvl1.stall
        components = {
            var: stall_share_to_ipc(pct, ipc_stall_value)
            for var, pct in var_pct.items()
        }
        leaves = {
            leaf: stall_share_to_ipc(pct, ipc_stall_value)
            for leaf, pct in leaf_pct.items()
        }
        attributed = sum(components.values())

        # Rescale only when the attribution is meaningfully non-zero —
        # dividing by a denormal-tiny total would overflow to inf/NaN.
        negligible = attributed <= 1e-12 * max(1.0, ipc_stall_value)
        if negligible:
            factor = 1.0
        elif attributed > ipc_stall_value:
            # reported stall percentages exceeded 100%: rescale down.
            factor = ipc_stall_value / attributed
        elif self.normalize_stalls:
            # spread the unattributed residue proportionally (figure mode)
            factor = ipc_stall_value / attributed
        else:
            factor = 1.0
        components = {v: x * factor for v, x in components.items()}
        leaves = {n: x * factor for n, x in leaves.items()}
        attributed = sum(components.values())
        unattributed = max(0.0, ipc_stall_value - attributed)

        values: dict[Node, float] = {
            Node.RETIRE: lvl1.retire,
            Node.BRANCH: lvl1.branch,
            Node.REPLAY: lvl1.replay,
            Node.DIVERGENCE: lvl1.divergence,
            Node.FETCH: components["STALL_FETCH"],
            Node.DECODE: components["STALL_DECODE"],
            Node.CORE: components["STALL_CORE"],
            Node.MEMORY: components["STALL_MEMORY"],
            Node.UNATTRIBUTED: unattributed,
        }
        values[Node.FRONTEND] = values[Node.FETCH] + values[Node.DECODE]
        values[Node.BACKEND] = values[Node.CORE] + values[Node.MEMORY]
        values.update(leaves)

        result = TopDownResult(
            name=f"{profile.kernel_name}#{profile.invocation}",
            device=self.device.name,
            ipc_max=self.device.ipc_max,
            values=values,
            max_level=3,
        )
        result.check_conservation(tolerance=1e-6)
        return result

    # ------------------------------------------------------------------
    def analyze_application(
        self, profile: ApplicationProfile
    ) -> TopDownResult:
        """Duration-weighted application-level breakdown (§V.D intro:
        "average values, weighted by the length of each kernel").

        A degraded profile (quarantined invocations) yields a degraded
        result: the breakdown covers the surviving invocations and the
        quarantine annotations ride along for the report layer."""
        import dataclasses

        results = [self.analyze_kernel(k) for k in profile.kernels]
        weights = [max(1, k.duration_cycles) for k in profile.kernels]
        combined = combine_results(
            results, weights,
            name=profile.application,
            device=self.device.name,
            ipc_max=self.device.ipc_max,
        )
        quarantined = getattr(profile, "quarantined", ())
        if quarantined:
            combined = dataclasses.replace(
                combined, quarantined=tuple(quarantined)
            )
        return combined

    def analyze_invocations(
        self, profile: ApplicationProfile, kernel_name: str
    ) -> list[TopDownResult]:
        """Per-invocation breakdowns of one kernel (Figs. 11-12)."""
        invs = profile.invocations_of(kernel_name)
        if not invs:
            raise AnalysisError(
                f"application {profile.application!r} has no kernel "
                f"{kernel_name!r}"
            )
        return [self.analyze_kernel(k) for k in invs]

    # ------------------------------------------------------------------
    def _variable(self, profile: KernelProfile, variable: str) -> float:
        entries = [e for e in self._entries if e.variable == variable]
        if not entries:
            raise AnalysisError(
                f"no metric table entry provides {variable} at "
                f"CC {self._cc}"
            )
        total = 0.0
        found = False
        for entry in entries:
            if entry.metric in profile.metrics:
                total += profile.metrics[entry.metric]
                found = True
        if not found:
            raise AnalysisError(
                f"kernel {profile.kernel_name!r}: none of the metrics "
                f"for {variable} were collected "
                f"({[e.metric for e in entries]})"
            )
        import math

        if not math.isfinite(total):
            raise AnalysisError(
                f"kernel {profile.kernel_name!r}: non-finite value for "
                f"{variable} ({total})"
            )
        return total


def combine_results(
    results: list[TopDownResult],
    weights: list[float] | None = None,
    *,
    name: str,
    device: str,
    ipc_max: float,
) -> TopDownResult:
    """Weighted average of breakdowns (kernel → application roll-up)."""
    if not results:
        raise AnalysisError("cannot combine zero results")
    if weights is None:
        weights = [1.0] * len(results)
    if len(weights) != len(results):
        raise AnalysisError("weights and results length mismatch")
    total_w = float(sum(weights))
    if total_w <= 0:
        raise AnalysisError("weights sum to zero")
    present: set[Node] = set()
    for r in results:
        present.update(r.values)
    # declaration order, not set order: Node hashes vary with
    # PYTHONHASHSEED, and serializers emit ``values`` in dict order.
    values = {
        node: sum(r.ipc(node) * w for r, w in zip(results, weights)) / total_w
        for node in Node
        if node in present
    }
    combined = TopDownResult(
        name=name, device=device, ipc_max=ipc_max, values=values,
        max_level=min(r.max_level for r in results),
    )
    combined.check_conservation(tolerance=1e-6)
    return combined
