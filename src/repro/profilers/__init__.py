"""Profiler front-ends: emulated nvprof/ncu CLI tools (backed by the
simulator + PMU model) and parsers for real-hardware CSV exports."""

from repro.profilers.base import ProfilerTool
from repro.profilers.ncu import NcuTool
from repro.profilers.ncu_parser import parse_ncu_csv
from repro.profilers.nvprof import NvprofTool
from repro.profilers.nvprof_parser import parse_metric_value, parse_nvprof_csv
from repro.profilers.records import ApplicationProfile, KernelProfile
from repro.profilers.sampling import (
    SampledRun,
    SamplingPolicy,
    profile_application_sampled,
)
from repro.profilers.validate import (
    Finding,
    Severity,
    ValidationReport,
    validate_profile,
)


def tool_for(spec, config=None) -> ProfilerTool:
    """Instantiate the CLI tool the paper would use for ``spec``:
    ``ncu`` for CC >= 7.2, ``nvprof`` below (paper §II.B)."""
    from repro.sim.config import DEFAULT_CONFIG

    config = config or DEFAULT_CONFIG
    cls = NcuTool if spec.compute_capability.uses_unified_metrics else NvprofTool
    return cls(spec, config)


__all__ = [
    "ApplicationProfile",
    "KernelProfile",
    "NcuTool",
    "NvprofTool",
    "ProfilerTool",
    "SampledRun",
    "SamplingPolicy",
    "Severity",
    "ValidationReport",
    "Finding",
    "validate_profile",
    "profile_application_sampled",
    "parse_metric_value",
    "parse_ncu_csv",
    "parse_nvprof_csv",
    "tool_for",
]
