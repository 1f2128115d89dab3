"""Unit tests for the GPU spec dataclasses and their invariants."""

import pytest

from repro.arch import (
    CacheSpec,
    ComputeCapability,
    FunctionalUnitSpec,
    GPUSpec,
    MemorySpec,
    SMSpec,
)
from repro.errors import ArchitectureError


def _sm(**overrides):
    defaults = dict(
        subpartitions=2,
        warps_per_subpartition=16,
        dispatch_units_per_subpartition=1,
        functional_units=(
            FunctionalUnitSpec("fp32", issue_interval=2, latency=6),
            FunctionalUnitSpec("ctrl", issue_interval=1, latency=2),
        ),
    )
    defaults.update(overrides)
    return SMSpec(**defaults)


def _memory(**overrides):
    return MemorySpec(
        l1=CacheSpec("l1", size_bytes=64 * 1024),
        l2=CacheSpec("l2", size_bytes=1024 * 1024, ways=16),
        constant=CacheSpec("constant", size_bytes=2048, line_bytes=64),
        **overrides,
    )


class TestFunctionalUnitSpec:
    def test_valid(self):
        fu = FunctionalUnitSpec("fp32", issue_interval=2, latency=4)
        assert fu.pipes == 1

    @pytest.mark.parametrize("kwargs", [
        dict(issue_interval=0, latency=4),
        dict(issue_interval=1, latency=0),
        dict(issue_interval=1, latency=1, pipes=0),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ArchitectureError):
            FunctionalUnitSpec("x", **kwargs)


class TestCacheSpec:
    def test_geometry(self):
        c = CacheSpec("l1", size_bytes=64 * 1024, line_bytes=128, ways=4)
        assert c.num_sets == 64 * 1024 // (128 * 4)
        assert c.sectors_per_line == 4

    def test_size_must_divide(self):
        with pytest.raises(ArchitectureError):
            CacheSpec("bad", size_bytes=1000, line_bytes=128, ways=4)

    def test_line_sector_relation(self):
        with pytest.raises(ArchitectureError):
            CacheSpec("bad", size_bytes=4096, line_bytes=100,
                      sector_bytes=32, ways=1)

    # the cycle loop relies on an issued warp never being ready
    # before the next cycle, so every latency is at least one.
    @pytest.mark.parametrize("field", ["hit_latency", "miss_latency"])
    def test_latency_below_one_rejected(self, field):
        with pytest.raises(ArchitectureError):
            CacheSpec("bad", size_bytes=4096, **{field: 0})


class TestMemorySpec:
    @pytest.mark.parametrize("field", ["dram_latency", "shared_latency"])
    def test_latency_below_one_rejected(self, field):
        with pytest.raises(ArchitectureError):
            _memory(**{field: 0})


class TestSMSpec:
    def test_derived_quantities(self):
        sm = _sm()
        assert sm.max_warps == 32
        assert sm.dispatch_units == 2

    def test_duplicate_fu_names_rejected(self):
        with pytest.raises(ArchitectureError):
            _sm(functional_units=(
                FunctionalUnitSpec("fp32", 1, 4),
                FunctionalUnitSpec("fp32", 1, 4),
            ))

    def test_functional_unit_lookup(self):
        sm = _sm()
        assert sm.functional_unit("fp32").latency == 6
        with pytest.raises(ArchitectureError):
            sm.functional_unit("tensor")

    def test_bad_topology(self):
        with pytest.raises(ArchitectureError):
            _sm(subpartitions=0)
        with pytest.raises(ArchitectureError):
            _sm(warps_per_subpartition=0)

    def test_branch_resolve_latency_below_one_rejected(self):
        with pytest.raises(ArchitectureError):
            _sm(branch_resolve_latency=0)


class TestGPUSpec:
    def _spec(self, **overrides):
        defaults = dict(
            name="TestGPU",
            compute_capability=ComputeCapability(7, 5),
            sm_count=4,
            sm=_sm(),
            memory=_memory(),
        )
        defaults.update(overrides)
        return GPUSpec(**defaults)

    def test_ipc_max_is_dispatch_units(self):
        """Paper §IV.C: IPC_MAX equals dispatch units per SM."""
        assert self._spec().ipc_max == 2.0

    def test_default_profiler_by_cc(self):
        assert self._spec().default_profiler == "ncu"
        old = self._spec(compute_capability=ComputeCapability(6, 1))
        assert old.default_profiler == "nvprof"

    def test_warp_size_fixed(self):
        with pytest.raises(ArchitectureError):
            self._spec(warp_size=64)

    def test_sm_count_positive(self):
        with pytest.raises(ArchitectureError):
            self._spec(sm_count=0)

    def test_summary_has_table9_fields(self):
        summary = self._spec().summary()
        for key in ("Compute Capability", "Memory", "CUDA cores", "SMs",
                    "SM Subpartitions", "Power"):
            assert key in summary

    def test_specs_hashable(self):
        assert hash(self._spec()) == hash(self._spec())
