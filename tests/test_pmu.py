"""Tests for the PMU layer: events, metric catalogs, pass scheduling
and the CUPTI-like session."""

import pytest

from repro.arch import PMUSpec
from repro.errors import CounterError
from repro.isa import LaunchConfig
from repro.pmu import (
    EVENT_CATALOG,
    CuptiSession,
    MetricContext,
    catalog_for,
    get_event,
    get_metric,
    legacy_catalog,
    ncu_stall_metric_name,
    required_events,
    schedule_passes,
    stall_event_name,
    unified_catalog,
)
from repro.sim import SimConfig, WarpState
from repro.sim.counters import EventCounters

from tests.conftest import build_stream_kernel


class TestEvents:
    def test_catalog_covers_all_warp_states(self):
        for state in WarpState:
            assert stall_event_name(state) in EVENT_CATALOG

    def test_unknown_event_raises(self):
        with pytest.raises(CounterError):
            get_event("nope")

    def test_fixed_events_flagged(self):
        assert get_event("sm__cycles_active").fixed
        assert not get_event("sm__inst_executed").fixed

    def test_extract_from_counters(self):
        c = EventCounters()
        c.inst_executed = 42
        assert get_event("sm__inst_executed").extract(c) == 42.0


class TestCatalogs:
    def test_dispatch_by_cc(self):
        assert catalog_for("6.1") is legacy_catalog()
        assert catalog_for("7.5") is unified_catalog()
        assert catalog_for("7.2") is unified_catalog()

    def test_legacy_has_paper_table_metrics(self):
        cat = legacy_catalog()
        for name in ("ipc", "issued_ipc", "warp_execution_efficiency",
                     "stall_inst_fetch", "stall_sync", "stall_other",
                     "stall_exec_dependency", "stall_pipe_busy",
                     "stall_memory_dependency",
                     "stall_constant_memory_dependency",
                     "stall_memory_throttle"):
            assert name in cat

    def test_unified_has_paper_table_metrics(self):
        cat = unified_catalog()
        for name in (
            "smsp__inst_executed.avg.per_cycle_active",
            "smsp__inst_issued.avg.per_cycle_active",
            "smsp__thread_inst_executed_per_inst_executed.ratio",
        ):
            assert name in cat
        for state in (WarpState.NO_INSTRUCTION, WarpState.BARRIER,
                      WarpState.LONG_SCOREBOARD, WarpState.IMC_MISS,
                      WarpState.LG_THROTTLE, WarpState.DRAIN):
            assert ncu_stall_metric_name(state) in cat

    def test_get_metric_cc_gating(self):
        with pytest.raises(CounterError):
            get_metric("ipc", "7.5")
        with pytest.raises(CounterError):
            get_metric("smsp__inst_executed.avg.per_cycle_active", "6.1")

    def test_metric_requirements_are_known_events(self):
        for cat in (legacy_catalog(), unified_catalog()):
            for metric in cat.values():
                for ev in metric.events:
                    assert ev in EVENT_CATALOG

    def test_nvprof_stall_percentages_sum_to_100(self, pascal):
        """All nvprof stall reasons partition the stall cycles."""
        c = EventCounters()
        # fabricate some stall distribution
        vals = [100, 50, 25, 10, 5, 300, 40, 7, 3, 90, 110, 17, 230, 8,
                12, 6, 44, 1]
        states = [s for s in WarpState if s is not WarpState.SELECTED]
        for state, v in zip(states, vals):
            c.state_cycles[state] = v
        c.warp_active_cycles = sum(c.state_cycles.values())
        ctx = MetricContext(spec=pascal)
        events = {name: e.extract(c) for name, e in EVENT_CATALOG.items()}
        total = sum(
            m.evaluate(events, ctx)
            for name, m in legacy_catalog().items()
            if name.startswith("stall_")
        )
        assert total == pytest.approx(100.0)

    def test_ncu_stall_pct_definition(self, turing):
        c = EventCounters()
        c.warp_active_cycles = 1000
        c.state_cycles[WarpState.LONG_SCOREBOARD] = 250
        ctx = MetricContext(spec=turing)
        events = {name: e.extract(c) for name, e in EVENT_CATALOG.items()}
        metric = unified_catalog()[
            ncu_stall_metric_name(WarpState.LONG_SCOREBOARD)
        ]
        assert metric.evaluate(events, ctx) == pytest.approx(25.0)

    def test_smsp_ipc_scaling(self, turing):
        """ncu reports per-sub-partition IPC."""
        c = EventCounters()
        c.cycles_active = 1000
        c.inst_executed = 1000
        ctx = MetricContext(spec=turing)  # 2 smsp
        events = {name: e.extract(c) for name, e in EVENT_CATALOG.items()}
        metric = unified_catalog()["smsp__inst_executed.avg.per_cycle_active"]
        assert metric.evaluate(events, ctx) == pytest.approx(0.5)

    def test_metric_missing_event_raises(self, turing):
        metric = unified_catalog()["smsp__inst_executed.avg.per_cycle_active"]
        with pytest.raises(CounterError, match="missing events"):
            metric.evaluate({}, MetricContext(spec=turing))


class TestPassScheduling:
    def test_fixed_events_are_free(self):
        cat = unified_catalog()
        metrics = [cat["sm__cycles_active.avg"]]
        plan = schedule_passes(metrics, PMUSpec(counters_per_pass=4))
        assert plan.passes == ()          # nothing programmable
        assert plan.num_passes == 1       # baseline pass only

    def test_capacity_drives_pass_count(self):
        cat = unified_catalog()
        metrics = [
            cat[ncu_stall_metric_name(s)]
            for s in (WarpState.NO_INSTRUCTION, WarpState.BARRIER,
                      WarpState.MEMBAR, WarpState.LONG_SCOREBOARD,
                      WarpState.IMC_MISS)
        ]
        plan2 = schedule_passes(metrics, PMUSpec(counters_per_pass=2))
        plan5 = schedule_passes(metrics, PMUSpec(counters_per_pass=5))
        assert plan2.num_passes == 1 + 3   # ceil(5/2) programmable passes
        assert plan5.num_passes == 1 + 1

    def test_shared_events_counted_once(self):
        cat = unified_catalog()
        metrics = [
            cat["smsp__inst_executed.avg.per_cycle_active"],
            cat["smsp__thread_inst_executed_per_inst_executed.ratio"],
        ]
        programmable, fixed = required_events(metrics)
        assert programmable == {"sm__inst_executed",
                                "sm__thread_inst_executed"}
        assert "sm__cycles_active" in fixed

    def test_paper_pass_count(self, turing, pascal):
        """A level-3 Top-Down collection takes 8 executions per kernel
        on both devices (paper §V.E)."""
        from repro.core.overhead import passes_for_level

        assert passes_for_level(turing, 3) == 8
        assert passes_for_level(pascal, 3) == 8

    def test_zero_capacity_rejected(self):
        cat = unified_catalog()
        with pytest.raises(CounterError):
            schedule_passes(
                [cat["smsp__inst_executed.avg.per_cycle_active"]],
                PMUSpec(counters_per_pass=0),
            )


class TestCuptiSession:
    def _collect(self, spec, metrics=None):
        session = CuptiSession(spec, SimConfig(seed=5))
        prog = build_stream_kernel(iterations=4)
        launch = LaunchConfig(blocks=8, threads_per_block=128)
        metrics = metrics or [
            "smsp__inst_executed.avg.per_cycle_active",
            ncu_stall_metric_name(WarpState.LONG_SCOREBOARD),
        ]
        return session.collect(prog, launch, metrics)

    def test_collect_returns_metrics(self, turing):
        collected = self._collect(turing)
        assert set(collected.metrics) == {
            "smsp__inst_executed.avg.per_cycle_active",
            ncu_stall_metric_name(WarpState.LONG_SCOREBOARD),
        }
        assert collected.metrics[
            "smsp__inst_executed.avg.per_cycle_active"
        ] > 0

    def test_unknown_metric_rejected(self, turing):
        with pytest.raises(CounterError, match="not available"):
            self._collect(turing, metrics=["ipc"])

    def test_overhead_grows_with_passes(self, turing):
        few = self._collect(turing)
        many = CuptiSession(turing, SimConfig(seed=5)).collect(
            build_stream_kernel(iterations=4),
            LaunchConfig(blocks=8, threads_per_block=128),
            list(unified_catalog()),
        )
        assert many.plan.num_passes > few.plan.num_passes
        assert many.profiled_cycles > few.profiled_cycles
        assert many.overhead > few.overhead > 1.0

    def test_available_metrics_match_catalog(self, turing, pascal):
        assert set(CuptiSession(turing).available_metrics()) == set(
            unified_catalog()
        )
        assert set(CuptiSession(pascal).available_metrics()) == set(
            legacy_catalog()
        )
