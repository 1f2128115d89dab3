"""Resilient-execution tests: fault injection, retry/deadline policies,
quarantine-and-degrade, run health, and crash-consistent caching.

The fault injector is deterministic — every decision is a pure function
of ``(seed, site, key, attempt)`` — so these tests assert exact
schedules and bit-identical health summaries, not probabilities.
"""

from __future__ import annotations

import os
import threading

import pytest

from repro.core.analyzer import TopDownAnalyzer
from repro.core.report import level1_report
from repro.core.tables import metric_names_for_level
from repro.errors import (
    CellTimeoutError,
    QuarantineError,
    ResilienceError,
    SimulationError,
    TransientFaultError,
    UsageError,
    WorkerCrashError,
)
from repro.isa import LaunchConfig
from repro.profilers import tool_for
from repro.resilience import (
    FaultInjector,
    FaultPlan,
    RetryPolicy,
    RunHealth,
    install_faults,
    is_retryable,
)
from repro.sim import (
    DEFAULT_CONFIG,
    GPUSimulator,
    SimConfig,
    SimResultCache,
    engine_context,
    sim_fingerprint,
)
from repro.sim.engine import (
    JOBS_ENV,
    ExecutionEngine,
    _timeout_own_fault,
    max_jobs,
    resolve_jobs,
)
from repro.sim.result_cache import EvictingResultCache
from repro.workloads.base import Application, KernelInvocation, Suite

from tests.conftest import build_stream_kernel

LAUNCH = LaunchConfig(blocks=4, threads_per_block=128)


def _kernel(name="rk", *, iterations=2, working_set=1 << 16):
    return build_stream_kernel(
        name, iterations=iterations, working_set=working_set
    )


def _fast_retry(**kw):
    """A retry policy that never sleeps (tests stay fast)."""
    kw.setdefault("max_attempts", 3)
    kw.setdefault("base_delay_s", 0.0)
    return RetryPolicy(**kw)


# ---------------------------------------------------------------------------
# fault plans
# ---------------------------------------------------------------------------

class TestFaultPlan:
    def test_parse_full_spec(self):
        plan = FaultPlan.parse(
            "seed=7,engine.worker@0.5,sim.hang,cache.entry@0.25,hang=0.2"
        )
        assert plan.seed == 7
        assert plan.hang_s == 0.2
        assert plan.rates == {
            "engine.worker": 0.5, "sim.hang": 1.0, "cache.entry": 0.25,
        }

    def test_bare_site_means_always(self):
        plan = FaultPlan.parse("engine.transient")
        assert plan.rates["engine.transient"] == 1.0
        assert not plan.empty

    def test_empty_spec_is_empty_plan(self):
        assert FaultPlan.parse("").empty
        assert FaultPlan.parse("seed=3").empty

    @pytest.mark.parametrize("spec", [
        "nonsense.site", "engine.transient@2.0", "engine.transient@x",
        "seed=abc", "hang=-1",
    ])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ResilienceError):
            FaultPlan.parse(spec)

    def test_spec_string_round_trips(self):
        plan = FaultPlan.parse("seed=9,engine.worker@0.5,hang=0.1,sim.hang")
        assert FaultPlan.parse(plan.spec_string()) == plan


class TestInjectorDeterminism:
    def test_decisions_pure_in_plan(self):
        plan = FaultPlan(seed=11, rates={"engine.transient": 0.5})
        a, b = FaultInjector(plan), FaultInjector(plan)
        keys = [f"cell-{i}" for i in range(64)]
        schedule = [a.decide("engine.transient", k, 0) for k in keys]
        assert schedule == [b.decide("engine.transient", k, 0) for k in keys]
        assert any(schedule) and not all(schedule)

    def test_seed_changes_schedule(self):
        keys = [f"cell-{i}" for i in range(64)]
        one = FaultInjector(FaultPlan(seed=1, rates={"sim.hang": 0.5}))
        two = FaultInjector(FaultPlan(seed=2, rates={"sim.hang": 0.5}))
        assert [one.decide("sim.hang", k) for k in keys] != \
            [two.decide("sim.hang", k) for k in keys]

    def test_attempts_reroll_the_decision(self):
        inj = FaultInjector(
            FaultPlan(seed=0, rates={"engine.transient": 0.5})
        )
        decisions = {
            inj.decide("engine.transient", "k", attempt)
            for attempt in range(32)
        }
        assert decisions == {True, False}

    def test_corrupt_metrics_deterministic_partial_drop(self):
        inj = FaultInjector(
            FaultPlan(seed=4, rates={"profiler.metrics": 1.0})
        )
        metrics = {f"metric_{i}": float(i) for i in range(20)}
        once = inj.corrupt_metrics("k#0", metrics)
        assert once == inj.corrupt_metrics("k#0", metrics)
        assert 0 < len(once) < len(metrics)
        assert all(metrics[name] == value for name, value in once.items())

    def test_corrupt_text_keeps_header_and_is_deterministic(self):
        inj = FaultInjector(FaultPlan(seed=2, rates={"profiler.csv": 1.0}))
        text = "header\n" + "\n".join(
            f"row-{i},value-{i}" for i in range(40)
        ) + "\n"
        once = inj.corrupt_text("export", text)
        assert once == inj.corrupt_text("export", text)
        assert once.splitlines()[0] == "header"
        assert once != text

    def test_null_sites_never_fire(self):
        inj = FaultInjector(FaultPlan())
        assert not inj.decide("engine.transient", "k")
        inj.fire_transient("k")
        inj.fire_worker_crash("k")
        inj.maybe_hang("k")


# ---------------------------------------------------------------------------
# retry policy
# ---------------------------------------------------------------------------

class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(base_delay_s=0.1, max_delay_s=0.3, jitter=0.0)
        delays = [policy.backoff_s("k", a) for a in range(1, 6)]
        assert delays == [
            pytest.approx(0.1), pytest.approx(0.2), pytest.approx(0.3),
            pytest.approx(0.3), pytest.approx(0.3),
        ]

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(base_delay_s=0.1, jitter=0.5)
        d1 = policy.backoff_s("cell-a", 1)
        assert d1 == policy.backoff_s("cell-a", 1)
        assert 0.05 <= d1 <= 0.1
        assert d1 != policy.backoff_s("cell-b", 1)

    def test_retryable_classification(self):
        assert is_retryable(TransientFaultError("x"))
        assert is_retryable(WorkerCrashError("x"))
        assert is_retryable(CellTimeoutError("x"))
        assert not is_retryable(QuarantineError("c", "r"))
        assert not is_retryable(ResilienceError("x"))


# ---------------------------------------------------------------------------
# run health
# ---------------------------------------------------------------------------

class TestRunHealth:
    def test_counters_and_rendering(self):
        health = RunHealth()
        assert not health.degraded
        health.record_attempt()
        health.record_attempt()
        health.record_retry("TransientFaultError")
        health.record_quarantine("k@gpu", "gave up", attempts=3)
        text = health.render()
        assert "2 attempt(s)" in text
        assert "1 retr(y/ies)" in text
        assert "QUARANTINED k@gpu after 3 attempt(s): gave up" in text
        assert health.degraded

    def test_payload_is_stable(self):
        health = RunHealth()
        health.record_retry("B")
        health.record_retry("A")
        payload = health.payload()
        assert list(payload["retries"]) == ["A", "B"]
        assert payload["attempts"] == 0


# ---------------------------------------------------------------------------
# engine: serial retry / quarantine / deadline
# ---------------------------------------------------------------------------

class TestSerialResilience:
    def test_permanent_transient_fault_quarantines(self, turing):
        prog = _kernel("always_flaky")
        engine = ExecutionEngine(jobs=1, retry=_fast_retry())
        with install_faults("engine.transient"):
            with pytest.raises(QuarantineError):
                engine.simulate(turing, prog, LAUNCH, DEFAULT_CONFIG)
        assert engine.health.attempts == 3
        assert engine.health.retries == {"TransientFaultError": 2}
        assert engine.health.degraded
        # hitting the cell again raises immediately: no fresh attempts.
        with pytest.raises(QuarantineError):
            engine.simulate(turing, prog, LAUNCH, DEFAULT_CONFIG)
        assert engine.health.attempts == 3

    def test_in_process_worker_crash_quarantines(self, turing):
        prog = _kernel("crashy")
        engine = ExecutionEngine(jobs=1, retry=_fast_retry(max_attempts=2))
        with install_faults("engine.worker"):
            with pytest.raises(QuarantineError):
                engine.simulate(turing, prog, LAUNCH, DEFAULT_CONFIG)
        assert engine.health.retries == {"WorkerCrashError": 1}

    def test_fractional_fault_recovers_bit_identically(self, turing):
        prog = _kernel("flaky_once")
        key = sim_fingerprint(prog, LAUNCH, turing, DEFAULT_CONFIG)
        # find a seed whose schedule is fail-then-succeed for this cell.
        seed = next(
            s for s in range(500)
            if FaultInjector(
                FaultPlan(seed=s, rates={"engine.transient": 0.5})
            ).decide("engine.transient", key, 0)
            and not FaultInjector(
                FaultPlan(seed=s, rates={"engine.transient": 0.5})
            ).decide("engine.transient", key, 1)
        )
        baseline = GPUSimulator(turing).launch_uncached(prog, LAUNCH)
        engine = ExecutionEngine(jobs=1, retry=_fast_retry())
        with install_faults(f"seed={seed},engine.transient@0.5"):
            result = engine.simulate(turing, prog, LAUNCH, DEFAULT_CONFIG)
        assert engine.health.attempts == 2
        assert engine.health.retries == {"TransientFaultError": 1}
        assert not engine.health.degraded
        # the retried result is bit-identical to an unfaulted run.
        assert result.duration_cycles == baseline.duration_cycles
        assert result.counters.inst_issued == baseline.counters.inst_issued

    def test_deadline_overrun_detected_serially(self, turing):
        prog = _kernel("runaway")
        engine = ExecutionEngine(
            jobs=1,
            retry=_fast_retry(max_attempts=2, deadline_s=0.01),
        )
        with install_faults("sim.hang,hang=0.05"):
            with pytest.raises(QuarantineError, match="deadline"):
                engine.simulate(turing, prog, LAUNCH, DEFAULT_CONFIG)
        assert engine.health.retries == {"CellTimeoutError": 1}

    def test_simulate_batch_marks_quarantined_as_none(self, turing):
        flaky = _kernel("doomed")
        healthy = _kernel("healthy")
        flaky_key = sim_fingerprint(flaky, LAUNCH, turing, DEFAULT_CONFIG)
        healthy_key = sim_fingerprint(
            healthy, LAUNCH, turing, DEFAULT_CONFIG
        )
        # seed where the flaky cell always fails and the healthy never.
        def doomed_only(s):
            inj = FaultInjector(
                FaultPlan(seed=s, rates={"engine.transient": 0.5})
            )
            return (
                all(inj.decide("engine.transient", flaky_key, a)
                    for a in range(3))
                and not any(inj.decide("engine.transient", healthy_key, a)
                            for a in range(3))
            )
        seed = next(s for s in range(2000) if doomed_only(s))
        engine = ExecutionEngine(jobs=1, retry=_fast_retry())
        items = [
            (turing, flaky, LAUNCH, DEFAULT_CONFIG),
            (turing, healthy, LAUNCH, DEFAULT_CONFIG),
            (turing, flaky, LAUNCH, DEFAULT_CONFIG),  # duplicate cell
        ]
        with install_faults(f"seed={seed},engine.transient@0.5"):
            out = engine.simulate_batch(items)
        assert out[0] is None and out[2] is None
        assert out[1] is not None
        assert list(engine.health.quarantined) == [
            f"doomed@{turing.name}"
        ]
        # later simulate of the same content raises, not re-retries.
        with install_faults(f"seed={seed},engine.transient@0.5"):
            with pytest.raises(QuarantineError):
                engine.simulate(turing, flaky, LAUNCH, DEFAULT_CONFIG)

    def test_health_is_deterministic_across_runs(self, turing):
        items = [
            (turing, _kernel(f"cell{i}"), LAUNCH, DEFAULT_CONFIG)
            for i in range(6)
        ]
        payloads = []
        for _ in range(2):
            engine = ExecutionEngine(jobs=1, retry=_fast_retry())
            with install_faults("seed=5,engine.transient@0.5"):
                engine.simulate_batch(items)
            payloads.append(engine.health.payload())
        assert payloads[0] == payloads[1]

    def test_non_retryable_failure_stops_the_batch(self, turing):
        """An in-process cell runs, and counts its attempt, only when
        the loop reaches it: a genuine simulation error fails fast and
        the queued cell behind it never starts."""
        items = [
            (turing, _kernel("overrun"), LAUNCH, SimConfig(max_cycles=10)),
            (turing, _kernel("later"), LAUNCH, DEFAULT_CONFIG),
        ]
        engine = ExecutionEngine(jobs=1, retry=_fast_retry())
        with pytest.raises(SimulationError):
            engine.simulate_batch(items)
        assert engine.health.attempts == 1
        assert engine.stats.sim_calls == 0
        assert engine.health.retries == {}


# ---------------------------------------------------------------------------
# engine: parallel dispatch under faults
# ---------------------------------------------------------------------------

class TestParallelResilience:
    @pytest.mark.parametrize("spec", [
        "seed=3,engine.transient@0.4",
        "seed=3,engine.worker@0.4",
    ])
    def test_parallel_faulted_batch_completes(self, turing, spec):
        kernels = [_kernel(f"pcell{i}") for i in range(4)]
        items = [(turing, k, LAUNCH, DEFAULT_CONFIG) for k in kernels]
        serial = {
            k.name: GPUSimulator(turing).launch_uncached(k, LAUNCH)
            for k in kernels
        }
        engine = ExecutionEngine(jobs=2, retry=_fast_retry())
        try:
            with install_faults(spec):
                out = engine.simulate_batch(items)
        finally:
            engine.close()
        for kernel, result in zip(kernels, out):
            if result is None:  # quarantined by the schedule: legal
                assert f"{kernel.name}@{turing.name}" in \
                    engine.health.quarantined
                continue
            assert result.duration_cycles == \
                serial[kernel.name].duration_cycles

    def test_parallel_health_matches_fault_schedule(self, turing):
        """RunHealth must depend on the fault schedule only — not on
        pool scheduling order or ``jobs`` — so an in-process run and
        two pooled runs of the same cells agree exactly, down to a
        deadline-overrun quarantine's reason."""
        kernels = [_kernel(f"dcell{i}") for i in range(4)]
        items = [(turing, k, LAUNCH, DEFAULT_CONFIG) for k in kernels]
        for spec, policy in (
            ("seed=3,engine.transient@0.4", _fast_retry()),
            ("seed=9,engine.worker@0.4", _fast_retry()),
            ("seed=1,sim.hang@0.6,hang=0.3",
             _fast_retry(max_attempts=2, deadline_s=0.15)),
        ):
            payloads, cycles = [], []
            for jobs in (1, 2, 2):
                engine = ExecutionEngine(jobs=jobs, retry=policy)
                try:
                    with install_faults(spec):
                        out = engine.simulate_batch(items)
                finally:
                    engine.close()
                payloads.append(engine.health.payload())
                cycles.append([
                    None if r is None else r.duration_cycles for r in out
                ])
            assert payloads[0] == payloads[1] == payloads[2], spec
            assert cycles[0] == cycles[1] == cycles[2], spec


# ---------------------------------------------------------------------------
# jobs resolution hardening (satellite)
# ---------------------------------------------------------------------------

class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert resolve_jobs(None) == 1

    def test_env_override_applies_without_flag(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "3")
        assert resolve_jobs(None) == 3

    def test_explicit_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "7")
        assert resolve_jobs(2) == 2

    def test_non_integer_env_warns_and_falls_back(self, monkeypatch,
                                                  capsys):
        monkeypatch.setenv(JOBS_ENV, "many")
        assert resolve_jobs(None) == 1
        assert "GPU_TOPDOWN_JOBS" in capsys.readouterr().err

    def test_zero_means_all_cores(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_negative_rejected_as_usage_error(self):
        # a clean usage failure, catchable both as ReproError (CLI
        # exit-code mapping) and as ValueError (API compatibility).
        with pytest.raises(UsageError):
            resolve_jobs(-2)
        with pytest.raises(ValueError):
            resolve_jobs(-2)

    def test_negative_env_warns_and_falls_back(self, monkeypatch,
                                               capsys):
        monkeypatch.setenv(JOBS_ENV, "-3")
        assert resolve_jobs(None) == 1
        assert "negative" in capsys.readouterr().err

    def test_absurd_values_clamped(self):
        assert resolve_jobs(10**6) == max_jobs()
        assert max_jobs() >= 64


# ---------------------------------------------------------------------------
# deadline-timeout fault attribution
# ---------------------------------------------------------------------------

class _StubFuture:
    def __init__(self, running=False, done=False):
        self._running, self._done = running, done

    def running(self):
        return self._running

    def done(self):
        return self._done


class TestTimeoutOwnFault:
    """Only cells that actually ran (or were scheduled to hang) are
    charged for a deadline overrun; cells still queued behind a runaway
    cell are collateral and keep their retry budget."""

    def test_queued_cell_is_collateral(self):
        injector = FaultInjector(FaultPlan())  # no hang injection
        assert not _timeout_own_fault(
            injector, _StubFuture(running=False), "k", 0
        )

    def test_running_cell_is_charged(self):
        injector = FaultInjector(FaultPlan())
        assert _timeout_own_fault(
            injector, _StubFuture(running=True), "k", 0
        )

    def test_hang_injection_decides_regardless_of_pool_state(self):
        injector = FaultInjector(
            FaultPlan(seed=7, rates={"sim.hang": 1.0})
        )
        # scheduled to hang: charged even if it never got a worker.
        assert _timeout_own_fault(
            injector, _StubFuture(running=False), "k", 0
        )
        # not scheduled to hang: innocent even though it was running.
        flaky = FaultInjector(
            FaultPlan(seed=7, rates={"sim.hang": 0.5})
        )
        key = next(
            k for k in (f"k{i}" for i in range(100))
            if not flaky.decide("sim.hang", k, 0)
        )
        assert not _timeout_own_fault(
            flaky, _StubFuture(running=True), key, 0
        )


# ---------------------------------------------------------------------------
# cache crash consistency (satellite)
# ---------------------------------------------------------------------------

class TestCacheCrashConsistency:
    def _result(self, turing, prog):
        return GPUSimulator(turing).launch_uncached(prog, LAUNCH)

    def test_mid_write_crash_leaves_no_visible_entry(self, tmp_path,
                                                     turing):
        prog = _kernel("cachecrash")
        result = self._result(turing, prog)
        cache = SimResultCache(tmp_path)
        key = sim_fingerprint(prog, LAUNCH, turing, DEFAULT_CONFIG)
        with install_faults("cache.write"):
            with pytest.raises(ResilienceError):
                cache.store(key, result)
        # the atomic-rename protocol: the entry is simply absent — a
        # reader can never observe a half-written shard.
        assert not cache.path_for(key).exists()
        assert cache.load(key, prog, LAUNCH, turing) is None
        assert cache.stats.corrupt == 0
        cache.store(key, result)  # healthy retry
        loaded = cache.load(key, prog, LAUNCH, turing)
        assert loaded is not None
        assert loaded.duration_cycles == result.duration_cycles

    def test_mid_write_crash_preserves_previous_entry(self, tmp_path,
                                                      turing):
        prog = _kernel("cachekeep")
        result = self._result(turing, prog)
        cache = SimResultCache(tmp_path)
        key = sim_fingerprint(prog, LAUNCH, turing, DEFAULT_CONFIG)
        cache.store(key, result)
        before = cache.path_for(key).read_bytes()
        with install_faults("cache.write"):
            with pytest.raises(ResilienceError):
                cache.store(key, result)
        # old entry untouched, still loadable.
        assert cache.path_for(key).read_bytes() == before
        assert cache.load(key, prog, LAUNCH, turing) is not None

    def test_torn_entry_is_a_miss_then_heals(self, tmp_path, turing):
        prog = _kernel("cachetorn")
        result = self._result(turing, prog)
        cache = SimResultCache(tmp_path)
        key = sim_fingerprint(prog, LAUNCH, turing, DEFAULT_CONFIG)
        with install_faults("cache.entry"):
            cache.store(key, result)  # entry truncated post-rename
        assert cache.load(key, prog, LAUNCH, turing) is None
        assert cache.stats.corrupt == 1
        cache.store(key, result)  # heal
        assert cache.load(key, prog, LAUNCH, turing) is not None

    def test_non_utf8_entry_is_a_miss_then_heals(self, tmp_path, turing):
        prog = _kernel("cacheutf8")
        result = self._result(turing, prog)
        cache = SimResultCache(tmp_path)
        key = sim_fingerprint(prog, LAUNCH, turing, DEFAULT_CONFIG)
        cache.store(key, result)
        path = cache.path_for(key)
        good = path.read_bytes()
        path.write_bytes(good[:40] + b"\xff" + good[41:])
        assert cache.load(key, prog, LAUNCH, turing) is None
        assert cache.stats.corrupt == 1
        # a run over the store re-simulates and overwrites the shard.
        with engine_context(jobs=1, cache_dir=tmp_path) as engine:
            again = engine.simulate(turing, prog, LAUNCH, DEFAULT_CONFIG)
        assert again.per_sm == result.per_sm
        assert again.duration_cycles == result.duration_cycles
        assert path.read_bytes() == good

    def test_engine_treats_cache_write_faults_as_non_fatal(self, tmp_path,
                                                           turing):
        prog = _kernel("cacheflaky")
        baseline = self._result(turing, prog)
        with engine_context(jobs=1, cache_dir=tmp_path,
                            faults="cache.write") as engine:
            result = engine.simulate(
                turing, prog, LAUNCH, DEFAULT_CONFIG
            )
        assert result.duration_cycles == baseline.duration_cycles
        assert engine.health.cache_write_failures == 1
        assert not engine.health.degraded

    def test_failed_write_leaves_no_temp_file(self, tmp_path, turing,
                                              monkeypatch):
        """A write that fails part way (disk full) is no crash: its temp
        file goes too, since its writer is alive and no reopen would
        reclaim it."""
        import errno
        from pathlib import Path

        prog = _kernel("cachefull")
        baseline = self._result(turing, prog)
        write_text = Path.write_text

        def disk_full(path, text, *args, **kwargs):
            write_text(path, text[: len(text) // 2], *args, **kwargs)
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))

        with monkeypatch.context() as patch:
            patch.setattr(Path, "write_text", disk_full)
            with engine_context(jobs=1, cache_dir=tmp_path) as engine:
                result = engine.simulate(
                    turing, prog, LAUNCH, DEFAULT_CONFIG
                )
        assert result.duration_cycles == baseline.duration_cycles
        assert engine.health.cache_write_failures == 1
        key = sim_fingerprint(prog, LAUNCH, turing, DEFAULT_CONFIG)
        assert list(engine.cache.path_for(key).parent.iterdir()) == []
        assert list(tmp_path.glob("*.tmp.*")) == []

    def test_concurrent_stores_of_one_key_both_land(self, tmp_path, turing):
        # the daemon's worker threads share one store: two jobs that
        # need the same uncached cell both simulate and store it.  Hold
        # both writers between the temp write and the rename.
        prog = _kernel("cacherace")
        result = self._result(turing, prog)
        cache = EvictingResultCache(tmp_path)
        key = sim_fingerprint(prog, LAUNCH, turing, DEFAULT_CONFIG)
        barrier = threading.Barrier(2, timeout=10)
        errors = []

        def store():
            try:
                cache.store(key, result)
            except Exception as exc:
                errors.append(exc)

        with install_faults(None) as injector:
            injector.fire_cache_write = lambda _key: barrier.wait()
            threads = [threading.Thread(target=store) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        assert errors == []
        path = cache.path_for(key)
        assert [p.name for p in path.parent.iterdir()] == [path.name]
        loaded = cache.load(key, prog, LAUNCH, turing)
        assert loaded is not None
        assert loaded.duration_cycles == result.duration_cycles
        size = path.stat().st_size
        assert cache.total_bytes == size
        assert EvictingResultCache(tmp_path).total_bytes == size

    @pytest.mark.parametrize("store_cls",
                             [SimResultCache, EvictingResultCache])
    def test_reopen_removes_a_dead_writers_temp_files(self, tmp_path,
                                                      turing, store_cls):
        """A writer killed between its temp write and the rename leaves
        a temp in the store root that no glob of the store counts or
        evicts.  Reopening either store removes it once that writer's
        process is gone, and keeps a live writer's (CLI runs may share
        the store)."""
        import subprocess
        import sys

        prog = _kernel("cachedead")
        cache = store_cls(tmp_path)
        key = sim_fingerprint(prog, LAUNCH, turing, DEFAULT_CONFIG)
        cache.store(key, self._result(turing, prog))
        shard = cache.path_for(key)
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        assert child.wait(timeout=60) == 0
        dead = [tmp_path / f"{key}.tmp.{child.pid}.1",
                tmp_path / f"index.json.tmp.{child.pid}.1"]
        live = tmp_path / f"{key}.tmp.{os.getpid()}.1"
        for temp in (*dead, live):
            temp.write_text("x" * 1000)
        reopened = store_cls(tmp_path)
        assert [temp.exists() for temp in dead] == [False, False]
        assert live.exists()
        assert len(reopened) == 1
        if store_cls is EvictingResultCache:
            assert reopened.total_bytes == shard.stat().st_size


# ---------------------------------------------------------------------------
# quarantine-and-degrade through profiles, analysis and reports
# ---------------------------------------------------------------------------

def _two_kernel_app(name="mixed"):
    return Application(
        name=name,
        suite="test",
        invocations=(
            KernelInvocation(_kernel("alpha"), LAUNCH),
            KernelInvocation(_kernel("beta"), LAUNCH),
        ),
    )


def _metrics_fault_seed(metrics, fire_key="alpha#0", spare_key="beta#0"):
    """A seed whose ``profiler.metrics`` schedule corrupts ``fire_key``
    (dropping at least one required metric) and spares ``spare_key``."""
    probe = {name: 1.0 for name in metrics}
    for seed in range(2000):
        inj = FaultInjector(
            FaultPlan(seed=seed, rates={"profiler.metrics": 0.5})
        )
        if (inj.decide("profiler.metrics", fire_key)
                and not inj.decide("profiler.metrics", spare_key)
                and len(inj.corrupt_metrics(fire_key, probe)) < len(probe)):
            return seed
    raise AssertionError("no suitable seed found")


class TestDegradedProfiles:
    def test_partial_metrics_quarantine_the_invocation(self, turing):
        metrics = metric_names_for_level(turing.compute_capability, 3)
        seed = _metrics_fault_seed(metrics)
        app = _two_kernel_app()
        tool = tool_for(turing)
        with install_faults(f"seed={seed},profiler.metrics@0.5"):
            profile = tool.profile_application(app, metrics)
        assert profile.quarantined == ("alpha#0",)
        assert profile.degraded
        assert [k.kernel_name for k in profile.kernels] == ["beta"]

    def test_degraded_result_is_annotated_in_reports(self, turing):
        metrics = metric_names_for_level(turing.compute_capability, 3)
        seed = _metrics_fault_seed(metrics)
        tool = tool_for(turing)
        with install_faults(f"seed={seed},profiler.metrics@0.5"):
            profile = tool.profile_application(_two_kernel_app(), metrics)
        result = TopDownAnalyzer(turing).analyze_application(profile)
        assert result.degraded
        assert result.quarantined == ("alpha#0",)
        text = level1_report([result])
        assert "mixed [DEGRADED]" in text
        assert "invocation alpha#0 skipped" in text

    def test_fully_failed_app_raises_quarantine_error(self, turing):
        metrics = metric_names_for_level(turing.compute_capability, 3)
        app = Application(
            name="solo", suite="test",
            invocations=(KernelInvocation(_kernel("gamma"), LAUNCH),),
        )
        tool = tool_for(turing)
        with install_faults("engine.transient"):
            with pytest.raises(QuarantineError, match="quarantined"):
                tool.profile_application(app, metrics)

    def test_profile_suite_degrades_per_app(self, turing):
        from repro.experiments.runner import profile_suite

        metrics = metric_names_for_level(turing.compute_capability, 3)
        seed = _metrics_fault_seed(
            metrics, fire_key="alpha#0", spare_key="beta#0"
        )
        suite = Suite(name="testsuite", applications=(
            Application(
                name="doomed_app", suite="testsuite",
                invocations=(KernelInvocation(_kernel("alpha"), LAUNCH),),
            ),
            Application(
                name="fine_app", suite="testsuite",
                invocations=(KernelInvocation(_kernel("beta"), LAUNCH),),
            ),
        ))
        with install_faults(f"seed={seed},profiler.metrics@0.5"):
            run = profile_suite(turing, suite)
        assert run.degraded
        assert list(run.quarantined) == ["doomed_app"]
        assert "all 1 invocation(s) quarantined" in \
            run.quarantined["doomed_app"]
        assert run.app_names == ["fine_app"]

    def test_all_apps_quarantined_raises(self, turing):
        from repro.experiments.runner import profile_suite

        suite = Suite(name="deadsuite", applications=(
            Application(
                name="only", suite="deadsuite",
                invocations=(KernelInvocation(_kernel("delta"), LAUNCH),),
            ),
        ))
        with install_faults("engine.transient"):
            with pytest.raises(QuarantineError, match="1 application"):
                profile_suite(turing, suite)
