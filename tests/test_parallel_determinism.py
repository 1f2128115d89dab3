"""Parallel execution must be bit-identical to serial execution.

These tests drive real process pools (small worker counts, tiny
kernels) and compare against serial ground truth: the engine merges
worker results in deterministic order, so every counter, metric and
Top-Down fraction must match exactly — not approximately.
"""

from __future__ import annotations

import pytest

from repro.core.analyzer import TopDownAnalyzer
from repro.core.tables import metric_names_for_level
from repro.experiments.runner import PAPER_GPUS, profile_suite
from repro.isa import LaunchConfig
from repro.lint import bundled_suites
from repro.pmu.cupti import CuptiSession
from repro.profilers import tool_for
from repro.sim import GPUSimulator, SimConfig, engine_context
from repro.sim.engine import ExecutionEngine, current_engine, resolve_jobs

from tests.conftest import build_compute_kernel, build_stream_kernel

LAUNCH = LaunchConfig(blocks=12, threads_per_block=128)


class TestEnginePlumbing:
    def test_default_engine_is_serial_passthrough(self):
        engine = current_engine()
        assert not engine.parallel
        assert engine.cache is None

    def test_engine_context_installs_and_restores(self):
        with engine_context(jobs=2) as engine:
            assert current_engine() is engine
            assert engine.parallel
        assert not current_engine().parallel

    def test_resolve_jobs(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(1) == 1
        assert resolve_jobs(3) == 3
        assert resolve_jobs(0) >= 1
        with pytest.raises(ValueError):
            resolve_jobs(-1)
        with pytest.raises(ValueError):
            ExecutionEngine(jobs=0)


class TestBatchDeterminism:
    def test_batch_matches_serial_and_dedupes(self, turing):
        config = SimConfig(seed=0)
        stream = build_stream_kernel()
        compute = build_compute_kernel()
        items = [
            (turing, stream, LAUNCH, config),
            (turing, compute, LAUNCH, config),
            (turing, build_stream_kernel(), LAUNCH, config),  # content dup
        ]
        serial = [
            GPUSimulator(turing, config).launch(p, l)
            for _, p, l, _ in items
        ]
        with engine_context(jobs=2) as engine:
            batch = engine.simulate_batch(items)
            assert engine.stats.sim_calls == 2  # dup simulated once
        for got, want in zip(batch, serial):
            assert got.per_sm == want.per_sm
            assert got.duration_cycles == want.duration_cycles
        assert batch[0].per_sm == batch[2].per_sm

    @staticmethod
    def _assert_multi_sm_cells_match_serial(spec, config):
        """Send two distinct multi-SM cells through the pool and compare
        each with a serial launch."""
        progs = [build_stream_kernel(), build_compute_kernel()]
        serial = [GPUSimulator(spec, config).launch(p, LAUNCH) for p in progs]
        with engine_context(jobs=3) as engine:
            batch = engine.simulate_batch(
                [(spec, p, LAUNCH, config) for p in progs]
            )
            assert engine.stats.batch_tasks == 2
        for got, want in zip(batch, serial):
            assert len(got.per_sm) == config.simulated_sms
            assert got.per_sm == want.per_sm
            assert got.duration_cycles == want.duration_cycles

    def test_multi_sm_fanout_bit_identical(self, pascal):
        """A multi-SM launch is one cell: a worker runs its SMs in
        order, exactly as a serial launch does."""
        self._assert_multi_sm_cells_match_serial(
            pascal, SimConfig(seed=5, simulated_sms=3)
        )

    def test_share_l2_falls_back_to_serial(self, pascal):
        """share_l2 SMs mutate one shared SectorCache, so a launch runs
        its SMs in order in one process; a worker running the whole
        cell must equal the serial path exactly."""
        self._assert_multi_sm_cells_match_serial(
            pascal, SimConfig(seed=5, simulated_sms=3, share_l2=True)
        )

    def test_cupti_collection_parallel_equals_serial(self, turing):
        """Replay passes are charged, not re-run: a collection whose
        kernel a pool worker simulated equals a serial collection."""
        config = SimConfig(seed=0)
        prog = build_stream_kernel()
        metrics = metric_names_for_level(turing.compute_capability, 3)
        serial = CuptiSession(turing, config).collect(prog, LAUNCH, metrics)
        with engine_context(jobs=2) as engine:
            engine.simulate_batch([
                (turing, prog, LAUNCH, config),
                (turing, build_compute_kernel(), LAUNCH, config),
            ])
            parallel = CuptiSession(turing, config).collect(
                prog, LAUNCH, metrics
            )
            assert engine.stats.batch_tasks == 2
            assert engine.stats.sim_calls == 2  # the collection hit
        assert parallel.plan.num_passes > 1
        assert parallel.metrics == serial.metrics
        assert parallel.events == serial.events


class TestCrossProcessDeterminism:
    """Simulation must not depend on ``PYTHONHASHSEED``.

    The seed repository derived the per-pattern address stream from
    builtin ``hash(pattern.name)``, which CPython randomizes per
    process — so RANDOM-pattern kernels simulated to *different*
    counters on every run.  A persistent cache makes that fatal: an
    entry stored by one process would disagree with what any other
    process re-simulates.  ``stable_str_hash`` fixed it; this pins the
    fix by simulating the same kernel under two forced hash seeds.
    """

    SCRIPT = (
        "from repro.arch import get_gpu\n"
        "from repro.isa import AccessKind, LaunchConfig, ProgramBuilder\n"
        "from repro.sim import GPUSimulator, SimConfig\n"
        "b = ProgramBuilder('gather')\n"
        "b.pattern('x', AccessKind.RANDOM, working_set_bytes=1 << 20)\n"
        "b.stg('x', b.ffma(b.ldg('x'), b.ldg('x')))\n"
        "prog = b.build(iterations=4)\n"
        "res = GPUSimulator(get_gpu('NVIDIA Quadro RTX 4000'),"
        " SimConfig(seed=0)).launch("
        "prog, LaunchConfig(blocks=4, threads_per_block=128))\n"
        "print(sorted(vars(res.counters).items()))\n"
    )

    #: the same kernel as one application, analyzed at L3 and written
    #: as ``analyze --json`` writes it.
    RESULT_SCRIPT = (
        "from repro.experiments.runner import profile_application\n"
        "from repro.io import result_to_json\n"
        "from repro.isa import AccessKind, LaunchConfig, ProgramBuilder\n"
        "from repro.workloads.base import Application, KernelInvocation\n"
        "b = ProgramBuilder('gather')\n"
        "b.pattern('x', AccessKind.RANDOM, working_set_bytes=1 << 20)\n"
        "b.stg('x', b.ffma(b.ldg('x'), b.ldg('x')))\n"
        "inv = KernelInvocation(b.build(iterations=4),"
        " LaunchConfig(blocks=4, threads_per_block=128))\n"
        "app = Application('gather', 'test', (inv,))\n"
        "print(result_to_json(profile_application("
        "'NVIDIA Quadro RTX 4000', app, level=3)[1]))\n"
    )

    @staticmethod
    def _outputs_under_hash_seeds(script: str) -> list[str]:
        import os
        import subprocess
        import sys

        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, env=env, check=True,
            )
            outputs.append(proc.stdout)
        return outputs

    def test_simulation_ignores_pythonhashseed(self):
        outputs = self._outputs_under_hash_seeds(self.SCRIPT)
        assert outputs[0] == outputs[1]

    def test_result_json_ignores_pythonhashseed(self):
        """``result_to_json`` bytes, key order included: the roll-up
        must not iterate a set of hierarchy nodes."""
        outputs = self._outputs_under_hash_seeds(self.RESULT_SCRIPT)
        assert '"schema": "repro/topdown-result@1"' in outputs[0]
        assert outputs[0] == outputs[1]

    def test_stable_str_hash_is_pinned(self):
        """FNV-1a 64 reference values — any drift silently retires
        every persistent cache, so changing them must be deliberate."""
        from repro.sim.rng import stable_str_hash

        assert stable_str_hash("") == 0xCBF29CE484222325
        assert stable_str_hash("a") == 0xAF63DC4C8601EC8C
        assert stable_str_hash("gather") == stable_str_hash("gather")
        assert stable_str_hash("gather") != stable_str_hash("stream")


class TestSuiteDeterminism:
    """The ISSUE acceptance bar: one suite, both paper GPUs, ``-j 4``
    vs serial, bit-identical profiles and Top-Down results."""

    @pytest.mark.parametrize("gpu", PAPER_GPUS)
    def test_suite_parallel_equals_serial(self, gpu):
        suite = bundled_suites()["synth"]
        serial = profile_suite(gpu, suite, seed=0)
        with engine_context(jobs=4):
            parallel = profile_suite(gpu, suite, seed=0)
        assert serial.app_names == parallel.app_names
        for name in serial.app_names:
            sp, pp = serial.profiles[name], parallel.profiles[name]
            assert sp == pp  # exact: every metric of every kernel
            sr, pr = serial.results[name], parallel.results[name]
            assert sr.values == pr.values

    def test_application_profile_parallel_equals_serial(self, turing):
        """Many invocations of one app fan out via profile_application."""
        from repro.workloads import srad_application

        app = srad_application(12)
        metrics = metric_names_for_level(turing.compute_capability, 3)
        analyzer = TopDownAnalyzer(turing)

        def run():
            tool = tool_for(turing, config=SimConfig(seed=0))
            return tool.profile_application(app, metrics)

        serial = run()
        with engine_context(jobs=4) as engine:
            parallel = run()
            assert engine.stats.batch_tasks > 0
        assert serial == parallel
        assert analyzer.analyze_application(serial).values == \
            analyzer.analyze_application(parallel).values

    def test_warm_cache_parallel_equals_serial(self, turing, tmp_path):
        """jobs + persistent cache together: cold parallel run, then a
        warm run that simulates nothing — all three bit-identical."""
        suite = bundled_suites()["synth"]
        serial = profile_suite(turing, suite, seed=0)
        with engine_context(jobs=2, cache_dir=tmp_path):
            cold = profile_suite(turing, suite, seed=0)
        with engine_context(jobs=2, cache_dir=tmp_path) as engine:
            warm = profile_suite(turing, suite, seed=0)
            assert engine.stats.sim_calls == 0
            assert engine.cache.stats.hits > 0
        for name in serial.app_names:
            assert serial.profiles[name] == cold.profiles[name]
            assert serial.profiles[name] == warm.profiles[name]
            assert serial.results[name].values == warm.results[name].values
