"""End-to-end observability tests through the engine and the CLI.

Pins the acceptance properties of the observability layer:

* ``--trace`` produces a valid Chrome trace-event file whose span tree
  covers engine dispatch, per-cell simulation, cache traffic and (under
  fault injection) retry/quarantine episodes — across worker processes;
* ``--metrics-out`` exports a counters section that is bit-identical
  across ``-j1`` and ``-j4`` for the same inputs and seed, including
  the worker-spill merge path;
* with no observability flags nothing is installed and no files appear.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.isa import LaunchConfig
from repro.obs import active_obs, load_trace, obs_context
from repro.sim import SimConfig, engine_context

from tests.conftest import build_compute_kernel, build_stream_kernel

LAUNCH = LaunchConfig(blocks=12, threads_per_block=128)


def _batch_items(turing, n_dups: int = 2):
    config = SimConfig(seed=0)
    items = [
        (turing, build_stream_kernel(), LAUNCH, config),
        (turing, build_compute_kernel(), LAUNCH, config),
    ]
    items += [(turing, build_stream_kernel(), LAUNCH, config)] * n_dups
    return items


class TestEngineTracing:
    def test_span_tree_covers_engine_sim_cache(self, turing, tmp_path):
        trace = tmp_path / "run.trace.json"
        with obs_context(trace=trace), \
                engine_context(jobs=2, cache_dir=tmp_path / "cache"):
            from repro.sim.engine import current_engine

            current_engine().simulate_batch(_batch_items(turing))
        events = load_trace(trace)
        # valid Chrome trace-event objects throughout.
        for event in events:
            assert {"name", "ph", "pid"} <= set(event)
        names = {e["name"] for e in events}
        assert {"engine", "engine.batch", "engine.dispatch",
                "sim.cell", "cache.load", "cache.store"} <= names
        cats = {e.get("cat") for e in events if "cat" in e}
        assert {"engine", "sim", "cache"} <= cats
        # worker events landed in the same file (distinct pids).
        sim_pids = {e["pid"] for e in events if e["name"] == "sim.cell"}
        parent_pids = {e["pid"] for e in events if e["name"] == "engine"}
        assert sim_pids and parent_pids
        assert sim_pids != parent_pids
        # the parent's trace is a cleanly closed JSON array.
        assert json.loads(trace.read_text())[-1]["name"] == "trace.end"
        # dispatch span encloses nothing before the engine span opened.
        engine_span = next(e for e in events if e["name"] == "engine")
        dispatch = next(e for e in events if e["name"] == "engine.dispatch")
        assert engine_span["ts"] <= dispatch["ts"]

    def test_cache_hit_outcome_recorded(self, turing, tmp_path):
        items = _batch_items(turing, n_dups=0)
        with obs_context(enabled=True) as warm:
            with engine_context(cache_dir=tmp_path / "cache"):
                from repro.sim.engine import current_engine

                current_engine().simulate_batch(items)
        assert warm.metrics.counter("cache.misses") == 2
        with obs_context(enabled=True) as obs:
            with engine_context(cache_dir=tmp_path / "cache"):
                from repro.sim.engine import current_engine

                current_engine().simulate_batch(items)
        assert obs.metrics.counter("cache.hits") == 2
        assert obs.metrics.counter("cache.misses") == 0
        outcomes = [
            e["args"]["outcome"] for e in obs.tracer.events
            if e["name"] == "cache.load"
        ]
        assert outcomes == ["hit", "hit"]

    def test_retry_and_quarantine_events(self, turing):
        # rate 1.0: every attempt fails — each distinct cell records
        # (attempts - 1) retry instants, then a quarantine instant, and
        # simulate_batch degrades its slot to None instead of raising.
        with obs_context(enabled=True) as obs:
            with engine_context(jobs=1, faults="engine.transient,seed=3",
                                retries=2):
                from repro.sim.engine import current_engine

                out = current_engine().simulate_batch(
                    _batch_items(turing, 0)
                )
        assert out == [None, None]
        retries = [e for e in obs.tracer.events if e["name"] == "retry"]
        assert len(retries) == 2  # one failed first attempt per cell
        assert all(e["cat"] == "resilience" for e in retries)
        assert {e["args"]["error"] for e in retries} == {
            "TransientFaultError"
        }
        assert obs.metrics.counter(
            "resilience.retries.TransientFaultError"
        ) == 2
        quarantines = [
            e for e in obs.tracer.events if e["name"] == "quarantine"
        ]
        assert len(quarantines) == 2
        assert obs.metrics.counter("resilience.quarantined_cells") == 2

    def test_quarantine_raise_path_records_instant(self, turing):
        from repro.errors import QuarantineError
        from repro.sim import DEFAULT_CONFIG

        prog = build_stream_kernel()
        with obs_context(enabled=True) as obs:
            with engine_context(jobs=1, faults="engine.transient,seed=3",
                                retries=1):
                from repro.sim.engine import current_engine

                with pytest.raises(QuarantineError):
                    current_engine().simulate(
                        turing, prog, LAUNCH, DEFAULT_CONFIG
                    )
        assert obs.metrics.counter("resilience.quarantined_cells") == 1
        assert any(
            e["name"] == "quarantine" for e in obs.tracer.events
        )


class TestMetricsDeterminism:
    def _run(self, turing, tmp_path, jobs, tag):
        out = tmp_path / f"metrics-{tag}.json"
        with obs_context(metrics_out=out):
            with engine_context(jobs=jobs,
                                cache_dir=tmp_path / f"cache-{tag}"):
                from repro.sim.engine import current_engine

                current_engine().simulate_batch(_batch_items(turing))
        return json.loads(out.read_text())

    def test_counters_bit_identical_across_jobs(self, turing, tmp_path):
        serial = self._run(turing, tmp_path, 1, "j1")
        parallel = self._run(turing, tmp_path, 4, "j4")
        # the deterministic section: schema + counters, bit-identical.
        assert serial["counters"] == parallel["counters"]
        assert serial["schema"] == parallel["schema"]
        # worker-side counts really crossed the process boundary.
        assert parallel["counters"]["sim.cells_executed"] == 2
        # pool shape is visible — but only in the gauges section.
        assert serial["gauges"]["engine.jobs"] == 1
        assert parallel["gauges"]["engine.jobs"] == 4

    def test_repeat_run_bit_identical(self, turing, tmp_path):
        one = self._run(turing, tmp_path, 2, "a")
        two = self._run(turing, tmp_path, 2, "b")
        assert one["counters"] == two["counters"]


class TestCliObservability:
    def test_trace_and_metrics_flags(self, tmp_path, capsys):
        trace = tmp_path / "cli.trace.json"
        metrics = tmp_path / "cli-metrics.json"
        rc = main(["analyze", "--gpu", "rtx4000", "--suite", "rodinia",
                   "--app", "nn", "--level", "1",
                   "--trace", str(trace), "--metrics-out", str(metrics)])
        assert rc == 0
        events = load_trace(trace)
        names = {e["name"] for e in events}
        assert {"engine", "sim.cell", "profiler.app"} <= names
        doc = json.loads(metrics.read_text())
        assert doc["schema"] == "repro/obs-metrics@1"
        assert doc["counters"]["profiler.apps"] == 1
        assert doc["counters"]["sim.cells_executed"] >= 1

    def test_no_flags_no_files(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main(["analyze", "--gpu", "rtx4000", "--suite", "rodinia",
                   "--app", "nn", "--level", "1"])
        assert rc == 0
        assert list(tmp_path.iterdir()) == []

    def test_profile_self_reports_overheads(self, capsys):
        rc = main(["profile-self", "--suite", "rodinia", "--level", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "self-profile: wall" in out
        assert "self-overhead:" in out
        assert "modeled replay overhead:" in out

    def test_obs_not_installed_after_cli_run(self, capsys):
        from repro.obs import DISABLED_OBS

        main(["analyze", "--gpu", "rtx4000", "--suite", "rodinia",
              "--app", "nn", "--level", "1"])
        assert active_obs() is DISABLED_OBS


class TestGenerateAllObservability:
    def test_runhealth_contains_self_profile(self, tmp_path, capsys):
        from repro.experiments.generate_all import main as gen_main

        out = tmp_path / "bundle"
        rc = gen_main(["--output", str(out), "--srad-invocations", "4"])
        assert rc == 0
        health = (out / "RUNHEALTH.txt").read_text()
        assert "self-profile: wall" in health
        assert "self-overhead:" in health

    def test_counters_and_bundle_identical_across_jobs(
        self, tmp_path, capsys
    ):
        """The counters contract holds for a whole bundle: `-j 1` and
        `-j 2` must both simulate each distinct cell once, however many
        stages ask for it, and write the same artifacts."""
        from repro.experiments.generate_all import main as gen_main

        runs = {}
        for jobs in ("1", "2"):
            out = tmp_path / f"bundle-j{jobs}"
            metrics = tmp_path / f"metrics-j{jobs}.json"
            rc = gen_main(["--output", str(out), "--srad-invocations", "4",
                           "-j", jobs, "--metrics-out", str(metrics)])
            assert rc == 0
            runs[jobs] = (out, json.loads(metrics.read_text())["counters"])
        (serial_out, serial), (parallel_out, parallel) = runs["1"], runs["2"]
        assert serial == parallel
        assert serial["engine.sim_cells"] == serial["sim.cells_executed"]
        names = sorted(p.name for p in serial_out.iterdir())
        assert names == sorted(p.name for p in parallel_out.iterdir())
        for name in names:
            if name != "RUNHEALTH.txt":
                assert (serial_out / name).read_bytes() == \
                    (parallel_out / name).read_bytes(), name
