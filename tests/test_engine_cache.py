"""Content fingerprints (unchanged by the per-object key memo), the
run-scoped engine memo, the aliasing regression, and the persistent
simulation-result cache (write → reload → identical, corruption → miss).
"""

from __future__ import annotations

import gc
import hashlib
import json

import pytest

from repro.arch import get_gpu
from repro.core.analyzer import TopDownAnalyzer
from repro.core.tables import metric_names_for_level
from repro.errors import SimulationError
from repro.experiments.runner import PAPER_GPUS, profile_application
from repro.io.counters_json import counters_from_doc, counters_to_doc
from repro.isa import AccessKind, LaunchConfig, ProgramBuilder
from repro.lint import bundled_suites
from repro.profilers import tool_for
from repro.sim import (
    DEFAULT_CONFIG,
    GPUSimulator,
    SimConfig,
    SimResultCache,
    current_engine,
    engine_context,
    fingerprint,
    sim_fingerprint,
)
from repro.sim.fingerprint import FINGERPRINT_SCHEMA, canonicalize
from repro.sim.result_cache import RESULT_SCHEMA
from repro.sim.specialize import driver_for

from tests.conftest import build_stream_kernel


def _kernel(name="k", *, iterations=4, working_set=1 << 18):
    b = ProgramBuilder(name)
    b.pattern("x", AccessKind.STREAM, working_set_bytes=working_set)
    r0 = b.ldg("x")
    b.stg("x", b.ffma(r0, r0))
    return b.build(iterations=iterations)


LAUNCH = LaunchConfig(blocks=8, threads_per_block=128)


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------

class TestFingerprint:
    def test_stable_across_equal_content(self, turing):
        a = _kernel()
        b = _kernel()
        assert a is not b
        assert sim_fingerprint(a, LAUNCH, turing, DEFAULT_CONFIG) == \
            sim_fingerprint(b, LAUNCH, turing, DEFAULT_CONFIG)

    @pytest.mark.parametrize("variant", [
        lambda: _kernel(iterations=5),
        lambda: _kernel(working_set=1 << 19),
        lambda: _kernel(name="other"),
    ])
    def test_differs_for_different_programs(self, turing, variant):
        base = sim_fingerprint(_kernel(), LAUNCH, turing, DEFAULT_CONFIG)
        assert sim_fingerprint(
            variant(), LAUNCH, turing, DEFAULT_CONFIG
        ) != base

    def test_differs_for_launch_spec_and_config(self, turing, pascal):
        prog = _kernel()
        base = sim_fingerprint(prog, LAUNCH, turing, DEFAULT_CONFIG)
        assert sim_fingerprint(
            prog, LaunchConfig(blocks=9, threads_per_block=128),
            turing, DEFAULT_CONFIG,
        ) != base
        assert sim_fingerprint(prog, LAUNCH, pascal, DEFAULT_CONFIG) != base
        assert sim_fingerprint(
            prog, LAUNCH, turing, SimConfig(seed=1)
        ) != base


def _seed_formula(*parts) -> str:
    """The key encoding as first written: one ``json.dumps`` of the
    whole canonicalized tuple, no per-object memo.  Persisted stores
    and driver sources were keyed this way, so every key must still
    equal it byte for byte."""
    payload = json.dumps(
        [FINGERPRINT_SCHEMA, [canonicalize(p) for p in parts]],
        separators=(",", ":"),
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _bundled_invocations():
    return [
        inv
        for suite in bundled_suites().values()
        for app in suite
        for inv in app.invocations
    ]


class TestKeysUnchanged:
    """The per-object fragment memo must not change a single key."""

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("gpu", PAPER_GPUS)
    def test_sim_fingerprint_equals_seed_formula(self, gpu, seed):
        spec = get_gpu(gpu)
        config = SimConfig(seed=seed)
        for inv in _bundled_invocations():
            parts = (inv.program, inv.launch, spec, config)
            # twice: the first call fills the memo, the second reads it.
            for _ in range(2):
                assert sim_fingerprint(*parts) == _seed_formula(*parts), \
                    inv.name

    def test_memo_entry_dies_with_its_program(self, turing):
        prog = _kernel("short_lived")
        sim_fingerprint(prog, LAUNCH, turing, DEFAULT_CONFIG)
        prog_id = id(prog)
        assert fingerprint._FRAGMENTS[prog_id][0]() is prog
        del prog
        gc.collect()
        assert prog_id not in fingerprint._FRAGMENTS

    def test_memo_never_serves_a_stale_fragment(self, turing):
        """Even an entry whose object died unnoticed (same id, another
        object) is re-encoded, not trusted."""
        prog = _kernel(working_set=1 << 14)
        other = _kernel(working_set=1 << 22)
        sim_fingerprint(prog, LAUNCH, turing, DEFAULT_CONFIG)
        # plant prog's entry under other's id, as a recycled id would.
        fingerprint._FRAGMENTS[id(other)] = fingerprint._FRAGMENTS[id(prog)]
        assert sim_fingerprint(other, LAUNCH, turing, DEFAULT_CONFIG) == \
            _seed_formula(other, LAUNCH, turing, DEFAULT_CONFIG)


# ---------------------------------------------------------------------------
# the run-scoped engine memo
# ---------------------------------------------------------------------------

class TestRunScopedMemo:
    def test_serial_engine_simulates_each_distinct_cell_once(self, turing):
        app = bundled_suites()["rodinia"].get("gaussian")
        config = SimConfig(seed=0)
        distinct = {
            sim_fingerprint(inv.program, inv.launch, turing, config)
            for inv in app.invocations
        }
        assert len(distinct) < len(app.invocations)  # has duplicates
        with engine_context(jobs=1) as engine:
            first = profile_application(turing, app, level=1)
            second = profile_application(turing, app, level=1)
            assert engine.stats.sim_calls == len(distinct)
        assert first[1].values == second[1].values

    def test_default_engine_keeps_no_memo(self, turing):
        engine = current_engine()
        before = engine.stats.sim_calls
        for _ in range(2):
            GPUSimulator(turing).launch(_kernel("uncached"), LAUNCH)
        assert engine.stats.sim_calls == before + 2
        assert engine.stats.memo_hits == 0


# ---------------------------------------------------------------------------
# the id(program) aliasing regression (satellite fix)
# ---------------------------------------------------------------------------

class TestCacheAliasing:
    def test_equal_shaped_distinct_programs_do_not_collide(self, turing):
        """Two different programs with identical shape (same instruction
        count, same launch) must never serve each other's cached result
        — the failure mode of the old ``id(program)`` key after the
        allocator reuses a freed address."""
        sim = GPUSimulator(turing)
        small = sim.launch(_kernel(working_set=1 << 14), LAUNCH)
        large = sim.launch(_kernel(working_set=1 << 22), LAUNCH)
        # same geometry, very different working sets: hit rates differ.
        assert small.counters.l1_sector_hits != large.counters.l1_sector_hits

    def test_content_equal_programs_share_the_cached_result(
        self, turing, monkeypatch
    ):
        sim = GPUSimulator(turing)
        first = sim.launch(_kernel(), LAUNCH)

        def boom(*_a, **_k):  # any re-simulation is a cache failure
            raise AssertionError("content-equal launch re-simulated")

        monkeypatch.setattr(GPUSimulator, "launch_uncached", boom)
        again = sim.launch(_kernel(), LAUNCH)  # distinct object, equal content
        assert again is first

    def test_id_reuse_cannot_alias(self, turing):
        """Simulate the GC scenario directly: a program dies, a different
        program is allocated (possibly at the same address), and the
        simulator must re-simulate rather than reuse the stale entry."""
        sim = GPUSimulator(turing)
        results = []
        for ws in (1 << 14, 1 << 22, 1 << 14, 1 << 22):
            prog = _kernel(working_set=ws)  # old object freed each turn
            results.append(sim.launch(prog, LAUNCH).counters.l1_sector_hits)
            del prog
        assert results[0] == results[2]
        assert results[1] == results[3]
        assert results[0] != results[1]


# ---------------------------------------------------------------------------
# counters codec
# ---------------------------------------------------------------------------

class TestCountersCodec:
    def test_round_trip_exact(self, turing):
        result = GPUSimulator(turing).launch(build_stream_kernel(), LAUNCH)
        counters = result.per_sm[0]
        doc = json.loads(json.dumps(counters_to_doc(counters)))
        assert counters_from_doc(doc) == counters

    def test_malformed_docs_raise(self):
        with pytest.raises(SimulationError):
            counters_from_doc("not a dict")
        with pytest.raises(SimulationError):
            counters_from_doc({"inst_executed": 1})
        good = counters_to_doc(
            GPUSimulator(get_gpu("NVIDIA GTX 1070")).launch(
                _kernel(), LAUNCH
            ).per_sm[0]
        )
        bad = dict(good)
        bad["state_cycles"] = {"NO_SUCH_STATE": 3}
        with pytest.raises(SimulationError):
            counters_from_doc(bad)


# ---------------------------------------------------------------------------
# persistent result cache
# ---------------------------------------------------------------------------

class TestPersistentCache:
    def test_store_then_load_identical(self, turing, tmp_path):
        cache = SimResultCache(tmp_path)
        prog = build_stream_kernel()
        key = sim_fingerprint(prog, LAUNCH, turing, DEFAULT_CONFIG)
        result = GPUSimulator(turing).launch(prog, LAUNCH)
        cache.store(key, result)
        loaded = cache.load(key, prog, LAUNCH, turing)
        assert loaded is not None
        assert loaded.per_sm == result.per_sm
        assert loaded.duration_cycles == result.duration_cycles
        assert loaded.working_set_bytes == result.working_set_bytes
        assert cache.stats.hits == 1 and cache.stats.stores == 1

    def test_miss_on_unknown_key(self, turing, tmp_path):
        cache = SimResultCache(tmp_path)
        assert cache.load("ab" * 32, _kernel(), LAUNCH, turing) is None
        assert cache.stats.misses == 1

    def test_corrupted_entry_is_ignored(self, turing, tmp_path):
        cache = SimResultCache(tmp_path)
        prog = build_stream_kernel()
        key = sim_fingerprint(prog, LAUNCH, turing, DEFAULT_CONFIG)
        cache.store(key, GPUSimulator(turing).launch(prog, LAUNCH))
        cache.path_for(key).write_text("{ truncated garbage")
        assert cache.load(key, prog, LAUNCH, turing) is None
        assert cache.stats.corrupt == 1

    def test_old_schema_version_is_ignored(self, turing, tmp_path):
        cache = SimResultCache(tmp_path)
        prog = build_stream_kernel()
        key = sim_fingerprint(prog, LAUNCH, turing, DEFAULT_CONFIG)
        cache.store(key, GPUSimulator(turing).launch(prog, LAUNCH))
        path = cache.path_for(key)
        doc = json.loads(path.read_text())
        assert doc["schema"] == RESULT_SCHEMA
        doc["schema"] = "repro/sim-result@0"
        path.write_text(json.dumps(doc))
        assert cache.load(key, prog, LAUNCH, turing) is None
        assert cache.stats.corrupt == 1

    def test_engine_resimulates_and_heals_corrupt_entry(
        self, turing, tmp_path
    ):
        prog = build_stream_kernel()
        key = sim_fingerprint(prog, LAUNCH, turing, DEFAULT_CONFIG)
        with engine_context(cache_dir=tmp_path) as engine:
            baseline = GPUSimulator(turing).launch(prog, LAUNCH)
            assert engine.cache.stats.stores == 1
            engine.cache.path_for(key).write_text("garbage")
        with engine_context(cache_dir=tmp_path) as engine:
            healed = GPUSimulator(turing).launch(prog, LAUNCH)
            assert engine.cache.stats.corrupt == 1
            assert engine.cache.stats.stores == 1  # rewritten
        assert healed.per_sm == baseline.per_sm
        with engine_context(cache_dir=tmp_path) as engine:
            reloaded = GPUSimulator(turing).launch(prog, LAUNCH)
            assert engine.cache.stats.hits == 1
        assert reloaded.per_sm == baseline.per_sm

    def test_store_backed_run_writes_only_result_shards(
        self, turing, tmp_path
    ):
        """A run on the cycle loop leaves nothing next to the store:
        the cache directory holds result shards and nothing else."""
        prog = build_stream_kernel("shards_only")
        with engine_context(jobs=1, cache_dir=tmp_path) as engine:
            engine.simulate(turing, prog, LAUNCH, DEFAULT_CONFIG)
            assert engine.cache.stats.stores == 1
        # the loop ran the program: it was not declined.
        assert not isinstance(driver_for(prog, turing, DEFAULT_CONFIG), str)
        key = sim_fingerprint(prog, LAUNCH, turing, DEFAULT_CONFIG)
        assert sorted(
            p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")
        ) == [key[:2], f"{key[:2]}/{key}.json"]


# ---------------------------------------------------------------------------
# cached analysis round trip (cache write → reload → identical result)
# ---------------------------------------------------------------------------

class TestWarmRunEquivalence:
    def test_topdown_result_identical_from_warm_cache(
        self, turing, tmp_path
    ):
        from repro.lint import bundled_suites

        app = bundled_suites()["synth"].get("stream_dram")
        metrics = metric_names_for_level(turing.compute_capability, 3)
        analyzer = TopDownAnalyzer(turing)

        def analyze():
            tool = tool_for(turing, config=SimConfig(seed=0))
            return analyzer.analyze_application(
                tool.profile_application(app, metrics)
            )

        baseline = analyze()
        with engine_context(cache_dir=tmp_path) as engine:
            cold = analyze()
            assert engine.cache.stats.stores > 0
        with engine_context(cache_dir=tmp_path) as engine:
            warm = analyze()
            assert engine.cache.stats.hits > 0
            assert engine.stats.sim_calls == 0
        assert cold.values == baseline.values
        assert warm.values == baseline.values
