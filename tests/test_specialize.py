"""The specialized-driver backend: bit-identity, caching, fallback.

The perf claim lives in ``benchmarks/test_bench_simcore.py``; this
file pins the *correctness* half of the contract:

* randomized and directed kernels produce counters bit-identical to
  the frozen reference scan (and the specializer accepts — does not
  silently fall back on — every shape it claims to support);
* the numpy-vectorized roll tables match the scalar SplitMix64 path
  bit for bit;
* declined programs run on the reference scan transparently, with
  the fallback visible in observability;
* the in-process driver cache behaves: one driver per machine shape,
  shared by every program on it without state leaking from one run to
  the next, hits/misses counted, nothing written to disk, compiled
  code kept and sources not; a run's tables do not outlive it, and
  reference counting alone frees a run;
* the backend selection is threaded through the engine/CLI plumbing,
  and an engine that only opens a store loads neither the specializer
  nor numpy.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import get_gpu
from repro.errors import UsageError
from repro.io.counters_json import counters_to_doc
from repro.isa import AccessKind, LaunchConfig, ProgramBuilder
from repro.obs.runtime import obs_context
from repro.sim import SimConfig
from repro.sim.backend import (
    BACKENDS,
    DEFAULT_BACKEND,
    backend_context,
    current_backend,
    make_sm_simulator,
    set_backend,
    simulator_class,
)
from repro.sim.gpu import GPUSimulator
from repro.sim.rng import mix64
from repro.sim.sm import SMSimulator
from repro.sim.sm_reference import ReferenceSMSimulator
from repro.sim.specialize import (
    _DRIVER_CACHE,
    MAX_BODY_LEN,
    check_supported,
    clear_driver_cache,
    driver_for,
    generate_driver_source,
    specialization_key,
)
from repro.workloads import rodinia
from tests.test_property_sim import small_programs

SPEC = get_gpu("rtx4000")


def _run(cls, program, launch, config, **kw):
    return cls(SPEC, program, launch, config, **kw).run()


def _assert_identical(spz, ref, label):
    if counters_to_doc(spz) != counters_to_doc(ref):
        detail = "\n".join(spz.diff(ref)) or "(doc-level difference)"
        pytest.fail(f"{label}: specialized diverged\n{detail}")


# ----------------------------------------------------------------------
# directed kernels: the semantics the codegen had to preserve
# ----------------------------------------------------------------------
def _barrier_drain_kernel():
    b = ProgramBuilder("barrier_drain")
    b.pattern("x", AccessKind.STRIDED, working_set_bytes=1 << 20,
              stride_elements=4)
    r = b.ldg("x")
    b.barrier()
    r = b.ffma(r, r)
    b.sts("x", r)
    b.membar()
    b.stg("x", r)
    return b.build(iterations=6)


def _divergence_kernel():
    b = ProgramBuilder("divergent")
    b.pattern("x", AccessKind.STRIDED, working_set_bytes=1 << 22,
              stride_elements=32)
    r = b.ldg("x")
    b.branch(if_length=2, else_length=1, taken_fraction=0.7)
    r = b.ffma(r, r)
    b.stg("x", r)
    b.imad(r, r)
    return b.build(iterations=5)


def _constant_kernel():
    b = ProgramBuilder("const_reads")
    b.pattern("c", AccessKind.UNIFORM, working_set_bytes=1 << 16)
    r = b.ldc("c")
    r = b.imad(r, r)
    b.stg("c", r)
    return b.build(iterations=10)


DIRECTED = {
    "barrier_drain": _barrier_drain_kernel,
    "divergent": _divergence_kernel,
    "const_reads": _constant_kernel,
}


@pytest.mark.parametrize("kernel", sorted(DIRECTED))
@pytest.mark.parametrize("scheduler", ["gto", "lrr"])
def test_directed_cases_match_reference(kernel, scheduler):
    program = DIRECTED[kernel]()
    for seed in (0, 7):
        for blocks, tpb in ((3, 128), (9, 256), (1, 32)):
            launch = LaunchConfig(blocks=blocks, threads_per_block=tpb)
            config = SimConfig(seed=seed, scheduler=scheduler)
            assert check_supported(program, SPEC, config) is None
            kw = dict(blocks_assigned=blocks)
            ref = _run(ReferenceSMSimulator, program, launch, config,
                       **kw)
            spz = _run(SMSimulator, program, launch, config, **kw)
            _assert_identical(
                spz, ref, f"{kernel}/{scheduler}/s{seed}/{blocks}x{tpb}"
            )
            spz.validate()


@given(
    program=small_programs(),
    blocks=st.sampled_from([1, 5, 17]),
    tpb=st.sampled_from([32, 96, 256]),
    scheduler=st.sampled_from(["gto", "lrr"]),
    seed=st.integers(0, 3),
    # (bank conflict, dispatch hiccup) rates: the default mix, one kind
    # of hiccup only, and none (a driver with no hiccup check at all).
    rates=st.sampled_from([(0.02, 0.01), (0.3, 0.0), (0.0, 0.3),
                           (0.0, 0.0)]),
)
@settings(max_examples=25, deadline=None)
def test_random_kernels_match_reference(program, blocks, tpb, scheduler,
                                        seed, rates):
    launch = LaunchConfig(blocks=blocks, threads_per_block=tpb)
    config = SimConfig(seed=seed, scheduler=scheduler,
                       bank_conflict_rate=rates[0],
                       dispatch_stall_rate=rates[1])
    # every generated shape must be *accepted*: a silent fallback here
    # would make the equivalence claim vacuous.
    assert check_supported(program, SPEC, config) is None
    spz = _run(SMSimulator, program, launch, config,
               blocks_assigned=blocks)
    ref = _run(ReferenceSMSimulator, program, launch, config,
               blocks_assigned=blocks)
    _assert_identical(spz, ref, f"{program.name}/{scheduler}")
    spz.validate()


def test_shared_l2_serial_path_matches_reference():
    """share_l2 launches take the serial path; the inline L1/L2 probe
    must mutate the *shared* cache exactly like the reference scan."""
    program = _divergence_kernel()
    launch = LaunchConfig(blocks=6, threads_per_block=128)
    docs = []
    for backend in ("reference", "specialized"):
        with backend_context(backend):
            config = SimConfig(seed=3, share_l2=True, simulated_sms=2)
            result = GPUSimulator(SPEC, config).launch_uncached(
                program, launch
            )
        docs.append([counters_to_doc(c) for c in result.per_sm])
    assert docs[0] == docs[1]


def test_one_driver_per_machine_shape():
    """Drivers are keyed by machine shape, not program: every distinct
    rodinia and altis program on both paper GPUs runs on one driver per
    GPU, whose source emits the hiccup check and the fast-tail park
    once and stays small."""
    from repro.lint import bundled_suites

    suites = bundled_suites()
    config = SimConfig(seed=0)
    clear_driver_cache()
    try:
        sources = {}
        for gpu in ("gtx1070", "rtx4000"):
            spec = get_gpu(gpu)
            for name in ("rodinia", "altis"):
                for app in suites[name].applications:
                    for inv in app.invocations:
                        driver = driver_for(inv.program, spec, config)
                        assert not isinstance(driver, str), driver
                        if driver.source is not None:
                            sources[gpu] = driver.source
        assert len(_DRIVER_CACHE) == 2
        assert sorted(_DRIVER_CACHE) == sorted(
            specialization_key(get_gpu(gpu), config)
            for gpu in ("gtx1070", "rtx4000")
        )
        assert sorted(sources) == ["gtx1070", "rtx4000"]
        for gpu, source in sources.items():
            assert source.count(" in HIC[s]:") == 1, gpu
            assert source.count("+= prdy - rc") == 1, gpu
            assert source.count("\n") <= 1500, gpu
    finally:
        clear_driver_cache()


def test_shared_driver_runs_each_program_bit_identically():
    """One shared driver runs program A, then B, then A again: every run
    equals the reference scan, so no state leaks from one program's run
    into the next through the driver."""
    config = SimConfig(seed=3)
    launch = LaunchConfig(blocks=5, threads_per_block=128)
    clear_driver_cache()
    try:
        driver_for(_constant_kernel(), SPEC, config)  # warm the cache
        for make in (_barrier_drain_kernel, _divergence_kernel,
                     _barrier_drain_kernel):
            program = make()
            driver = driver_for(program, SPEC, config)
            assert driver is next(iter(_DRIVER_CACHE.values()))
            spz = _run(SMSimulator, program, launch, config,
                       blocks_assigned=5)
            ref = _run(ReferenceSMSimulator, program, launch, config,
                       blocks_assigned=5)
            _assert_identical(spz, ref, program.name)
        assert len(_DRIVER_CACHE) == 1
    finally:
        clear_driver_cache()


# ----------------------------------------------------------------------
# numpy roll tables vs the scalar SplitMix64 path
# ----------------------------------------------------------------------
def test_numpy_rolls_bit_identical_to_scalar():
    np = pytest.importorskip("numpy")
    from repro.sim.specialize import _mix64_np, _u01_np

    xs = [0, 1, 2, 1 << 63, (1 << 64) - 1, 0xDEADBEEF]
    xs += [mix64(i * 977) for i in range(64)]
    arr = np.array(xs, dtype=np.uint64)
    mixed = _mix64_np(arr)
    for i, x in enumerate(xs):
        assert int(mixed[i]) == mix64(x)
    u = _u01_np(mixed)
    for i, x in enumerate(xs):
        assert float(u[i]) == mix64(x) / float(1 << 64)


# ----------------------------------------------------------------------
# fallback: declined programs run on the reference scan, visibly
# ----------------------------------------------------------------------
def _oversized_kernel():
    """One instruction past MAX_BODY_LEN, two iterations: declined,
    yet cheap on the reference scan."""
    b = ProgramBuilder("oversized")
    b.pattern("x", AccessKind.STRIDED, working_set_bytes=1 << 20,
              stride_elements=1)
    r = b.ldg("x")
    for _ in range(MAX_BODY_LEN - 1):
        r = b.ffma(r, r)
    b.stg("x", r)
    return b.build(iterations=2)


def test_declined_program_falls_back_bit_identical():
    program = _oversized_kernel()
    assert len(program.body) == MAX_BODY_LEN + 1
    launch = LaunchConfig(blocks=2, threads_per_block=64)
    config = SimConfig(seed=0)
    reason = check_supported(program, SPEC, config)
    assert reason is not None and "body length" in reason
    with obs_context(enabled=True) as obs:
        sim = SMSimulator(SPEC, program, launch, config)
        counters = sim.run()
        assert sim.counters is counters
        assert obs.metrics.counter("sim.specialize_fallbacks") == 1
        # a declined program is neither a driver-cache hit nor a miss.
        assert obs.metrics.counter("sim.specialize_hits") == 0
        assert obs.metrics.counter("sim.specialize_misses") == 0
    ref = _run(ReferenceSMSimulator, program, launch, config)
    assert counters_to_doc(counters) == counters_to_doc(ref)
    counters.validate()


# ----------------------------------------------------------------------
# driver cache: metrics, persistence, table reuse
# ----------------------------------------------------------------------
def test_driver_cache_hit_miss_metrics():
    """Two programs on one spec share its driver: one miss, one hit."""
    config = SimConfig(seed=0)
    clear_driver_cache()
    try:
        with obs_context(enabled=True) as obs:
            d1 = driver_for(_constant_kernel(), SPEC, config)
            d2 = driver_for(_divergence_kernel(), SPEC, config)
            assert d1.fn is d2.fn
            assert d1.source is not None and d2.source is None
            assert obs.metrics.counter("sim.specialize_misses") == 1
            assert obs.metrics.counter("sim.specialize_hits") == 1
    finally:
        clear_driver_cache()


def test_driver_cache_keeps_compiled_code_only():
    """Only the call that builds a driver gets its source; the cache
    keeps the function, and dropping it frees it at once."""
    program = _divergence_kernel()
    config = SimConfig(seed=0)
    clear_driver_cache()
    try:
        built = driver_for(program, SPEC, config)
        assert built.source == generate_driver_source(SPEC, config)
        cached = [d for d in _DRIVER_CACHE.values() if not isinstance(d, str)]
        assert cached and all(d.source is None for d in cached)
        del built, cached
        gc.collect()
        gc.disable()
        try:
            clear_driver_cache()
            assert gc.collect() == 0
        finally:
            gc.enable()
    finally:
        clear_driver_cache()


def test_sm_run_leaves_no_reference_cycle():
    """Reference counting frees a compiled run's whole state (tables,
    caches, queues) when it returns: nothing is left for the GC."""
    inv = rodinia().applications[0].invocations[0]
    clear_driver_cache()
    try:
        GPUSimulator(SPEC, SimConfig(seed=0)).launch_uncached(
            inv.program, inv.launch)
        assert not isinstance(
            driver_for(inv.program, SPEC, SimConfig(seed=1)), str
        )
        gc.collect()
        gc.disable()
        try:
            GPUSimulator(SPEC, SimConfig(seed=1)).launch_uncached(
                inv.program, inv.launch)
            assert gc.collect() == 0
        finally:
            gc.enable()
    finally:
        clear_driver_cache()


def test_runtime_tables_live_for_one_run():
    """A run builds its roll, fetch and memory tables and drops them:
    once the driver is compiled, another run at a new seed leaves
    (almost) nothing behind."""
    program = DIRECTED["barrier_drain"]()
    launch = LaunchConfig(blocks=288, threads_per_block=128)
    clear_driver_cache()
    try:
        _run(SMSimulator, program, launch, SimConfig(seed=5))
        assert not isinstance(
            driver_for(program, SPEC, SimConfig(seed=5)), str
        )
        config = SimConfig(seed=6)
        gc.collect()
        tracemalloc.start()
        try:
            _run(SMSimulator, program, launch, config)
            gc.collect()
            kept, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept < 32 * 1024, f"one run kept {kept} bytes alive"
    finally:
        clear_driver_cache()


# ----------------------------------------------------------------------
# backend plumbing
# ----------------------------------------------------------------------
def test_backend_selection_and_factory():
    assert current_backend() == DEFAULT_BACKEND == "specialized"
    assert BACKENDS == ("specialized", "reference")
    assert simulator_class("reference") is ReferenceSMSimulator
    assert simulator_class("specialized") is SMSimulator
    with backend_context("reference"):
        assert current_backend() == "reference"
        program = _constant_kernel()
        sim = make_sm_simulator(
            SPEC, program, LaunchConfig(blocks=1, threads_per_block=32),
            SimConfig(seed=0),
        )
        assert type(sim) is ReferenceSMSimulator
    assert current_backend() == DEFAULT_BACKEND
    for name in ("no-such-backend", "event"):
        with pytest.raises(UsageError):
            set_backend(name)


def test_engine_context_threads_backend_and_source_dir(tmp_path):
    """The backend is installed for the block; driver sources stay in
    the process that compiled them, never next to the store."""
    from repro.sim.engine import engine_context

    program = _divergence_kernel()
    launch = LaunchConfig(blocks=2, threads_per_block=64)
    with engine_context(jobs=1, cache_dir=tmp_path, backend="reference"):
        assert current_backend() == "reference"
    assert current_backend() == DEFAULT_BACKEND
    clear_driver_cache()
    try:
        with engine_context(jobs=1, cache_dir=tmp_path) as engine:
            engine.simulate(SPEC, program, launch, SimConfig(seed=1))
        assert not isinstance(
            driver_for(program, SPEC, SimConfig(seed=1)), str
        )
    finally:
        clear_driver_cache()
    assert not (tmp_path / "specialized").exists()


def test_cli_backend_flag_parses():
    from repro.cli import build_parser

    args = build_parser().parse_args(["analyze", "--backend", "reference"])
    assert args.backend == "reference"
    assert build_parser().parse_args(["analyze"]).backend is None
    # the retired event loop is no longer a choice: argparse exits 2.
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(["analyze", "--backend", "event"])
    assert excinfo.value.code == 2
    for name in BACKENDS:
        parsed = build_parser().parse_args(["analyze", "--backend", name])
        assert parsed.backend == name


def test_import_repro_sim_stays_lazy(tmp_path):
    """``import repro.sim`` loads neither the specializer (nor numpy)
    nor the reference scan: each is imported on first use.  Nor does
    an engine that opens a store and a pool but simulates nothing."""
    import subprocess
    import sys

    def loaded(body: str, modules: tuple[str, ...]) -> str:
        script = (
            "import sys\n"
            f"{body}"
            f"print(sorted(m for m in {modules!r} if m in sys.modules))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, check=True)
        return proc.stdout.strip()

    assert loaded("import repro.sim\n", (
        "numpy", "repro.sim.specialize", "repro.sim.sm_reference",
    )) == "[]"
    engine = (
        "from repro.sim.engine import ExecutionEngine, engine_context\n"
        f"with engine_context(jobs=1, cache_dir={str(tmp_path)!r}):\n"
        "    pass\n"
        "engine = ExecutionEngine(jobs=2)\n"
        "engine._executor()\n"
        "engine.close()\n"
    )
    assert loaded(engine, ("numpy", "repro.sim.specialize")) == "[]"
