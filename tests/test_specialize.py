"""The specialized backend: its cycle loop, fallback and plumbing.

The perf claim lives in ``benchmarks/test_bench_simcore.py`` and the
bit-identity matrix at the default hiccup rates in
``tests/test_sim_equivalence.py``; this file pins the rest of the
contract:

* the same directed and randomized kernels, with hiccups off or of one
  kind only, stay bit-identical to the reference scan, as do the
  shared-L2 serial path and one loop running different programs back
  to back;
* the numpy-vectorized roll tables match the scalar SplitMix64 path
  bit for bit;
* declined programs run on the reference scan transparently, with
  the fallback visible in observability;
* the loop is ordinary source: an error raised in it points at a line
  of ``specialize.py``;
* a run's tables do not outlive it, and reference counting alone
  frees a run;
* the backend selection is threaded through the engine/CLI plumbing,
  and an engine that only opens a store loads neither the specializer
  nor numpy.
"""

from __future__ import annotations

import gc
import traceback
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import get_gpu
from repro.errors import SimulationError, UsageError
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
    MAX_BODY_LEN,
    check_supported,
    driver_for,
)
from repro.workloads import rodinia

from tests.test_property_sim import small_programs
from tests.test_sim_equivalence import (
    DIRECTED,
    GPUS,
    assert_directed_matches_reference,
    assert_loop_matches_reference,
)

SPEC = get_gpu("rtx4000")


def _run(cls, program, launch, config, **kw):
    return cls(SPEC, program, launch, config, **kw).run()


def _assert_identical(spz, ref, label):
    if counters_to_doc(spz) != counters_to_doc(ref):
        detail = "\n".join(spz.diff(ref)) or "(doc-level difference)"
        pytest.fail(f"{label}: specialized diverged\n{detail}")


# ----------------------------------------------------------------------
# the hiccup switch: hiccups off leaves the loop's hiccup tables empty,
# one kind only leaves one of them empty
# ----------------------------------------------------------------------
#: (bank conflict, dispatch hiccup) rates with hiccups off.
NO_HICCUPS = (0.0, 0.0)


@pytest.mark.parametrize("kernel", sorted(DIRECTED))
@pytest.mark.parametrize("scheduler", ["gto", "lrr"])
def test_directed_cases_match_reference(kernel, scheduler):
    for gpu in GPUS:
        assert_directed_matches_reference(gpu, kernel, scheduler,
                                          NO_HICCUPS)


@given(
    program=small_programs(),
    blocks=st.sampled_from([1, 5, 17]),
    tpb=st.sampled_from([32, 96, 256]),
    scheduler=st.sampled_from(["gto", "lrr"]),
    seed=st.integers(0, 3),
    gpu=st.sampled_from(GPUS),
    rates=st.sampled_from([(0.3, 0.0), (0.0, 0.3), NO_HICCUPS]),
)
@settings(max_examples=25, deadline=None)
def test_random_kernels_match_reference(program, blocks, tpb, scheduler,
                                        seed, gpu, rates):
    config = SimConfig(seed=seed, scheduler=scheduler,
                       bank_conflict_rate=rates[0],
                       dispatch_stall_rate=rates[1])
    assert_loop_matches_reference(
        get_gpu(gpu), program,
        LaunchConfig(blocks=blocks, threads_per_block=tpb), config,
        f"{gpu}/{program.name}/{scheduler}/{rates}",
    )


def test_shared_l2_serial_path_matches_reference():
    """share_l2 launches take the serial path; the inline L1/L2 probe
    must mutate the *shared* cache exactly like the reference scan."""
    program = DIRECTED["divergent"]()
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


def test_shared_driver_runs_each_program_bit_identically():
    """One loop runs program A, then B, then A again: every run equals
    the reference scan, so no state leaks from one program's run into
    the next through the loop."""
    config = SimConfig(seed=3)
    launch = LaunchConfig(blocks=5, threads_per_block=128)
    for name in ("barrier_drain", "divergent", "barrier_drain"):
        program = DIRECTED[name]()
        spz = _run(SMSimulator, program, launch, config, blocks_assigned=5)
        ref = _run(ReferenceSMSimulator, program, launch, config,
                   blocks_assigned=5)
        _assert_identical(spz, ref, program.name)


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
    ref = _run(ReferenceSMSimulator, program, launch, config)
    assert counters_to_doc(counters) == counters_to_doc(ref)
    counters.validate()


# ----------------------------------------------------------------------
# the loop is ordinary source; a run frees itself
# ----------------------------------------------------------------------
def test_loop_error_points_at_a_source_line():
    """An error raised inside the cycle loop has its innermost frame in
    ``specialize.py``, with the source line a reader can see."""
    program = DIRECTED["barrier_drain"]()
    launch = LaunchConfig(blocks=3, threads_per_block=128)
    sim = SMSimulator(SPEC, program, launch, SimConfig(max_cycles=50))
    with pytest.raises(SimulationError, match="exceeded 50") as excinfo:
        sim.run()
    frame = traceback.extract_tb(excinfo.value.__traceback__)[-1]
    assert Path(frame.filename).parts[-3:] == ("repro", "sim",
                                               "specialize.py")
    assert frame.line


def test_sm_run_leaves_no_reference_cycle():
    """Reference counting frees a run's whole state (tables, caches,
    queues) when it returns: nothing is left for the GC."""
    inv = rodinia().applications[0].invocations[0]
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


def test_runtime_tables_live_for_one_run():
    """A run builds its roll, fetch and memory tables and drops them:
    after a first run, another run at a new seed leaves (almost)
    nothing behind."""
    program = DIRECTED["barrier_drain"]()
    launch = LaunchConfig(blocks=288, threads_per_block=128)
    _run(SMSimulator, program, launch, SimConfig(seed=5))
    assert not isinstance(driver_for(program, SPEC, SimConfig(seed=5)), str)
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
        program = DIRECTED["const_reads"]()
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
    """The backend is installed for the block; a specialized run writes
    nothing of its own next to the store."""
    from repro.sim.engine import engine_context

    program = DIRECTED["divergent"]()
    launch = LaunchConfig(blocks=2, threads_per_block=64)
    with engine_context(jobs=1, cache_dir=tmp_path, backend="reference"):
        assert current_backend() == "reference"
    assert current_backend() == DEFAULT_BACKEND
    with engine_context(jobs=1, cache_dir=tmp_path) as engine:
        engine.simulate(SPEC, program, launch, SimConfig(seed=1))
    assert not isinstance(driver_for(program, SPEC, SimConfig(seed=1)), str)
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
