"""Bit-identity proof for the SM cycle loop.

Three layers of evidence that :meth:`repro.sim.sm.SMSimulator.run` —
the cycle loop of :mod:`repro.sim.specialize` — is
counter-for-counter identical to the per-cycle scan it replaced:

1. a golden fixture (``tests/data/golden_sim_counters.json``) produced
   by the seed scan — every bundled suite on both paper GPUs must
   still reproduce it bit for bit, with no app declined;
2. randomized kernels compared live against the frozen seed loop
   (:class:`~repro.sim.sm_reference.ReferenceSMSimulator`), which pins
   the scan *and* the seed memory-model/address-gen/scoreboard helpers;
3. directed cases for the semantics the restructuring had to preserve:
   barrier release, EXIT drain, divergence, wide strides, constant
   reads, and the ``Σ state_cycles == warp_active_cycles`` invariant.

Layers 2 and 3 run both paper GPUs (one dispatch unit per
sub-partition on the RTX 4000, two on the GTX 1070) and both
schedulers, at the default hiccup rates the paper's numbers come from.
``tests/test_specialize.py`` runs the same cases with hiccups off or of
one kind only, through :func:`assert_directed_matches_reference` and
:func:`assert_loop_matches_reference`.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import get_gpu
from repro.io.counters_json import counters_from_doc, counters_to_doc
from repro.isa import (
    AccessKind,
    Instruction,
    LaunchConfig,
    Opcode,
    ProgramBuilder,
)
from repro.lint import bundled_suites
from repro.sim import DEFAULT_BACKEND, SimConfig
from repro.sim.counters import EventCounters
from repro.sim.sm import SMSimulator
from repro.sim.sm_reference import ReferenceSMSimulator
from repro.sim.specialize import check_supported

from tests.test_property_sim import small_programs

GPUS = ("gtx1070", "rtx4000")
#: (bank conflict, dispatch hiccup) rates: the default mix.
DEFAULT_RATES = (0.02, 0.01)
#: (blocks, threads per block) of every directed case.
LAUNCHES = ((3, 128), (9, 256), (1, 32))
GOLDEN_PATH = (
    Path(__file__).resolve().parent / "data" / "golden_sim_counters.json"
)


def _assert_identical(live: EventCounters, ref: EventCounters,
                      label: str) -> None:
    if counters_to_doc(live) != counters_to_doc(ref):
        detail = "\n".join(live.diff(ref)) or "(doc-level difference)"
        pytest.fail(f"{label}: driver diverged from reference\n{detail}")


def assert_loop_matches_reference(spec, program, launch: LaunchConfig,
                                  config: SimConfig, label: str) -> None:
    """The cycle loop accepts ``program`` and counts exactly what the
    frozen seed scan counts."""
    # a silent fallback here would make the equivalence claim vacuous.
    assert check_supported(program, spec, config) is None
    live = SMSimulator(
        spec, program, launch, config, blocks_assigned=launch.blocks
    ).run()
    ref = ReferenceSMSimulator(
        spec, program, launch, config, blocks_assigned=launch.blocks
    ).run()
    _assert_identical(live, ref, label)
    live.validate()  # includes Σ state_cycles == warp_active_cycles


# ----------------------------------------------------------------------
# 1. golden fixture: every bundled suite, both paper GPUs, the default
#    backend (the specializer must not decline any bundled app — a
#    decline would quietly re-test the reference scan against itself)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", [DEFAULT_BACKEND])
@pytest.mark.parametrize("gpu", GPUS)
def test_golden_counters_all_suites(gpu, backend):
    from repro.sim.backend import simulator_class

    sim_cls = simulator_class(backend)
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert gpu in golden["gpus"], "fixture missing this GPU"
    spec = get_gpu(gpu)
    config = SimConfig(seed=0)
    checked = 0
    for sname, suite in sorted(bundled_suites().items()):
        apps_doc = golden["gpus"][gpu][sname]
        for app in suite.applications:
            merged = EventCounters()
            for inv in app.invocations:
                assert check_supported(
                    inv.program, spec, config
                ) is None, f"{app.name}: bundled app declined"
                sim = sim_cls(spec, inv.program, inv.launch, config)
                merged.merge(sim.run())
            if counters_to_doc(merged) != apps_doc[app.name]:
                # name the diverging counters, not two whole records.
                detail = "\n".join(
                    merged.diff(counters_from_doc(apps_doc[app.name]))
                ) or "(doc-level difference)"
                pytest.fail(
                    f"{gpu}/{sname}/{app.name}: counters diverged from "
                    f"the seed-scan golden fixture\n{detail}"
                )
            checked += 1
    # the fixture covers every bundled app; a silently shrunken suite
    # registry must not pass as "all apps identical".
    assert checked == sum(
        len(apps) for apps in golden["gpus"][gpu].values()
    )


# ----------------------------------------------------------------------
# 2. randomized kernels vs the frozen seed loop
# ----------------------------------------------------------------------
@given(
    program=small_programs(),
    blocks=st.sampled_from([1, 5, 17]),
    tpb=st.sampled_from([32, 96, 256]),
    scheduler=st.sampled_from(["gto", "lrr"]),
    seed=st.integers(0, 3),
    # the GTX 1070's two dispatch units per sub-partition take the
    # counted-budget issue path; the RTX 4000 has one.
    gpu=st.sampled_from(GPUS),
)
@settings(max_examples=25, deadline=None)
def test_random_kernels_match_reference(program, blocks, tpb, scheduler,
                                        seed, gpu):
    assert_loop_matches_reference(
        get_gpu(gpu), program,
        LaunchConfig(blocks=blocks, threads_per_block=tpb),
        SimConfig(seed=seed, scheduler=scheduler),
        f"{gpu}/{program.name}/{scheduler}",
    )


# ----------------------------------------------------------------------
# 3. directed semantics cases
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
    b.stg("x", r)   # in flight at EXIT -> the warp drains
    return b.build(iterations=6)


def _divergence_kernel():
    b = ProgramBuilder("divergent")
    b.pattern("x", AccessKind.STRIDED, working_set_bytes=1 << 22,
              stride_elements=32)  # wide stride: per-lane sectors
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


def _drain_next_cycle_kernel():
    b = ProgramBuilder("drain_next_cycle")
    b.pattern("s", AccessKind.STREAM, working_set_bytes=8192)
    r = b.reg()
    b.ffma(r)
    b.lds("s")
    # one NOP per cycle of the paper GPUs' 24-cycle shared latency: the
    # load completes the cycle after the implicit EXIT issues, while the
    # first instruction's source is still pending.  The warp drains and
    # retires; it never waits on an instruction it will not issue.
    for _ in range(24):
        b.nop()
    b.emit(Instruction(Opcode.IADD, dst=r))
    return b.build(iterations=1)


DIRECTED = {
    "barrier_drain": _barrier_drain_kernel,
    "divergent": _divergence_kernel,
    "const_reads": _constant_kernel,
    "drain_next_cycle": _drain_next_cycle_kernel,
}


def assert_directed_matches_reference(gpu: str, kernel: str,
                                      scheduler: str,
                                      rates: tuple[float, float]) -> None:
    """One directed kernel, at seeds 0 and 7 and every launch of
    :data:`LAUNCHES`, under the given hiccup rates."""
    spec = get_gpu(gpu)
    program = DIRECTED[kernel]()
    for seed in (0, 7):
        for blocks, tpb in LAUNCHES:
            config = SimConfig(seed=seed, scheduler=scheduler,
                               bank_conflict_rate=rates[0],
                               dispatch_stall_rate=rates[1])
            assert_loop_matches_reference(
                spec, program,
                LaunchConfig(blocks=blocks, threads_per_block=tpb), config,
                f"{gpu}/{kernel}/{scheduler}/{rates}/s{seed}/{blocks}x{tpb}",
            )


@pytest.mark.parametrize("gpu", GPUS)
@pytest.mark.parametrize("kernel", sorted(DIRECTED))
@pytest.mark.parametrize("scheduler", ["gto", "lrr"])
def test_directed_cases_match_reference(gpu, kernel, scheduler):
    assert_directed_matches_reference(gpu, kernel, scheduler, DEFAULT_RATES)


def test_loop_statistics_cover_every_active_cycle():
    """processed + skipped cycles account for exactly cycles_active."""
    spec = get_gpu("rtx4000")
    program = _barrier_drain_kernel()
    launch = LaunchConfig(blocks=9, threads_per_block=128)
    sim = SMSimulator(spec, program, launch, SimConfig(seed=3),
                      blocks_assigned=9)
    counters = sim.run()
    assert sim._processed_cycles + sim._skipped_cycles == (
        counters.cycles_active
    )
    # the loop's run of a memory-heavy kernel must actually skip
    # cycles — otherwise the wake queues are not doing their job.
    assert sim._skipped_cycles > 0
    assert sim._wake_events > 0


def test_diff_reports_field_level_divergence():
    a = EventCounters()
    b = EventCounters()
    assert a.diff(b) == []
    b.inst_executed = 5
    from repro.sim.stall_reasons import WarpState
    b.state_cycles[WarpState.SELECTED] = 2
    lines = a.diff(b)
    assert "inst_executed: 0 != 5" in lines
    assert any(line.startswith("state_cycles[SELECTED]") for line in lines)
