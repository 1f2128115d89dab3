"""Issue-event tracing for the pipeline simulator.

A :class:`Tracer` records one :class:`IssueEvent` per instruction
issue, giving tests and debugging sessions a cycle-accurate view of
what the scheduler did.  Tracing is opt-in (``SimConfig`` stays
untouched): :func:`trace_kernel` runs the kernel on the reference scan
(``sm_reference.ReferenceSMSimulator``), which issues one instruction
at a time, with a recording shim around its ``_attempt_issue``.  The
counters are bit-identical to an untraced run.

Use only on small kernels — the trace grows with every dynamic
instruction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.spec import GPUSpec
from repro.isa.opcodes import Opcode
from repro.isa.program import KernelProgram, LaunchConfig
from repro.sim.config import DEFAULT_CONFIG, SimConfig
from repro.sim.counters import EventCounters
from repro.sim.stall_reasons import WarpState


@dataclass(frozen=True)
class IssueEvent:
    """One instruction issued by the scheduler."""

    cycle: int
    warp_id: int
    smsp: int
    pc: int
    iteration: int
    opcode: Opcode
    active_threads: int


@dataclass
class Tracer:
    """Collects issue events and per-warp timelines."""

    events: list[IssueEvent] = field(default_factory=list)

    def record(self, cycle: int, warp, inst) -> None:
        self.events.append(IssueEvent(
            cycle=cycle,
            warp_id=warp.warp_id,
            smsp=warp.smsp,
            pc=warp.pc,
            iteration=warp.iteration,
            opcode=inst.opcode,
            active_threads=warp.active_threads,
        ))

    # -- views ----------------------------------------------------------
    def issues_of_warp(self, warp_id: int) -> list[IssueEvent]:
        return [e for e in self.events if e.warp_id == warp_id]

    def issues_per_cycle(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for e in self.events:
            out[e.cycle] = out.get(e.cycle, 0) + 1
        return out

    def opcode_histogram(self) -> dict[Opcode, int]:
        out: dict[Opcode, int] = {}
        for e in self.events:
            out[e.opcode] = out.get(e.opcode, 0) + 1
        return out

    def listing(self, limit: int = 50) -> str:
        lines = [
            f"{e.cycle:8d}  smsp{e.smsp}  w{e.warp_id & 0xFFFF:<6d} "
            f"it{e.iteration:<3d} pc{e.pc:<4d} {e.opcode.mnemonic:<8s} "
            f"mask={e.active_threads}"
            for e in self.events[:limit]
        ]
        if len(self.events) > limit:
            lines.append(f"... {len(self.events) - limit} more")
        return "\n".join(lines)


def trace_kernel(
    spec: GPUSpec,
    program: KernelProgram,
    launch: LaunchConfig,
    config: SimConfig = DEFAULT_CONFIG,
    *,
    sm_index: int = 0,
) -> tuple[EventCounters, Tracer]:
    """Simulate one SM with tracing enabled."""
    # imported here so that ``import repro.sim`` stays free of the
    # reference scan.
    from repro.sim.sm_reference import ReferenceSMSimulator

    tracer = Tracer()
    sim = ReferenceSMSimulator(spec, program, launch, config,
                               sm_index=sm_index)
    attempt = sim._attempt_issue

    def traced_attempt(warp, inst, cycle):
        # capture pre-issue state: a successful issue advances the warp.
        pc = warp.pc
        iteration = warp.iteration
        mask = warp.active_threads
        state = attempt(warp, inst, cycle)
        if state is WarpState.SELECTED:
            tracer.events.append(IssueEvent(
                cycle=cycle,
                warp_id=warp.warp_id,
                smsp=warp.smsp,
                pc=pc,
                iteration=iteration,
                opcode=inst.opcode,
                active_threads=mask,
            ))
        return state

    sim._attempt_issue = traced_attempt
    counters = sim.run()
    return counters, tracer
