"""Dynamic confirmation of static sanitizer candidates.

The simulator gives the sanitizer something standalone static tools
never have: cheap ground truth.  :class:`SanitizingSimulator` replays a
kernel through the reference scan
(:class:`~repro.sim.sm_reference.ReferenceSMSimulator`, which issues
one instruction at a time) while *observing* the shared-memory and
barrier paths — like the tracing shim in :mod:`repro.sim.trace` it
wraps ``_attempt_issue`` (and ``_release_barrier``) without touching
any simulator state, so the produced
:class:`~repro.sim.counters.EventCounters` are bit-identical to an
uninstrumented run (a property the test-suite pins against the golden
fixture).

Observation model
-----------------

* every issued ``LDS``/``STS`` at a *watched* pc records
  ``(block, warp, barrier-epoch, pc, sector interval)`` — the sectors
  are recomputed through the per-pc address generator, a pure function
  of ``(warp_id, iteration, slot, active_threads)``;
* every ``BAR`` *release* bumps the block's barrier epoch;
* every issued ``BAR`` at a watched pc records whether the warp was
  divergent (its region stack non-empty / partial mask) on arrival.

A race candidate is **CONFIRMED** when two recorded accesses of its two
pcs land in the same ``(block, epoch)`` with overlapping sectors — from
different warps for inter-warp candidates, from one warp for intra-warp
(sibling-arm) candidates — and **NOT-OBSERVED** otherwise.  A divergent
barrier candidate is CONFIRMED when any warp issued it while divergent.
NOT-OBSERVED does not mean *safe*: it means this launch geometry and
seed never lined the accesses up inside one barrier interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.arch.spec import GPUSpec
from repro.isa.opcodes import Opcode
from repro.isa.program import KernelProgram, LaunchConfig
from repro.sanitize.passes import RaceCandidate
from repro.sim.address_gen import build_generators
from repro.sim.config import SimConfig
from repro.sim.sm_reference import ReferenceSMSimulator

CONFIRMED = "CONFIRMED"
NOT_OBSERVED = "NOT-OBSERVED"

#: hard cap on retained access records; candidates past it degrade to
#: NOT-OBSERVED with an explicit note rather than exhausting memory.
MAX_RECORDS = 250_000


@dataclass(frozen=True)
class _Access:
    pc: int
    warp_id: int
    block_id: int
    epoch: int
    #: half-open sector interval [first, first + count).
    first: int
    count: int


@dataclass(frozen=True)
class Verdict:
    """Outcome of one candidate's dynamic confirmation."""

    status: str
    detail: str

    def __str__(self) -> str:
        return f"{self.status} ({self.detail})" if self.detail else self.status


class SanitizingSimulator(ReferenceSMSimulator):
    """Reference-scan simulator that observes shared/barrier traffic.

    Pure observer: records are appended from wrapped hooks *after* the
    base implementation ran; no simulator state is read-modified.
    """

    def __init__(self, spec, program, launch, config,
                 watch_shared: frozenset[int] = frozenset(),
                 watch_bars: frozenset[int] = frozenset(),
                 **kwargs) -> None:
        super().__init__(spec, program, launch, config, **kwargs)
        self._watch_shared = watch_shared
        self._watch_bars = watch_bars
        self._epoch: dict[int, int] = {}
        self.accesses: list[_Access] = []
        #: exact sector sets for irregular (RANDOM-kind) records,
        #: keyed by index into ``accesses``; regular records carry a
        #: [first, first+count) interval instead.
        self._sector_lists: dict[int, frozenset[int]] = {}
        self.divergent_bar_pcs: set[int] = set()
        self.records_dropped = 0
        # sector shapes of watched accesses, recomputed through the
        # span-aware generators (pure functions of their arguments).
        generators = build_generators(program.pattern_table, config.seed)
        self._gen_by_pc = [
            generators[inst.mem.pattern] if inst.mem is not None else None
            for inst in program.body
        ]

    # -- hooks ----------------------------------------------------------
    def _attempt_issue(self, warp, inst, cycle):
        pc = warp.pc
        iteration = warp.iteration
        active = warp.active_threads
        divergent = bool(warp.region) or active < 32
        state = super()._attempt_issue(warp, inst, cycle)
        if state.name != "SELECTED":
            return state
        if pc in self._watch_shared:
            if len(self.accesses) >= MAX_RECORDS:
                self.records_dropped += 1
                return state
            gen = self._gen_by_pc[pc]
            run = gen.span(warp.warp_id, iteration, pc, active)
            if run is not None:
                first, count = run
            else:
                sectors = gen.sectors(warp.warp_id, iteration, pc, active)
                first, count = min(sectors), 0  # sentinel: exact list
                self.accesses.append(_Access(
                    pc, warp.warp_id, warp.block_id,
                    self._epoch.get(warp.block_id, 0),
                    first, count,
                ))
                self._sector_lists[len(self.accesses) - 1] = (
                    frozenset(sectors)
                )
                return state
            self.accesses.append(_Access(
                pc, warp.warp_id, warp.block_id,
                self._epoch.get(warp.block_id, 0), first, count,
            ))
        elif pc in self._watch_bars and inst.opcode is Opcode.BAR:
            if divergent:
                self.divergent_bar_pcs.add(pc)
        return state

    def _release_barrier(self, block, cycle):
        super()._release_barrier(block, cycle)
        self._epoch[block] = self._epoch.get(block, 0) + 1

    # -- overlap test ---------------------------------------------------
    def _overlap(self, i: int, j: int) -> bool:
        a, b = self.accesses[i], self.accesses[j]
        sa = self._sector_lists.get(i)
        sb = self._sector_lists.get(j)
        if sa is not None and sb is not None:
            return bool(sa & sb)
        if sa is not None:
            return any(b.first <= s < b.first + b.count for s in sa)
        if sb is not None:
            return any(a.first <= s < a.first + a.count for s in sb)
        return a.first < b.first + b.count and b.first < a.first + a.count


def confirm_candidates(
    spec: GPUSpec,
    program: KernelProgram,
    launch: LaunchConfig,
    config: SimConfig,
    race: Sequence[RaceCandidate],
    divergent_bars: Sequence[int],
) -> tuple[list[Verdict], list[Verdict]]:
    """Replay the kernel once and judge every candidate.

    Returns verdicts aligned with ``race`` and ``divergent_bars``.  The
    replay covers one SM's share of the launch with the given config —
    the same geometry ``analyze`` simulates.
    """
    if not race and not divergent_bars:
        return [], []
    watch_shared = frozenset(
        pc for cand in race for pc in (cand.store_pc, cand.other_pc)
    )
    sim = SanitizingSimulator(
        spec, program, launch, config,
        watch_shared=watch_shared,
        watch_bars=frozenset(divergent_bars),
    )
    sim.run()

    # index records by (pc) once; candidate matching walks pairs.
    by_pc: dict[int, list[int]] = {}
    for idx, acc in enumerate(sim.accesses):
        by_pc.setdefault(acc.pc, []).append(idx)

    race_verdicts: list[Verdict] = []
    for cand in race:
        verdict = _judge_race(sim, by_pc, cand)
        race_verdicts.append(verdict)
    bar_verdicts = [
        Verdict(CONFIRMED, "warp arrived divergent")
        if pc in sim.divergent_bar_pcs
        else Verdict(NOT_OBSERVED, "every arrival was converged")
        for pc in divergent_bars
    ]
    return race_verdicts, bar_verdicts


def _judge_race(sim: SanitizingSimulator, by_pc: dict[int, list[int]],
                cand: RaceCandidate) -> Verdict:
    left = by_pc.get(cand.store_pc, [])
    right = by_pc.get(cand.other_pc, [])
    same_pc = cand.store_pc == cand.other_pc
    # group by (block, epoch) to keep the pair scan near-linear.
    cell: dict[tuple[int, int], list[int]] = {}
    for idx in left:
        acc = sim.accesses[idx]
        cell.setdefault((acc.block_id, acc.epoch), []).append(idx)
    for key, lefts in cell.items():
        rights = [idx for idx in right
                  if (sim.accesses[idx].block_id,
                      sim.accesses[idx].epoch) == key] if not same_pc \
            else lefts
        for i in lefts:
            a = sim.accesses[i]
            for j in rights:
                if i == j:
                    continue
                b = sim.accesses[j]
                if cand.kind == "inter-warp" and a.warp_id == b.warp_id:
                    continue
                if cand.kind == "intra-warp" and a.warp_id != b.warp_id:
                    continue
                if sim._overlap(i, j):
                    return Verdict(
                        CONFIRMED,
                        f"overlapping sectors in block {a.block_id} "
                        f"barrier interval {a.epoch}",
                    )
    if sim.records_dropped:
        return Verdict(
            NOT_OBSERVED,
            f"record cap hit ({sim.records_dropped} accesses dropped)",
        )
    return Verdict(NOT_OBSERVED, "no overlapping pair in any "
                                 "barrier interval of the replay")
