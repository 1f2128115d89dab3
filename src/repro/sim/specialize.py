"""The cycle loop behind :meth:`SMSimulator.run`.

A generic interpreter would chase opcode tables per issued instruction
and walk attribute-heavy ``Warp`` objects per examined warp.  This
module's loop, :func:`drive`, is one flat, closure-light function that
reads each program as tables:

* every per-spec fact (sub-partitions, dispatch width, unit issue
  intervals and latencies, queue capacities, cache, branch and shared
  latencies) is bound to a local when the loop starts, and the
  scheduler and the dispatch width are tested at run time;
* every per-program fact is a tuple indexed by ``pc`` in the program's
  :class:`_Plan`, built per run and bound to plain locals when the
  loop starts: the issue dispatches on the pc's kind to one leaf per
  instruction kind, and each scoreboard scan loops over the pc's
  register tuple;
* warp state lives in parallel lists indexed by spawn sequence number
  instead of ``Warp`` objects; the scoreboard is a packed int per
  register (``ready_cycle << 2 | sb_kind``, ``0`` = empty);
* the body is straight-line and divergence is resolved statically:
  active-thread masks are a pure function of ``pc`` (regions reset at
  the body wrap), so every executed-instruction counter is a per-warp
  constant of the plan, charged once from the spawned warp count;
* every SplitMix64 roll (register-bank / dispatch hiccups, i-cache
  fetch misses) and every address-generator access shape is
  precomputed per warp into flat tables, built per run and dropped
  block by block — the rolls vectorized with numpy (bit-identical to
  the scalar path: the int→float64 cast rounds nearest-even and the
  division by 2**64 is exact), the memory shapes by numpy mirrors of
  the common address patterns and the scalar generator otherwise.

Bit-identity with the frozen ``sm_reference`` oracle is the contract,
pinned by the golden fixture and the randomized equivalence tests.
Programs the loop cannot prove it can run are *declined* with a
reason string and run on the reference scan instead (counted in the
``sim.specialize_fallbacks`` obs metric, docs/OBSERVABILITY.md).
A run's plan and tables are locals of the loop, never state on the
simulator, so reference counting frees the whole run when
:meth:`SMSimulator.run` returns.
"""

from __future__ import annotations

from bisect import insort
from heapq import heappop, heappush
from typing import TYPE_CHECKING

import numpy as _np

from repro.errors import SimulationError
from repro.isa.instruction import AccessKind
from repro.isa.opcodes import OpClass, Opcode
from repro.isa.program import KernelProgram
from repro.sim.address_gen import SECTOR_BYTES
from repro.sim.config import SimConfig
from repro.sim.rng import mix64
from repro.sim.stall_reasons import WarpState
from repro.sim.warp import Warp

if TYPE_CHECKING:
    from collections.abc import Callable

    from repro.arch.spec import GPUSpec
    from repro.sim.sm import SMSimulator

#: hard ceilings on what the loop will run.  Beyond them the
#: per-run plan and per-warp tables stop paying for themselves; the
#: reference scan handles the long tail.
MAX_DYNAMIC_TOKENS = 1 << 16   # iterations * body length
MAX_BODY_LEN = 512             # per-pc plan tables, built every run
MAX_REGISTER_ID = 4096         # packed scoreboard row length

#: per-pc issue kinds.  The loop dispatches ALU first and tests
#: global and texture together (``kind <= _TEX``), so they follow it.
_ALU, _GLOBAL, _TEX, _SHARED, _CONST, _BRA, _BAR, _MEMBAR, _SLEEP = range(9)

_MEM_KINDS = (_GLOBAL, _SHARED, _TEX)

#: the warp states the loop charges, as ``_sc`` indices.
_SELI = WarpState.SELECTED.idx
_NSELI = WarpState.NOT_SELECTED.idx
_NOINSTI = WarpState.NO_INSTRUCTION.idx
_BARRI = WarpState.BARRIER.idx
_MEMBARI = WarpState.MEMBAR.idx
_BRESI = WarpState.BRANCH_RESOLVING.idx
_SLEEPI = WarpState.SLEEPING.idx
_MISCI = WarpState.MISC.idx
_DSTALLI = WarpState.DISPATCH_STALL.idx
_MATHI = WarpState.MATH_PIPE_THROTTLE.idx
_IMCI = WarpState.IMC_MISS.idx
_MIOI = WarpState.MIO_THROTTLE.idx
_LGI = WarpState.LG_THROTTLE.idx
_TEXI = WarpState.TEX_THROTTLE.idx
_DRAINI = WarpState.DRAIN.idx
#: scoreboard kind (SB_FIXED / SB_LONG / SB_SHORT) -> blocked state.
_SB_STATES = (WarpState.WAIT.idx, WarpState.LONG_SCOREBOARD.idx,
              WarpState.SHORT_SCOREBOARD.idx)
#: the ready cycle of a warp waiting at a barrier: later than any
#: real one, so a wake heap whose head is here is deadlocked.
_BARRIER_WAIT = 1 << 60

_NP_C1 = _np.uint64(0xBF58476D1CE4E5B9)
_NP_C2 = _np.uint64(0x94D049BB133111EB)
_NP_S30 = _np.uint64(30)
_NP_S27 = _np.uint64(27)
_NP_S31 = _np.uint64(31)
_NP_3 = _np.uint64(3)
_NP_7 = _np.uint64(7)
_NP_11 = _np.uint64(11)

_TWO64 = 18446744073709551616.0


def _mix64_np(x):
    """SplitMix64 finalizer over a uint64 ndarray.

    Shift counts must be ``np.uint64`` scalars: ``uint64 >> int``
    promotes to float64 under numpy's casting rules and would silently
    destroy bit-identity with :func:`repro.sim.rng.mix64`.
    """
    x = (x ^ (x >> _NP_S30)) * _NP_C1
    x = (x ^ (x >> _NP_S27)) * _NP_C2
    return x ^ (x >> _NP_S31)


def _u01_np(x):
    """uint64 ndarray → float64 in [0, 1), bit-identical to the scalar
    ``value / float(1 << 64)``: the cast rounds nearest-even exactly as
    CPython's correctly-rounded int/float division does, and dividing
    by a power of two only shifts the exponent."""
    return x.astype(_np.float64) / _TWO64


# ----------------------------------------------------------------------
# static program analysis
# ----------------------------------------------------------------------
def _static_active(program: KernelProgram) -> list[int]:
    """Active-thread count at each pc — static, because divergence
    regions are structured, reset at the body wrap, and every
    iteration replays them identically.  Computed by walking one body
    iteration with a real :class:`Warp` so the region arithmetic is
    the simulator's own."""
    w = Warp(warp_id=0, block_id=0, smsp=0)
    nbody = len(program.body)
    active: list[int] = []
    for pc in range(nbody):
        active.append(w.active_threads)
        inst = program.body[pc]
        if inst.branch is not None:
            w.enter_region(pc, inst.branch.if_length,
                           inst.branch.else_length,
                           inst.branch.taken_fraction)
        w.advance_pc(nbody, 1 << 30)
    return active


def _op_kind(op: Opcode) -> int:
    if op.mem_path:
        cls = op.op_class
        if cls is OpClass.MEM_CONSTANT:
            return _CONST
        if cls is OpClass.MEM_SHARED:
            return _SHARED
        if cls is OpClass.MEM_TEXTURE:
            return _TEX
        return _GLOBAL
    if op is Opcode.BRA:
        return _BRA
    if op is Opcode.BAR:
        return _BAR
    if op is Opcode.MEMBAR:
        return _MEMBAR
    if op is Opcode.NANOSLEEP:
        return _SLEEP
    return _ALU


#: issue kind per opcode: plans are built every run, and an enum
#: member lookup costs about as much as the rest of a pc's analysis.
_OP_KIND = {op: _op_kind(op) for op in Opcode}


def _fetch_miss_p(program: KernelProgram, spec: "GPUSpec") -> float:
    footprint = program.footprint_instructions
    capacity = spec.sm.icache_capacity_instructions
    over = max(0, footprint - capacity)
    return min(0.92, over / max(footprint, 1))


def check_supported(
    program: KernelProgram, spec: "GPUSpec", config: SimConfig
) -> str | None:
    """``None`` when the loop can run the program for this
    spec/config, else a human-readable decline reason (the caller
    runs the reference scan instead)."""
    nbody = len(program.body)
    if nbody == 0:
        return "empty body"
    if nbody > MAX_BODY_LEN:
        return f"body length {nbody} exceeds {MAX_BODY_LEN}"
    tokens = program.iterations * nbody
    if tokens > MAX_DYNAMIC_TOKENS:
        return (
            f"dynamic length {tokens} exceeds {MAX_DYNAMIC_TOKENS} "
            "roll-table tokens"
        )
    units = {fu.name for fu in spec.sm.functional_units}
    max_reg = -1
    for inst in program.body:
        if inst.dst is not None and inst.dst > max_reg:
            max_reg = inst.dst
        for r in inst.srcs:
            if r > max_reg:
                max_reg = r
        kind = _OP_KIND[inst.opcode]
        if kind == _ALU:
            unit = inst.opcode.fu or "ctrl"
            if unit not in units:
                return f"functional unit {unit!r} not in spec"
        elif kind == _BRA and inst.branch is None:
            return "BRA without branch info"
    if max_reg >= MAX_REGISTER_ID:
        return f"register id {max_reg} exceeds {MAX_REGISTER_ID - 1}"
    return None


class _Plan:
    """Everything the loop reads about one program, built per run.

    The per-pc tables the issue dispatch and the scoreboard scans index
    by ``pc``, the per-warp counter charges, and the static facts the
    runtime table builder needs."""

    __slots__ = (
        "name", "body_len", "iterations", "tokens", "row_len",
        "kinds", "scans", "units", "dsts", "slots", "plain_next",
        "selected", "h0", "h1", "h2", "h3", "classes",
        "branches", "divergent", "barriers",
        "has_rolls", "has_fetch", "bank_pcs", "disp_on",
        "fetch_pcs", "fetch_p", "table_pcs",
    )

    def __init__(self, program: KernelProgram, spec: "GPUSpec",
                 config: SimConfig) -> None:
        body = program.body
        nbody = len(body)
        iters = program.iterations
        self.name = program.name
        self.body_len = nbody
        self.iterations = iters
        self.tokens = iters * nbody
        active = _static_active(program)
        self.disp_on = config.dispatch_stall_rate > 0.0
        bank_on = config.bank_conflict_rate > 0.0
        unit_ix = {fu.name: i
                   for i, fu in enumerate(spec.sm.functional_units)}
        ctrl = OpClass.CONTROL.idx
        per_class = {ctrl: 1}  # + the implicit EXIT
        kinds, scans, units, dsts, slots, bank_pcs = [], [], [], [], [], []
        # (table_index, pc, kind, pattern name, static active threads)
        table_pcs = []
        max_reg = -1
        n_mem = n_br = n_div = n_bar = 0
        for pc, inst in enumerate(body):
            kind = _OP_KIND[inst.opcode]
            dst = inst.dst
            regs = inst.srcs if dst is None else (*inst.srcs, dst)
            kinds.append(kind)
            # first-seen order, deduplicated: re-scanning a register is
            # a no-op (the first pass zeroed or kept it; equal ready
            # cycles never displace the first-seen kind).
            scans.append(tuple(dict.fromkeys(regs)))
            max_reg = max((max_reg, *regs))
            # the unit's index in spec order; -1 off ALU pcs.
            units.append(
                unit_ix[inst.opcode.fu or "ctrl"] if kind == _ALU else -1
            )
            # the register the issue writes, None for none.
            mem = kind in _MEM_KINDS
            dsts.append(None if mem and not inst.opcode.loads else dst)
            bank_pcs.append(bank_on and len(inst.srcs) >= 2)
            ci = inst.opcode.op_class.idx
            per_class[ci] = per_class.get(ci, 0) + iters
            slots.append(len(table_pcs))
            if mem or kind == _CONST:
                table_pcs.append((len(table_pcs), pc, kind,
                                  inst.mem.pattern, active[pc]))
                n_mem += mem
            elif kind == _BRA:
                br = inst.branch
                n_br += 1
                n_div += (0 < round(32 * br.taken_fraction) < 32
                          or br.else_length > 0)
            elif kind == _BAR:
                n_bar += 1
        self.kinds = tuple(kinds)
        self.scans = tuple(scans)
        self.units = tuple(units)
        # a scoreboard row has one spare slot past the last register:
        # an issue that writes no register writes there, so no leaf
        # tests for a destination.  No scan reads it.
        spare = max_reg + 1
        self.row_len = max_reg + 2
        self.dsts = tuple(spare if d is None else d for d in dsts)
        self.slots = tuple(slots)
        self.bank_pcs = tuple(bank_pcs)
        # some token of this program can roll a hiccup.
        self.has_rolls = self.disp_on or any(bank_pcs)
        self.table_pcs = tuple(table_pcs)
        self.fetch_p = _fetch_miss_p(program, spec)
        group = spec.sm.fetch_group_size
        self.fetch_pcs = tuple(range(0, nbody, group))
        self.has_fetch = self.fetch_p > 0.0 and bool(self.fetch_pcs)
        # the next pc where the advance neither wraps nor rolls a
        # fetch miss, else 0: one test on the common path.
        self.plain_next = tuple(
            0 if pc + 1 == nbody
            or (self.has_fetch and (pc + 1) % group == 0) else pc + 1
            for pc in range(nbody)
        )
        # per-warp counter charges: the body is straight-line (masks,
        # not control flow), so every warp issues every instruction
        # exactly once per iteration plus one implicit EXIT.  SELECTED
        # counts issues — the implicit EXIT is executed (h0-h2 and
        # class charges) but never takes an issue slot.  h0 and h3 add
        # the tables' memory-slot sums at run time.
        self.selected = iters * nbody
        self.h0 = iters * (nbody - n_mem) + 1
        self.h1 = iters * nbody + 1
        self.h2 = iters * sum(active) + 32
        self.h3 = iters * n_mem
        self.classes = tuple(
            (ci, n) for ci, n in sorted(per_class.items()) if n
        )
        self.branches = iters * n_br
        self.divergent = iters * n_div
        self.barriers = iters * n_bar


# ----------------------------------------------------------------------
# runtime tables (per SM simulation; seed/launch/sm_index live here)
# ----------------------------------------------------------------------
class _RuntimeTables:
    """Per-warp roll / fetch / memory-shape tables for one SM run,
    built lazily in block chunks as the loop spawns blocks; each
    block's tables are handed to the loop once and dropped.  Only the
    loop's ``block_tables`` local refers to an instance (the
    simulator does not), so the tables die with the run.

    Rolls and fetch misses are numpy-vectorized SplitMix64 grids over
    (warp, iteration, pc).  Memory shapes come from numpy mirrors of
    :class:`AddressGenerator` for RANDOM accesses and for narrow-stride
    STREAM/STRIDED accesses that do not wrap the working set; every
    other shape (and constant reads) takes the scalar generator path,
    so each entry matches the reference scan's bit for bit.
    """

    __slots__ = ("_sim", "_plan", "_wpb", "_chunk", "_prepared")

    def __init__(self, sim: "SMSimulator", plan: _Plan) -> None:
        self._sim = sim
        self._plan = plan
        self._wpb = sim.launch.warps_per_block
        # amortize numpy dispatch over ~32k tokens per build.
        self._chunk = max(1, 32768 // max(1, self._wpb * plan.tokens))
        self._prepared: dict[int, tuple] = {}

    def block_tables(self, block_id: int) -> tuple:
        """(rolls, fetch, mem, slots_sum, access_sum) tables for one
        block: the first three are rows indexed by the warp's position
        within the block (a warp's mem row is a tuple of per-iteration
        entry lists indexed by the pc's memory-table slot);
        ``slots_sum`` is the block's total LSU wavefront slots across
        every memory access and ``access_sum`` its L1 sector accesses
        over the inline-probed global/tex entries, both pre-summed for
        the loop's counter charge."""
        if block_id not in self._prepared:
            self._build(block_id)
        return self._prepared.pop(block_id)

    def _build(self, b0: int) -> None:
        sim = self._sim
        plan = self._plan
        wpb = self._wpb
        hi = min(sim.blocks_total, b0 + self._chunk)
        base = sim.sm_index << 24
        wids = [
            base | (b << 8) | w
            for b in range(b0, hi)
            for w in range(wpb)
        ]
        nw = len(wids)
        titers = plan.iterations
        nbody = plan.body_len

        # one dict per warp of only the nonzero tokens, empty when no
        # token can roll: rolls are rare, so the loop's hot path is a
        # single failed membership test instead of an array load per
        # attempt.
        rolls = [{} for _ in range(nw)]
        fetch = None
        if plan.has_rolls or plan.has_fetch:
            wid_a = _np.array(wids, dtype=_np.uint64)
            prefix = _mix64_np(_np.uint64(sim._seed_acc) ^ wid_a)
            it_a = _np.arange(titers, dtype=_np.uint64)
            rng_it = _mix64_np(prefix[:, None] ^ it_a[None, :])
            pc_a = _np.arange(nbody, dtype=_np.uint64)
            base_g = _mix64_np(rng_it[:, :, None] ^ pc_a[None, None, :])
            if plan.has_rolls:
                # codes per dynamic token: 1 = bank conflict (wins),
                # 2 = dispatch hiccup, 0 = clean — the precedence of
                # the reference's bank-then-dispatch roll order.
                code = _np.zeros(base_g.shape, dtype=_np.int8)
                if plan.disp_on:
                    u = _u01_np(_mix64_np(base_g ^ _NP_11))
                    code[u < sim._disp_rate] = 2
                if any(plan.bank_pcs):
                    u = _u01_np(_mix64_np(base_g ^ _NP_7))
                    hit = u < sim._bank_rate
                    hit &= _np.array(plan.bank_pcs,
                                     dtype=bool)[None, None, :]
                    code[hit] = 1
                flat = code.reshape(nw, -1)
                nzw, nzt = _np.nonzero(flat)
                vals = flat[nzw, nzt]
                for w, t, v in zip(nzw.tolist(), nzt.tolist(),
                                   vals.tolist()):
                    rolls[w][t] = v
            if plan.has_fetch:
                fgrid = _np.zeros((nw, titers, nbody), dtype=bool)
                fpc = _np.array(plan.fetch_pcs, dtype=_np.int64)
                u = _u01_np(_mix64_np(
                    base_g[:, :, fpc] ^ _NP_3
                ))
                fgrid[:, :, fpc] = u < plan.fetch_p
                fetch = fgrid.reshape(nw, -1).tolist()

        lsu = sim._lsu_width
        mem_cols: list[list] = []
        # per-warp sum of LSU wavefront slots over every memory access
        # of the program — the data-dependent part of the hot-counter
        # charge (h0/h3) the loop adds to the plan's per-warp one.
        ssum = [0] * nw
        # per-warp L1 sector-access count over the single-L1-line
        # global/tex entries (the ones the loop probes inline);
        # charged in bulk in the loop's ``finally``, with hits
        # recovered there as accesses - misses.
        asum = [0] * nw
        l1c = sim.memory.l1
        l2c = sim.memory.l2
        sh1 = l1c._lines_per_sector_shift
        ns1 = l1c._num_sets
        sh2 = l2c._lines_per_sector_shift
        ns2 = l2c._num_sets

        def _entry(first: int, n: int, payload, trans: int,
                   wi: int) -> tuple:
            """Table entry for one global/tex access.

            Runs confined to one L1 line (the overwhelmingly common
            coalesced shape) get the probe geometry precomputed —
            (trans, wavefront-cost, l1 line, l1 set, l2 line, l2 set)
            — so the loop can run the sectored lookup of
            ``access_global_span``'s single-line fast path inline.
            Everything else keeps the
            (trans, wavefront-cost, first, payload) shape and goes
            through the memory-hierarchy call.
            """
            if first >= 0:
                l1l = first >> sh1
                if l1l == (first + n - 1) >> sh1:
                    asum[wi] += n
                    l2l = first >> sh2
                    return (trans, (trans + 1) // 2, l1l, l1l % ns1,
                            l2l, l2l % ns2)
            return (trans, (trans + 1) // 2, first, payload)
        for _j, pc, kind, pattern, act in plan.table_pcs:
            gen = sim.generators[pattern]
            col = []
            if kind == _CONST:
                # constant reads probe one sector (active_threads=1 in
                # the reference's gen.sectors call).
                sectors = gen.sectors
                for wid in wids:
                    col.append([
                        sectors(wid, it, pc, 1)[0]
                        for it in range(titers)
                    ])
            elif gen.pattern.kind is AccessKind.RANDOM:
                # vectorized mirror of the RANDOM arm of
                # AddressGenerator.sectors(): per-lane sector =
                # base + mix64(hash_u64(seed', wid, it, pc) ^ lane)
                # % ws, deduplicated ascending.  hash_u64's fold is
                # replayed with the seed term scalar and the
                # wid/iteration/lane terms as uint64 grids.
                shared = kind == _SHARED
                a1 = mix64(0x9E3779B97F4A7C15 ^ gen._seed)
                wid_a = _np.array(wids, dtype=_np.uint64)
                a2 = _mix64_np(_np.uint64(a1) ^ wid_a)
                it_a = _np.arange(titers, dtype=_np.uint64)
                a3 = _mix64_np(a2[:, None] ^ it_a[None, :])
                pref = _mix64_np(a3 ^ _np.uint64(pc))
                lanes = _np.arange(act, dtype=_np.uint64)
                sid = _mix64_np(
                    pref[:, :, None] ^ lanes[None, None, :]
                ) % _np.uint64(gen._ws_sectors)
                sid += _np.uint64(gen._base_sector)
                sid.sort(axis=2)
                grid = sid.tolist()
                for wi in range(nw):
                    row = []
                    sl = 0
                    for lane_row in grid[wi]:
                        prev = -1
                        ded = []
                        for sidv in lane_row:
                            if sidv != prev:
                                ded.append(sidv)
                                prev = sidv
                        n = len(ded)
                        trans = -(-n // lsu)
                        if trans < 1:
                            trans = 1
                        if shared:
                            sl += trans
                            row.append((trans, (trans + 1) // 2))
                        else:
                            sl += 1 + (trans - 1) // 4
                            row.append(_entry(-1, n, ded, trans, wi))
                    ssum[wi] += sl
                    col.append(row)
            elif gen._span_ok:
                # vectorized mirror of AddressGenerator.span() for the
                # narrow-stride STREAM/STRIDED case: the whole access
                # is one consecutive sector run unless the cursor wraps
                # the working set.  Wrapping rows (rare) fall back to
                # the scalar sectors() path, so every entry is exactly
                # what span() or sectors() would have produced.
                shared = kind == _SHARED
                ws = gen._ws
                span_len = (act - 1) * gen._stride_bytes
                wid_a = _np.array(wids, dtype=_np.int64)
                it_a = _np.arange(titers, dtype=_np.int64)
                cursor = (
                    (wid_a[:, None] * 131 + it_a[None, :])
                    * gen._warp_step + pc * gen._slot_step
                ) % ws
                first_a = cursor // SECTOR_BYTES
                n_a = (cursor + span_len) // SECTOR_BYTES - first_a + 1
                wrap = cursor + span_len >= ws
                first_a += gen._base_sector
                firsts = first_a.tolist()
                ns = n_a.tolist()
                wrap_rows = (
                    set(_np.nonzero(wrap.any(axis=1))[0].tolist())
                    if bool(wrap.any()) else ()
                )
                wraps = wrap.tolist() if wrap_rows else None
                for wi in range(nw):
                    row = []
                    sl = 0
                    f_r = firsts[wi]
                    n_r = ns[wi]
                    w_r = wraps[wi] if wi in wrap_rows else None
                    for it in range(titers):
                        if w_r is not None and w_r[it]:
                            sec = gen.sectors(wids[wi], it, pc, act)
                            first = -1
                            n = len(sec)
                            payload: object = sec
                        else:
                            first = f_r[it]
                            n = n_r[it]
                            payload = n
                        trans = -(-n // lsu)
                        if trans < 1:
                            trans = 1
                        if shared:
                            sl += trans
                            row.append((trans, (trans + 1) // 2))
                        else:
                            sl += 1 + (trans - 1) // 4
                            row.append(_entry(first, n, payload,
                                              trans, wi))
                    ssum[wi] += sl
                    col.append(row)
            else:
                # ``_span_ok`` is false, so span() would return None:
                # one sectors() list per access.
                shared = kind == _SHARED
                for wi, wid in enumerate(wids):
                    row = []
                    sl = 0
                    for it in range(titers):
                        sec = gen.sectors(wid, it, pc, act)
                        n = len(sec)
                        trans = -(-n // lsu)
                        if trans < 1:
                            trans = 1
                        if shared:
                            sl += trans
                            row.append((trans, (trans + 1) // 2))
                        else:
                            sl += 1 + (trans - 1) // 4
                            row.append(_entry(-1, n, sec, trans, wi))
                    ssum[wi] += sl
                    col.append(row)
            mem_cols.append(col)

        mem = list(zip(*mem_cols)) if mem_cols else [()] * nw
        for i, b in enumerate(range(b0, hi)):
            lo = i * wpb
            hi_w = lo + wpb
            self._prepared[b] = (
                rolls[lo:hi_w],
                fetch[lo:hi_w] if fetch is not None else None,
                mem[lo:hi_w],
                sum(ssum[lo:hi_w]),
                sum(asum[lo:hi_w]),
            )


# ----------------------------------------------------------------------
# the cycle loop
# ----------------------------------------------------------------------
#: perfbench's: its per-layer trace counts a driver as built when this
#: dict grows across a :func:`driver_for` call.  The loop is ordinary
#: code, so nothing is built and the dict stays empty; it goes when
#: perfbench reads the obs spans instead.
_DRIVER_CACHE: dict = {}


def driver_for(program: KernelProgram, spec: "GPUSpec",
               config: SimConfig) -> "Callable[[SMSimulator], None] | str":
    """The cycle loop, :func:`drive`, or the reason the program is
    declined (its run goes to the reference scan and counts in
    ``sim.specialize_fallbacks``)."""
    reason = check_supported(program, spec, config)
    return drive if reason is None else reason


def drive(sim: "SMSimulator") -> None:
    """Run ``sim``'s cycle loop; counters land in its accumulators.

    The program's :class:`_Plan` and :class:`_RuntimeTables` are built
    here, for this run.  The loop is an event-driven scheduler.  Warps
    in a timed wait sit in per sub-partition wake heaps and are
    untouched until they wake, stall cycles are charged in bulk when a
    warp is next examined, and cycles in which every warp sleeps are
    skipped.  An issue attempt is one hiccup check, a dispatch on the
    pc's kind with one leaf per instruction kind, the pc advance with
    the next pc's scoreboard scan, and one post-issue park.  Its
    counters must equal the reference scan's
    (``sm_reference.ReferenceSMSimulator``): classification order
    within a cycle (sub-partition major, spawn order minor) and every
    ``(seed, warp_id, iteration, pc)``-keyed roll are preserved.

    Everything the loop reads is a local bound here: the spec's
    numbers, the warp states and issue kinds, and the plan's per-pc
    tables.  The machine's shape is three tests at run time: the
    scheduler builds its order once per sub-partition cycle, GTO
    remembers the warp it issued, and a second dispatch unit per
    sub-partition (``budget``) lets the issue loop go on after an
    issue instead of charging the rest of the order NOT_SELECTED.
    """
    plan = _Plan(sim.program, sim.spec, sim.config)
    block_tables = _RuntimeTables(sim, plan).block_tables
    spec = sim.spec
    sm = spec.sm
    # -- the machine ---------------------------------------------------
    NSMSP = sm.subpartitions
    EXTRA = sm.dispatch_units_per_subpartition - 1
    ICL = sm.icache_miss_latency
    ICL1 = ICL + 1
    BRL = sm.branch_resolve_latency
    SHL = spec.memory.shared_latency
    LGCAP = spec.memory.lg_queue_entries
    TEXCAP = spec.memory.tex_queue_entries
    MIOCAP = spec.memory.mio_queue_entries
    units = sm.functional_units
    ueff = tuple(max(1, f.issue_interval // f.pipes) for f in units)
    ulat = tuple(f.latency for f in units)
    gto = sim.config.scheduler == "gto"
    # -- warp states and issue kinds -----------------------------------
    NSELI = _NSELI
    NOINSTI = _NOINSTI
    BARRI = _BARRI
    MEMBARI = _MEMBARI
    BRESI = _BRESI
    SLEEPI = _SLEEPI
    MISCI = _MISCI
    DSTALLI = _DSTALLI
    MATHI = _MATHI
    IMCI = _IMCI
    MIOI = _MIOI
    LGI = _LGI
    TEXI = _TEXI
    DRAINI = _DRAINI
    SBT = _SB_STATES
    BARW = _BARRIER_WAIT
    GLOBAL = _GLOBAL
    TEX = _TEX
    SHARED = _SHARED
    CONST = _CONST
    BRA = _BRA
    BAR = _BAR
    MEMBAR = _MEMBAR
    # -- the program ---------------------------------------------------
    NBODY = plan.body_len
    ITERS = plan.iterations
    ROW = plan.row_len
    KIND = plan.kinds
    SCAN = plan.scans
    DST = plan.dsts
    SLOT = plan.slots
    NEXT = plan.plain_next
    FETCH0 = plan.has_fetch
    # per pc, its functional unit's per sub-partition next-free
    # cycles, issue interval and latency (units in spec order; a
    # non-ALU pc's -1 reads values no leaf uses).
    nf = [[0] * NSMSP for _ in units]
    NFU = [nf[u] if u >= 0 else None for u in plan.units]
    EFF = [ueff[u] for u in plan.units]
    LAT = [ulat[u] for u in plan.units]
    # -- the SM --------------------------------------------------------
    WPB = sim.launch.warps_per_block
    TOTAL = sim.blocks_total
    minb = sim.max_concurrent_blocks
    if minb > TOTAL:
        minb = TOTAL
    maxc = sim.config.max_cycles
    g_span = sim.memory.access_global_span
    g_list = sim.memory.access_global
    # the single-L1-line probe runs inline in the global/tex leaf:
    # bind the cache internals and latency classes once.
    l1_ = sim.memory.l1
    l2_ = sim.memory.l2
    l1s = l1_._sets
    l2s = l2_._sets
    W1 = l1_._ways
    W2 = l2_._ways
    L1HIT = l1_.spec.hit_latency
    L2LAT = max(l2_.spec.hit_latency, L1HIT)
    DRAML = max(sim.memory.dram_latency, L1HIT)
    c_one = sim.memory.access_constant_sector
    dbusy = sim.dispatch_busy_until
    sc = sim._sc
    push = heappush
    pop = heappop
    ins = insort
    wake = [[] for _ in range(NSMSP)]
    ready_l = [[] for _ in range(NSMSP)]
    # per sub-partition pools of classified, ready-to-issue warps
    # (ascending warp order — exactly the candidates list the event
    # loop rebuilds every cycle).  Warps persist here across cycles
    # so unselected candidates cost one bulk NOT_SELECTED charge
    # instead of a per-warp exam/classify round trip.
    pool_l = [[] for _ in range(NSMSP)]
    # pre-zipped per-smsp iteration tuple: the heaps and pools are
    # only ever mutated in place.
    smsps = tuple(zip(wake, pool_l, range(NSMSP)))
    greedy = [-1] * NSMSP
    rr = [0] * NSMSP
    lgq = [q._completions for q in sim.lg_queue]
    texq = [q._completions for q in sim.tex_queue]
    mioq = [q._completions for q in sim.mio_queue]
    # per-warp state, indexed by spawn sequence number.
    rdy, widx, stall, pcs, its, lastm, epo = [], [], [], [], [], [], []
    atbar, exitd, drainf, candf = [], [], [], []
    pend, smp_l, blk_l, HIC, FETCH, MEM = [], [], [], [], [], []
    block_live = {}
    block_warps = {}
    barrier_arrivals = {}
    live = 0
    next_block = 0
    spawn_pending = 0
    n_blk = 0
    n_wrp = 0
    # the tables' LSU-slot and inline-probe access sums
    ssum = 0
    asum = 0
    skipped = 0
    wake_events = 0
    m1 = 0
    h2c = 0
    # warp-occupancy integral by change points: ``warp_active``
    # accumulates live * elapsed at every live-count change (spawn
    # or retire), with ``wam`` marking the cycle the current live
    # value took effect.  cycles_active needs no accumulator at
    # all — it equals ``cycle`` at any settle point.
    warp_active = 0
    wam = 0
    cycle = 0

    def spawn_block(cyc):
        nonlocal next_block, live, n_blk, n_wrp, ssum, asum
        nonlocal warp_active, wam
        b = next_block
        next_block = b + 1
        block_live[b] = WPB
        barrier_arrivals[b] = 0
        bw = []
        block_warps[b] = bw
        t_rolls, t_fetch, t_mem, t_ssum, t_asum = block_tables(b)
        HIC.extend(t_rolls)
        if t_fetch is not None:
            FETCH.extend(t_fetch)
        MEM.extend(t_mem)
        bw0 = b * WPB
        for w in range(WPB):
            s = len(rdy)
            smp = (bw0 + w) % NSMSP
            rc = cyc + ICL + (w & 3)
            rdy.append(rc)
            widx.append(NOINSTI)
            stall.append(cyc)
            pcs.append(0)
            its.append(0)
            atbar.append(False)
            exitd.append(False)
            drainf.append(False)
            candf.append(False)
            lastm.append(0)
            epo.append(1)
            pend.append([0] * ROW)
            smp_l.append(smp)
            blk_l.append(b)
            bw.append(s)
            push(wake[smp], (rc, s, 1))
        ssum += t_ssum
        asum += t_asum
        # new warps are occupancy-counted from ``cyc`` onward.
        warp_active += live * (cyc - wam)
        wam = cyc
        live += WPB
        n_blk += 1
        n_wrp += WPB

    def release(b, cyc, cur_smp, cur_seq):
        barrier_arrivals[b] = 0
        c1 = cyc + 1
        for o in block_warps[b]:
            if not atbar[o]:
                continue
            osmp = smp_l[o]
            if osmp < cur_smp or (osmp == cur_smp
                                  and (cur_seq is None or o < cur_seq)):
                upto = c1
            else:
                upto = cyc
            st0 = stall[o]
            if upto > st0:
                sc[widx[o]] += upto - st0
                stall[o] = upto
            atbar[o] = False
            rdy[o] = c1
            widx[o] = NOINSTI
            ep = epo[o] + 1
            epo[o] = ep
            push(wake[osmp], (c1, o, ep))

    def retire(s, cyc, cur_smp, cur_seq):
        nonlocal live, spawn_pending
        nonlocal warp_active, wam
        exitd[s] = True
        drainf[s] = False
        # the retiring warp still counts for ``cyc`` itself (the
        # exam-phase drain retire subtracts that cycle back).
        warp_active += live * (cyc + 1 - wam)
        wam = cyc + 1
        live -= 1
        b = blk_l[s]
        block_warps[b].remove(s)
        r = block_live[b] - 1
        block_live[b] = r
        if r == 0:
            del block_live[b]
            del block_warps[b]
            barrier_arrivals.pop(b, None)
            if next_block < TOTAL:
                spawn_pending += 1
        elif barrier_arrivals.get(b, 0) >= r:
            release(b, cyc, cur_smp, cur_seq)

    # A parking warp never has a live heap entry (its wake was popped,
    # or it came from the pool or the ready list), so a park pushes at
    # the warp's current epoch.  Only the barrier release re-arms warps
    # that still own an entry, and it bumps the epoch itself.
    #
    # Every successful issue ends in the same four steps: GTO remembers
    # the warp, and a spare dispatch unit lets the issue loop go on;
    # with none left, the rest of the order is NOT_SELECTED in bulk.
    # They are written out at each of the four places an issue ends.
    try:
        while next_block < minb:
            spawn_block(0)
        while True:
            # one fused guard for the two rare conditions; the inner
            # re-tests disambiguate only when it fires.
            if live == 0 or cycle >= maxc:
                if live == 0:
                    if next_block >= TOTAL:
                        break
                    spawn_block(cycle)
                if cycle >= maxc:
                    raise SimulationError(
                        f"kernel {plan.name!r} exceeded {maxc} "
                        "simulated cycles"
                    )
            cycle1 = cycle + 1
            next_ready = False
            for heap, pool, smp_i in smsps:
                if heap and heap[0][0] <= cycle:
                    woken = None
                    while heap and heap[0][0] <= cycle:
                        rc_, s_, ep_ = pop(heap)
                        if exitd[s_] or ep_ != epo[s_] or rc_ != rdy[s_]:
                            continue
                        wake_events += 1
                        if candf[s_]:
                            # known candidate whose park was
                            # pre-settled (full interval charged, stall
                            # seated at this cycle): take it straight
                            # into the pool — the exam pass would do
                            # exactly this and nothing else.
                            ins(pool, s_)
                        elif woken is None:
                            woken = [s_]
                        else:
                            woken.append(s_)
                    exam = ready_l[smp_i]
                    if woken is not None:
                        if exam:
                            exam = exam + woken
                            exam.sort()
                        else:
                            woken.sort()
                            exam = woken
                    elif len(exam) > 1:
                        exam.sort()
                else:
                    exam = ready_l[smp_i]
                    if not exam and not pool:
                        continue
                    if len(exam) > 1:
                        exam.sort()
                if exam:
                    new_ready = []
                    nr_app = new_ready.append
                    # rebound before the issue phase: the two-step park
                    # appends through ready_l[smp_i], and the trailer
                    # reads it for next_ready.  The list is sorted at
                    # consumption, not production.
                    ready_l[smp_i] = new_ready
                    for s in exam:
                        if exitd[s]:
                            continue
                        if candf[s]:
                            # classified ready earlier and not yet
                            # issued: scoreboard entries only expire,
                            # so it is still a candidate — joins the
                            # persistent pool instead of being
                            # rescanned every cycle.  Its park was
                            # pre-settled, so no settle arithmetic.
                            ins(pool, s)
                            continue
                        st0 = stall[s]
                        if st0 < cycle:
                            sc[widx[s]] += cycle - st0
                            stall[s] = cycle
                        if drainf[s]:
                            warp_active -= 1
                            retire(s, cycle, smp_i, s)
                            continue
                        # scoreboard scan over the pc's registers (srcs
                        # then dst): expired entries zeroed, strictly
                        # later ready wins (ties keep the first-seen
                        # kind).
                        brdy = -1
                        row = pend[s]
                        for q_ in SCAN[pcs[s]]:
                            e_ = row[q_]
                            if e_:
                                r_ = e_ >> 2
                                if r_ <= cycle:
                                    row[q_] = 0
                                elif r_ > brdy:
                                    brdy = r_
                                    bk = e_ & 3
                        if brdy < 0:
                            candf[s] = True
                            ins(pool, s)
                            continue
                        rdy[s] = brdy
                        wi = SBT[bk]
                        widx[s] = wi
                        # scoreboard rows only expire while parked, so
                        # the warp is a known candidate at brdy.  Far
                        # parks are pre-settled: the full stall
                        # interval is charged now and ``stall`` seated
                        # at the wake cycle.
                        candf[s] = True
                        if brdy <= cycle1:
                            sc[wi] += 1
                            stall[s] = cycle1
                            nr_app(s)
                        else:
                            sc[wi] += brdy - cycle
                            stall[s] = brdy
                            push(heap, (brdy, s, epo[s]))
                if pool:
                    # a non-empty pool keeps the loop hot even if the
                    # issue below empties it — the spurious extra cycle
                    # only shifts the loop-internal processed/skipped
                    # split, not any counter.
                    next_ready = True
                    if dbusy[smp_i] > cycle:
                        # pooled warps stay pooled: NOT_SELECTED /
                        # DISPATCH_STALL cycles are charged in bulk and
                        # their stall[] clocks are left stale — every
                        # path that takes a warp out of the pool
                        # re-seats stall before it is read.
                        sc[DSTALLI] += len(pool)
                        continue
                    n_ord = len(pool)
                    if gto:
                        if n_ord > 1:
                            g = greedy[smp_i]
                            order = sorted(pool, key=lambda x: (x != g, x))
                        else:
                            order = pool[:]
                    else:
                        start_i = rr[smp_i] % n_ord
                        rr[smp_i] += 1
                        order = pool[start_i:] + pool[:start_i]
                    budget = EXTRA
                    for bj in range(n_ord):
                        s = order[bj]
                        it = its[s]
                        p = pcs[s]
                        # HIC[s] holds only this warp's *pending*
                        # nonzero hiccup tokens (1 = bank conflict,
                        # 2 = dispatch hiccup; a pc that cannot roll
                        # either never holds one); pop-on-hit is the
                        # consumed-once semantics the reference tracks
                        # via ``Warp.hiccup_token``.  The park is
                        # pre-settled: sc += 2 covers the issue cycle
                        # and the one-cycle park, and stall seats at
                        # the wake cycle.
                        if it * NBODY + p in HIC[s]:
                            wi = (MISCI if HIC[s].pop(it * NBODY + p) == 1
                                  else DSTALLI)
                            widx[s] = wi
                            sc[wi] += 2
                            rdy[s] = cycle + 2
                            stall[s] = cycle + 2
                            pool.remove(s)
                            push(heap, (cycle + 2, s, epo[s]))
                            continue
                        # the issue: a dispatch on the pc's kind, ALU
                        # first (NFU[p] is None off ALU pcs).  A failed
                        # attempt (a throttle or hazard) charges its
                        # state and parks the warp, pre-settled; a warp
                        # ready again next cycle stays in the pool.
                        nfu = NFU[p]
                        if nfu:
                            if nfu[smp_i] > cycle:
                                rcf = nfu[smp_i]
                                rdy[s] = rcf
                                widx[s] = MATHI
                                sc[MATHI] += rcf - cycle
                                if rcf > cycle1:
                                    stall[s] = rcf
                                    pool.remove(s)
                                    push(heap, (rcf, s, epo[s]))
                                continue
                            nfu[smp_i] = cycle + EFF[p]
                            pend[s][DST[p]] = (cycle + LAT[p]) << 2
                            rdy[s] = cycle1
                        elif (kd := KIND[p]) <= TEX:
                            e_ = MEM[s][SLOT[p]][it]
                            trans = e_[0]
                            if kd == GLOBAL:
                                comp = lgq[smp_i]
                                while comp and comp[0] <= cycle:
                                    comp.popleft()
                                if comp:
                                    if len(comp) + trans > LGCAP:
                                        rcf = comp[0]
                                        rdy[s] = rcf
                                        widx[s] = LGI
                                        sc[LGI] += rcf - cycle
                                        if rcf > cycle1:
                                            stall[s] = rcf
                                            pool.remove(s)
                                            push(heap, (rcf, s, epo[s]))
                                        continue
                                    done = comp[-1]
                                else:
                                    done = cycle
                                comp.extend(range(done + 1, done + trans + 1))
                                done += trans
                            else:
                                comp = texq[smp_i]
                                while comp and comp[0] <= cycle:
                                    comp.popleft()
                                if comp:
                                    if len(comp) + trans > TEXCAP:
                                        rcf = comp[0]
                                        rdy[s] = rcf
                                        widx[s] = TEXI
                                        sc[TEXI] += rcf - cycle
                                        if rcf > cycle1:
                                            stall[s] = rcf
                                            pool.remove(s)
                                            push(heap, (rcf, s, epo[s]))
                                        continue
                                    done = comp[-1]
                                else:
                                    done = cycle
                                comp.extend(range(done + 2, done + 2 * trans + 1,
                                                  2))
                                done += 2 * trans
                            # 6-tuple: single-L1-line access with the
                            # probe geometry precomputed at table-build
                            # time — run the sectored lookup inline
                            # (the access count is charged from the
                            # tables; only misses and L2 hits are
                            # tracked here).
                            if len(e_) == 6:
                                cs = l1s[e_[3]]
                                if e_[2] in cs:
                                    if cs[-1] != e_[2]:
                                        cs.remove(e_[2])
                                        cs.append(e_[2])
                                    lat = L1HIT
                                else:
                                    m1 += 1
                                    if len(cs) >= W1:
                                        cs.pop(0)
                                    cs.append(e_[2])
                                    cs2 = l2s[e_[5]]
                                    if e_[4] in cs2:
                                        if cs2[-1] != e_[4]:
                                            cs2.remove(e_[4])
                                            cs2.append(e_[4])
                                        h2c += 1
                                        lat = L2LAT
                                    else:
                                        if len(cs2) >= W2:
                                            cs2.pop(0)
                                        cs2.append(e_[4])
                                        lat = DRAML
                            elif e_[2] >= 0:
                                lat = g_span(e_[2], e_[3])
                            else:
                                lat = g_list(e_[3])
                            complete = done + lat
                            pend[s][DST[p]] = complete << 2 | 1
                            if complete > lastm[s]:
                                lastm[s] = complete
                            if trans > 1:
                                t_ = cycle + e_[1]
                                if t_ > dbusy[smp_i]:
                                    dbusy[smp_i] = t_
                                rdy[s] = t_
                            else:
                                rdy[s] = cycle1
                        elif kd == SHARED:
                            e_ = MEM[s][SLOT[p]][it]
                            trans = e_[0]
                            comp = mioq[smp_i]
                            while comp and comp[0] <= cycle:
                                comp.popleft()
                            if comp:
                                if len(comp) + trans > MIOCAP:
                                    rcf = comp[0]
                                    rdy[s] = rcf
                                    widx[s] = MIOI
                                    sc[MIOI] += rcf - cycle
                                    if rcf > cycle1:
                                        stall[s] = rcf
                                        pool.remove(s)
                                        push(heap, (rcf, s, epo[s]))
                                    continue
                                done = comp[-1]
                            else:
                                done = cycle
                            comp.extend(range(done + 2, done + 2 * trans + 1, 2))
                            done += 2 * trans
                            complete = done + SHL
                            pend[s][DST[p]] = complete << 2 | 2
                            if complete > lastm[s]:
                                lastm[s] = complete
                            if trans > 1:
                                t_ = cycle + e_[1]
                                if t_ > dbusy[smp_i]:
                                    dbusy[smp_i] = t_
                                rdy[s] = t_
                            else:
                                rdy[s] = cycle1
                        elif kd == CONST:
                            missed, lat = c_one(MEM[s][SLOT[p]][it])
                            if missed:
                                rdy[s] = cycle + lat
                                widx[s] = IMCI
                            else:
                                rdy[s] = cycle1
                            pend[s][DST[p]] = (cycle + lat) << 2
                        elif kd == BRA:
                            rdy[s] = cycle + BRL
                            widx[s] = BRESI
                        elif kd == BAR:
                            b_ = blk_l[s]
                            a_ = barrier_arrivals[b_] + 1
                            barrier_arrivals[b_] = a_
                            if a_ >= block_live[b_]:
                                release(b_, cycle, smp_i, None)
                                rdy[s] = cycle1
                            else:
                                atbar[s] = True
                                rdy[s] = BARW
                                widx[s] = BARRI
                            # the barrier's own copy of the advance
                            # below, ending in the two-step park: a
                            # barrier release must re-scan un-expired
                            # entries, so the next pc's scan cannot run
                            # ahead at the warp's ready cycle.
                            nx = NEXT[p]
                            if nx:
                                pcs[s] = nx
                            elif p + 1 < NBODY:
                                nx = p + 1
                                pcs[s] = nx
                                if FETCH[s][it * NBODY + nx]:
                                    mr = cycle + ICL1
                                    if mr > rdy[s]:
                                        rdy[s] = mr
                                        widx[s] = NOINSTI
                            else:
                                it2 = it + 1
                                its[s] = it2
                                pcs[s] = 0
                                if it2 >= ITERS:
                                    lm = lastm[s]
                                    pool.remove(s)
                                    stall[s] = cycle1
                                    if lm > cycle:
                                        rdy[s] = lm
                                        widx[s] = DRAINI
                                        drainf[s] = True
                                        candf[s] = False
                                        if lm > cycle1:
                                            push(heap, (lm, s, epo[s]))
                                        else:
                                            ready_l[smp_i].append(s)
                                    else:
                                        retire(s, cycle, smp_i, None)
                                    if gto:
                                        greedy[smp_i] = s
                                    if budget:
                                        budget -= 1
                                        continue
                                    sc[NSELI] += n_ord - bj - 1
                                    break
                                nx = 0
                                if FETCH0 and FETCH[s][it2 * NBODY]:
                                    mr = cycle + ICL1
                                    if mr > rdy[s]:
                                        rdy[s] = mr
                                        widx[s] = NOINSTI
                            # the two-step park: issue now, then wake
                            # and classify.
                            candf[s] = False
                            pool.remove(s)
                            stall[s] = cycle1
                            rc = rdy[s]
                            if rc > cycle1:
                                push(heap, (rc, s, epo[s]))
                            else:
                                prdy = -1
                                row = pend[s]
                                for q_ in SCAN[nx]:
                                    e_ = row[q_]
                                    if e_:
                                        r_ = e_ >> 2
                                        if r_ <= cycle1:
                                            row[q_] = 0
                                        elif r_ > prdy:
                                            prdy = r_
                                            pk = e_ & 3
                                if prdy >= 0:
                                    wi = SBT[pk]
                                    widx[s] = wi
                                    sc[wi] += 1
                                    stall[s] = cycle + 2
                                    rdy[s] = prdy
                                    push(heap, (prdy, s, epo[s]))
                                else:
                                    # ready again next cycle: re-enters
                                    # through the ready list.
                                    ready_l[smp_i].append(s)
                            if gto:
                                greedy[smp_i] = s
                            if budget:
                                budget -= 1
                                continue
                            sc[NSELI] += n_ord - bj - 1
                            break
                        elif kd == MEMBAR:
                            lm = lastm[s]
                            wk = cycle + SHL
                            if lm > wk:
                                wk = lm
                            rdy[s] = wk
                            widx[s] = MEMBARI
                        else:  # _SLEEP
                            rdy[s] = cycle + 40
                            widx[s] = SLEEPI
                        # the pc/iteration advance to ``nx`` with the
                        # fetch-miss roll; the wrap carries the
                        # implicit EXIT, whose executed-instruction
                        # counters are part of the plan's per-warp
                        # charge.
                        nx = NEXT[p]
                        if nx:
                            pcs[s] = nx
                        elif p + 1 < NBODY:
                            # a fetch-roll point
                            nx = p + 1
                            pcs[s] = nx
                            if FETCH[s][it * NBODY + nx]:
                                mr = cycle + ICL1
                                if mr > rdy[s]:
                                    rdy[s] = mr
                                    widx[s] = NOINSTI
                        else:
                            it2 = it + 1
                            its[s] = it2
                            pcs[s] = 0
                            if it2 >= ITERS:
                                # the implicit EXIT: a warp with memory
                                # in flight drains (``candf`` stays
                                # clear so the exam loop retires it),
                                # any other retires now.
                                lm = lastm[s]
                                pool.remove(s)
                                stall[s] = cycle1
                                if lm > cycle:
                                    rdy[s] = lm
                                    widx[s] = DRAINI
                                    drainf[s] = True
                                    candf[s] = False
                                    if lm > cycle1:
                                        push(heap, (lm, s, epo[s]))
                                    else:
                                        ready_l[smp_i].append(s)
                                else:
                                    retire(s, cycle, smp_i, None)
                                if gto:
                                    greedy[smp_i] = s
                                if budget:
                                    budget -= 1
                                    continue
                                sc[NSELI] += n_ord - bj - 1
                                break
                            nx = 0
                            if FETCH0 and FETCH[s][it2 * NBODY]:
                                mr = cycle + ICL1
                                if mr > rdy[s]:
                                    rdy[s] = mr
                                    widx[s] = NOINSTI
                        # the fast-tail park, pre-settled.  The next
                        # instruction's scoreboard scan runs now with
                        # the cutoff at the warp's ready cycle ``rc``:
                        # pend rows hold fixed completion cycles and
                        # only this warp writes them, and every leaf
                        # that gets here leaves ``rc >= cycle1`` (the
                        # spec rejects latencies below one cycle).
                        # When the scan finds a pending register, the
                        # intermediate wake at rc is collapsed: its
                        # settle charge (old widx), the classify park
                        # and the final wake's settle in one step.
                        # ``candf`` marks the warp a known candidate,
                        # so its wake takes the exam fast path.
                        # Counter totals are cycle-for-cycle those of
                        # the uncollapsed path; only the loop-internal
                        # processed/skipped/wake statistics shift.
                        rc = rdy[s]
                        prdy = -1
                        row = pend[s]
                        for q_ in SCAN[nx]:
                            e_ = row[q_]
                            if e_:
                                r_ = e_ >> 2
                                if r_ <= rc:
                                    row[q_] = 0
                                elif r_ > prdy:
                                    prdy = r_
                                    pk = e_ & 3
                        candf[s] = True
                        if prdy >= 0:
                            pool.remove(s)
                            if rc > cycle1:
                                sc[widx[s]] += rc - cycle1
                            wi = SBT[pk]
                            widx[s] = wi
                            sc[wi] += prdy - rc
                            stall[s] = prdy
                            rdy[s] = prdy
                            push(heap, (prdy, s, epo[s]))
                        elif rc > cycle1:
                            pool.remove(s)
                            sc[widx[s]] += rc - cycle1
                            stall[s] = rc
                            push(heap, (rc, s, epo[s]))
                        # otherwise ready for the next instruction at
                        # cycle+1 with no pending deps: the warp stays
                        # a pool candidate in place.
                        if gto:
                            greedy[smp_i] = s
                        if budget:
                            budget -= 1
                            continue
                        sc[NSELI] += n_ord - bj - 1
                        break
                elif ready_l[smp_i]:
                    next_ready = True
            if spawn_pending:
                while spawn_pending > 0 and next_block < TOTAL:
                    spawn_pending -= 1
                    spawn_block(cycle1)
                spawn_pending = 0
            if next_ready:
                cycle = cycle1
                continue
            nxt = -1
            for heap in wake:
                while heap:
                    rc_, s_, ep_ = heap[0]
                    if exitd[s_] or ep_ != epo[s_] or rc_ != rdy[s_]:
                        pop(heap)
                        continue
                    if nxt < 0 or rc_ < nxt:
                        nxt = rc_
                    break
            if nxt < 0:
                cycle = cycle1
                continue
            if nxt >= BARW:
                raise SimulationError(
                    f"kernel {plan.name!r}: all warps blocked at a "
                    "barrier (deadlock)"
                )
            gap = nxt - cycle1
            if gap > 0:
                # live is unchanged across the skipped span, so the
                # occupancy integral needs no adjustment here.
                skipped += gap
                cycle = nxt
            else:
                cycle = cycle1
        sim.counters.cycles_elapsed = cycle
    finally:
        # inline-probe statistics: hits are accesses minus misses (the
        # access count comes from the tables), L2/DRAM traffic follows
        # from the miss and L2-hit counts.
        l1_.accesses += asum
        l1_.hits += asum - m1
        l2_.accesses += m1
        l2_.hits += h2c
        mh_ = sim.memory
        mh_.l2_accesses += m1
        mh_.dram_accesses += m1 - h2c
        # the executed/selected counters every spawned warp owes (the
        # plan's per-warp charges; see _Plan).
        sc[_SELI] += n_wrp * plan.selected
        cls_ = sim._cls
        for ci_, n_ in plan.classes:
            cls_[ci_] += n_wrp * n_
        hot = sim._hot
        hot[0] += ssum + n_wrp * plan.h0
        hot[1] += n_wrp * plan.h1
        hot[2] += n_wrp * plan.h2
        hot[3] += ssum - n_wrp * plan.h3
        c_ = sim.counters
        c_.branches_executed += n_wrp * plan.branches
        c_.divergent_branches += n_wrp * plan.divergent
        c_.barriers_executed += n_wrp * plan.barriers
        c_.blocks_launched += n_blk
        c_.warps_launched += n_wrp
        # ``cycle`` IS the active-cycle count at any settle point, and
        # the live-warp residue since the last change point closes the
        # occupancy integral (zero on a normal exit — live is 0 — and
        # exact on the max-cycle abort).
        c_.cycles_active += cycle
        c_.warp_active_cycles += warp_active + live * (cycle - wam)
        sim._processed_cycles = cycle - skipped
        sim._skipped_cycles = skipped
        sim._wake_events = wake_events
