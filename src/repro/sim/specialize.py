"""The compiled cycle loop behind :meth:`SMSimulator.run`.

A generic interpreter would chase opcode tables per issued instruction
and walk attribute-heavy ``Warp`` objects per examined warp.  This
module instead *compiles* one machine shape, ``GPUSpec`` × scheduler ×
hiccups on/off, into a flat, closure-light Python driver function and
hands it each program as tables:

* every per-spec fact (sub-partitions, dispatch width, unit issue
  intervals and latencies, queue capacities, cache, branch and shared
  latencies) is a literal in the generated source;
* every per-program fact is a tuple indexed by ``pc`` in the program's
  :class:`_Plan`, built per run and bound to plain locals when the
  driver starts: the issue dispatches on the pc's kind to one leaf per
  instruction kind, and each scoreboard scan loops over the pc's
  register tuple.  The hiccup check before the dispatch and the
  post-issue park after it are emitted once per driver;
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
Programs the specializer cannot prove it can compile are *declined*
with a reason string and run on the reference scan instead (counted
in the ``sim.specialize_fallbacks`` obs metric, docs/OBSERVABILITY.md).

Compiled drivers are keyed by a sha-256 content digest of
``(spec, scheduler, hiccups on/off)`` — the program and the
runtime-only knobs (seed, max_cycles, rate *values*, residency) stay
out of the key — and cached in the process that compiled them, so a
process builds one driver per machine shape it simulates.  The cache
keeps compiled code only; the generated source goes back to the call
that built the driver and nowhere else.  A run's plan and tables are
arguments of the driver, never state on the simulator, so reference
counting frees the whole run when :meth:`SMSimulator.run` returns.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING

import numpy as _np

from repro.isa.instruction import AccessKind
from repro.isa.opcodes import OpClass, Opcode
from repro.isa.program import KernelProgram
from repro.obs.runtime import active_obs
from repro.sim.address_gen import SECTOR_BYTES
from repro.sim.config import SimConfig
from repro.sim.fingerprint import content_digest
from repro.sim.rng import mix64
from repro.sim.warp import Warp

if TYPE_CHECKING:
    from repro.arch.spec import GPUSpec
    from repro.sim.sm import SMSimulator

#: hard ceilings on what we will run compiled.  Beyond them the
#: per-run plan and per-warp tables stop paying for themselves; the
#: reference scan handles the long tail.
MAX_DYNAMIC_TOKENS = 1 << 16   # iterations * body length
MAX_BODY_LEN = 512             # per-pc plan tables, built every run
MAX_REGISTER_ID = 4096         # packed scoreboard row length

#: per-pc issue kinds.  The driver dispatches ALU first and tests
#: global and texture together (``kind <= _TEX``), so they follow it.
_ALU, _GLOBAL, _TEX, _SHARED, _CONST, _BRA, _BAR, _MEMBAR, _SLEEP = range(9)

_MEM_KINDS = (_GLOBAL, _SHARED, _TEX)

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
    """``None`` when the specializer can compile the program for this
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
    """Everything a driver reads about one program, built per run.

    The per-pc tables the issue dispatch and the scoreboard scans index
    by ``pc``, the per-warp counter charges, and the static facts the
    runtime table builder needs.  The compiled driver depends only on
    the machine shape; this is the rest."""

    __slots__ = (
        "name", "body_len", "iterations", "tokens", "row_len",
        "kinds", "scans", "units", "dsts", "slots", "plain_next",
        "selected", "h0", "h1", "h2", "h3", "classes",
        "branches", "divergent", "barriers",
        "rolls_on", "has_rolls", "has_fetch", "bank_pcs", "disp_on",
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
        # rolls_on: the shape's driver checks a hiccup table at all;
        # has_rolls: some token of this program can roll.
        self.rolls_on = self.disp_on or bank_on
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
    built lazily in block chunks as the driver spawns blocks; each
    block's tables are handed to the driver once and dropped.  Only the
    driver's ``block_tables`` argument refers to an instance (the
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
        the driver's counter charge."""
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

        rolls = fetch = None
        if plan.rolls_on:
            # one dict per warp of only the nonzero tokens: rolls are
            # rare, so the driver's hot path is a single failed
            # membership test instead of an array load per attempt.
            rolls = [{} for _ in range(nw)]
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
        # charge (h0/h3) the driver adds to the plan's per-warp one.
        ssum = [0] * nw
        # per-warp L1 sector-access count over the single-L1-line
        # global/tex entries (the ones the driver probes inline);
        # charged in bulk in the driver's ``finally``, with hits
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
            — so the driver can run the sectored lookup of
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
                rolls[lo:hi_w] if rolls is not None else None,
                fetch[lo:hi_w] if fetch is not None else None,
                mem[lo:hi_w],
                sum(ssum[lo:hi_w]),
                sum(asum[lo:hi_w]),
            )


# ----------------------------------------------------------------------
# driver cache
# ----------------------------------------------------------------------
class _Driver:
    """A compiled driver for one machine shape and its ``drive``
    function.  ``source`` is the generated module text on the driver a
    build returns and ``None`` on the copy the cache keeps."""

    __slots__ = ("fn", "source")

    def __init__(self, fn, source: str | None = None) -> None:
        self.fn = fn
        self.source = source

    def drive(self, sim: "SMSimulator") -> None:
        """Run ``sim``'s cycle loop; counters land in its accumulators.
        The program's plan and tables are built here, for this run."""
        plan = _Plan(sim.program, sim.spec, sim.config)
        self.fn(sim, _RuntimeTables(sim, plan).block_tables, plan)


#: key -> compiled driver (no source), one per machine shape.
_DRIVER_CACHE: dict[str, _Driver] = {}


def specialization_key(spec: "GPUSpec", config: SimConfig) -> str:
    """Content key of the *generated code*: the spec and the config
    facts that shape codegen (scheduler policy, whether each kind of
    hiccup roll exists at all).  The program, seed, rate values,
    max_cycles and residency are runtime inputs of the driver, not of
    the code.  The spec encoding comes from the fingerprint module's
    per-object memo, so re-keying per SM run is cheap."""
    return content_digest(
        spec, config.scheduler,
        config.bank_conflict_rate > 0.0,
        config.dispatch_stall_rate > 0.0,
    )


def clear_driver_cache() -> None:
    """Drop the in-process driver cache (tests)."""
    _DRIVER_CACHE.clear()


def _compile_source(source: str, key: str):
    """exec the generated module; returns its ``drive`` function.
    Popping it from the namespace it was defined in leaves no
    function <-> globals cycle, so a dropped driver is freed at once."""
    ns: dict = {}
    exec(compile(source, f"<specialized:{key[:12]}>", "exec"), ns)
    return ns.pop("drive")


def driver_for(program: KernelProgram, spec: "GPUSpec",
               config: SimConfig) -> "_Driver | str":
    """Compiled driver for the program's machine shape, or the reason
    the program is declined.

    ``check_supported`` runs on every call, so a declined program
    counts in neither ``sim.specialize_hits`` nor ``_misses`` (its run
    counts in ``sim.specialize_fallbacks``).  Otherwise the lookup
    counts as exactly one of the two — determinism contract in
    docs/OBSERVABILITY.md — and a miss generates and compiles the
    shape's driver.  Only the call that builds a driver gets its
    ``source``; the cache keeps the compiled function, and a hit
    returns that cached driver.
    """
    reason = check_supported(program, spec, config)
    if reason is not None:
        return reason
    key = specialization_key(spec, config)
    cached = _DRIVER_CACHE.get(key)
    metrics = active_obs().metrics
    if cached is not None:
        if metrics.enabled:
            metrics.inc("sim.specialize_hits")
        return cached
    if metrics.enabled:
        metrics.inc("sim.specialize_misses")
    source = generate_driver_source(spec, config)
    fn = _compile_source(source, key)
    _DRIVER_CACHE[key] = _Driver(fn)
    return _Driver(fn, source)


# ----------------------------------------------------------------------
# code generation
# ----------------------------------------------------------------------
class _Emitter:
    """Tiny indentation-aware source builder."""

    __slots__ = ("lines", "_depth")

    def __init__(self) -> None:
        self.lines: list[str] = []
        self._depth = 0

    def line(self, text: str = "") -> None:
        self.lines.append("    " * self._depth + text if text else "")

    @contextmanager
    def indent(self):
        self._depth += 1
        try:
            yield
        finally:
            self._depth -= 1

    def blk(self, header: str):
        self.line(header)
        return self.indent()

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


def generate_driver_source(spec: "GPUSpec", config: SimConfig) -> str:
    """Compile one machine shape, (spec, scheduler, hiccups on/off), to
    the source of a ``drive(sim, block_tables, plan)`` function, where
    ``block_tables`` is the run's :meth:`_RuntimeTables.block_tables`
    and ``plan`` the program's :class:`_Plan`.

    The generated loop is an event-driven scheduler.  Warps in a timed
    wait sit in per sub-partition wake heaps and are untouched until
    they wake, stall cycles are charged in bulk when a warp is next
    examined, and cycles in which every warp sleeps are skipped.  An
    issue attempt is one hiccup check, a dispatch on the pc's kind with
    one leaf per instruction kind, the pc advance with the next pc's
    scoreboard scan, and one post-issue park (see ``emit_attempt``).
    Per-spec facts are literals and per-program facts are read from
    the plan's tables, so nothing in the source depends on the
    program.  Its counters must equal the reference scan's
    (``sm_reference.ReferenceSMSimulator``): classification order
    within a cycle (sub-partition major, spawn order minor) and every
    ``(seed, warp_id, iteration, pc)``-keyed roll are preserved.
    """
    from repro.sim.stall_reasons import WarpState

    sm = spec.sm
    nsmsp = sm.subpartitions
    dispatch_n = sm.dispatch_units_per_subpartition
    icl = sm.icache_miss_latency
    brl = sm.branch_resolve_latency
    shl = spec.memory.shared_latency
    gto = config.scheduler == "gto"
    rolls_on = (config.bank_conflict_rate > 0.0
                or config.dispatch_stall_rate > 0.0)
    units = sm.functional_units
    ueff = tuple(max(1, f.issue_interval // f.pipes) for f in units)
    ulat = tuple(f.latency for f in units)

    SELI = WarpState.SELECTED.idx
    NSELI = WarpState.NOT_SELECTED.idx
    NOINSTI = WarpState.NO_INSTRUCTION.idx
    BARRI = WarpState.BARRIER.idx
    MEMBARI = WarpState.MEMBAR.idx
    BRESI = WarpState.BRANCH_RESOLVING.idx
    SLEEPI = WarpState.SLEEPING.idx
    MISCI = WarpState.MISC.idx
    DSTALLI = WarpState.DISPATCH_STALL.idx
    MATHI = WarpState.MATH_PIPE_THROTTLE.idx
    LONGI = WarpState.LONG_SCOREBOARD.idx
    SHORTI = WarpState.SHORT_SCOREBOARD.idx
    WAITI = WarpState.WAIT.idx
    IMCI = WarpState.IMC_MISS.idx
    MIOI = WarpState.MIO_THROTTLE.idx
    LGI = WarpState.LG_THROTTLE.idx
    TEXI = WarpState.TEX_THROTTLE.idx
    DRAINI = WarpState.DRAIN.idx
    # scoreboard kind (SB_FIXED / SB_LONG / SB_SHORT) -> blocked-state index.
    sbt = f"({WAITI}, {LONGI}, {SHORTI})"
    barw = 1 << 60

    # kind -> (completion-list variable, queue attribute, capacity,
    # cycles per transaction, throttle state).
    queue_info = {
        _GLOBAL: ("lgq", "lg_queue", spec.memory.lg_queue_entries, 1,
                  LGI),
        _TEX: ("texq", "tex_queue", spec.memory.tex_queue_entries, 2,
               TEXI),
        _SHARED: ("mioq", "mio_queue", spec.memory.mio_queue_entries,
                  2, MIOI),
    }

    em = _Emitter()

    # -- attempt emit helpers ------------------------------------------
    def emit_push(rc_expr: str) -> None:
        # no epoch bump: a parking warp never has a live heap entry
        # (its wake was popped, or it came from the pool/ready list),
        # so there is nothing to invalidate.  Only the barrier release
        # re-arms warps that still own an entry, and it bumps the epoch
        # itself.
        em.line(f"push(heap, ({rc_expr}, s, epo[s]))")

    def emit_scan(regs: str, cyc: str, tgt: str, kv: str) -> None:
        """Scoreboard scan over the register tuple ``regs`` (srcs then
        dst): expired entries zeroed, strictly-later ready wins (ties
        keep the first-seen kind)."""
        em.line("row = pend[s]")
        with em.blk(f"for q_ in {regs}:"):
            em.line("e_ = row[q_]")
            with em.blk("if e_:"):
                em.line("r_ = e_ >> 2")
                with em.blk(f"if r_ <= {cyc}:"):
                    em.line("row[q_] = 0")
                with em.blk(f"elif r_ > {tgt}:"):
                    em.line(f"{tgt} = r_")
                    em.line(f"{kv} = e_ & 3")

    def emit_issue_done() -> None:
        """Terminal of a *successful* issue attempt.  With a single
        dispatch unit per sub-partition (the common hardware shape)
        the slot is spent the moment one warp issues: the rest of the
        order is NOT_SELECTED in bulk and the issue loop exits — no
        budget variable at all.  Wider dispatchers keep the counted
        budget and fall through to the next candidate."""
        if dispatch_n == 1:
            em.line(f"sc[{NSELI}] += n_ord - bj - 1")
            em.line("break")
        else:
            em.line("continue")

    def emit_fail(state_idx: int, rc_expr: str) -> None:
        """Timed-stall epilogue of a failed issue attempt (throttles
        and hazards): charge the state, park the warp.  A warp ready
        again by the next cycle is still a classified candidate, so it
        simply stays in the pool.

        The park is *pre-settled*: a candidate park is woken by its
        own heap entry at exactly ``rdy`` (nothing re-targets it in
        between), so the whole stall interval is charged here and
        ``stall`` is seated at the wake cycle — the wake pass then
        re-pools the warp without any settle arithmetic."""
        em.line(f"rcf = {rc_expr}")
        em.line("rdy[s] = rcf")
        em.line(f"widx[s] = {state_idx}")
        em.line(f"sc[{state_idx}] += rcf - cycle")
        with em.blk("if rcf > cycle1:"):
            em.line("stall[s] = rcf")
            em.line("pool.remove(s)")
            emit_push("rcf")
        em.line("continue")

    def emit_tail(fast: bool, scan: bool = True) -> None:
        """Post-issue epilogue, once the pc has advanced to ``nx``.

        ``fast`` emits the first half of the wake-collapsed form: the
        next instruction's scoreboard scan runs *now* with the cutoff
        at the warp's ready cycle ``rc``, leaving ``prdy``/``pk`` for
        the park :func:`emit_attempt` emits after it.  All the
        quantities an intermediate wake-up would discover are already
        known here — pend rows hold fixed completion cycles and only
        this warp writes them.  Every fast-tail issue body leaves
        ``rc >= cycle1`` (the spec rejects latencies below one cycle),
        so an unparked warp's scan at ``rc`` is the scan at ``cycle1``.

        ``fast=False`` keeps the literal two-step park (issue, then
        wake and classify) — required for barrier waits (a barrier
        release must re-scan un-expired entries) and drain warps
        (``candf`` must stay clear so the exam loop retires them).
        It ends the attempt itself.  A draining warp passes
        ``scan=False``: it has exited, so there is no next instruction
        to scan, and it retires once its memory drains."""
        if fast:
            em.line("rc = rdy[s]")
            em.line("prdy = -1")
            emit_scan("SCAN[nx]", "rc", "prdy", "pk")
            return
        if dispatch_n != 1:
            em.line("budget -= 1")
        if gto:
            em.line("greedy[smp_i] = s")
        em.line("candf[s] = False")
        em.line("pool.remove(s)")
        em.line("stall[s] = cycle1")
        em.line("rc = rdy[s]")
        with em.blk("if rc > cycle1:"):
            emit_push("rc")
            emit_issue_done()
        if scan:
            em.line("prdy = -1")
            emit_scan("SCAN[nx]", "cycle1", "prdy", "pk")
            with em.blk("if prdy >= 0:"):
                em.line(f"wi = {sbt}[pk]")
                em.line("widx[s] = wi")
                em.line("sc[wi] += 1")
                em.line("stall[s] = cycle + 2")
                em.line("rdy[s] = prdy")
                emit_push("prdy")
                emit_issue_done()
        # ready again next cycle: re-enters through the ready list
        # (the exam pass may not have run this cycle, so the
        # nr_app binding is not in scope here).
        em.line("ready_l[smp_i].append(s)")
        emit_issue_done()

    def emit_fetch_check(tok_expr: str) -> None:
        with em.blk(f"if FETCH[s][{tok_expr}]:"):
            em.line(f"mr = cycle + {icl + 1}")
            with em.blk("if mr > rdy[s]:"):
                em.line("rdy[s] = mr")
                em.line(f"widx[s] = {NOINSTI}")

    def emit_advance(fast: bool) -> None:
        """pc/iteration advance to ``nx`` + fetch-miss roll + tail; the
        wrap case carries the implicit-EXIT drain/retire split.  The
        implicit EXIT's executed-instruction counters are part of the
        plan's per-warp charge; drain parks always use the two-step
        tail (``candf`` must stay clear for the exam loop to retire
        them)."""
        em.line("nx = NEXT[p]")
        with em.blk("if nx:"):
            em.line("pcs[s] = nx")
        with em.blk("elif p + 1 < NBODY:"):
            # a fetch-roll point
            em.line("nx = p + 1")
            em.line("pcs[s] = nx")
            emit_fetch_check("it * NBODY + nx")
        with em.blk("else:"):
            em.line("it2 = it + 1")
            em.line("its[s] = it2")
            em.line("pcs[s] = 0")
            with em.blk("if it2 >= ITERS:"):
                # implicit EXIT (counters charged per warp); no fetch.
                em.line("lm = lastm[s]")
                with em.blk("if lm > cycle:"):
                    em.line("rdy[s] = lm")
                    em.line(f"widx[s] = {DRAINI}")
                    em.line("drainf[s] = True")
                    emit_tail(fast=False, scan=False)
                with em.blk("else:"):
                    em.line("pool.remove(s)")
                    em.line("retire(s, cycle, smp_i, None)")
                    if dispatch_n != 1:
                        em.line("budget -= 1")
                    if gto:
                        em.line("greedy[smp_i] = s")
                    em.line("stall[s] = cycle1")
                    emit_issue_done()
            em.line("nx = 0")
            with em.blk("if FETCH0:"):
                emit_fetch_check("it2 * NBODY")
        emit_tail(fast)

    def emit_queue(kind: int) -> None:
        """Push ``trans`` transactions into the kind's queue, or fail
        the attempt on its throttle; leaves the last slot in ``done``."""
        var, _attr, cap, di, thr = queue_info[kind]
        em.line(f"comp = {var}[smp_i]")
        with em.blk("while comp and comp[0] <= cycle:"):
            em.line("comp.popleft()")
        with em.blk("if comp:"):
            with em.blk(f"if len(comp) + trans > {cap}:"):
                emit_fail(thr, "comp[0]")
            em.line("done = comp[-1]")
        with em.blk("else:"):
            em.line("done = cycle")
        if di == 1:
            em.line("comp.extend(range(done + 1, done + trans + 1))")
            em.line("done += trans")
        else:
            em.line(f"comp.extend(range(done + {di}, "
                    f"done + {di} * trans + 1, {di}))")
            em.line(f"done += {di} * trans")

    def emit_mem_done(sbk: int) -> None:
        """Scoreboard write, drain horizon and wavefront-cost wait of a
        memory issue that completes at ``complete``."""
        em.line(f"pend[s][DST[p]] = complete << 2 | {sbk}")
        with em.blk("if complete > lastm[s]:"):
            em.line("lastm[s] = complete")
        with em.blk("if trans > 1:"):
            em.line("t_ = cycle + e_[1]")
            with em.blk("if t_ > dbusy[smp_i]:"):
                em.line("dbusy[smp_i] = t_")
            em.line("rdy[s] = t_")
        with em.blk("else:"):
            em.line("rdy[s] = cycle1")

    def emit_issue() -> None:
        """The issue body: a dispatch on the pc's kind, ALU first, with
        one leaf per kind reading its per-pc facts from the plan.
        Every leaf but the barrier's falls through to the common pc
        advance; the barrier's advances with the two-step park and
        ends the attempt itself."""
        # NFU[p] is the pc's unit list, None off ALU pcs: the ALU test
        # is the first lookup the ALU leaf needs anyway.
        em.line("nfu = NFU[p]")
        with em.blk("if nfu:"):
            with em.blk("if nfu[smp_i] > cycle:"):
                emit_fail(MATHI, "nfu[smp_i]")
            em.line("nfu[smp_i] = cycle + EFF[p]")
            em.line("pend[s][DST[p]] = (cycle + LAT[p]) << 2")
            em.line("rdy[s] = cycle1")
        with em.blk(f"elif (kd := KIND[p]) <= {_TEX}:"):
            em.line("e_ = MEM[s][SLOT[p]][it]")
            em.line("trans = e_[0]")
            with em.blk(f"if kd == {_GLOBAL}:"):
                emit_queue(_GLOBAL)
            with em.blk("else:"):
                emit_queue(_TEX)
            # 6-tuple: single-L1-line access with the probe geometry
            # precomputed at table-build time — run the sectored lookup
            # inline (the access count is charged from the tables; only
            # misses and L2 hits are tracked here).
            with em.blk("if len(e_) == 6:"):
                em.line("cs = l1s[e_[3]]")
                with em.blk("if e_[2] in cs:"):
                    with em.blk("if cs[-1] != e_[2]:"):
                        em.line("cs.remove(e_[2])")
                        em.line("cs.append(e_[2])")
                    em.line("lat = L1HIT")
                with em.blk("else:"):
                    em.line("m1 += 1")
                    with em.blk("if len(cs) >= W1:"):
                        em.line("cs.pop(0)")
                    em.line("cs.append(e_[2])")
                    em.line("cs2 = l2s[e_[5]]")
                    with em.blk("if e_[4] in cs2:"):
                        with em.blk("if cs2[-1] != e_[4]:"):
                            em.line("cs2.remove(e_[4])")
                            em.line("cs2.append(e_[4])")
                        em.line("h2c += 1")
                        em.line("lat = L2LAT")
                    with em.blk("else:"):
                        with em.blk("if len(cs2) >= W2:"):
                            em.line("cs2.pop(0)")
                        em.line("cs2.append(e_[4])")
                        em.line("lat = DRAML")
            with em.blk("elif e_[2] >= 0:"):
                em.line("lat = g_span(e_[2], e_[3])")
            with em.blk("else:"):
                em.line("lat = g_list(e_[3])")
            em.line("complete = done + lat")
            emit_mem_done(1)
        with em.blk(f"elif kd == {_SHARED}:"):
            em.line("e_ = MEM[s][SLOT[p]][it]")
            em.line("trans = e_[0]")
            emit_queue(_SHARED)
            em.line(f"complete = done + {shl}")
            emit_mem_done(2)
        with em.blk(f"elif kd == {_CONST}:"):
            em.line("missed, lat = c_one(MEM[s][SLOT[p]][it])")
            with em.blk("if missed:"):
                em.line("rdy[s] = cycle + lat")
                em.line(f"widx[s] = {IMCI}")
            with em.blk("else:"):
                em.line("rdy[s] = cycle1")
            em.line("pend[s][DST[p]] = (cycle + lat) << 2")
        with em.blk(f"elif kd == {_BRA}:"):
            em.line(f"rdy[s] = cycle + {brl}")
            em.line(f"widx[s] = {BRESI}")
        with em.blk(f"elif kd == {_BAR}:"):
            em.line("b_ = blk_l[s]")
            em.line("a_ = barrier_arrivals[b_] + 1")
            em.line("barrier_arrivals[b_] = a_")
            with em.blk("if a_ >= block_live[b_]:"):
                em.line("release(b_, cycle, smp_i, None)")
                em.line("rdy[s] = cycle1")
            with em.blk("else:"):
                em.line("atbar[s] = True")
                em.line(f"rdy[s] = {barw}")
                em.line(f"widx[s] = {BARRI}")
            emit_advance(fast=False)
        with em.blk(f"elif kd == {_MEMBAR}:"):
            em.line("lm = lastm[s]")
            em.line(f"wk = cycle + {shl}")
            with em.blk("if lm > wk:"):
                em.line("wk = lm")
            em.line("rdy[s] = wk")
            em.line(f"widx[s] = {MEMBARI}")
        with em.blk("else:"):  # _SLEEP
            em.line("rdy[s] = cycle + 40")
            em.line(f"widx[s] = {SLEEPI}")

    def emit_attempt() -> None:
        """One issue attempt of pooled warp ``s``: the hiccup check,
        the issue dispatch, the pc advance, then the fast-tail park."""
        em.line("it = its[s]")
        em.line("p = pcs[s]")
        if rolls_on:
            # HIC[s] holds only this warp's *pending* nonzero hiccup
            # tokens (1 = bank conflict, 2 = dispatch hiccup; a pc that
            # cannot roll either never holds one); pop-on-hit is the
            # consumed-once semantics the reference tracks via
            # ``Warp.hiccup_token``.  The park is pre-settled (sc += 2
            # covers the issue cycle and the one-cycle park, stall
            # seats at the wake cycle — see emit_fail).
            with em.blk("if it * NBODY + p in HIC[s]:"):
                em.line(f"wi = {MISCI} if HIC[s].pop(it * NBODY + p) == 1 "
                        f"else {DSTALLI}")
                em.line("widx[s] = wi")
                em.line("sc[wi] += 2")
                em.line("rdy[s] = cycle + 2")
                em.line("stall[s] = cycle + 2")
                em.line("pool.remove(s)")
                emit_push("cycle + 2")
                em.line("continue")
        emit_issue()
        emit_advance(fast=True)
        # the fast-tail park, pre-settled (full stall interval charged
        # now, ``stall`` seated at the wake cycle — see emit_fail; a
        # pooled warp's ``stall`` is never read, so no seat-at-issue
        # write).  When the scan found a pending register (prdy >= 0),
        # the intermediate wake at rc is collapsed: its settle charge
        # (old widx), the classify park and the final wake's settle in
        # one step.  ``candf`` marks the warp a known candidate, so its
        # wake takes the exam fast path instead of the classify scan.
        # Counter totals are cycle-for-cycle those of the uncollapsed
        # path; only the loop-internal processed/skipped/wake
        # statistics (not part of :class:`EventCounters`) shift.
        if dispatch_n != 1:
            em.line("budget -= 1")
        if gto:
            em.line("greedy[smp_i] = s")
        em.line("candf[s] = True")
        with em.blk("if prdy >= 0:"):
            em.line("pool.remove(s)")
            with em.blk("if rc > cycle1:"):
                em.line("sc[widx[s]] += rc - cycle1")
            em.line(f"wi = {sbt}[pk]")
            em.line("widx[s] = wi")
            em.line("sc[wi] += prdy - rc")
            em.line("stall[s] = prdy")
            em.line("rdy[s] = prdy")
            emit_push("prdy")
        with em.blk("elif rc > cycle1:"):
            em.line("pool.remove(s)")
            em.line("sc[widx[s]] += rc - cycle1")
            em.line("stall[s] = rc")
            emit_push("rc")
        # otherwise ready for the next instruction at cycle+1 with no
        # pending deps: the warp remains a pool candidate in place.
        emit_issue_done()

    # -- module header -------------------------------------------------
    em.line(f"# generated by repro.sim.specialize for {spec.name!r}")
    em.line(f"# scheduler={config.scheduler} smsp={nsmsp} "
            f"dispatch={dispatch_n} hiccups={'on' if rolls_on else 'off'}")
    em.line("from bisect import insort")
    em.line("from heapq import heappop, heappush")
    em.line()
    em.line("from repro.errors import SimulationError")
    em.line()
    em.line()
    em.line("def drive(sim, block_tables, plan):")
    with em.indent():
        # -- preamble: bind everything hot into locals -----------------
        em.line("NBODY = plan.body_len")
        em.line("ITERS = plan.iterations")
        em.line("ROW = plan.row_len")
        em.line("KIND = plan.kinds")
        em.line("SCAN = plan.scans")
        em.line("DST = plan.dsts")
        em.line("SLOT = plan.slots")
        em.line("NEXT = plan.plain_next")
        em.line("FETCH0 = plan.has_fetch")
        # per pc, its functional unit's per sub-partition next-free
        # cycles, issue interval and latency (units in spec order; a
        # non-ALU pc's -1 reads values no leaf uses).
        em.line(f"nf = [[0] * {nsmsp} for _ in range({len(units)})]")
        em.line("NFU = [nf[u] if u >= 0 else None for u in plan.units]")
        em.line(f"EFF = [{ueff!r}[u] for u in plan.units]")
        em.line(f"LAT = [{ulat!r}[u] for u in plan.units]")
        em.line("WPB = sim.launch.warps_per_block")
        em.line("TOTAL = sim.blocks_total")
        em.line("minb = sim.max_concurrent_blocks")
        with em.blk("if minb > TOTAL:"):
            em.line("minb = TOTAL")
        em.line("maxc = sim.config.max_cycles")
        em.line("g_span = sim.memory.access_global_span")
        em.line("g_list = sim.memory.access_global")
        # the single-L1-line probe runs inline in the global/tex leaf:
        # bind the cache internals and latency classes once.
        em.line("l1_ = sim.memory.l1")
        em.line("l2_ = sim.memory.l2")
        em.line("l1s = l1_._sets")
        em.line("l2s = l2_._sets")
        em.line("W1 = l1_._ways")
        em.line("W2 = l2_._ways")
        em.line("L1HIT = l1_.spec.hit_latency")
        em.line("t_ = l2_.spec.hit_latency")
        em.line("L2LAT = t_ if t_ > L1HIT else L1HIT")
        em.line("t_ = sim.memory.dram_latency")
        em.line("DRAML = t_ if t_ > L1HIT else L1HIT")
        em.line("c_one = sim.memory.access_constant_sector")
        em.line("dbusy = sim.dispatch_busy_until")
        em.line("sc = sim._sc")
        em.line("push = heappush")
        em.line("pop = heappop")
        em.line(f"wake = [[] for _ in range({nsmsp})]")
        em.line(f"ready_l = [[] for _ in range({nsmsp})]")
        # per sub-partition pools of classified, ready-to-issue warps
        # (ascending warp order — exactly the candidates list the event
        # loop rebuilds every cycle).  Warps persist here across cycles
        # so unselected candidates cost one bulk NOT_SELECTED charge
        # instead of a per-warp exam/classify round trip.
        em.line(f"pool_l = [[] for _ in range({nsmsp})]")
        # pre-zipped per-smsp iteration tuple: the heaps and pools are
        # only ever mutated in place, so binding them once here drops
        # two alias assignments from every processed cycle.
        em.line(f"smsps = tuple(zip(wake, pool_l, "
                f"range({nsmsp})))")
        if gto:
            em.line(f"greedy = [-1] * {nsmsp}")
        else:
            em.line(f"rr = [0] * {nsmsp}")
        for var, attr, _cap, _di, _thr in queue_info.values():
            em.line(f"{var} = [q._completions for q in sim.{attr}]")
        for v in ("rdy", "widx", "stall", "pcs", "its", "atbar",
                  "exitd", "drainf", "candf", "lastm", "epo", "pend",
                  "smp_l", "blk_l", "FETCH", "MEM"):
            em.line(f"{v} = []")
        if rolls_on:
            em.line("HIC = []")
        em.line("block_live = {}")
        em.line("block_warps = {}")
        em.line("barrier_arrivals = {}")
        em.line("live = 0")
        em.line("next_block = 0")
        em.line("spawn_pending = 0")
        em.line("n_blk = 0")
        em.line("n_wrp = 0")
        # the tables' LSU-slot and inline-probe access sums
        em.line("ssum = 0")
        em.line("asum = 0")
        em.line("skipped = 0")
        em.line("wake_events = 0")
        em.line("m1 = 0")
        em.line("h2c = 0")
        # warp-occupancy integral by change points: ``warp_active``
        # accumulates live * elapsed at every live-count change (spawn
        # or retire), with ``wam`` marking the cycle the current live
        # value took effect.  cycles_active needs no accumulator at
        # all — it equals ``cycle`` at any settle point.
        em.line("warp_active = 0")
        em.line("wam = 0")
        em.line("cycle = 0")
        em.line()
        with em.blk("def spawn_block(cyc):"):
            em.line("nonlocal next_block, live, n_blk, n_wrp, ssum, asum")
            em.line("nonlocal warp_active, wam")
            em.line("b = next_block")
            em.line("next_block = b + 1")
            em.line("block_live[b] = WPB")
            em.line("barrier_arrivals[b] = 0")
            em.line("bw = []")
            em.line("block_warps[b] = bw")
            em.line("t_rolls, t_fetch, t_mem, t_ssum, t_asum = "
                    "block_tables(b)")
            if rolls_on:
                em.line("HIC.extend(t_rolls)")
            with em.blk("if t_fetch is not None:"):
                em.line("FETCH.extend(t_fetch)")
            em.line("MEM.extend(t_mem)")
            em.line("bw0 = b * WPB")
            with em.blk("for w in range(WPB):"):
                em.line("s = len(rdy)")
                em.line(f"smp = (bw0 + w) % {nsmsp}")
                em.line(f"rc = cyc + {icl} + (w & 3)")
                em.line("rdy.append(rc)")
                em.line(f"widx.append({NOINSTI})")
                em.line("stall.append(cyc)")
                em.line("pcs.append(0)")
                em.line("its.append(0)")
                em.line("atbar.append(False)")
                em.line("exitd.append(False)")
                em.line("drainf.append(False)")
                em.line("candf.append(False)")
                em.line("lastm.append(0)")
                em.line("epo.append(1)")
                em.line("pend.append([0] * ROW)")
                em.line("smp_l.append(smp)")
                em.line("blk_l.append(b)")
                em.line("bw.append(s)")
                em.line("push(wake[smp], (rc, s, 1))")
            em.line("ssum += t_ssum")
            em.line("asum += t_asum")
            # new warps are occupancy-counted from ``cyc`` onward.
            em.line("warp_active += live * (cyc - wam)")
            em.line("wam = cyc")
            em.line("live += WPB")
            em.line("n_blk += 1")
            em.line("n_wrp += WPB")
        em.line()
        with em.blk("def release(b, cyc, cur_smp, cur_seq):"):
            em.line("barrier_arrivals[b] = 0")
            em.line("c1 = cyc + 1")
            with em.blk("for o in block_warps[b]:"):
                with em.blk("if not atbar[o]:"):
                    em.line("continue")
                em.line("osmp = smp_l[o]")
                with em.blk(
                    "if osmp < cur_smp or (osmp == cur_smp and "
                    "(cur_seq is None or o < cur_seq)):"
                ):
                    em.line("upto = c1")
                with em.blk("else:"):
                    em.line("upto = cyc")
                em.line("st0 = stall[o]")
                with em.blk("if upto > st0:"):
                    em.line("sc[widx[o]] += upto - st0")
                    em.line("stall[o] = upto")
                em.line("atbar[o] = False")
                em.line("rdy[o] = c1")
                em.line(f"widx[o] = {NOINSTI}")
                em.line("ep = epo[o] + 1")
                em.line("epo[o] = ep")
                em.line("push(wake[osmp], (c1, o, ep))")
        em.line()
        with em.blk("def retire(s, cyc, cur_smp, cur_seq):"):
            em.line("nonlocal live, spawn_pending")
            em.line("nonlocal warp_active, wam")
            em.line("exitd[s] = True")
            em.line("drainf[s] = False")
            # the retiring warp still counts for ``cyc`` itself (the
            # exam-phase drain retire subtracts that cycle back).
            em.line("warp_active += live * (cyc + 1 - wam)")
            em.line("wam = cyc + 1")
            em.line("live -= 1")
            em.line("b = blk_l[s]")
            em.line("block_warps[b].remove(s)")
            em.line("r = block_live[b] - 1")
            em.line("block_live[b] = r")
            with em.blk("if r == 0:"):
                em.line("del block_live[b]")
                em.line("del block_warps[b]")
                em.line("barrier_arrivals.pop(b, None)")
                with em.blk("if next_block < TOTAL:"):
                    em.line("spawn_pending += 1")
            with em.blk("elif barrier_arrivals.get(b, 0) >= r:"):
                em.line("release(b, cyc, cur_smp, cur_seq)")
        em.line()
        # -- main loop -------------------------------------------------
        with em.blk("try:"):
            with em.blk("while next_block < minb:"):
                em.line("spawn_block(0)")
            with em.blk("while True:"):
                # one fused guard for the two rare conditions; the
                # inner re-tests disambiguate only when it fires.
                with em.blk("if live == 0 or cycle >= maxc:"):
                    with em.blk("if live == 0:"):
                        with em.blk("if next_block >= TOTAL:"):
                            em.line("break")
                        em.line("spawn_block(cycle)")
                    with em.blk("if cycle >= maxc:"):
                        em.line("raise SimulationError(f\"kernel "
                                "{plan.name!r} exceeded {maxc} "
                                "simulated cycles\")")
                em.line("cycle1 = cycle + 1")
                em.line("next_ready = False")
                with em.blk("for heap, pool, smp_i in smsps:"):
                    with em.blk("if heap and heap[0][0] <= cycle:"):
                        em.line("woken = None")
                        with em.blk(
                            "while heap and heap[0][0] <= cycle:"
                        ):
                            em.line("rc_, s_, ep_ = pop(heap)")
                            with em.blk(
                                "if exitd[s_] or ep_ != epo[s_] "
                                "or rc_ != rdy[s_]:"
                            ):
                                em.line("continue")
                            em.line("wake_events += 1")
                            with em.blk("if candf[s_]:"):
                                # known candidate whose park was
                                # pre-settled (full interval charged,
                                # stall seated at this cycle): take it
                                # straight into the pool — the exam
                                # pass would do exactly this and
                                # nothing else.
                                em.line("insort(pool, s_)")
                            with em.blk("elif woken is None:"):
                                em.line("woken = [s_]")
                            with em.blk("else:"):
                                em.line("woken.append(s_)")
                        em.line("exam = ready_l[smp_i]")
                        with em.blk("if woken is not None:"):
                            with em.blk("if exam:"):
                                em.line("exam = exam + woken")
                                em.line("exam.sort()")
                            with em.blk("else:"):
                                em.line("woken.sort()")
                                em.line("exam = woken")
                        with em.blk("elif len(exam) > 1:"):
                            em.line("exam.sort()")
                    with em.blk("else:"):
                        em.line("exam = ready_l[smp_i]")
                        with em.blk("if not exam and not pool:"):
                            em.line("continue")
                        with em.blk("if len(exam) > 1:"):
                            em.line("exam.sort()")
                    with em.blk("if exam:"):
                        em.line("new_ready = []")
                        em.line("nr_app = new_ready.append")
                        # rebound before the issue phase: the two-step
                        # tail appends through ready_l[smp_i], and the
                        # trailer reads it for next_ready.  The list
                        # is sorted at consumption, not production.
                        em.line("ready_l[smp_i] = new_ready")
                        with em.blk("for s in exam:"):
                            with em.blk("if exitd[s]:"):
                                em.line("continue")
                            with em.blk("if candf[s]:"):
                                # classified ready earlier and not yet
                                # issued: scoreboard entries only
                                # expire, so it is still a candidate —
                                # joins the persistent pool instead of
                                # being rescanned every cycle.  Its
                                # park was pre-settled (stall seated
                                # at this cycle), so no settle
                                # arithmetic.
                                em.line("insort(pool, s)")
                                em.line("continue")
                            em.line("st0 = stall[s]")
                            with em.blk("if st0 < cycle:"):
                                em.line("sc[widx[s]] += cycle - st0")
                                em.line("stall[s] = cycle")
                            with em.blk("if drainf[s]:"):
                                em.line("warp_active -= 1")
                                em.line("retire(s, cycle, smp_i, s)")
                                em.line("continue")
                            em.line("brdy = -1")
                            emit_scan("SCAN[pcs[s]]", "cycle", "brdy", "bk")
                            with em.blk("if brdy < 0:"):
                                em.line("candf[s] = True")
                                em.line("insort(pool, s)")
                                em.line("continue")
                            em.line("rdy[s] = brdy")
                            em.line(f"wi = {sbt}[bk]")
                            em.line("widx[s] = wi")
                            # scoreboard rows only expire while parked,
                            # so the warp is a known candidate at brdy.
                            # Far parks are pre-settled: the full stall
                            # interval is charged now and ``stall``
                            # seated at the wake cycle (see emit_fail).
                            em.line("candf[s] = True")
                            with em.blk("if brdy <= cycle1:"):
                                em.line("sc[wi] += 1")
                                em.line("stall[s] = cycle1")
                                em.line("nr_app(s)")
                            with em.blk("else:"):
                                em.line("sc[wi] += brdy - cycle")
                                em.line("stall[s] = brdy")
                                emit_push("brdy")
                    with em.blk("if pool:"):
                        # a non-empty pool keeps the loop hot even if
                        # the issue below empties it — the spurious
                        # extra cycle only shifts the loop-internal
                        # processed/skipped split, not any counter.
                        em.line("next_ready = True")
                        with em.blk("if dbusy[smp_i] > cycle:"):
                            # pooled warps stay pooled: NOT_SELECTED /
                            # DISPATCH_STALL cycles are charged in bulk
                            # and their stall[] clocks are left stale —
                            # every path that takes a warp out of the
                            # pool re-seats stall before it is read.
                            em.line(f"sc[{DSTALLI}] += len(pool)")
                        with em.blk("else:"):
                            em.line("n_ord = len(pool)")
                            if gto:
                                with em.blk("if n_ord > 1:"):
                                    em.line("g = greedy[smp_i]")
                                    em.line("order = sorted(pool, key="
                                            "lambda x: (x != g, x))")
                                with em.blk("else:"):
                                    em.line("order = pool[:]")
                            else:
                                em.line("start_i = rr[smp_i] % n_ord")
                                em.line("rr[smp_i] += 1")
                                em.line("order = pool[start_i:]"
                                        " + pool[:start_i]")
                            if dispatch_n != 1:
                                em.line(f"budget = {dispatch_n}")
                            with em.blk("for bj in range(n_ord):"):
                                if dispatch_n != 1:
                                    with em.blk("if budget <= 0:"):
                                        em.line(f"sc[{NSELI}] += "
                                                "n_ord - bj")
                                        em.line("break")
                                em.line("s = order[bj]")
                                emit_attempt()
                    with em.blk("elif ready_l[smp_i]:"):
                        em.line("next_ready = True")
                with em.blk("if spawn_pending:"):
                    with em.blk("while spawn_pending > 0 "
                                "and next_block < TOTAL:"):
                        em.line("spawn_pending -= 1")
                        em.line("spawn_block(cycle1)")
                    em.line("spawn_pending = 0")
                with em.blk("if next_ready:"):
                    em.line("cycle = cycle1")
                    em.line("continue")
                em.line("nxt = -1")
                with em.blk("for heap in wake:"):
                    with em.blk("while heap:"):
                        em.line("rc_, s_, ep_ = heap[0]")
                        with em.blk(
                            "if exitd[s_] or ep_ != epo[s_] "
                            "or rc_ != rdy[s_]:"
                        ):
                            em.line("pop(heap)")
                            em.line("continue")
                        with em.blk("if nxt < 0 or rc_ < nxt:"):
                            em.line("nxt = rc_")
                        em.line("break")
                with em.blk("if nxt < 0:"):
                    em.line("cycle = cycle1")
                    em.line("continue")
                with em.blk(f"if nxt >= {barw}:"):
                    em.line("raise SimulationError("
                            "f\"kernel {plan.name!r}: all warps blocked "
                            "at a barrier (deadlock)\")")
                em.line("gap = nxt - cycle1")
                with em.blk("if gap > 0:"):
                    # live is unchanged across the skipped span, so the
                    # occupancy integral needs no adjustment here.
                    em.line("skipped += gap")
                    em.line("cycle = nxt")
                with em.blk("else:"):
                    em.line("cycle = cycle1")
            em.line("sim.counters.cycles_elapsed = cycle")
        with em.blk("finally:"):
            # inline-probe statistics: hits are accesses minus misses
            # (the access count comes from the tables), L2/DRAM traffic
            # follows from the miss and L2-hit counts.
            em.line("l1_.accesses += asum")
            em.line("l1_.hits += asum - m1")
            em.line("l2_.accesses += m1")
            em.line("l2_.hits += h2c")
            em.line("mh_ = sim.memory")
            em.line("mh_.l2_accesses += m1")
            em.line("mh_.dram_accesses += m1 - h2c")
            # the executed/selected counters every spawned warp owes
            # (the plan's per-warp charges; see _Plan).
            em.line(f"sc[{SELI}] += n_wrp * plan.selected")
            em.line("cls_ = sim._cls")
            with em.blk("for ci_, n_ in plan.classes:"):
                em.line("cls_[ci_] += n_wrp * n_")
            em.line("hot = sim._hot")
            em.line("hot[0] += ssum + n_wrp * plan.h0")
            em.line("hot[1] += n_wrp * plan.h1")
            em.line("hot[2] += n_wrp * plan.h2")
            em.line("hot[3] += ssum - n_wrp * plan.h3")
            em.line("c_ = sim.counters")
            em.line("c_.branches_executed += n_wrp * plan.branches")
            em.line("c_.divergent_branches += n_wrp * plan.divergent")
            em.line("c_.barriers_executed += n_wrp * plan.barriers")
            em.line("c_.blocks_launched += n_blk")
            em.line("c_.warps_launched += n_wrp")
            # ``cycle`` IS the active-cycle count at any settle point,
            # and the live-warp residue since the last change point
            # closes the occupancy integral (zero on a normal exit —
            # live is 0 — and exact on the max-cycle abort).
            em.line("c_.cycles_active += cycle")
            em.line("c_.warp_active_cycles += "
                    "warp_active + live * (cycle - wam)")
            em.line("sim._processed_cycles = cycle - skipped")
            em.line("sim._skipped_cycles = skipped")
            em.line("sim._wake_events = wake_events")
    return em.source()
