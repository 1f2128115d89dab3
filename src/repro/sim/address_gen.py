"""Per-access address/sector generation for memory instructions.

Each :class:`~repro.isa.program.AccessPattern` owns a region of the
synthetic address space.  For a given (warp, iteration, instruction
slot) the generator produces the list of 32-byte sector ids the warp's
active threads touch, according to the pattern kind:

* ``STREAM``  — threads read consecutive elements; successive iterations
  advance through the working set and wrap (classic streaming kernel).
* ``STRIDED`` — inter-thread stride spreads the access over up to 32
  sectors (uncoalesced access → replays, §IV.B equation (4)).
* ``RANDOM``  — every access lands uniformly in the working set
  (pointer-chasing / irregular graph behaviour).
* ``UNIFORM`` — all threads hit one address (constant reads).

Everything is a pure function of the simulation seed and the access
coordinates, so profiler replay passes observe identical traffic.
"""

from __future__ import annotations

from repro.isa.instruction import AccessKind
from repro.isa.program import AccessPattern
from repro.sim.rng import hash_u64, mix64, stable_str_hash

SECTOR_BYTES = 32


class AddressGenerator:
    """Generates sector-id lists for one access pattern."""

    __slots__ = ("pattern", "_base_sector", "_ws_sectors", "_seed",
                 "_span_ok", "_stride_bytes", "_warp_step", "_slot_step",
                 "_ws")

    def __init__(self, pattern: AccessPattern, seed: int) -> None:
        self.pattern = pattern
        self._base_sector = pattern.base_address // SECTOR_BYTES
        self._ws_sectors = max(1, pattern.working_set_bytes // SECTOR_BYTES)
        # stable_str_hash, not builtin hash(): the stream must not vary
        # with PYTHONHASHSEED or persistent cache entries written by one
        # process would disagree with another process's simulation.
        self._seed = hash_u64(seed, stable_str_hash(pattern.name))
        # span() constants, hoisted out of the per-access call.
        if pattern.kind is AccessKind.STREAM:
            stride_bytes = pattern.element_bytes
        elif pattern.kind is AccessKind.STRIDED:
            stride_bytes = pattern.element_bytes * pattern.stride_elements
        else:
            stride_bytes = 0
        self._span_ok = 0 < stride_bytes <= SECTOR_BYTES
        self._stride_bytes = stride_bytes
        self._warp_step = 32 * stride_bytes
        self._slot_step = 32 * pattern.element_bytes
        self._ws = pattern.working_set_bytes

    def span(
        self,
        warp_global_id: int,
        iteration: int,
        slot: int,
        active_threads: int,
    ) -> tuple[int, int] | None:
        """``(first_sector, n_sectors)`` when the access is one
        consecutive run, else ``None``.

        Covers the common STREAM / small-stride STRIDED no-wrap case —
        exactly the accesses :meth:`sectors` would return as
        ``range(first, last + 1)`` — without materializing the list, so
        the cache model can process the run arithmetically
        (:meth:`~repro.sim.caches.MemoryHierarchy.access_global_span`).
        """
        if not self._span_ok:
            return None
        ws = self._ws
        cursor = (
            (warp_global_id * 131 + iteration) * self._warp_step
            + slot * self._slot_step
        ) % ws
        span = (active_threads - 1) * self._stride_bytes
        if cursor + span >= ws:
            return None
        first = cursor // SECTOR_BYTES
        return (self._base_sector + first,
                (cursor + span) // SECTOR_BYTES - first + 1)

    def sectors(
        self,
        warp_global_id: int,
        iteration: int,
        slot: int,
        active_threads: int,
    ) -> list[int]:
        """Sector ids touched by one warp access (deduplicated, ordered)."""
        p = self.pattern
        if p.kind is AccessKind.UNIFORM:
            # all threads read the same word; the kernel walks its
            # coefficient table across iterations (and different warps
            # may sit in different table regions), so tables larger than
            # the IMC keep missing — the DNN-app signature of Fig. 10.
            step = (iteration * 13 + slot * 3 + (warp_global_id & 7)) * 64
            offset = step % p.working_set_bytes
            return [self._base_sector + offset // SECTOR_BYTES]

        if p.kind is AccessKind.RANDOM:
            # sample one sector per active thread; duplicates collapse.
            # the per-lane hash shares a 4-part prefix — fold it once
            # and finish each lane with a single mix64 (identical
            # values to the full per-lane hash_u64 chain).
            prefix = hash_u64(self._seed, warp_global_id, iteration, slot)
            base, ws = self._base_sector, self._ws_sectors
            out = {
                base + mix64(prefix ^ lane) % ws
                for lane in range(active_threads)
            }
            return sorted(out)

        # STREAM / STRIDED: arithmetic lane addresses.
        stride_bytes = p.element_bytes * (
            p.stride_elements if p.kind is AccessKind.STRIDED else 1
        )
        # each warp owns an interleaved slice; iterations advance the
        # cursor so streams walk the working set.
        ws = p.working_set_bytes
        cursor = (
            (warp_global_id * 131 + iteration) * 32 * stride_bytes
            + slot * 32 * p.element_bytes
        ) % ws
        base = self._base_sector
        span = (active_threads - 1) * stride_bytes
        if cursor + span < ws:
            # no wrap: lane bytes increase monotonically, so first-seen
            # dedup order equals ascending sector order.
            first = base + cursor // SECTOR_BYTES
            if stride_bytes <= SECTOR_BYTES:
                # lanes tile every sector between first and last.
                last = base + (cursor + span) // SECTOR_BYTES
                return list(range(first, last + 1))
            # wide stride: each lane lands in its own (ascending) sector.
            return [
                base + (cursor + lane * stride_bytes) // SECTOR_BYTES
                for lane in range(active_threads)
            ]
        seen: set[int] = set()
        dedup: list[int] = []
        for lane in range(active_threads):
            byte = (cursor + lane * stride_bytes) % ws
            sid = base + byte // SECTOR_BYTES
            if sid not in seen:
                seen.add(sid)
                dedup.append(sid)
        return dedup


def build_generators(
    patterns: dict[str, AccessPattern], seed: int
) -> dict[str, AddressGenerator]:
    """One generator per pattern of a program."""
    return {name: AddressGenerator(p, seed) for name, p in patterns.items()}
