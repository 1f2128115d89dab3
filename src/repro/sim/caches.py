"""Set-associative, LRU cache models.

These are *real* caches: tag arrays indexed by address, true LRU within
each set.  Hit rates therefore emerge from the generated address streams
(working-set size, stride, randomness), not from configured
probabilities — the property DESIGN.md §5 commits to.

Addresses are tracked at cache-line granularity; a memory access
supplies the set of 32-byte *sector* ids it touches and the cache maps
sectors onto lines.  This matches NVIDIA's sectored L1/L2 design closely
enough for the counters the methodology consumes (hit/miss counts and
latency classes).
"""

from __future__ import annotations

from repro.arch.spec import CacheSpec


class SectorCache:
    """A set-associative cache probed with 32-byte sector ids."""

    __slots__ = ("spec", "_sets", "_lines_per_sector_shift", "_num_sets",
                 "_ways", "accesses", "hits")

    def __init__(self, spec: CacheSpec) -> None:
        self.spec = spec
        # each set is a list of line tags, most-recently-used last.
        self._sets: list[list[int]] = [[] for _ in range(spec.num_sets)]
        self._num_sets = spec.num_sets
        self._ways = spec.ways
        # sector id -> line id shift
        shift = 0
        ratio = spec.sectors_per_line
        while (1 << shift) < ratio:
            shift += 1
        self._lines_per_sector_shift = shift
        self.accesses = 0
        self.hits = 0

    def reset_stats(self) -> None:
        self.accesses = 0
        self.hits = 0

    def flush(self) -> None:
        """Invalidate all contents (used between profiler replay passes)."""
        for s in self._sets:
            s.clear()

    def probe(self, sector_id: int) -> bool:
        """Access one sector; returns True on hit, updates LRU/fills."""
        line = sector_id >> self._lines_per_sector_shift
        cache_set = self._sets[line % self._num_sets]
        self.accesses += 1
        # membership test instead of try/remove: a streaming workload
        # misses almost every probe and the raised ValueError dominates
        # the cost of this (small, bounded-by-ways) list scan.
        if line in cache_set:
            if cache_set[-1] != line:
                cache_set.remove(line)
                cache_set.append(line)
            self.hits += 1
            return True
        # miss: fill, evicting LRU if the set is full.
        if len(cache_set) >= self._ways:
            cache_set.pop(0)
        cache_set.append(line)
        return False

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class MemoryHierarchy:
    """L1 (per SM) + L2 (device) + constant cache (per SM) + DRAM.

    Returns a latency class per access so the pipeline can set dependent
    wakeup times; accumulates the hit/miss statistics the PMU exposes.
    """

    __slots__ = ("l1", "l2", "constant", "dram_latency", "l2_accesses",
                 "dram_accesses")

    def __init__(self, l1: SectorCache, l2: SectorCache,
                 constant: SectorCache, dram_latency: int) -> None:
        self.l1 = l1
        self.l2 = l2
        self.constant = constant
        self.dram_latency = dram_latency
        self.l2_accesses = 0
        self.dram_accesses = 0

    def flush(self) -> None:
        self.l1.flush()
        self.l2.flush()
        self.constant.flush()

    def reset_stats(self) -> None:
        self.l1.reset_stats()
        self.l2.reset_stats()
        self.constant.reset_stats()
        self.l2_accesses = 0
        self.dram_accesses = 0

    def access_global(self, sector_ids: list[int]) -> int:
        """Probe L1→L2→DRAM for a global/local/texture access.

        Returns the worst-case latency among the touched sectors — the
        warp's dependent instructions wait for the slowest sector.
        """
        l1 = self.l1
        l2 = self.l2
        worst = l1.spec.hit_latency
        l2_hit_latency = l2.spec.hit_latency
        shift = l1._lines_per_sector_shift
        prev_line = -1
        l1_probe = l1.probe
        l2_probe = l2.probe
        for sid in sector_ids:
            line = sid >> shift
            if line == prev_line:
                # same L1 line as the previous sector: the probe just
                # made it resident and MRU, so this is a guaranteed hit
                # and the LRU move would be a no-op.  Count it without
                # touching the set.
                l1.accesses += 1
                l1.hits += 1
                continue
            prev_line = line
            if l1_probe(sid):
                continue
            self.l2_accesses += 1
            if l2_probe(sid):
                if l2_hit_latency > worst:
                    worst = l2_hit_latency
            else:
                self.dram_accesses += 1
                if self.dram_latency > worst:
                    worst = self.dram_latency
        return worst

    def access_global_span(self, first: int, n: int) -> int:
        """:meth:`access_global` for ``n`` consecutive sectors starting
        at ``first`` — counter-for-counter identical to
        ``access_global(list(range(first, first + n)))``.

        Consecutive sectors visit each L1 line once: the leading probe
        of a line decides hit/miss (and forwards that one sector to L2
        on a miss), every later sector of the line is a guaranteed hit.
        The per-sector loop therefore collapses to a per-line loop plus
        bulk access/hit accounting.
        """
        l1 = self.l1
        l2 = self.l2
        worst = l1.spec.hit_latency
        l2_hit_latency = l2.spec.hit_latency
        shift = l1._lines_per_sector_shift
        first_line = first >> shift
        last_line = (first + n - 1) >> shift
        if first_line == last_line:
            # the whole run sits in one L1 line — the overwhelmingly
            # common shape for coalesced accesses; skip the per-line
            # loop and charge the run in bulk.
            l1.accesses += n
            cache_set = l1._sets[first_line % l1._num_sets]
            if first_line in cache_set:
                if cache_set[-1] != first_line:
                    cache_set.remove(first_line)
                    cache_set.append(first_line)
                l1.hits += n
                return worst
            if len(cache_set) >= l1._ways:
                cache_set.pop(0)
            cache_set.append(first_line)
            l1.hits += n - 1
            self.l2_accesses += 1
            if l2.probe(first):
                return l2_hit_latency if l2_hit_latency > worst else worst
            self.dram_accesses += 1
            dl = self.dram_latency
            return dl if dl > worst else worst
        l1.accesses += n
        # all but each line's leading probe are guaranteed hits.
        hits = n - (last_line - first_line + 1)
        sets = l1._sets
        num_sets = l1._num_sets
        ways = l1._ways
        for line in range(first_line, last_line + 1):
            cache_set = sets[line % num_sets]
            if line in cache_set:
                if cache_set[-1] != line:
                    cache_set.remove(line)
                    cache_set.append(line)
                hits += 1
                continue
            if len(cache_set) >= ways:
                cache_set.pop(0)
            cache_set.append(line)
            # L1 miss: the line's leading sector goes to L2.
            self.l2_accesses += 1
            if l2.probe(first if line == first_line else line << shift):
                if l2_hit_latency > worst:
                    worst = l2_hit_latency
            else:
                self.dram_accesses += 1
                if self.dram_latency > worst:
                    worst = self.dram_latency
        l1.hits += hits
        return worst

    def access_constant(self, sector_ids: list[int]) -> tuple[bool, int]:
        """Probe the immediate-constant cache.

        Returns ``(missed, latency)``; a miss goes to L2 (constants are
        cached there too) and possibly DRAM.
        """
        missed = False
        worst = self.constant.spec.hit_latency
        for sid in sector_ids:
            if self.constant.probe(sid):
                continue
            missed = True
            self.l2_accesses += 1
            if self.l2.probe(sid):
                worst = max(worst, self.constant.spec.miss_latency)
            else:
                self.dram_accesses += 1
                worst = max(worst, self.dram_latency)
        return missed, worst

    def access_constant_sector(self, sid: int) -> tuple[bool, int]:
        """:meth:`access_constant` for a single sector id.

        Constant reads are warp-uniform (one sector per access), so the
        specialized backend's issue path calls this instead of building
        a one-element list per access.  Counter-for-counter identical
        to ``access_constant([sid])``.
        """
        if self.constant.probe(sid):
            return False, self.constant.spec.hit_latency
        self.l2_accesses += 1
        if self.l2.probe(sid):
            return True, max(self.constant.spec.hit_latency,
                             self.constant.spec.miss_latency)
        self.dram_accesses += 1
        return True, max(self.constant.spec.hit_latency, self.dram_latency)
