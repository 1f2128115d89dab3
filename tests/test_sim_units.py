"""Unit tests for the simulator's building blocks: rng, caches,
address generation, pipes and drain queues."""

import pytest

from repro.arch import CacheSpec, FunctionalUnitSpec, SMSpec
from repro.isa import AccessKind, AccessPattern
from repro.sim import DrainQueue, PipeSet, SectorCache
from repro.sim.address_gen import SECTOR_BYTES, AddressGenerator
from repro.sim.caches import MemoryHierarchy
from repro.sim.rng import hash_u64, mix64, randint, uniform


class TestRng:
    def test_mix64_is_deterministic(self):
        assert mix64(42) == mix64(42)

    def test_mix64_avalanche(self):
        assert mix64(1) != mix64(2)

    def test_hash_order_sensitive(self):
        assert hash_u64(1, 2) != hash_u64(2, 1)

    def test_uniform_range(self):
        for i in range(200):
            assert 0.0 <= uniform(7, i) < 1.0

    def test_uniform_roughly_uniform(self):
        n = 2000
        mean = sum(uniform(3, i) for i in range(n)) / n
        assert 0.45 < mean < 0.55

    def test_randint_range_and_determinism(self):
        vals = [randint(10, 5, i) for i in range(100)]
        assert all(0 <= v < 10 for v in vals)
        assert vals == [randint(10, 5, i) for i in range(100)]

    def test_randint_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            randint(0, 1)


class TestSectorCache:
    def _cache(self, size=4096, ways=4):
        return SectorCache(CacheSpec("t", size_bytes=size, ways=ways))

    def test_first_access_misses_second_hits(self):
        c = self._cache()
        assert c.probe(100) is False
        assert c.probe(100) is True
        assert c.accesses == 2 and c.hits == 1

    def test_sectors_share_lines(self):
        """Sectors of the same 128B line hit after one fill."""
        c = self._cache()
        assert c.probe(0) is False
        assert c.probe(1) is True  # same line (4 sectors/line)
        assert c.probe(3) is True
        assert c.probe(4) is False  # next line

    def test_lru_eviction(self):
        c = self._cache(size=4096, ways=2)  # 8 sets at 128B lines x2 ways
        sets = c.spec.num_sets
        line_sectors = c.spec.sectors_per_line
        # three distinct lines mapping to set 0
        lines = [0, sets, 2 * sets]
        sids = [ln * line_sectors for ln in lines]
        c.probe(sids[0])
        c.probe(sids[1])
        c.probe(sids[2])          # evicts line 0 (LRU)
        assert c.probe(sids[0]) is False
        assert c.probe(sids[2]) is True

    def test_capacity_miss_on_big_working_set(self):
        c = self._cache(size=4096)
        sectors = 4 * (4096 // 32)  # 4x capacity
        for s in range(sectors):
            c.probe(s * 4)  # one sector per line
        hits, accesses = c.hits, c.accesses
        for s in range(sectors):
            c.probe(s * 4)
        # streaming working set 4x cache: the second pass all misses.
        assert c.accesses - accesses == sectors
        assert c.hits == hits

    def test_hit_rate_resident_working_set(self):
        c = self._cache(size=4096)
        for _ in range(3):
            for s in range(16):
                c.probe(s)
        assert c.hits / c.accesses > 0.5


class TestMemoryHierarchy:
    def _hier(self):
        return MemoryHierarchy(
            l1=SectorCache(CacheSpec("l1", size_bytes=4096, hit_latency=20,
                                     miss_latency=100)),
            l2=SectorCache(CacheSpec("l2", size_bytes=64 * 1024, ways=16,
                                     hit_latency=100, miss_latency=300)),
            constant=SectorCache(CacheSpec("c", size_bytes=2048,
                                           line_bytes=64, hit_latency=4,
                                           miss_latency=120)),
            dram_latency=400,
        )

    def test_l1_hit_is_fast(self):
        h = self._hier()
        h.access_global([5])
        assert h.access_global([5]) == 20

    def test_miss_goes_to_dram_first_time(self):
        h = self._hier()
        assert h.access_global([123]) == 400
        assert h.dram_accesses == 1

    def test_l2_hit_after_l1_eviction(self):
        h = self._hier()
        h.access_global([7])
        # blow out L1 only (4 KiB), stay inside L2 (64 KiB)
        for s in range(4 * 4096 // 32):
            h.access_global([1000 + s])
        latency = h.access_global([7])
        assert latency == 100  # L2 hit latency

    def test_constant_miss_flagged(self):
        h = self._hier()
        missed, lat = h.access_constant_sector(9)
        assert missed and lat >= 120
        missed2, lat2 = h.access_constant_sector(9)
        assert not missed2 and lat2 == 4

    def test_worst_sector_dominates(self):
        h = self._hier()
        h.access_global([1])          # fills sector 1
        latency = h.access_global([1, 99])  # 99 misses to DRAM
        assert latency == 400


class TestAddressGenerator:
    def _gen(self, kind, ws=1 << 16, stride=1, elem=4):
        p = AccessPattern("p", kind, working_set_bytes=ws,
                          element_bytes=elem, stride_elements=stride,
                          base_address=1 << 20)
        return AddressGenerator(p, seed=3)

    def test_stream_coalesces_to_four_sectors(self):
        g = self._gen(AccessKind.STREAM)
        sectors = g.sectors(0, 0, 0, 32)
        assert len(sectors) == 4  # 32 threads x 4B = 128B = 4 sectors

    def test_strided_spreads_sectors(self):
        g = self._gen(AccessKind.STRIDED, stride=16)
        sectors = g.sectors(0, 0, 0, 32)
        assert len(sectors) > 16

    def test_fully_strided_one_sector_per_lane(self):
        g = self._gen(AccessKind.STRIDED, stride=32, ws=1 << 22)
        assert len(g.sectors(0, 0, 0, 32)) == 32

    def test_uniform_single_sector(self):
        g = self._gen(AccessKind.UNIFORM)
        assert len(g.sectors(0, 0, 0, 32)) == 1

    def test_random_bounded_by_active_threads(self):
        g = self._gen(AccessKind.RANDOM)
        assert len(g.sectors(0, 0, 0, 8)) <= 8

    def test_deterministic(self):
        g1 = self._gen(AccessKind.RANDOM)
        g2 = self._gen(AccessKind.RANDOM)
        assert g1.sectors(1, 2, 3, 32) == g2.sectors(1, 2, 3, 32)

    def test_sectors_stay_in_working_set(self):
        g = self._gen(AccessKind.RANDOM, ws=4096)
        base = (1 << 20) // SECTOR_BYTES
        for it in range(20):
            for sid in g.sectors(0, it, 0, 32):
                assert base <= sid < base + 4096 // SECTOR_BYTES

    def test_stream_advances_with_iteration(self):
        g = self._gen(AccessKind.STREAM, ws=1 << 20)
        assert g.sectors(0, 0, 0, 32) != g.sectors(0, 1, 0, 32)

    def test_partial_mask_fewer_sectors(self):
        g = self._gen(AccessKind.STREAM)
        full = g.sectors(0, 0, 0, 32)
        partial = g.sectors(0, 0, 0, 8)
        assert len(partial) <= len(full)


class TestPipeSet:
    def _pipes(self):
        sm = SMSpec(
            subpartitions=1, warps_per_subpartition=8,
            dispatch_units_per_subpartition=1,
            functional_units=(
                FunctionalUnitSpec("fp32", issue_interval=2, latency=6),
                FunctionalUnitSpec("fp64", issue_interval=32, latency=16),
            ),
        )
        return PipeSet(sm)

    def test_issue_occupies_pipe(self):
        p = self._pipes()
        assert p.available("fp32", 0)
        latency = p.issue("fp32", 0)
        assert latency == 6
        assert not p.available("fp32", 1)
        assert p.available("fp32", 2)

    def test_slow_pipe_long_occupancy(self):
        p = self._pipes()
        p.issue("fp64", 0)
        assert not p.available("fp64", 31)
        assert p.available("fp64", 32)

    def test_pipes_independent(self):
        p = self._pipes()
        p.issue("fp64", 0)
        assert p.available("fp32", 1)


class TestDrainQueue:
    def test_accepts_until_capacity(self):
        q = DrainQueue(capacity=2, drain_interval=10)
        q.push(0, 1)
        q.push(0, 1)
        assert q.full(0, 1)

    def test_drains_over_time(self):
        q = DrainQueue(capacity=2, drain_interval=10)
        q.push(0, 2)
        assert q.full(0, 1)
        assert not q.full(25, 1)

    def test_pipelined_delay(self):
        q = DrainQueue(capacity=8, drain_interval=1)
        assert q.push(0, 4) == 4
        # next burst queues behind the first
        assert q.push(0, 2) == 6

    def test_empty_queue_accepts_oversized_burst(self):
        q = DrainQueue(capacity=2)
        assert not q.full(0, 5)

    def test_next_drain(self):
        q = DrainQueue(capacity=4, drain_interval=3)
        q.push(0, 1)
        assert q.next_drain(0) == 3
        assert q.next_drain(10) == 11  # drained; fallback cycle+1

    def test_occupancy(self):
        q = DrainQueue(capacity=4, drain_interval=5)
        q.push(0, 3)
        assert q.occupancy(0) == 3
        assert q.occupancy(100) == 0

    def test_reset(self):
        q = DrainQueue(capacity=2, drain_interval=100)
        q.push(0, 2)
        q.reset()
        assert not q.full(0, 2)
