"""Property-based tests (hypothesis) on core invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import CacheSpec, ComputeCapability, PMUSpec
from repro.core import DeviceModel, Level1Inputs, Node, TopDownAnalyzer
from repro.pmu import ncu_stall_metric_name, schedule_passes, unified_catalog
from repro.profilers import KernelProfile, parse_metric_value
from repro.sim import SectorCache, WarpState
from repro.sim.rng import hash_u64, mix64, uniform
from repro.workloads.synth import _MixScheduler

# ---------------------------------------------------------------------------
# equation identities
# ---------------------------------------------------------------------------

ipc_values = st.floats(min_value=0.0, max_value=10.0,
                       allow_nan=False, allow_infinity=False)
fractions = st.floats(min_value=0.0, max_value=1.0,
                      allow_nan=False, allow_infinity=False)


@given(ipc_max=st.floats(min_value=0.5, max_value=16.0),
       reported=ipc_values, eff=fractions, issued=ipc_values)
def test_level1_identity_universal(ipc_max, reported, eff, issued):
    """Equation (1) holds for ANY measured inputs after clamping."""
    lvl1 = Level1Inputs(
        ipc_max=ipc_max, ipc_reported=reported,
        warp_efficiency=eff, ipc_issued=issued,
    ).compute()
    assert lvl1.retire >= 0
    assert lvl1.branch >= -1e-12
    assert lvl1.replay >= -1e-12
    assert lvl1.stall >= 0
    total = lvl1.retire + lvl1.divergence + lvl1.stall
    assert abs(total - ipc_max) < 1e-6 * max(1.0, ipc_max)


@given(
    smsp_ipc=st.floats(min_value=0.0, max_value=1.0),
    threads=st.floats(min_value=0.0, max_value=32.0),
    issued_delta=st.floats(min_value=0.0, max_value=0.5),
    stall_pcts=st.lists(
        st.floats(min_value=0.0, max_value=40.0), min_size=3, max_size=3
    ),
)
@settings(max_examples=60)
def test_analyzer_conservation_universal(smsp_ipc, threads, issued_delta,
                                         stall_pcts):
    """The analyzer's output always satisfies the hierarchy identities,
    whatever the profiler reports."""
    device = DeviceModel(
        name="T", compute_capability=ComputeCapability(7, 5),
        ipc_max=2.0, subpartitions=2,
    )
    profile = KernelProfile("k", 0, {
        "smsp__inst_executed.avg.per_cycle_active": smsp_ipc,
        "smsp__thread_inst_executed_per_inst_executed.ratio": threads,
        "smsp__inst_issued.avg.per_cycle_active": smsp_ipc + issued_delta,
        ncu_stall_metric_name(WarpState.LONG_SCOREBOARD): stall_pcts[0],
        ncu_stall_metric_name(WarpState.NO_INSTRUCTION): stall_pcts[1],
        ncu_stall_metric_name(WarpState.MATH_PIPE_THROTTLE): stall_pcts[2],
    })
    for normalize in (True, False):
        result = TopDownAnalyzer(device,
                                 normalize_stalls=normalize).analyze_kernel(
            profile
        )
        result.check_conservation()
        for node in Node:
            assert result.ipc(node) >= -1e-9


# ---------------------------------------------------------------------------
# rng
# ---------------------------------------------------------------------------

@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_mix64_stays_in_64_bits(x):
    assert 0 <= mix64(x) < 2**64


@given(st.lists(st.integers(min_value=0, max_value=2**32), min_size=1,
                max_size=5))
def test_uniform_in_unit_interval(parts):
    assert 0.0 <= uniform(*parts) < 1.0


@given(st.integers(0, 2**32), st.integers(0, 2**32))
def test_hash_deterministic(a, b):
    assert hash_u64(a, b) == hash_u64(a, b)


# ---------------------------------------------------------------------------
# caches
# ---------------------------------------------------------------------------

@given(st.lists(st.integers(min_value=0, max_value=500), min_size=1,
                max_size=300))
@settings(max_examples=50)
def test_cache_hits_never_exceed_accesses(sector_stream):
    cache = SectorCache(CacheSpec("t", size_bytes=4096))
    for s in sector_stream:
        cache.probe(s)
    assert 0 <= cache.hits <= cache.accesses == len(sector_stream)


@given(st.lists(st.integers(min_value=0, max_value=30), min_size=2,
                max_size=100))
@settings(max_examples=50)
def test_small_working_set_eventually_hits(sector_stream):
    """Any stream inside one cache-worth of sectors hits on re-access."""
    cache = SectorCache(CacheSpec("t", size_bytes=4096, ways=4))
    for s in sector_stream:
        cache.probe(s)
    # replay the same stream: everything must now hit (fits in cache)
    hits, accesses = cache.hits, cache.accesses
    for s in set(sector_stream):
        cache.probe(s)
    assert cache.hits - hits == cache.accesses - accesses > 0


# ---------------------------------------------------------------------------
# pass scheduling
# ---------------------------------------------------------------------------

metric_names = st.lists(
    st.sampled_from(sorted(unified_catalog())), min_size=1, max_size=12,
    unique=True,
)


@given(names=metric_names, capacity=st.integers(min_value=1, max_value=8))
@settings(max_examples=60)
def test_pass_plan_covers_all_events(names, capacity):
    cat = unified_catalog()
    metrics = [cat[n] for n in names]
    plan = schedule_passes(metrics, PMUSpec(counters_per_pass=capacity))
    collected = set(plan.all_events)
    for m in metrics:
        assert set(m.events) <= collected
    for p in plan.passes:
        assert 0 < len(p) <= capacity
    # no event scheduled twice
    programmable = [e for p in plan.passes for e in p]
    assert len(programmable) == len(set(programmable))


# ---------------------------------------------------------------------------
# mix scheduler
# ---------------------------------------------------------------------------

@given(
    fracs=st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=2,
                   max_size=4),
    n=st.integers(min_value=50, max_value=400),
)
@settings(max_examples=40)
def test_mix_scheduler_tracks_fractions(fracs, n):
    total = sum(fracs)
    fractions = {f"k{i}": f / total for i, f in enumerate(fracs)}
    sched = _MixScheduler(fractions)
    counts = {k: 0 for k in fractions}
    for _ in range(n):
        counts[sched.next()] += 1
    for k, frac in fractions.items():
        assert abs(counts[k] / n - frac) < 0.1 + 2.0 / n


# ---------------------------------------------------------------------------
# value parsing
# ---------------------------------------------------------------------------

@given(st.floats(min_value=0, max_value=1e6, allow_nan=False))
def test_parse_metric_value_round_trip(x):
    assert parse_metric_value(f"{x:.6f}") is not None
    assert abs(parse_metric_value(f"{x:.6f}") - x) < 1e-3 * max(1.0, x)


@given(st.floats(min_value=0, max_value=100))
def test_parse_percent_strips_unit(x):
    parsed = parse_metric_value(f"{x:.2f}%")
    assert parsed is not None
    assert abs(parsed - round(x, 2)) < 1e-9
