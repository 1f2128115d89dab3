"""Smoke bench for the parallel engine and the persistent result cache.

Runs the same workload (the synthetic suite on the Turing device)
four ways — serial cold, parallel cold, cache-cold and cache-warm —
and asserts the four runs are bit-identical, the warm run simulated
nothing and beat the serial one.  Timings are tracked by the repo
benchmark (``perfbench/``, workloads ``suites_cold_jN`` and
``suites_warm_j1``), not here.

Run directly::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_parallel.py -q

or via pytest-benchmark along with the figure benches.
"""

from __future__ import annotations

import os
import time

from repro.experiments.runner import profile_suite
from repro.lint import bundled_suites
from repro.sim.engine import engine_context

GPU = "NVIDIA Quadro RTX 4000"


def _timed(fn):
    t0 = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - t0


def _fractions(run):
    """Flat, comparable view of every Top-Down fraction of a run."""
    from repro.core.nodes import LEVEL1

    return {
        name: [round(result.fraction(n), 12) for n in LEVEL1]
        for name, result in run.results.items()
    }


def test_bench_parallel_and_cache(tmp_path):
    suite = bundled_suites()["synth"]
    jobs = os.cpu_count() or 1
    cache_dir = tmp_path / "sim-cache"

    serial, t_serial = _timed(lambda: profile_suite(GPU, suite, seed=0))

    with engine_context(jobs=jobs):
        parallel = profile_suite(GPU, suite, seed=0)

    with engine_context(jobs=jobs, cache_dir=cache_dir) as engine:
        cold = profile_suite(GPU, suite, seed=0)
        cold_stores = engine.cache.stats.stores

    with engine_context(jobs=jobs, cache_dir=cache_dir) as engine:
        warm, t_warm = _timed(lambda: profile_suite(GPU, suite, seed=0))
        warm_hits = engine.cache.stats.hits
        warm_sims = engine.stats.sim_calls

    # correctness first: all four runs bit-identical.
    base = _fractions(serial)
    assert _fractions(parallel) == base
    assert _fractions(cold) == base
    assert _fractions(warm) == base

    # the warm run must not have simulated anything …
    assert warm_sims == 0
    assert warm_hits >= cold_stores > 0
    # … and skipping simulation must actually pay off.
    assert t_warm < t_serial, (
        f"warm cache ({t_warm:.2f}s) not faster than serial cold "
        f"({t_serial:.2f}s)"
    )
