"""Simulator-core throughput: the two backends against each other.

Times the three ``test_bench_simulator.py`` kernel shapes through both
cycle-loop implementations — the frozen seed scan
(``repro.sim.sm_reference``) and the table-driven loop behind
``repro.sim.sm.SMSimulator`` (``repro.sim.specialize``) — and records
the measurement as one entry of the ``BENCH_SIMCORE.json``
*trajectory*.

The trajectory format keeps history instead of overwriting it: the
first entry is a preserved snapshot of the retired event loop against
the seed scan, later entries are appended per run, newest last, with
the middle truncated so the file stays small.  Each entry carries
per-backend seconds, cycles/sec, speedup over the reference scan, and
the bit-identity verdict re-asserted on every repetition.

The timing protocol is deliberately conservative: the loops run
interleaved (same cache/thermal conditions), each pair is repeated
and the best ``time.process_time`` taken, and every repetition
re-asserts that both backends produced bit-identical counters.

Run directly::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_simcore.py -q
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from test_bench_simulator import _kernel

from repro.arch import get_gpu
from repro.io.counters_json import counters_to_doc
from repro.isa import LaunchConfig
from repro.sim import SimConfig
from repro.sim.sm import SMSimulator
from repro.sim.sm_reference import ReferenceSMSimulator
from repro.sim.specialize import check_supported

GPU = "rtx4000"
LAUNCH = LaunchConfig(blocks=288, threads_per_block=128)
SEED = 1
ROUNDS = {"memory_bound": 6, "compute_bound": 3, "irregular": 4}
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_SIMCORE.json"

#: acceptance floor: the compiled driver must clear ≥10x over the seed
#: scan on every kernel shape, bit-identical.
SPECIALIZED_MIN_SPEEDUP = 10.0

#: trajectory length cap: first (preserved event-loop snapshot) + most
#: recent entries; the middle is dropped.
MAX_TRAJECTORY = 8


def _best_of(kind: str) -> dict:
    spec = get_gpu(GPU)
    program = _kernel(kind)
    config = SimConfig(seed=SEED)
    assert check_supported(program, spec, config) is None
    best = {"reference": float("inf"), "specialized": float("inf")}
    cycles = 0
    identical = True
    for _ in range(ROUNDS[kind]):
        t0 = time.process_time()
        ref = ReferenceSMSimulator(spec, program, LAUNCH, config).run()
        t1 = time.process_time()
        spz = SMSimulator(spec, program, LAUNCH, config).run()
        t2 = time.process_time()
        best["reference"] = min(best["reference"], t1 - t0)
        best["specialized"] = min(best["specialized"], t2 - t1)
        cycles = ref.cycles_elapsed
        identical = identical and (
            counters_to_doc(spz) == counters_to_doc(ref)
        )
    entry = {"simulated_cycles": cycles, "bit_identical": identical,
             "backends": {}}
    for name, seconds in best.items():
        entry["backends"][name] = {
            "seconds": round(seconds, 6),
            "cycles_per_sec": round(cycles / seconds, 1),
            "speedup_x": round(best["reference"] / seconds, 2),
        }
    return entry


def _load_trajectory() -> list:
    """Existing entries; a legacy single-snapshot file becomes the
    preserved first entry of the new trajectory format."""
    try:
        old = json.loads(OUTPUT.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return []
    if "trajectory" in old:
        return list(old["trajectory"])
    # legacy single snapshot: event loop vs reference scan.
    return [{"entry": "ISSUE-5 event loop (preserved snapshot)",
             "bench": old.get("bench"),
             "workload": old.get("workload"),
             "kernels": old.get("kernels")}]


def test_bench_simcore_backend_speedups():
    results = {
        kind: _best_of(kind)
        for kind in ("memory_bound", "compute_bound", "irregular")
    }
    trajectory = _load_trajectory()
    trajectory.append({
        "entry": "backend comparison",
        "kernels": results,
    })
    if len(trajectory) > MAX_TRAJECTORY:
        trajectory = trajectory[:1] + trajectory[-(MAX_TRAJECTORY - 1):]
    doc = {
        "bench": "simcore_backends",
        "workload": (
            f"test_bench_simulator kernel shapes on {GPU}, "
            f"blocks={LAUNCH.blocks}, tpb={LAUNCH.threads_per_block}, "
            f"seed={SEED}, one SM, best of N interleaved process_time; "
            "entries appended per run, newest last"
        ),
        "trajectory": trajectory,
    }
    OUTPUT.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")

    for kind, r in results.items():
        assert r["bit_identical"], (
            f"{kind}: the driver diverged from the reference scan"
        )
        spx = r["backends"]["specialized"]["speedup_x"]
        assert spx >= SPECIALIZED_MIN_SPEEDUP, (
            f"{kind}: specialized driver {spx}x below "
            f"{SPECIALIZED_MIN_SPEEDUP}x: {r}"
        )
