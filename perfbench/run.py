"""Run one workload of the repository benchmark at one seed.

    python3 perfbench/run.py --workload suites_cold_jN --seed 0 \\
        --seconds 10 --trace 0

Run it from the root of a checkout.  It prints every metric by name
with its unit and sample count, then, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  See ``perfbench/README.md`` for the workloads,
the metrics and the correctness gate.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import gate, procs, stats  # noqa: E402
from perfbench.workloads import WORKLOADS, Run, WorkloadError  # noqa: E402

#: what a checkout must hold besides the benchmark itself.
REQUIRED = (Path("src") / "repro", gate.ARTIFACTS, gate.GOLDEN)


def _metric_line(name: str, value: float, unit: str, note: str) -> str:
    return f"  {name:<28} {value:>14.6g} {unit:<9} {note}"


def _end_to_end(run: Run, spec: list[dict]) -> dict[str, float]:
    harness_kb = procs.hwm_kb(os.getpid())
    values = {
        "setup_s": (stats.median(run.setups),
                    f"median of {len(run.setups)} start(s)"),
        "wall_s": (stats.median(run.walls),
                   f"median of {len(run.walls)} operation(s)"),
        "peak_rss_mb": ((stats.median(run.hwm_kb) + harness_kb) / 1024,
                        f"median of {len(run.hwm_kb)} process tree(s)"),
    }
    out = {}
    for metric in spec:
        value, note = values[metric["name"]]
        print(_metric_line(metric["name"], value, metric["unit"], note))
        out[metric["name"]] = value
    for name, (value, unit, note) in run.extra.items():
        print(_metric_line(name, value, unit, note))
    return out


def _per_layer(run: Run, spec: list[dict]) -> dict[str, float]:
    units = {m["name"]: m["unit"] for m in spec}
    for name, value in sorted(run.per_layer.items()):
        unit = units.get(name, "ms" if name.endswith("_ms") else "s"
                         if name.endswith(("_s", ".s")) else "")
        print(_metric_line(name, value, unit,
                           "" if name in units else "(printed only)"))
    return {m["name"]: run.per_layer.get(m["name"], 0.0) for m in spec}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [str(p) for p in REQUIRED if not (ROOT / p).exists()]
    if missing:
        print(f"error: not a checkout of the repository "
              f"(missing {', '.join(missing)})", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    run = Run(ROOT, args.seed, args.seconds, bool(args.trace))
    shutil.rmtree(run.dir, ignore_errors=True)  # left by a killed run
    run.dir.mkdir(parents=True)
    try:
        WORKLOADS[args.workload](run)
    except WorkloadError as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        if run.trace_dir.exists():
            kept = ROOT / ".perfbench" / "traces" / (
                f"{args.workload}-seed{args.seed}")
            shutil.rmtree(kept, ignore_errors=True)
            kept.parent.mkdir(parents=True, exist_ok=True)
            run.trace_dir.rename(kept)
        shutil.rmtree(run.dir, ignore_errors=True)

    ledger = run.ledger
    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    if args.trace:
        metrics = _per_layer(run, bench["per_layer"])
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    else:
        metrics = _end_to_end(run, bench["end_to_end"])
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    print(_metric_line("failed_ratio", ledger.ratio, "fraction",
                       f"{ledger.failed} of {ledger.attempted} operations"))
    for line in run.details:
        print(f"  {line}")
    for kind, detail in ledger.failures:
        print(f"  FAILED ({kind}): {detail}")
    print(json.dumps({
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": value if math.isfinite(value) else 0.0,
                   "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
