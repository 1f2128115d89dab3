"""Measure the benchmark's baseline and its run-to-run spread.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

For every workload of ``BENCHMARK.json`` it runs ``run.py`` once per seed,
as a regression check would, and records each end-to-end metric's median and
its spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  It then
makes one traced run per workload at seed 0 and records the
per-layer metrics, together with the facts of the host.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    doc = json.loads(lines[-1])
    doc["report"] = lines[:-1]
    doc["run_s"] = time.monotonic() - t0
    return doc


def _host() -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy

    from repro.sim.backend import DEFAULT_BACKEND

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": DEFAULT_BACKEND,
        "machine": platform.machine(),
        "system": f"{platform.system()} {platform.release()}",
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", default=None,
                        help="write the record here (default: print it)")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    record = {"host": _host(), "run_seconds": bench["run_seconds"],
              "seeds": args.seeds, "workloads": {}}
    for name in names:
        runs = []
        for seed in _seeds(args.seeds):
            doc = _run(name, seed, bench["run_seconds"], 0)
            runs.append(doc)
            print(f"{name} seed {seed}: {doc['run_s']:.1f}s "
                  f"correct={doc['correct']} failed={doc['failed']} "
                  + " ".join(f"{k}={v['value']:.4g}"
                             for k, v in doc["metrics"].items()),
                  file=sys.stderr, flush=True)
        entry = {"end_to_end": {}, "failed": sum(r["failed"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs),
                 "correct": all(r["correct"] for r in runs),
                 "run_s_max": max(r["run_s"] for r in runs)}
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry["end_to_end"][metric["name"]] = {
                "unit": metric["unit"], "median": median,
                "spread": (q3 - q1) / median, "bound": metric["bound"],
                "values": values,
            }
        entry["printed"] = [line.strip() for line in runs[0]["report"]]
        traced = _run(name, 0, bench["run_seconds"], 1)
        entry["per_layer"] = {k: v["value"]
                              for k, v in traced["metrics"].items()}
        entry["traced_report"] = [line.strip() for line in traced["report"]]
        record["workloads"][name] = entry
    text = json.dumps(record, indent=1, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
