"""Child-process side of the benchmark.

Each role runs one piece of a workload against the program in a fresh
interpreter and writes what it measured and checked to ``--out`` as
JSON.  ``run.py`` starts these; run one by hand from the root of a
checkout to debug it::

    python3 perfbench/worker.py suites --mode cold --seed 0 --jobs 2 \\
        --out /tmp/cold.json

A role prints nothing that ``run.py`` reads; program output goes to
the log file ``run.py`` attaches.  Everything after the timed region
(correctness checks, memory readings) is outside the timing, and with
``--trace-dir`` the span wrappers are switched off before it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import gate, procs  # noqa: E402

#: the six bundled suites, in the order the CLI lists them.
ALL_SUITES = ("rodinia", "altis", "parboil", "shoc", "cuda_samples", "synth")
COLD_SUITES = ("rodinia", "altis")
#: reference re-simulations per run at seeds other than 0.
REFERENCE_SAMPLE = 3


def _sha(text: str) -> str:
    """Digest of a result document.  ``result_to_json`` orders some
    keys by set iteration, which varies between processes, so the
    document is compared with sorted keys."""
    canonical = json.dumps(json.loads(text), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def _digest(texts: dict[str, str], parse: bool = True) -> str:
    h = hashlib.sha256()
    for key in sorted(texts):
        text = _sha(texts[key]) if parse else texts[key]
        h.update(key.encode() + b"\0" + text.encode() + b"\0")
    return h.hexdigest()


class _Trace:
    """The traced run's tracer, or a no-op for the untraced run."""

    def __init__(self, trace_dir: str | None) -> None:
        self.tracer = None
        if trace_dir:
            from perfbench import tracing

            self.tracer = tracing.install(Path(trace_dir))

    def root(self):
        from contextlib import nullcontext

        if self.tracer is None:
            return nullcontext()
        from perfbench.tracing import ROOT_SPAN

        return self.tracer.span(ROOT_SPAN)

    def stop(self, engine=None) -> None:
        """Record ``engine``'s counts, dump the spans so far and record
        no more."""
        if self.tracer is not None:
            if engine is not None:
                self.tracer.note_engine(engine)
            self.tracer.enabled = False
            self.tracer.dump()


def _setup(workload: str) -> dict:
    """Imports and suite build: the program's own set-up."""
    from repro.lint import bundled_suites

    if workload == "bundle":
        from repro.experiments import generate_all  # noqa: F401
    else:
        from repro.core.report import level1_report  # noqa: F401
        from repro.experiments.runner import profile_suite  # noqa: F401
        from repro.io.results_json import result_to_json  # noqa: F401
        from repro.sim.engine import engine_context  # noqa: F401
    return bundled_suites()


# ---------------------------------------------------------------------------
# suites_cold_jN / suites_warm_j1
# ---------------------------------------------------------------------------

def _suite_pass(gpu: str, suites: dict, names, level: int, seed: int,
                texts: dict[str, str]) -> list[str]:
    """Profile, analyze and render every app of ``names`` the way
    ``gpu-topdown analyze --suite`` does; returns quarantined apps."""
    from repro.core.report import level1_report, level3_report
    from repro.experiments.runner import profile_suite
    from repro.io.results_json import result_to_json

    quarantined = []
    for name in names:
        run = profile_suite(gpu, suites[name], level=level, seed=seed)
        results = list(run.results.values())
        if level == 1:
            level1_report(results, run.quarantined)
        else:
            level3_report(results, quarantined=run.quarantined)
        for app, result in run.results.items():
            texts[f"L{level}|{gpu}|{name}|{app}"] = result_to_json(result)
        quarantined += [f"{gpu}|{name}|{app}" for app in run.quarantined]
    return quarantined


def _app_counters(engine, suites, names, seed) -> dict[str, dict]:
    """Per-app counters merged over invocations, keyed like the golden
    fixture, read back through ``engine`` (memo or store)."""
    from repro.arch.registry import get_gpu
    from repro.experiments.runner import PAPER_GPUS
    from repro.io.counters_json import counters_to_doc
    from repro.sim.config import SimConfig
    from repro.sim.counters import EventCounters

    config = SimConfig(seed=seed)
    out = {}
    for gpu in PAPER_GPUS:
        spec = get_gpu(gpu)
        for name in names:
            for app in suites[name]:
                merged = EventCounters()
                for inv in app.invocations:
                    merged.merge(engine.simulate(
                        spec, inv.program, inv.launch, config).counters)
                out[f"{gate.GOLDEN_GPU[gpu]}|{name}|{app.name}"] = (
                    counters_to_doc(merged))
    return out


def _reference_mismatches(engine, suites, names, seed, k) -> list[str]:
    """Re-simulate a seeded sample of ``k`` cells with the reference
    backend; compare with what ``engine`` holds for them."""
    from repro.arch.registry import get_gpu
    from repro.experiments.runner import PAPER_GPUS
    from repro.io.counters_json import counters_to_doc
    from repro.sim.backend import backend_context
    from repro.sim.config import SimConfig
    from repro.sim.gpu import GPUSimulator

    config = SimConfig(seed=seed)
    cells = [(gpu, name, app, i) for gpu in PAPER_GPUS for name in names
             for app in suites[name] for i in range(len(app.invocations))]
    out = []
    for gpu, name, app, i in random.Random(seed).sample(cells, k):
        spec = get_gpu(gpu)
        inv = app.invocations[i]
        have = engine.simulate(spec, inv.program, inv.launch, config)
        with backend_context("reference"):
            ref = GPUSimulator(spec, config).launch_uncached(
                inv.program, inv.launch)
        if counters_to_doc(have.counters) != counters_to_doc(ref.counters):
            out.append(f"{gpu}|{name}|{app.name}#{i}: differs from the "
                       "reference backend")
    return out


def _counter_gate(engine, suites, names, seed) -> list[str]:
    if seed == 0:
        return gate.counter_mismatches(
            _app_counters(engine, suites, names, seed),
            gate.load_golden(ROOT))
    return _reference_mismatches(engine, suites, names, seed,
                                 REFERENCE_SAMPLE)


def role_suites(args) -> dict:
    trace = _Trace(args.trace_dir)
    suites = _setup("suites")
    from repro.experiments.runner import PAPER_GPUS
    from repro.sim.engine import engine_context

    if args.mode == "cold":
        with engine_context(jobs=args.jobs) as engine:
            ready = time.monotonic()
            texts: dict[str, str] = {}
            with trace.root():
                t0 = time.perf_counter()
                quarantined = [
                    app for gpu in PAPER_GPUS for app in _suite_pass(
                        gpu, suites, COLD_SUITES, 3, args.seed, texts)]
                walls = [time.perf_counter() - t0]
            trace.stop(engine)
            hwm = procs.tree_hwm_kb()
            mismatches = _counter_gate(engine, suites, COLD_SUITES, args.seed)
            quarantined += [q.cell for q in engine.health.quarantined.values()]
        rounds = 1
    else:
        expected = json.loads(Path(args.expect).read_text())
        ready = time.monotonic()
        walls, quarantined, mismatches = [], [], []
        texts = {}
        while (len(walls) < args.rounds if args.rounds
               else not walls or sum(walls) < args.seconds):
            texts = {}
            simulated = 0
            with trace.root():
                t0 = time.perf_counter()
                for level in (1, 3):
                    for gpu in PAPER_GPUS:
                        with engine_context(jobs=1,
                                            cache_dir=args.store) as engine:
                            quarantined += _suite_pass(
                                gpu, suites, ALL_SUITES, level, args.seed,
                                texts)
                            simulated += engine.stats.sim_calls
                            quarantined += [
                                q.cell for q in
                                engine.health.quarantined.values()]
                walls.append(time.perf_counter() - t0)
            if simulated:
                mismatches.append(
                    f"round {len(walls)}: {simulated} cell(s) simulated "
                    "in a warm pass")
            mismatches += [
                f"{key}: warm result differs from the cold one"
                for key, text in sorted(texts.items())
                if expected.get(key) != _sha(text)]
        trace.stop()
        hwm = procs.tree_hwm_kb()
        rounds = len(walls)
        with engine_context(jobs=1, cache_dir=args.store) as engine:
            mismatches += _counter_gate(engine, suites, ALL_SUITES, args.seed)
    return {
        "ready": ready, "walls": walls, "hwm_kb": hwm, "pid": os.getpid(),
        "digest": _digest(texts), "attempted": len(texts) * rounds,
        "quarantined": quarantined, "mismatches": mismatches,
    }


def role_fill(args) -> dict:
    """Warm-workload set-up: simulate every cell into the store and
    keep the cold results the warm passes must reproduce."""
    suites = _setup("suites")
    from repro.experiments.runner import PAPER_GPUS
    from repro.sim.engine import engine_context

    texts: dict[str, str] = {}
    with engine_context(jobs=args.jobs, cache_dir=args.store):
        for level in (1, 3):
            for gpu in PAPER_GPUS:
                _suite_pass(gpu, suites, ALL_SUITES, level, args.seed, texts)
    Path(args.expect).write_text(json.dumps(
        {key: _sha(text) for key, text in texts.items()}))
    return {"results": len(texts)}


# ---------------------------------------------------------------------------
# bundle_j1
# ---------------------------------------------------------------------------

#: bundle CSVs whose rows are per-app level-3 results of a suite run:
#: file -> (GPU, suite).
BUNDLE_ROWS = {
    "fig05_pascal.csv": ("NVIDIA GTX 1070", "rodinia"),
    "fig05_turing.csv": ("NVIDIA Quadro RTX 4000", "rodinia"),
    "fig08.csv": ("NVIDIA Quadro RTX 4000", "altis"),
}
BUNDLE_SAMPLE = 2


def _bundle_reference(out_dir: Path, suites: dict, seed: int) -> list[str]:
    """Recompute a seeded sample of per-app CSV rows of the bundle with
    the reference backend and compare them with the written rows."""
    from repro.experiments.generate_all import _level_csv
    from repro.experiments.runner import profile_application
    from repro.sim.backend import backend_context

    rows = []
    for fname, (gpu, suite) in BUNDLE_ROWS.items():
        lines = (out_dir / fname).read_text().splitlines()[1:]
        rows += [(fname, gpu, suite, line) for line in lines]
    out = []
    for fname, gpu, suite, line in random.Random(seed).sample(
            rows, BUNDLE_SAMPLE):
        name = line.split(",")[0]
        app = next(a for a in suites[suite] if a.name == name)
        with backend_context("reference"):
            _, result = profile_application(gpu, app, level=3, seed=seed)
        if _level_csv({name: result}).splitlines()[1] != line:
            out.append(f"{fname}:{name}: row differs from the reference "
                       "backend")
    return out


def role_bundle(args) -> dict:
    trace = _Trace(args.trace_dir)
    suites = _setup("bundle")
    from repro.experiments import generate_all

    out_dir = Path(args.output)
    ready = time.monotonic()
    with trace.root():
        t0 = time.perf_counter()
        rc = generate_all.main(
            ["--output", str(out_dir), "--seed", str(args.seed)])
        wall = time.perf_counter() - t0
    trace.stop()
    hwm = procs.tree_hwm_kb()
    mismatches = [] if rc == 0 else [f"generate_all exited {rc}"]
    found, known = gate.bundle_diff(out_dir, ROOT / gate.ARTIFACTS,
                                    contents=args.seed == 0)
    mismatches += found
    if args.seed != 0:
        mismatches += _bundle_reference(out_dir, suites, args.seed)
    files = {p.name: p.read_text() for p in out_dir.iterdir()
             if p.is_file() and p.name not in gate.VOLATILE}
    return {
        "ready": ready, "walls": [wall], "hwm_kb": hwm, "pid": os.getpid(),
        "digest": _digest(files, parse=False), "attempted": len(files),
        "quarantined": [], "mismatches": mismatches, "known": known,
    }


# ---------------------------------------------------------------------------
# service_mixed
# ---------------------------------------------------------------------------

def role_prefill(args) -> dict:
    """Fill a daemon state dir's store with seed-0 results of the cold
    suites, under the daemon's byte cap."""
    suites = _setup("suites")
    from repro.experiments.runner import PAPER_GPUS, profile_suite
    from repro.sim.engine import engine_context
    from repro.sim.result_cache import EvictingResultCache

    store = EvictingResultCache(Path(args.state) / "store",
                                max_bytes=args.cap)
    with engine_context(jobs=args.jobs, cache=store):
        for gpu in PAPER_GPUS:
            for name in COLD_SUITES:
                profile_suite(gpu, suites[name], level=3, seed=0)
    return {
        "gpus": list(PAPER_GPUS),
        "apps": [[name, app.name] for name in COLD_SUITES
                 for app in suites[name]],
    }


def role_check_service(args) -> dict:
    """Recompute sampled jobs in-process; compare with what the daemon
    served."""
    suites = _setup("suites")
    from repro.experiments.runner import profile_application
    from repro.io.results_json import result_to_json

    mismatches = []
    samples = json.loads(Path(args.samples).read_text())
    for sample in samples:
        spec = sample["spec"]
        app = next(a for a in suites[spec["suite"]] if a.name == spec["app"])
        _, result = profile_application(spec["gpu"], app,
                                        level=spec["level"],
                                        seed=spec["seed"])
        if json.loads(result_to_json(result)) != sample["result"]:
            mismatches.append(f"job {sample['job']}: served result differs "
                              "from profile_application")
    return {"attempted": len(samples), "mismatches": mismatches}


def role_serve(argv: list[str]) -> int:
    """``gpu-topdown serve`` with the span wrappers installed."""
    trace_dir, argv = argv[0], argv[1:]
    trace = _Trace(trace_dir)
    from repro.cli import main

    try:
        return main(argv)
    finally:
        trace.stop()


def role_setup(args) -> dict:
    """Set-up probe: start, set up like ``--mode``, report ready."""
    _setup(args.mode)
    if args.mode == "cold":
        from repro.sim.engine import engine_context

        with engine_context(jobs=args.jobs):
            return {"ready": time.monotonic()}
    return {"ready": time.monotonic()}


ROLES = {
    "setup": role_setup,
    "suites": role_suites,
    "fill": role_fill,
    "bundle": role_bundle,
    "prefill": role_prefill,
    "check-service": role_check_service,
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "serve":
        return role_serve(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=sorted(ROLES))
    parser.add_argument("--out", required=True)
    parser.add_argument("--mode", choices=["cold", "warm", "bundle"],
                        default="cold")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--rounds", type=int, default=0,
                        help="warm rounds to run (default: until --seconds)")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--store")
    parser.add_argument("--expect")
    parser.add_argument("--output")
    parser.add_argument("--state")
    parser.add_argument("--cap", type=int)
    parser.add_argument("--samples")
    parser.add_argument("--trace-dir")
    args = parser.parse_args(argv)
    report = ROLES[args.role](args)
    Path(args.out).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
