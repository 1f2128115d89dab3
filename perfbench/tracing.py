"""Benchmark-side spans around the program's public layer entry points.

The traced run installs thin wrappers on the functions and methods in
:data:`LAYER_TARGETS` before the workload starts, so every call into a
layer opens a span: ``name``, ``layer``, start, end, parent span and a
request id shared by the spans of one app profile or one service job.
Spans stay in memory and are written to ``spans-<pid>.json`` when the
process ends; forked pool workers inherit the wrappers and write their
own file.  :func:`summarize` folds every file of a run into the
per-layer metrics.

A layer's *self time* is its span's duration minus that of its direct
child spans.  Its *share* is its self time over the traced time: the
summed duration of every top-level span of every thread and process.
Grouping spans (``layer`` ``None``: the timed region, an app profile,
a service job) own no layer, so their self time is the part of the
wall no layer accounts for.

The program never imports this module, and the program processes of an
untraced run never install it.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from perfbench.stats import median

# span record slots (a list, so closing a span is one store).
NAME, LAYER, T0, T1, PARENT, TID, REQ, INFO = range(8)

#: names of the grouping spans opened by the benchmark itself.
ROOT_SPAN = "timed"
APP_SPAN = "profiler.app"
JOB_SPAN = "service.job"


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self.spans: list[list] = []
        self.engines: list[dict] = []
        self._local = threading.local()
        self._req_seq = 0
        self.pid = os.getpid()
        #: cleared once the timed region ends.
        self.enabled = True

    def stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, layer, req=None) -> list:
        stack = self.stack()
        parent = stack[-1] if stack else None
        if req is None and parent is not None:
            req = parent[REQ]
        rec = [name, layer, 0.0, None, parent, threading.get_ident(),
               req, None]
        stack.append(rec)
        rec[T0] = time.perf_counter()
        return rec

    def close(self, rec: list) -> None:
        rec[T1] = time.perf_counter()
        self.stack().pop()
        self.spans.append(rec)

    @contextmanager
    def span(self, name: str, layer=None, req=None):
        rec = self.open(name, layer, req)
        try:
            yield rec
        finally:
            self.close(rec)

    def note_engine(self, engine) -> None:
        """Keep an engine's work counts (read when it closes)."""
        self.engines.append({
            "jobs": engine.jobs, "sim_calls": engine.stats.sim_calls,
            "memo_hits": engine.stats.memo_hits,
        })

    def new_request(self, label: str) -> str:
        self._req_seq += 1
        return f"{label}#{self._req_seq}"

    def after_fork(self) -> None:
        """Start clean in a forked pool worker and dump at its exit."""
        from multiprocessing.util import Finalize

        self.spans = []
        self.engines = []
        self._local = threading.local()
        self.pid = os.getpid()
        Finalize(self, Tracer.dump, args=(self,), exitpriority=10)

    def dump(self) -> None:
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        main = threading.main_thread().ident
        rows = [
            [r[NAME], r[LAYER], r[T0], r[T1],
             index.get(id(r[PARENT]), -1) if r[PARENT] is not None else -1,
             r[TID] == main, r[REQ], r[INFO]]
            for r in self.spans
        ]
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{self.pid}.json"
        path.write_text(json.dumps({
            "pid": self.pid, "engines": self.engines, "spans": rows,
        }))


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------

def _wrap(tracer: Tracer, fn, name: str, layer, info=None, req=None):
    """Span around every call of ``fn``.  A call nested directly in a
    span of the same name (a subclass method calling ``super()``, a
    report calling another report) stays inside the outer span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        stack = tracer.stack()
        if stack and stack[-1][NAME] == name:
            return fn(*args, **kwargs)
        rec = tracer.open(name, layer,
                          req(tracer, stack, args, kwargs) if req else None)
        before = info.before(args) if info else None
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(rec)
        if info:
            rec[INFO] = info.after(out, args, before)
        return out

    return wrapper


def _wrap_stage(tracer: Tracer, fn):
    """``ExecutionEngine.stage`` is a context manager: span its body."""

    @contextmanager
    @functools.wraps(fn)
    def wrapper(self, name, *args, **kwargs):
        if not tracer.enabled:
            with fn(self, name, *args, **kwargs):
                yield
            return
        with tracer.span(f"stage:{name}", "experiments"):
            with fn(self, name, *args, **kwargs):
                yield

    return wrapper


class _Info:
    """What a wrapper records about a call (``before`` runs just
    before it, ``after`` once its span is closed)."""

    def __init__(self, after, before=None) -> None:
        self.after = after
        self.before = before or (lambda args: None)


def _driver_built_before(args):
    from repro.sim import specialize

    return len(specialize._DRIVER_CACHE)


def _driver_built_after(out, args, before):
    from repro.sim import specialize

    if len(specialize._DRIVER_CACHE) > before and not isinstance(out, str):
        return len(out.source)
    return None


def _evictions_before(args):
    return getattr(args[0], "evictions", 0)


def _app_request(tracer, stack, args, kwargs):
    parent = stack[-1] if stack else None
    if parent is not None and parent[REQ] is not None:
        return parent[REQ]
    tool, app = args[0], args[1]
    return tracer.new_request(f"{tool.spec.name}/{app.name}")


def _job_request(tracer, stack, args, kwargs):
    gpu, app = args[0], args[1]
    name = gpu if isinstance(gpu, str) else gpu.name
    return tracer.new_request(
        f"{name}/{app.name}/seed{kwargs.get('seed', 0)}")


#: (module, attribute, span name, layer, info).  A dotted attribute is
#: ``Class.method``; a plain one is a module-level function, replaced
#: in every ``repro`` module that imported it by name.
LAYER_TARGETS = [
    ("repro.lint.runner", "bundled_suites", "workloads.build",
     "workloads", None),
    ("repro.workloads.rodinia", "rodinia", "workloads.build",
     "workloads", None),
    ("repro.workloads.altis", "altis", "workloads.build", "workloads", None),
    ("repro.workloads.parboil", "parboil", "workloads.build",
     "workloads", None),
    ("repro.workloads.shoc", "shoc", "workloads.build", "workloads", None),
    ("repro.workloads.cuda_samples", "cuda_samples", "workloads.build",
     "workloads", None),
    ("repro.workloads.synth", "synthetic", "workloads.build",
     "workloads", None),
    ("repro.sim.fingerprint", "sim_fingerprint", "fingerprint",
     "fingerprint", _Info(lambda out, args, b: out[:16])),
    ("repro.sim.result_cache", "SimResultCache.load", "cache.load",
     "cache", _Info(lambda out, args, b: out is not None)),
    ("repro.sim.result_cache", "EvictingResultCache.load", "cache.load",
     "cache", _Info(lambda out, args, b: out is not None)),
    ("repro.sim.result_cache", "SimResultCache.store", "cache.store",
     "cache", None),
    ("repro.sim.result_cache", "EvictingResultCache.store", "cache.store",
     "cache", _Info(lambda out, args, b: args[0].evictions > b,
                    _evictions_before)),
    ("repro.sim.specialize", "driver_for", "specialize", "specialize",
     _Info(_driver_built_after, _driver_built_before)),
    ("repro.sim.sm", "SMSimulator.run", "loop", "loop",
     _Info(lambda out, args, b: [out.cycles_elapsed, out.inst_executed])),
    ("repro.sim.engine", "ExecutionEngine.simulate_batch", "engine.batch",
     "engine", None),
    ("repro.sim.engine", "ExecutionEngine.simulate", "engine.simulate",
     "engine", None),
    ("repro.sim.engine", "_simulate_kernel_cell", "engine.cell", "engine",
     _Info(lambda out, args, b: args[0][:16])),
    ("repro.pmu.passes", "schedule_passes", "pmu.plan", "pmu", None),
    ("repro.pmu.cupti", "CuptiSession.collect", "pmu.collect", "pmu",
     _Info(lambda out, args, b: out.plan.num_passes)),
    ("repro.core.analyzer", "TopDownAnalyzer.analyze_application",
     "core.analyze", "core", None),
    ("repro.core.report", "hierarchy_report", "render", "render", None),
    ("repro.core.report", "level1_report", "render", "render", None),
    ("repro.core.report", "level2_report", "render", "render", None),
    ("repro.core.report", "level3_report", "render", "render", None),
    ("repro.core.markdown_report", "markdown_report", "render", "render",
     None),
    ("repro.io.results_json", "result_to_json", "render", "render", None),
    ("repro.resilience.checkpoint", "RunJournal.record", "journal.record",
     "journal", None),
    ("repro.service.manager", "ServiceManager.submit", "service.submit",
     "service", _Info(lambda out, args, b: len(args[0]._queue))),
    ("repro.service.journal", "ServiceJournal.record_submit",
     "service.journal", "service", None),
    ("repro.service.journal", "ServiceJournal.record_attempt",
     "service.journal", "service", None),
    ("repro.service.journal", "ServiceJournal.record_done",
     "service.journal", "service", None),
]

#: every layer a span can belong to, in the order a run passes them.
LAYERS = ("workloads", "fingerprint", "cache", "specialize", "loop",
          "engine", "pmu", "core", "render", "experiments", "journal",
          "service")

#: every experiment module's ``render`` is a rendering entry point.
EXPERIMENT_MODULES = (
    "table9", "tables_metrics", "fig03", "fig04", "fig05", "fig06", "fig07",
    "fig08", "fig09", "fig10", "fig11_12", "fig13", "ext_sampling",
    "ext_cross_arch", "ext_suites",
)


def _replace_everywhere(original, wrapper) -> None:
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)


def _patch(module_name: str, attr: str, make) -> None:
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(module, cls_name)
        setattr(cls, meth, make(vars(cls)[meth]))
    else:
        original = getattr(module, attr)
        _replace_everywhere(original, make(original))


def install(out_dir: Path) -> Tracer:
    """Wrap every layer entry point; returns the process's tracer."""
    from multiprocessing.util import register_after_fork

    tracer = Tracer(out_dir)
    # import everything first, so names bound by ``from x import f``
    # at import time are found and replaced too.
    for name in ("repro.experiments", "repro.experiments.generate_all",
                 "repro.experiments.runner", "repro.service.daemon",
                 "repro.sim.backend", "repro.sim.sm_reference",
                 "repro.sim.specialize", "repro.io"):
        importlib.import_module(name)
    for module, attr, name, layer, info in LAYER_TARGETS:
        _patch(module, attr, lambda fn, n=name, lay=layer, i=info:
               _wrap(tracer, fn, n, lay, i))
    for mod in EXPERIMENT_MODULES:
        _patch(f"repro.experiments.{mod}", "render",
               lambda fn: _wrap(tracer, fn, "render", "render"))
    _patch("repro.profilers.base", "ProfilerTool.profile_application",
           lambda fn: _wrap(tracer, fn, APP_SPAN, None, req=_app_request))
    _patch("repro.experiments.runner", "profile_application",
           lambda fn: _wrap(tracer, fn, JOB_SPAN, None, req=_job_request))
    _patch("repro.sim.engine", "ExecutionEngine.stage",
           lambda fn: _wrap_stage(tracer, fn))
    _patch("repro.sim.engine", "ExecutionEngine.close",
           lambda fn: _snapshot_engine(tracer, fn))
    register_after_fork(tracer, Tracer.after_fork)
    return tracer


def _snapshot_engine(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(self):
        if tracer.enabled:
            tracer.note_engine(self)
        return fn(self)

    return wrapper


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def load_spans(trace_dir: Path) -> list[dict]:
    return [json.loads(p.read_text())
            for p in sorted(Path(trace_dir).glob("spans-*.json"))]


def summarize(files: list[dict], main_pid: int, jobs: int) -> dict:
    """Per-layer metrics of one traced run.

    ``main_pid`` is the process whose main thread ran the timed region
    (or, for the service, the daemon).  Layer seconds are summed over
    every process, pool workers included, so on a parallel workload
    they can exceed the wall.
    """
    layer_s: dict = defaultdict(float)
    name_s: dict = defaultdict(float)
    count: dict = defaultdict(int)
    fingerprints: list[str] = []
    cells: list[str] = []
    cell_times: list[float] = []
    worker_cell_time = 0.0
    engine_main_s = 0.0
    engine_root_time = 0.0
    cache_hits = 0
    evicting_stores = 0
    drivers = []
    loop_cycles = 0
    loop_inst = 0
    passes = 0
    stages: dict = defaultdict(float)
    roots = 0.0
    unattributed = 0.0
    traced_s = 0.0
    engines: list[dict] = []
    for doc in files:
        spans = doc["spans"]
        on_main_pid = doc["pid"] == main_pid
        engines.extend(doc["engines"])
        child_time = [0.0] * len(spans)
        for rec in spans:
            if rec[PARENT] >= 0:
                child_time[rec[PARENT]] += rec[T1] - rec[T0]
        for i, (name, layer, t0, t1, parent, on_main, req, info) in (
                enumerate(spans)):
            dur = t1 - t0
            own = dur - child_time[i]
            if parent < 0:
                traced_s += dur
            name_s[name] += own
            count[name] += 1
            if layer is not None:
                layer_s[layer] += own
            if name == "fingerprint":
                fingerprints.append(info)
            elif name == "engine.cell":
                cells.append(info)
                cell_times.append(dur)
                if not on_main_pid:
                    worker_cell_time += dur
            elif name == "cache.load" and info:
                cache_hits += 1
            elif name == "cache.store" and info:
                evicting_stores += 1
            elif name == "specialize" and info is not None:
                drivers.append((own, info))
            elif name == "loop":
                loop_cycles += info[0]
                loop_inst += info[1]
            elif name == "pmu.collect":
                passes += info
            elif name.startswith("stage:"):
                stages[name[len("stage:"):]] += dur
            if not on_main_pid:
                continue
            if layer == "engine":
                engine_main_s += own
                if on_main and (parent < 0 or spans[parent][LAYER] != "engine"):
                    engine_root_time += dur
            # the share of the wall no layer accounts for: grouping
            # spans' own time inside the driving roots.
            if layer is None:
                if name == ROOT_SPAN or (name == JOB_SPAN and parent < 0):
                    roots += dur
                unattributed += own
    keys = len(set(fingerprints))
    sim_calls = sum(e["sim_calls"] for e in engines)
    memo_hits = sum(e["memo_hits"] for e in engines)
    loop_s = layer_s["loop"]
    loads = count["cache.load"]
    stores = count["cache.store"]
    shares = {f"{layer}.share": layer_s[layer] / traced_s if traced_s else 0.0
              for layer in LAYERS}
    return shares | {
        "workloads.build_s": layer_s["workloads"],
        "fingerprint.calls": len(fingerprints),
        "fingerprint.keys": keys,
        "fingerprint.calls_per_key": len(fingerprints) / keys if keys else 0.0,
        "fingerprint.s": layer_s["fingerprint"],
        "cache.loads": loads,
        "cache.hit_ratio": cache_hits / loads if loads else 0.0,
        "cache.load_s": name_s["cache.load"],
        "cache.store_s": name_s["cache.store"],
        "store.evictions": evicting_stores,
        "store.evicted_share": evicting_stores / stores if stores else 0.0,
        "specialize.drivers_built": len(drivers),
        "specialize.codegen_s": sum(own for own, _ in drivers),
        "specialize.source_kb": sum(size for _, size in drivers) / 1024,
        "loop.cells": count["loop"],
        "loop.s": loop_s,
        "loop.sim_cycles": loop_cycles,
        "loop.inst_per_s": loop_inst / loop_s if loop_s else 0.0,
        "engine.sim_calls": sim_calls,
        "engine.memo_hits": memo_hits,
        "engine.memo_hit_ratio": (memo_hits / (memo_hits + sim_calls)
                                  if memo_hits + sim_calls else 0.0),
        "engine.redundant_sims": len(cells) - len(set(cells)),
        "engine.dispatch_s": engine_main_s,
        "engine.pool_busy_ratio": (
            worker_cell_time / (jobs * engine_root_time)
            if engine_root_time and jobs > 1 else 0.0),
        "engine.cell_max_s": max(cell_times, default=0.0),
        "pmu.plan_s": name_s["pmu.plan"],
        "pmu.collect_s": name_s["pmu.collect"],
        "pmu.passes": passes,
        "core.results": count["core.analyze"],
        "core.analyze_s": layer_s["core"],
        "render.s": layer_s["render"],
        "journal.records": count["journal.record"],
        "journal.record_s": layer_s["journal"],
        "stages": dict(stages),
        "trace.unattributed_share": unattributed / roots if roots else 0.0,
    }


def service_summary(files: list[dict]) -> dict:
    """Daemon-side service metrics: the deepest queue seen by a submit,
    median journal-append and job-execution times, and the share of
    executed warm (seed-0) jobs that simulated no cell."""
    queue, journal_ms, job_ms = [0], [], []
    warm, simulated = set(), set()
    for doc in files:
        for name, _, t0, t1, parent, _, req, info in doc["spans"]:
            if name == "service.submit":
                queue.append(info)
            elif name == "service.journal":
                journal_ms.append((t1 - t0) * 1e3)
            elif name == JOB_SPAN and parent < 0:
                job_ms.append((t1 - t0) * 1e3)
                if req.split("#")[0].endswith("/seed0"):
                    warm.add(req)
            elif name == "loop":
                simulated.add(req)
    return {
        "service.queue_depth_max": max(queue),
        "service.journal_append_ms": median(journal_ms),
        "service.job_exec_ms": median(job_ms),
        "service.warm_served_share": (
            len(warm - simulated) / len(warm) if warm else 0.0),
    }
