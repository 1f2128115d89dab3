"""Harness side of the four workloads.

Every piece of program work runs in a child process (``worker.py`` or
the ``gpu-topdown serve`` daemon), so this process never imports the
program: its own memory stays small and fixed, and each measured
process starts cold.  Each workload function fills a :class:`Run` with
set-up samples, timed walls, peak memory, the ledger of attempted and
failed operations and, for the traced run, per-layer metrics.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from perfbench import gate, procs, stats, tracing
from perfbench.stream import job_stream

#: workers, threads or connections a workload may use at once.
NPROC = os.cpu_count() or 1
#: fresh set-up-only processes per run, besides the measured ones.
SETUP_PROBES = 2
#: the service store's byte cap: above the pre-filled seed-0 cells
#: (116 304 bytes), so warm jobs start from a full store, and below
#: the stream's working set, so cold jobs' stores evict.
SERVICE_STORE_CAP = 120_000
#: fixed interval between result polls of one client.
POLL_S = 0.01
#: pause between a probe daemon answering /healthz and its SIGTERM:
#: the daemon installs its drain handler just after it starts serving,
#: and a SIGTERM before that kills it instead of draining it.
PROBE_GRACE_S = 0.2
#: jobs recomputed in-process to check what the daemon served.
SERVICE_SAMPLE = 4
#: every process a run starts must end within this many seconds.
WORKER_TIMEOUT_S = 170


class WorkloadError(RuntimeError):
    """A child process failed; the run reports no result."""


class Run:
    """One benchmark run of one workload at one seed."""

    def __init__(self, root: Path, seed: int, seconds: float,
                 traced: bool) -> None:
        self.root = root
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.dir = root / ".perfbench" / f"run-{os.getpid()}"
        self.trace_dir = self.dir / "trace"
        self.ledger = gate.Ledger()
        self.setups: list[float] = []
        self.walls: list[float] = []
        self.hwm_kb: list[int] = []
        self.extra: dict[str, tuple[float, str, str]] = {}
        self.per_layer: dict[str, float] = {}
        self.details: list[str] = []
        self._files = 0
        self.started = time.monotonic()
        env = dict(os.environ)
        env.pop("GPU_TOPDOWN_JOBS", None)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src"), str(root)])
        self.env = env

    def path(self, name: str) -> Path:
        self._files += 1
        return self.dir / f"{self._files:03d}-{name}"

    def remaining(self) -> float:
        return max(1.0, WORKER_TIMEOUT_S - (time.monotonic() - self.started))

    def worker(self, role: str, *args, trace_dir: Path | None = None
               ) -> dict:
        """Run ``worker.py <role>`` to completion; return its report."""
        out = self.path(f"{role}.json")
        log = self.path(f"{role}.log")
        cmd = [sys.executable, str(self.root / "perfbench" / "worker.py"),
               role, "--out", str(out), *map(str, args)]
        if trace_dir is not None:
            cmd += ["--trace-dir", str(trace_dir)]
        spawned = time.monotonic()
        with open(log, "w") as fh:
            try:
                proc = subprocess.run(cmd, cwd=self.root, env=self.env,
                                      stdout=fh, stderr=subprocess.STDOUT,
                                      timeout=self.remaining())
            except subprocess.TimeoutExpired:
                raise WorkloadError(f"{role}: timed out") from None
        if proc.returncode != 0:
            raise WorkloadError(
                f"{role} exited {proc.returncode}:\n{_tail(log)}")
        report = json.loads(out.read_text())
        if "ready" in report:
            report["setup_s"] = report["ready"] - spawned
        return report

    def measured(self, report: dict) -> None:
        """Fold one measured worker's report into the run."""
        self.setups.append(report["setup_s"])
        self.walls += report["walls"]
        self.hwm_kb.append(report["hwm_kb"])
        self.ledger.worker_report(report)
        for note in report.get("known", []):
            if f"known difference: {note}" not in self.details:
                self.details.append(f"known difference: {note}")

    def probe_setup(self, workload: str) -> None:
        for _ in range(SETUP_PROBES):
            report = self.worker("setup", "--mode", workload,
                                 "--jobs", NPROC)
            self.setups.append(report["setup_s"])

    def traced_layers(self, untraced: dict, traced: dict,
                      main_pid: int, jobs: int) -> None:
        """Per-layer metrics from the spans, plus the tracing overhead
        and a digest comparison with the untraced run."""
        if untraced["digest"] != traced["digest"]:
            self.ledger.fail(gate.CHECK,
                             "traced output digest differs from untraced")
        files = tracing.load_spans(self.trace_dir)
        summary = tracing.summarize(files, main_pid, jobs)
        for name, secs in sorted(summary.pop("stages").items()):
            summary[f"stage.{name}_s"] = secs
        base = stats.median(untraced["walls"])
        overhead = stats.median(traced["walls"]) - base
        summary["trace.overhead_s"] = overhead
        summary["trace.overhead_share"] = overhead / base
        self.per_layer.update(summary)


def _tail(path: Path, lines: int = 20) -> str:
    return "\n".join(path.read_text(errors="replace").splitlines()[-lines:])


# ---------------------------------------------------------------------------
# batch workloads
# ---------------------------------------------------------------------------

def _trace_bracket(run: Run, jobs: int, make_args) -> None:
    """Traced run of a batch workload: a traced operation between two
    untraced ones at the same seed, each from ``make_args()``, so that
    a drift in host speed cancels out of the overhead."""
    before = run.worker(*make_args())
    traced = run.worker(*make_args(), trace_dir=run.trace_dir)
    after = run.worker(*make_args())
    for report in (before, after):
        run.measured(report)
        if report["digest"] != before["digest"]:
            run.ledger.fail(gate.CHECK, "untraced runs disagree")
    run.ledger.worker_report(traced)
    run.traced_layers({"digest": before["digest"],
                       "walls": before["walls"] + after["walls"]},
                      traced, traced["pid"], jobs)


def suites_cold_jn(run: Run) -> None:
    """Every app of rodinia and altis on both paper GPUs at level 3, in a
    fresh process at ``-j`` = nproc with no store (a user's first run)."""
    args = ("suites", "--mode", "cold", "--seed", run.seed, "--jobs", NPROC)
    if run.traced:
        _trace_bracket(run, NPROC, lambda: args)
        return
    run.probe_setup("cold")
    digests = set()
    while not run.walls or sum(run.walls) < run.seconds:
        report = run.worker(*args)
        run.measured(report)
        digests.add(report["digest"])
    if len(digests) > 1:
        run.ledger.fail(gate.CHECK, "batches at one seed disagree")


def suites_warm_j1(run: Run) -> None:
    """All six suites on both paper GPUs at level 1 then 3, serially,
    each (GPU, level) pass a fresh engine over a store filled in set-up."""
    store = run.dir / "store"
    expect = run.path("cold-results.json")
    run.worker("fill", "--seed", run.seed, "--store", store,
               "--expect", expect, "--jobs", NPROC)
    args = ("suites", "--mode", "warm", "--seed", run.seed, "--store", store,
            "--expect", expect)
    if run.traced:
        _trace_bracket(run, 1, lambda: (*args, "--rounds", 2))
        return
    run.probe_setup("warm")
    run.measured(run.worker(*args, "--seconds", run.seconds))


def bundle_j1(run: Run) -> None:
    """``generate_all`` at its defaults into an empty directory."""
    def args():
        return ("bundle", "--seed", run.seed, "--output", run.path("bundle"))

    if run.traced:
        _trace_bracket(run, 1, args)
        return
    run.probe_setup("bundle")
    while not run.walls or sum(run.walls) < run.seconds:
        run.measured(run.worker(*args()))


# ---------------------------------------------------------------------------
# service_mixed
# ---------------------------------------------------------------------------

class Daemon:
    """One ``gpu-topdown serve`` process over a state directory."""

    def __init__(self, run: Run, state: Path,
                 trace_dir: Path | None = None) -> None:
        port_file = run.path("port")
        serve = ["serve", "--state-dir", str(state), "--port", "0",
                 "--port-file", str(port_file),
                 "--store-max-bytes", str(SERVICE_STORE_CAP)]
        if trace_dir is None:
            cmd = [sys.executable, "-m", "repro.cli", *serve]
        else:
            cmd = [sys.executable, str(run.root / "perfbench" / "worker.py"),
                   "serve", str(trace_dir), *serve]
        self.log = run.path("serve.log")
        spawned = time.monotonic()
        with open(self.log, "w") as fh:
            self.proc = subprocess.Popen(cmd, cwd=run.root, env=run.env,
                                         stdout=fh, stderr=subprocess.STDOUT)
        try:
            self.port = self._wait_port(port_file)
            self._wait_healthy()
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.monotonic() - spawned

    def _wait_port(self, port_file: Path) -> int:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise WorkloadError(
                    f"serve exited {self.proc.returncode}:\n"
                    f"{_tail(self.log)}")
            try:
                return int(port_file.read_text())
            except (OSError, ValueError):
                time.sleep(0.005)
        raise WorkloadError("serve did not publish its port")

    def _wait_healthy(self) -> None:
        status, _ = self.get("/healthz")
        if status != 200:
            raise WorkloadError(f"serve /healthz answered {status}")

    def get(self, path: str) -> tuple[int, dict]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            return _request(conn, "GET", path)
        finally:
            conn.close()

    def stop(self) -> int:
        """Graceful drain (SIGTERM); returns the exit code."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            raise WorkloadError("serve did not drain") from None

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def _request(conn, method: str, path: str, body=None) -> tuple[int, dict]:
    data = json.dumps(body).encode() if body is not None else None
    headers = {"Content-Type": "application/json"} if data else {}
    conn.request(method, path, body=data, headers=headers)
    response = conn.getresponse()
    payload = response.read()
    return response.status, (json.loads(payload) if payload else {})


def _one_job(conn, spec: dict) -> dict:
    """Submit, then poll the result at a fixed interval until served."""
    t0 = time.perf_counter()
    status, doc = _request(conn, "POST", "/jobs", spec)
    submitted = time.perf_counter()
    rec = {"status": status, "submit_s": submitted - t0}
    if status not in (200, 201):
        return rec
    rec["job"] = doc["job"]
    rec["created"] = doc["created"]
    path = f"/jobs/{doc['job']}/result"
    while True:
        t1 = time.perf_counter()
        status, doc = _request(conn, "GET", path)
        if status != 409:
            break
        time.sleep(POLL_S)
    done = time.perf_counter()
    rec.update(result_status=status, fetch_s=done - t1, latency_s=done - t0)
    if status == 200:
        rec["result"] = doc["result"]
        rec["degraded"] = doc["degraded"]
    return rec


def _drive(daemon: Daemon, jobs: list[dict]) -> tuple[list[dict], float]:
    """Closed loop: ``NPROC`` clients, one connection each, each sending
    its next job once the previous one's result arrived."""
    lock = threading.Lock()
    queue = iter(enumerate(jobs))
    records: list[dict | None] = [None] * len(jobs)
    errors: list[BaseException] = []

    def client() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", daemon.port,
                                          timeout=60)
        try:
            while True:
                with lock:
                    item = next(queue, None)
                if item is None:
                    return
                i, job = item
                records[i] = _one_job(conn, job["spec"])
        except Exception as exc:  # reported after the join below
            errors.append(exc)
        finally:
            conn.close()

    threads = [threading.Thread(target=client) for _ in range(NPROC)]
    t0 = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=WORKER_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if errors or any(t.is_alive() for t in threads):
        raise WorkloadError(f"service client failed: {errors[:1]}")
    return records, wall


def _idle_start(run: Run, template: Path) -> float:
    """Set-up probe: start the daemon over a fresh copy of the
    pre-filled state, wait until it serves, drain it."""
    state = run.path("state")
    shutil.copytree(template, state)
    daemon = Daemon(run, state)
    time.sleep(PROBE_GRACE_S)
    if daemon.stop() != 0:
        raise WorkloadError("idle serve drained unclean")
    shutil.rmtree(state)
    return daemon.setup_s


def _serve_stream(run: Run, template: Path, jobs: list[dict],
                  trace_dir: Path | None = None) -> dict:
    """One service operation: start the daemon over a fresh copy of
    the pre-filled state, drive the whole stream through it, drain it,
    and account every job."""
    state = run.path("state")
    shutil.copytree(template, state)
    daemon = Daemon(run, state, trace_dir)
    try:
        records, wall = _drive(daemon, jobs)
        _, health = daemon.get("/healthz")
        hwm = procs.tree_hwm_kb(daemon.proc.pid)
        pid = daemon.proc.pid
    finally:
        code = daemon.stop() if daemon.proc.poll() is None else None
    shutil.rmtree(state)
    if code != 0:
        run.ledger.fail(gate.JOB, f"serve drained with exit code {code}")
    served = {}
    for job, rec in zip(jobs, records):
        label = json.dumps(job["spec"], sort_keys=True)
        if not run.ledger.submission(rec["status"], label):
            continue
        if rec["result_status"] != 200:
            run.ledger.fail(gate.JOB, f"{label}: result HTTP "
                            f"{rec['result_status']}")
        elif rec["degraded"]:
            run.ledger.fail(gate.QUARANTINE, f"{label}: degraded result")
        else:
            served[rec["job"]] = dict(rec, spec=job["spec"])
    digest = hashlib.sha256(json.dumps(
        {job: rec["result"] for job, rec in served.items()},
        sort_keys=True).encode()).hexdigest()
    return {"records": records, "served": served, "walls": [wall],
            "setup_s": daemon.setup_s, "hwm_kb": hwm, "health": health,
            "digest": digest, "pid": pid}


def service_mixed(run: Run) -> None:
    """A seeded closed-loop job stream against ``gpu-topdown serve``."""
    template = run.dir / "state-template"
    prefill = run.worker("prefill", "--state", template,
                         "--cap", SERVICE_STORE_CAP, "--jobs", NPROC)
    jobs = job_stream(run.seed, [tuple(a) for a in prefill["apps"]],
                      prefill["gpus"])
    if run.traced:
        before = _serve_stream(run, template, jobs)
        traced = _serve_stream(run, template, jobs, run.trace_dir)
        after = _serve_stream(run, template, jobs)
        _check_served(run, before)
        if after["digest"] != before["digest"]:
            run.ledger.fail(gate.CHECK, "untraced runs disagree")
        run.traced_layers({"digest": before["digest"],
                           "walls": before["walls"] + after["walls"]},
                          traced, traced["pid"], 1)
        _service_layers(run, jobs, traced)
        return
    for _ in range(SETUP_PROBES):
        run.setups.append(_idle_start(run, template))
    results: list[dict] = []
    while not run.walls or sum(run.walls) < run.seconds:
        result = _serve_stream(run, template, jobs)
        run.setups.append(result["setup_s"])
        run.walls += result["walls"]
        run.hwm_kb.append(result["hwm_kb"])
        results.append(result)
    if len({r["digest"] for r in results}) > 1:
        run.ledger.fail(gate.CHECK, "streams at one seed disagree")
    _check_served(run, results[0])
    _service_report(run, jobs, results)


def _check_served(run: Run, result: dict) -> None:
    served = result["served"]
    picks = random.Random(run.seed).sample(
        sorted(served), min(SERVICE_SAMPLE, len(served)))
    samples = run.path("samples.json")
    samples.write_text(json.dumps([
        {"job": job, "spec": served[job]["spec"],
         "result": served[job]["result"]} for job in picks]))
    run.ledger.worker_report(
        run.worker("check-service", "--samples", samples))


def _service_report(run: Run, jobs: list[dict],
                    results: list[dict]) -> None:
    """Job latency and throughput over every operation of the run (each
    the same stream over the same state), and the measured mix."""
    records = [r for result in results for r in result["records"]
               if r.get("result_status") == 200]
    latencies = [r["latency_s"] * 1e3 for r in records]
    run.extra["job_p50_ms"] = (stats.median(latencies), "ms",
                               f"median of {len(latencies)}")
    tail = stats.p90(latencies)
    run.extra["job_p90_ms"] = (
        tail if tail is not None else float("nan"), "ms",
        f"of {len(latencies)}" + ("" if tail is not None
                                  else " (needs 100 samples)"))
    run.extra["jobs_per_s"] = (len(records) / sum(run.walls),
                               "jobs/s", f"{len(records)} jobs / timed wall")
    hit = stats.tail_percentile(latencies)
    if hit is not None:
        run.details.append(
            f"highest percentile with 10 samples beyond: "
            f"p{hit[0]} = {hit[1]:.2f} ms")
    deduped = sum(1 for r in records if not r["created"])
    store = results[0]["health"]["store"]
    lookups = store["hits"] + store["misses"]
    run.details += [
        _mix(jobs),
        f"measured: deduplicated submissions {deduped / len(records):.2f}; "
        f"store lookups served {store['hits'] / lookups:.2f} "
        f"({store['hits']} of {lookups})",
        f"store: {store['stores']} stores, {store['evictions']} "
        f"evictions, {store['entries']} entries / {store['bytes']} bytes "
        f"(cap {store['max_bytes']})",
    ]


def _service_layers(run: Run, jobs: list[dict], traced: dict) -> None:
    run.per_layer.update(
        tracing.service_summary(tracing.load_spans(run.trace_dir)))
    records = [r for r in traced["records"] if r.get("result_status") == 200]
    run.per_layer["service.submit_ms"] = stats.median(
        [r["submit_s"] * 1e3 for r in records])
    run.per_layer["service.fetch_ms"] = stats.median(
        [r["fetch_s"] * 1e3 for r in records])
    run.per_layer["service.dedup_ratio"] = (
        sum(1 for r in records if not r["created"]) / len(records))
    run.details += [
        _mix(jobs),
        f"measured: deduplicated submissions "
        f"{run.per_layer['service.dedup_ratio']:.2f}; warm jobs served "
        f"without simulating {run.per_layer['service.warm_served_share']:.2f}"
        f"; stores that evicted {run.per_layer['store.evicted_share']:.2f}",
    ]


def _mix(jobs: list[dict]) -> str:
    """The stream's kinds as the generator labels them."""
    kinds = [j["kind"] for j in jobs]
    return (f"stream: {len(kinds)} jobs, labelled "
            + ", ".join(f"{k} {kinds.count(k) / len(kinds):.2f}"
                        for k in ("resubmit", "warm", "cold"))
            + " (an assumed mix)")


WORKLOADS = {
    "suites_cold_jN": suites_cold_jn,
    "suites_warm_j1": suites_warm_j1,
    "bundle_j1": bundle_j1,
    "service_mixed": service_mixed,
}
