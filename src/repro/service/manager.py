"""Supervised job manager: admission control, workers, recovery.

This is the heart of the profiling service.  It owns

* the **journal** (:class:`~repro.service.journal.ServiceJournal`) —
  what exists and how far it got, durable per event;
* the **store** (:class:`~repro.sim.result_cache.EvictingResultCache`
  for kernel-level shards, plus ``<state>/results/`` for final job
  documents) — what has been computed;
* a **bounded queue** with per-tenant quotas — admission control with
  explicit backpressure (a refused submission is an
  :class:`~repro.errors.AdmissionError` the HTTP layer maps to 429;
  nothing is ever silently dropped);
* a pool of **worker threads** under a supervisor that detects hung
  workers by heartbeat age, abandons them (lease invalidation — a
  stale worker's result is discarded when it eventually returns) and
  re-dispatches the job under the configured
  :class:`~repro.resilience.policy.RetryPolicy`, quarantining poison
  jobs once the budget is exhausted.

Crash recovery: construction replays the journal.  Jobs with a
terminal outcome whose result document still exists are re-adopted and
served from disk; anything else (journalled ``submit`` without
``done``, or a ``done`` whose result file vanished) is re-queued in
original submission order.  ``kill -9`` at any instant therefore loses
at most in-flight work, never acknowledged submissions or completed
results — the CI smoke job (``tools/service_smoke.py``) enforces
exactly this, byte-for-byte.

Execution runs through whatever execution engine is current
(:func:`repro.sim.engine.current_engine`); the daemon installs one
`engine_context(cache=<the store>)`` around the manager so overlapping
jobs share memoized simulations and every kernel result lands in the
eviction-aware store.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path

from repro.errors import (
    AdmissionError,
    CellTimeoutError,
    QuarantineError,
    QueueFullError,
    QuotaExceededError,
    ReproError,
    ServiceError,
    UsageError,
)
from repro.fsutil import atomic_write_json
from repro.obs.runtime import active_obs
from repro.resilience.policy import RetryPolicy, is_retryable
from repro.service.jobs import (
    JOB_RESULT_SCHEMA,
    JobRecord,
    JobSpec,
)
from repro.service.journal import ServiceJournal


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one daemon instance."""

    state_dir: Path
    #: worker threads executing jobs.
    workers: int = 2
    #: queued-job capacity; submissions beyond it get 429 queue_full.
    queue_cap: int = 16
    #: max active (queued+running) jobs per tenant; beyond it 429
    #: quota_exceeded.  The quota counts *owned* jobs — deduplicated
    #: resubmissions of another tenant's job are free.
    tenant_quota: int = 8
    #: byte cap of the kernel-result store (None ⇒ unbounded).
    store_max_bytes: int | None = None
    #: a job running longer than this is declared hung, its worker
    #: abandoned and the job re-dispatched (None ⇒ no hang detection).
    hang_timeout_s: float | None = 60.0
    #: supervisor poll interval.
    poll_interval_s: float = 0.05
    #: execution attempts per job before quarantine.
    retries: int = 3


class ServiceManager:
    """Owns jobs, queue, workers and persistence for one daemon."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.state_dir = Path(config.state_dir)
        self.results_dir = self.state_dir / "results"
        self.results_dir.mkdir(parents=True, exist_ok=True)
        from repro.sim.result_cache import EvictingResultCache

        self.store = EvictingResultCache(
            self.state_dir / "store", max_bytes=config.store_max_bytes
        )
        self.journal = ServiceJournal(self.state_dir / "journal.jsonl")
        self.retry = RetryPolicy(max_attempts=config.retries)
        self._cv = threading.Condition()
        self.jobs: dict[str, JobRecord] = {}
        self._queue: deque[str] = deque()
        self._draining = False
        self._stopped = False
        #: per-job submission counter: a resubmission after an injected
        #: ``service.submit`` fault re-rolls the decision.
        self._submit_attempts: dict[str, int] = {}
        #: worker name → (job id, monotonic start, lease).  A worker's
        #: lease is bumped when the supervisor abandons it; completions
        #: carrying a stale lease are discarded.
        self._running: dict[str, tuple[str, float, int]] = {}
        self._leases: dict[str, int] = {}
        self._threads: list[threading.Thread] = []
        self._worker_seq = 0
        #: lifetime counters (also exported as metrics).
        self.hangs_detected = 0
        self.recovered_incomplete = 0
        self.recovered_complete = 0
        self._recover()

    # -- recovery ---------------------------------------------------------
    def _result_path(self, job_id: str) -> Path:
        return self.results_dir / f"{job_id}.json"

    def _recover(self) -> None:
        """Replay the journal into live records; re-queue unfinished work.

        Ordering matters for determinism: dict iteration preserves the
        journal's original submission order, so a restarted daemon
        drains its backlog in the same order the clients submitted it.
        """
        obs = active_obs()
        for job_id, replayed in self.journal.jobs.items():
            try:
                spec = JobSpec.from_doc(replayed.spec_doc)
            except UsageError:
                continue  # journalled by an older workload set: skip
            if spec.job_id != job_id:
                continue  # id no longer matches the spec hash: skip
            record = JobRecord(
                spec=spec,
                tenant=replayed.tenant,
                attempts=replayed.attempts,
                recovered=True,
            )
            if (
                replayed.outcome is not None
                and (
                    replayed.outcome != "done"
                    or self._result_path(job_id).exists()
                )
            ):
                record.state = replayed.outcome
                record.error = replayed.error
                record.error_kind = replayed.error_kind
                self.jobs[job_id] = record
                self.recovered_complete += 1
            else:
                # incomplete (or a "done" whose result file vanished):
                # the work happens again — results are deterministic,
                # so the bytes come out identical.
                record.state = "queued"
                self.jobs[job_id] = record
                self._queue.append(job_id)
                self.recovered_incomplete += 1
        if self.recovered_incomplete or self.recovered_complete:
            obs.tracer.instant(
                "service.recover", cat="service",
                requeued=self.recovered_incomplete,
                served=self.recovered_complete,
            )
        obs.metrics.set_gauge(
            "service.recovered_incomplete", self.recovered_incomplete
        )
        obs.metrics.set_gauge(
            "service.recovered_complete", self.recovered_complete
        )

    # -- admission --------------------------------------------------------
    def submit(self, doc, tenant: str = "default") -> tuple[JobRecord, bool]:
        """Admit one submission; returns ``(record, created)``.

        Raises :class:`~repro.errors.UsageError` on a malformed spec,
        :class:`~repro.errors.AdmissionError` subclasses on
        backpressure, and :class:`~repro.errors.TransientFaultError`
        when the ``service.submit`` fault site fires — every refusal is
        explicit and mapped to a documented HTTP response.
        """
        from repro.resilience.faults import active_injector

        spec = JobSpec.from_doc(doc)  # outside the lock: pure
        job_id = spec.job_id
        obs = active_obs()
        with self._cv:
            if self._draining:
                raise AdmissionError(
                    "draining",
                    "service is draining; submissions are closed",
                    retryable=True,
                )
            existing = self.jobs.get(job_id)
            if existing is not None:
                # idempotent dedupe: same spec ⇒ same job, shared work.
                obs.metrics.inc("service.submit_dedup")
                return existing, False
            active = sum(
                1
                for r in self.jobs.values()
                if r.tenant == tenant and r.active
            )
            if active >= self.config.tenant_quota:
                obs.metrics.inc("service.quota_refusals")
                raise QuotaExceededError(
                    f"tenant {tenant!r} has {active} active job(s); "
                    f"quota is {self.config.tenant_quota}"
                )
            if len(self._queue) >= self.config.queue_cap:
                obs.metrics.inc("service.queue_refusals")
                raise QueueFullError(
                    f"job queue is full ({len(self._queue)}/"
                    f"{self.config.queue_cap}); retry later"
                )
            attempt = self._submit_attempts.get(job_id, 0)
            self._submit_attempts[job_id] = attempt + 1
            # may raise TransientFaultError (HTTP 503): nothing has
            # been journalled yet, so a refused submission leaves no
            # trace and a resubmission re-rolls the fault decision.
            active_injector().fire_service_submit(job_id, attempt)
            self.journal.record_submit(job_id, tenant, spec.canonical())
            record = JobRecord(spec=spec, tenant=tenant)
            self.jobs[job_id] = record
            self._queue.append(job_id)
            obs.metrics.inc("service.submitted")
            self._cv.notify()
            return record, True

    # -- worker pool ------------------------------------------------------
    def start(self) -> None:
        """Spawn the worker pool and the supervisor."""
        with self._cv:
            for _ in range(self.config.workers):
                self._spawn_worker()
            supervisor = threading.Thread(
                target=self._supervise, name="service-supervisor",
                daemon=True,
            )
            supervisor.start()
            self._threads.append(supervisor)

    def _spawn_worker(self) -> None:
        """Start one worker thread (caller holds the lock)."""
        name = f"service-worker-{self._worker_seq}"
        self._worker_seq += 1
        self._leases[name] = 0
        thread = threading.Thread(
            target=self._worker_loop, name=name, daemon=True
        )
        thread.start()
        self._threads.append(thread)

    def _worker_loop(self) -> None:
        name = threading.current_thread().name
        while True:
            with self._cv:
                while not self._queue and not self._stopped:
                    self._cv.wait(timeout=self.config.poll_interval_s)
                if self._stopped:
                    return
                if name not in self._leases:
                    return  # abandoned while waiting
                job_id = self._queue.popleft()
                record = self.jobs[job_id]
                record.state = "running"
                lease = self._leases[name]
                self._running[name] = (job_id, time.monotonic(), lease)
            try:
                self._execute_one(name, job_id, record, lease)
            finally:
                with self._cv:
                    if self._running.get(name, (None, 0, -1))[2] == lease:
                        self._running.pop(name, None)

    def _execute_one(
        self, worker: str, job_id: str, record: JobRecord, lease: int
    ) -> None:
        from repro.resilience.faults import active_injector

        obs = active_obs()
        try:
            with obs.tracer.span(
                "service.job", cat="service", job=job_id,
                label=record.spec.label, attempt=record.attempts,
            ):
                active_injector().fire_service_worker(
                    job_id, record.attempts
                )
                doc = self._run_job(record.spec)
        except BaseException as exc:  # noqa: BLE001 — triaged below
            self._finish_failure(worker, job_id, record, lease, exc)
        else:
            self._finish_success(worker, job_id, record, lease, doc)

    # -- job execution ----------------------------------------------------
    def _run_job(self, spec: JobSpec) -> dict:
        """Compute the result document for one job (deterministic)."""
        from repro.experiments.runner import (
            profile_application,
            profile_suite,
        )
        from repro.io.results_json import result_to_json
        from repro.lint import bundled_suites

        suite = bundled_suites()[spec.suite]
        if spec.kind == "app":
            app = next(a for a in suite if a.name == spec.app)
            _, result = profile_application(
                spec.gpu, app, level=spec.level, seed=spec.seed
            )
            return {
                "schema": JOB_RESULT_SCHEMA,
                "job": spec.job_id,
                "kind": "app",
                "spec": spec.canonical(),
                "result": json.loads(result_to_json(result)),
                "degraded": result.degraded,
            }
        run = profile_suite(
            spec.gpu, suite, level=spec.level, seed=spec.seed
        )
        return {
            "schema": JOB_RESULT_SCHEMA,
            "job": spec.job_id,
            "kind": "suite",
            "spec": spec.canonical(),
            "results": {
                name: json.loads(result_to_json(res))
                for name, res in sorted(run.results.items())
            },
            "quarantined": dict(sorted(run.quarantined.items())),
            "degraded": run.degraded,
        }

    # -- completion -------------------------------------------------------
    def _finish_success(
        self,
        worker: str,
        job_id: str,
        record: JobRecord,
        lease: int,
        doc: dict,
    ) -> None:
        obs = active_obs()
        with self._cv:
            if self._leases.get(worker) != lease:
                # abandoned mid-run: the job was re-dispatched (or
                # quarantined); this result is from a worker the
                # supervisor gave up on — discard it.
                obs.metrics.inc("service.stale_results")
                return
            if record.state != "running":
                return
            # result first (durable), then the journal event that makes
            # it official — a crash between the two re-runs the job,
            # which re-produces byte-identical output.
            atomic_write_json(self._result_path(job_id), doc)
            self.journal.record_done(job_id, "done")
            record.state = "done"
            obs.metrics.inc("service.jobs_done")
            self._cv.notify_all()

    def _finish_failure(
        self,
        worker: str,
        job_id: str,
        record: JobRecord,
        lease: int,
        exc: BaseException,
    ) -> None:
        obs = active_obs()
        with self._cv:
            if self._leases.get(worker) != lease:
                obs.metrics.inc("service.stale_results")
                return
            if record.state != "running":
                return
            self._record_failure(job_id, record, exc)

    def _record_failure(
        self, job_id: str, record: JobRecord, exc: BaseException
    ) -> None:
        """Retry, quarantine or fail ``record`` (caller holds the lock)."""
        obs = active_obs()
        record.attempts += 1
        message = f"{type(exc).__name__}: {exc}"
        self.journal.record_attempt(job_id, record.attempts, message)
        retryable = isinstance(exc, ReproError) and is_retryable(exc)
        if retryable and record.attempts < self.retry.max_attempts:
            record.state = "queued"
            self._queue.append(job_id)
            obs.metrics.inc("service.retries")
            self._cv.notify()
            return
        if retryable or isinstance(exc, QuarantineError):
            # poison job: the retry budget is spent (or the execution
            # layer already quarantined it) — park it permanently so it
            # cannot wedge the queue, but keep serving its status.
            outcome = "quarantined"
            obs.metrics.inc("service.quarantined")
        else:
            outcome = "failed"
            obs.metrics.inc("service.failed")
        record.state = outcome
        record.error = message
        record.error_kind = type(exc).__name__
        self.journal.record_done(
            job_id, outcome, error=message, error_kind=record.error_kind
        )
        self._cv.notify_all()

    # -- supervision ------------------------------------------------------
    def _supervise(self) -> None:
        """Heartbeat scan: abandon hung workers, re-dispatch their jobs."""
        timeout = self.config.hang_timeout_s
        while True:
            with self._cv:
                if self._stopped:
                    return
                if timeout is not None:
                    now = time.monotonic()
                    for worker, (job_id, started, lease) in list(
                        self._running.items()
                    ):
                        if now - started < timeout:
                            continue
                        if self._leases.get(worker) != lease:
                            continue
                        # a worker thread cannot be killed; invalidate
                        # its lease (its eventual result is discarded),
                        # forget it, and spawn a replacement so the
                        # pool keeps its configured width.
                        self.hangs_detected += 1
                        active_obs().metrics.inc("service.hangs")
                        del self._leases[worker]
                        del self._running[worker]
                        record = self.jobs[job_id]
                        self._record_failure(
                            job_id,
                            record,
                            ServiceHangError(
                                f"worker {worker} exceeded the "
                                f"{timeout:g}s hang timeout on job "
                                f"{job_id}"
                            ),
                        )
                        self._spawn_worker()
                self._cv.wait(timeout=self.config.poll_interval_s)

    # -- drain / shutdown -------------------------------------------------
    def drain(self, timeout_s: float | None = None) -> bool:
        """Stop admissions, wait for in-flight work, stop the pool.

        Returns ``True`` when every job this daemon ever saw ended in
        ``done`` (clean), ``False`` when any failed or was quarantined
        (the CLI maps that to the degraded exit code).
        """
        with self._cv:
            self._draining = True
            self.wait_idle(timeout_s)
            self._stopped = True
            self._cv.notify_all()
        self.journal.close()
        return all(
            record.state == "done" for record in self.jobs.values()
        )

    # -- queries ----------------------------------------------------------
    def get(self, job_id: str) -> JobRecord | None:
        with self._cv:
            return self.jobs.get(job_id)

    def result_doc(self, job_id: str) -> dict | None:
        """The stored result document of a ``done`` job, or ``None``."""
        with self._cv:
            record = self.jobs.get(job_id)
            if record is None or record.state != "done":
                return None
        try:
            return json.loads(self._result_path(job_id).read_text())
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            # the result file vanished or was mangled after completion:
            # re-queue the job (deterministic recompute) and report
            # not-ready instead of serving garbage.
            with self._cv:
                record = self.jobs.get(job_id)
                if record is not None and record.state == "done":
                    record.state = "queued"
                    record.recovered = True
                    self._queue.append(job_id)
                    self._cv.notify()
            return None

    def describe(self) -> dict:
        """The ``/healthz`` document."""
        with self._cv:
            states: dict[str, int] = {}
            for record in self.jobs.values():
                states[record.state] = states.get(record.state, 0) + 1
            return {
                "status": "draining" if self._draining else "ok",
                "jobs": dict(sorted(states.items())),
                "queue": {
                    "depth": len(self._queue),
                    "cap": self.config.queue_cap,
                },
                "workers": {
                    "configured": self.config.workers,
                    "busy": len(self._running),
                    "hangs_detected": self.hangs_detected,
                },
                "recovered": {
                    "requeued": self.recovered_incomplete,
                    "served": self.recovered_complete,
                },
                "store": self.store.describe(),
            }

    def wait_idle(self, timeout_s: float | None = None) -> bool:
        """Block until the queue is empty and no job is running."""
        deadline = (
            time.monotonic() + timeout_s if timeout_s is not None else None
        )
        with self._cv:
            while self._queue or self._running:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._cv.wait(
                    timeout=min(
                        self.config.poll_interval_s,
                        remaining
                        if remaining is not None
                        else self.config.poll_interval_s,
                    )
                )
            return True


class ServiceHangError(ServiceError, CellTimeoutError):
    """A worker blew the hang timeout.  Also a
    :class:`~repro.errors.CellTimeoutError`, so the shared retry policy
    treats an abandoned worker exactly like a cell deadline overrun:
    re-dispatch until the budget is spent, then quarantine."""


__all__ = [
    "ServiceConfig",
    "ServiceHangError",
    "ServiceManager",
]
