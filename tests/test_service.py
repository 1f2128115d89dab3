"""The service manager: admission control, dedupe, the supervised
worker pool (retry, quarantine, hang abandonment) and drain semantics.
"""

from __future__ import annotations

import re
import threading

import pytest

from repro.errors import (
    QueueFullError,
    QuotaExceededError,
    TransientFaultError,
    UsageError,
)
from repro.resilience.faults import FaultInjector, FaultPlan, install_faults
from repro.service import ServiceConfig, ServiceManager
from repro.service.jobs import JOB_RESULT_SCHEMA, JobSpec

NN_JOB = {
    "kind": "app",
    "suite": "rodinia",
    "app": "nn",
    "gpu": "NVIDIA Quadro RTX 4000",
    "level": 1,
    "seed": 0,
}


def _spec_for(app: str, **overrides) -> dict:
    doc = dict(NN_JOB, app=app)
    doc.update(overrides)
    return doc


def _manager(tmp_path, **overrides) -> ServiceManager:
    defaults = dict(
        state_dir=tmp_path / "state",
        workers=1,
        queue_cap=4,
        tenant_quota=3,
        hang_timeout_s=None,
        retries=3,
    )
    defaults.update(overrides)
    return ServiceManager(ServiceConfig(**defaults))


# ---------------------------------------------------------------------------
# the job model
# ---------------------------------------------------------------------------

class TestJobSpec:
    def test_id_is_content_addressed(self):
        a = JobSpec.from_doc(NN_JOB)
        b = JobSpec.from_doc(dict(NN_JOB))
        assert a.job_id == b.job_id
        assert a.job_id.startswith("j")

    def test_tenant_does_not_change_identity(self):
        a = JobSpec.from_doc(dict(NN_JOB, tenant="alice"))
        b = JobSpec.from_doc(dict(NN_JOB, tenant="bob"))
        assert a.job_id == b.job_id

    def test_every_knob_changes_identity(self):
        base = JobSpec.from_doc(NN_JOB).job_id
        assert JobSpec.from_doc(_spec_for("backprop")).job_id != base
        assert JobSpec.from_doc(dict(NN_JOB, level=2)).job_id != base
        assert JobSpec.from_doc(dict(NN_JOB, seed=1)).job_id != base
        assert JobSpec.from_doc(
            dict(NN_JOB, gpu="NVIDIA GTX 1070")
        ).job_id != base

    @pytest.mark.parametrize("mutation, match", [
        (dict(app="no-such-app"), "unknown app"),
        (dict(suite="no-such-suite"), "unknown suite"),
        (dict(gpu="no-such-gpu"), "unknown gpu"),
        (dict(level=9), "level"),
        (dict(kind="nope"), "kind"),
        (dict(seed="zero"), "seed"),
        (dict(bogus=1), "unknown field"),
    ])
    def test_validation_refuses_bad_specs(self, mutation, match):
        with pytest.raises(UsageError, match=match):
            JobSpec.from_doc(dict(NN_JOB, **mutation))

    def test_suite_kind_rejects_app_field(self):
        with pytest.raises(UsageError, match="invalid for kind"):
            JobSpec.from_doc(dict(NN_JOB, kind="suite"))


# ---------------------------------------------------------------------------
# admission control (no workers started: jobs stay queued)
# ---------------------------------------------------------------------------

class TestAdmission:
    def test_submit_and_dedupe(self, tmp_path):
        manager = _manager(tmp_path)
        record, created = manager.submit(NN_JOB)
        assert created and record.state == "queued"
        again, created = manager.submit(NN_JOB)
        assert not created and again is record

    def test_queue_full_is_explicit(self, tmp_path):
        manager = _manager(tmp_path, queue_cap=2, tenant_quota=100)
        manager.submit(_spec_for("nn"))
        manager.submit(_spec_for("backprop"))
        with pytest.raises(QueueFullError) as info:
            manager.submit(_spec_for("hotspot"))
        assert info.value.code == "queue_full"
        assert info.value.retryable
        # nothing was journalled or half-created for the refusal.
        assert len(manager.jobs) == 2

    def test_tenant_quota(self, tmp_path):
        manager = _manager(tmp_path, queue_cap=100, tenant_quota=2)
        manager.submit(_spec_for("nn"), tenant="alice")
        manager.submit(_spec_for("backprop"), tenant="alice")
        with pytest.raises(QuotaExceededError) as info:
            manager.submit(_spec_for("hotspot"), tenant="alice")
        assert info.value.code == "quota_exceeded"
        # a different tenant is unaffected ...
        manager.submit(_spec_for("hotspot"), tenant="bob")
        # ... and deduplicating onto an existing job is quota-free.
        record, created = manager.submit(_spec_for("nn"), tenant="alice")
        assert not created and record.state == "queued"

    def test_submit_fault_is_deterministic_and_leaves_no_trace(
        self, tmp_path
    ):
        plan = FaultPlan.parse("seed=3,service.submit@0.5")
        oracle = FaultInjector(plan)
        apps = ["nn", "backprop", "hotspot", "bfs", "lud", "kmeans"]
        fired_any = False
        with install_faults(plan):
            manager = _manager(
                tmp_path, queue_cap=100, tenant_quota=100
            )
            for app in apps:
                spec = JobSpec.from_doc(_spec_for(app))
                attempt = 0
                while True:
                    expected = oracle.decide(
                        "service.submit", spec.job_id, attempt
                    )
                    if expected:
                        fired_any = True
                        with pytest.raises(TransientFaultError):
                            manager.submit(_spec_for(app))
                        assert spec.job_id not in manager.jobs
                        assert spec.job_id not in manager.journal.jobs
                        attempt += 1
                    else:
                        _, created = manager.submit(_spec_for(app))
                        assert created
                        break
        assert fired_any  # the seed above does exercise the site
        assert len(manager.jobs) == len(apps)


# ---------------------------------------------------------------------------
# execution: workers, retries, quarantine, hangs
# ---------------------------------------------------------------------------

class TestExecution:
    def test_job_runs_to_done_with_result_doc(self, tmp_path):
        manager = _manager(tmp_path)
        manager.start()
        record, _ = manager.submit(NN_JOB)
        assert manager.wait_idle(timeout_s=60)
        assert record.state == "done"
        doc = manager.result_doc(record.job_id)
        assert doc["schema"] == JOB_RESULT_SCHEMA
        assert doc["kind"] == "app"
        assert doc["result"]["name"] == "nn"
        assert manager.drain(timeout_s=10)

    def test_cold_job_leaves_only_shards_within_the_cap(self, tmp_path):
        """Under the daemon's engine (``cache=manager.store``, as
        ``run_serve`` installs it) a cold job simulates, yet the store
        holds result shards and ``index.json`` only — nothing outside
        the byte cap's accounting."""
        from repro.sim.engine import engine_context

        cap = 8_000
        manager = _manager(tmp_path, store_max_bytes=cap)
        with engine_context(jobs=1, cache=manager.store):
            manager.start()
            record, _ = manager.submit(NN_JOB)
            assert manager.wait_idle(timeout_s=60)
            assert manager.drain(timeout_s=10)
        assert record.state == "done"
        root = tmp_path / "state" / "store"
        files = [p for p in root.rglob("*") if p.is_file()]
        shards = [p for p in files if p != root / "index.json"]
        assert shards
        for path in shards:
            assert re.fullmatch(
                r"[0-9a-f]{2}/[0-9a-f]{64}\.json",
                path.relative_to(root).as_posix(),
            ), path
        total = sum(p.stat().st_size for p in shards)
        assert total == manager.store.total_bytes <= cap

    def test_concurrent_clients_share_one_job(self, tmp_path):
        """N threads race to submit the same spec: exactly one job is
        created, everyone gets the same id, the simulation runs once."""
        manager = _manager(tmp_path, workers=2, queue_cap=16,
                           tenant_quota=16)
        manager.start()
        outcomes = []
        barrier = threading.Barrier(8)

        def client(i):
            barrier.wait()
            record, created = manager.submit(NN_JOB, tenant=f"t{i}")
            outcomes.append((record.job_id, created))

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert manager.wait_idle(timeout_s=60)
        ids = {job_id for job_id, _ in outcomes}
        assert len(ids) == 1
        assert sum(created for _, created in outcomes) == 1
        assert len(manager.jobs) == 1
        assert manager.jobs[ids.pop()].state == "done"
        assert manager.drain(timeout_s=10)

    def test_worker_crash_retries_then_succeeds(self, tmp_path):
        # rate 0.5: some attempts crash, a later re-roll gets through.
        plan = FaultPlan.parse("seed=1,service.worker@0.5")
        spec = JobSpec.from_doc(NN_JOB)
        oracle = FaultInjector(plan)
        first_success = next(
            a for a in range(10)
            if not oracle.decide("service.worker", spec.job_id, a)
        )
        if first_success == 0 or first_success >= 3:
            pytest.skip("seed does not produce a recoverable schedule")
        with install_faults(plan):
            manager = _manager(tmp_path)
            manager.start()
            record, _ = manager.submit(NN_JOB)
            assert manager.wait_idle(timeout_s=60)
        assert record.state == "done"
        # attempts count exactly the injected crashes before success.
        assert record.attempts == first_success
        assert manager.drain(timeout_s=10)

    def test_poison_job_is_quarantined_not_wedged(self, tmp_path):
        """A job that crashes on every attempt ends quarantined after
        the retry budget — and the queue keeps serving other jobs."""
        with install_faults("service.worker"):  # rate 1.0: always
            manager = _manager(tmp_path, retries=2, queue_cap=8)
            manager.start()
            poison, _ = manager.submit(NN_JOB)
            assert manager.wait_idle(timeout_s=60)
            assert poison.state == "quarantined"
            assert poison.attempts == 2
            assert poison.error_kind == "WorkerCrashError"
        # the injector is gone: a different job still completes.
        healthy, _ = manager.submit(_spec_for("backprop"))
        assert manager.wait_idle(timeout_s=60)
        assert healthy.state == "done"
        assert not manager.drain(timeout_s=10)  # degraded: poison job

    def test_nonretryable_failure_fails_fast(self, tmp_path, monkeypatch):
        manager = _manager(tmp_path, retries=3)

        def explode(spec):
            raise ValueError("boom: not a retryable family")

        monkeypatch.setattr(manager, "_run_job", explode)
        manager.start()
        record, _ = manager.submit(NN_JOB)
        assert manager.wait_idle(timeout_s=30)
        assert record.state == "failed"
        assert record.attempts == 1  # no retry burned on a sure loser
        assert record.error_kind == "ValueError"
        assert not manager.drain(timeout_s=10)

    def test_hung_worker_is_abandoned_and_job_quarantined(self, tmp_path):
        """sim.hang makes every simulation sleep far past the hang
        timeout: the supervisor must abandon the worker each attempt,
        keep the pool at width, and quarantine the job — all without
        wedging the queue."""
        with install_faults("sim.hang,hang=5"):
            manager = _manager(
                tmp_path, retries=2, hang_timeout_s=0.25,
            )
            manager.start()
            record, _ = manager.submit(NN_JOB)
            assert manager.wait_idle(timeout_s=30)
            assert record.state == "quarantined"
            assert record.error_kind == "ServiceHangError"
            assert manager.hangs_detected >= 2
        # abandoned workers were replaced: a fresh job still runs.
        healthy, _ = manager.submit(_spec_for("backprop"))
        assert manager.wait_idle(timeout_s=60)
        assert healthy.state == "done"
        assert not manager.drain(timeout_s=10)


# ---------------------------------------------------------------------------
# drain
# ---------------------------------------------------------------------------

class TestDrain:
    def test_drain_completes_inflight_then_refuses(self, tmp_path):
        manager = _manager(tmp_path, workers=2)
        manager.start()
        record, _ = manager.submit(NN_JOB)
        assert manager.drain(timeout_s=60)
        assert record.state == "done"
        from repro.errors import AdmissionError

        with pytest.raises(AdmissionError) as info:
            manager.submit(_spec_for("backprop"))
        assert info.value.code == "draining"
        assert info.value.retryable
