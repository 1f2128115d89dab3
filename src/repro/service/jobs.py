"""Job model of the profiling service.

A *job* is one profiling request — an application or a whole suite on
one GPU at one hierarchy level — identified by the content hash of its
canonical spec.  Content addressing gives the service idempotent
submission for free: two clients posting the same work get the same
job id, the simulation runs once, and both read the same stored
result.  The id is stable across daemon restarts (it hashes only the
spec, never the tenant or submission time), which is what lets the
journal replay of a killed daemon re-adopt its jobs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Mapping

from repro.errors import UsageError

#: job kinds accepted by the submit endpoint.
JOB_KINDS = ("app", "suite")

#: job lifecycle states (terminal: done / failed / quarantined).
JOB_STATES = ("queued", "running", "done", "failed", "quarantined")

#: states in which a job will never run again.
TERMINAL_STATES = ("done", "failed", "quarantined")

#: schema of the per-job result documents in ``<state>/results/``.
JOB_RESULT_SCHEMA = "repro/service-result@1"


@dataclass(frozen=True)
class JobSpec:
    """The immutable, content-addressed description of one job."""

    #: ``"app"`` (one application) or ``"suite"`` (every app of a suite).
    kind: str
    #: device name as known to :func:`repro.arch.registry.get_gpu`.
    gpu: str
    #: bundled suite name (see ``repro.cli.SUITES``).
    suite: str
    #: application name within the suite (``None`` for suite jobs).
    app: str | None
    #: Top-Down hierarchy level to analyze (1..3).
    level: int = 1
    #: simulation seed (same seed ⇒ bit-identical result bytes).
    seed: int = 0

    # -- identity ---------------------------------------------------------
    def canonical(self) -> dict:
        """The canonical spec document (hashed for the job id)."""
        doc = {
            "kind": self.kind,
            "gpu": self.gpu,
            "suite": self.suite,
            "level": self.level,
            "seed": self.seed,
        }
        if self.kind == "app":
            doc["app"] = self.app
        return doc

    @property
    def job_id(self) -> str:
        text = json.dumps(
            self.canonical(), sort_keys=True, separators=(",", ":")
        )
        return "j" + hashlib.sha256(text.encode()).hexdigest()[:16]

    @property
    def label(self) -> str:
        target = f"{self.suite}/{self.app}" if self.kind == "app" else self.suite
        return f"{target}@{self.gpu}/L{self.level}"

    # -- parsing / validation ---------------------------------------------
    @classmethod
    def from_doc(cls, doc: Any) -> "JobSpec":
        """Parse and *fully validate* a submission document.

        Validation happens at admission, not execution, so a bad
        request is a 400 to the submitting client — never a job that
        burns a worker slot only to fail.
        """
        if not isinstance(doc, Mapping):
            raise UsageError("job spec must be a JSON object")
        unknown = set(doc) - {
            "kind", "gpu", "suite", "app", "level", "seed", "tenant"
        }
        if unknown:
            raise UsageError(
                f"job spec: unknown field(s) {sorted(unknown)}"
            )
        kind = doc.get("kind", "app")
        if kind not in JOB_KINDS:
            raise UsageError(
                f"job spec: kind must be one of {'|'.join(JOB_KINDS)}, "
                f"got {kind!r}"
            )
        from repro.arch.registry import get_gpu, list_gpus

        gpu = doc.get("gpu", "NVIDIA Quadro RTX 4000")
        if not isinstance(gpu, str):
            raise UsageError("job spec: gpu must be a string")
        try:
            get_gpu(gpu)
        except Exception:
            raise UsageError(
                f"job spec: unknown gpu {gpu!r} "
                f"(known: {', '.join(list_gpus())})"
            ) from None
        from repro.lint import bundled_suites

        suites = bundled_suites()
        suite = doc.get("suite", "rodinia")
        if suite not in suites:
            raise UsageError(
                f"job spec: unknown suite {suite!r} "
                f"(known: {', '.join(suites)})"
            )
        app = doc.get("app")
        if kind == "app":
            names = [a.name for a in suites[suite]]
            if app is None:
                raise UsageError(
                    "job spec: kind 'app' requires an 'app' field "
                    f"(suite {suite!r} has: {', '.join(names)})"
                )
            if app not in names:
                raise UsageError(
                    f"job spec: unknown app {app!r} in suite {suite!r} "
                    f"(known: {', '.join(names)})"
                )
        elif app is not None:
            raise UsageError("job spec: 'app' is invalid for kind 'suite'")
        level = doc.get("level", 1)
        if not isinstance(level, int) or level not in (1, 2, 3):
            raise UsageError(
                f"job spec: level must be 1, 2 or 3, got {level!r}"
            )
        seed = doc.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise UsageError(f"job spec: seed must be an int, got {seed!r}")
        return cls(
            kind=kind,
            gpu=gpu,
            suite=suite,
            app=app if kind == "app" else None,
            level=level,
            seed=seed,
        )


@dataclass
class JobRecord:
    """Mutable server-side state of one submitted job."""

    spec: JobSpec
    #: the tenant whose quota this job counts against (first submitter).
    tenant: str
    state: str = "queued"
    #: execution attempts so far (survives restarts via the journal).
    attempts: int = 0
    #: terminal failure description (``failed``/``quarantined`` only).
    error: str | None = None
    #: machine-readable terminal error family (exception type name).
    error_kind: str | None = None
    #: set when the job's result was recovered from disk at startup
    #: rather than computed by this process.
    recovered: bool = False

    @property
    def job_id(self) -> str:
        return self.spec.job_id

    @property
    def active(self) -> bool:
        """Counts against the tenant quota (queued or running)."""
        return self.state not in TERMINAL_STATES

    def status_doc(self) -> dict:
        """The JSON document served by ``GET /jobs/<id>``."""
        doc = {
            "job": self.job_id,
            "state": self.state,
            "spec": self.spec.canonical(),
            "tenant": self.tenant,
            "attempts": self.attempts,
            "recovered": self.recovered,
        }
        if self.error is not None:
            doc["error"] = self.error
            doc["error_kind"] = self.error_kind
        return doc


__all__ = [
    "JOB_KINDS",
    "JOB_RESULT_SCHEMA",
    "JOB_STATES",
    "TERMINAL_STATES",
    "JobRecord",
    "JobSpec",
]
