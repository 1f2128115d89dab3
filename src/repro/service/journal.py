"""Crash-recoverable job journal for the profiling service.

The daemon's source of truth for *which jobs exist and how far they
got* is a :class:`repro.fsutil.DurableLog` in the state directory —
the same primitive as the run journal of ``generate_all``:

* a schema header pins the layout; a journal written by an
  incompatible daemon version is ignored rather than misread;
* every event line is flushed **and fsynced** before the operation it
  records is acknowledged — a ``submit`` is durable before the HTTP
  202/201 goes out, a ``done`` is durable only after the result file
  itself was durably written;
* a torn tail (daemon killed mid-append), including one that is not
  UTF-8, invalidates exactly the torn line: replay stops there and the
  half-recorded event simply never happened;
* the first append after a restart rewrites the file to the header
  plus the replayed events, verbatim (temp file + atomic rename +
  parent-directory fsync), so a torn tail can never corrupt events
  appended after a restart.

Event vocabulary (one JSON object per line after the header):

``{"event": "submit", "job": id, "tenant": t, "spec": {...}}``
    a job was admitted;
``{"event": "attempt", "job": id, "attempt": n, "error": "..."}``
    one execution attempt failed (keeps the poison budget honest
    across restarts — a crash-looping job cannot reset its count by
    crashing the daemon);
``{"event": "done", "job": id, "outcome": "done|failed|quarantined",
"error": ...}``
    the job reached a terminal state; for outcome ``done`` the result
    document already exists on disk.

Replay folds the event stream into per-job state: jobs with a
``submit`` but no ``done`` are *incomplete* and must be re-queued by
the restarted daemon; jobs with a ``done`` are served from the store.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.errors import ServiceError
from repro.fsutil import DurableLog

#: bump when the event layout changes; old journals are not replayed.
SERVICE_JOURNAL_SCHEMA = "repro/service-journal@1"


@dataclass
class ReplayedJob:
    """Folded journal state of one job after replay."""

    spec_doc: dict
    tenant: str
    attempts: int = 0
    outcome: str | None = None  # None ⇒ incomplete, must re-run
    error: str | None = None
    error_kind: str | None = None


class ServiceJournal:
    """Append-only, fsync-per-event journal of the job lifecycle."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        #: job id → folded state, in first-submission order (dicts
        #: preserve insertion order, so re-queueing after a restart
        #: follows the original submission order deterministically).
        self.jobs: dict[str, ReplayedJob] = {}
        self._log = DurableLog(
            self.path, {"schema": SERVICE_JOURNAL_SCHEMA}, self._apply
        )

    def _apply(self, event: dict) -> bool:
        """Fold one event into :attr:`jobs`; False stops the replay."""
        kind = event.get("event")
        job = event.get("job")
        if not isinstance(job, str):
            return False
        if kind == "submit":
            spec_doc = event.get("spec")
            if not isinstance(spec_doc, dict):
                return False
            self.jobs.setdefault(
                job,
                ReplayedJob(
                    spec_doc=spec_doc,
                    tenant=str(event.get("tenant", "default")),
                ),
            )
            return True
        state = self.jobs.get(job)
        if state is None:
            # an attempt/done for a job never submitted can only be a
            # torn/duplicated region: stop trusting the tail.
            return False
        if kind == "attempt":
            attempt = event.get("attempt")
            if not isinstance(attempt, int):
                return False
            state.attempts = max(state.attempts, attempt)
            return True
        if kind == "done":
            outcome = event.get("outcome")
            if outcome not in ("done", "failed", "quarantined"):
                return False
            state.outcome = outcome
            state.error = event.get("error")
            state.error_kind = event.get("error_kind")
            return True
        return False

    # -- writing ----------------------------------------------------------
    def _record(self, event: dict) -> None:
        """Append ``event`` durably, then fold it into :attr:`jobs`."""
        self._log.append(event)
        self._apply(event)

    def record_submit(self, job: str, tenant: str, spec_doc: dict) -> None:
        """Durably record an admission (before it is acknowledged)."""
        if job in self.jobs:
            raise ServiceError(f"job {job!r} submitted twice to the journal")
        self._record(
            {"event": "submit", "job": job, "tenant": tenant,
             "spec": spec_doc}
        )

    def record_attempt(self, job: str, attempt: int, error: str) -> None:
        """Durably record one failed execution attempt."""
        self._record(
            {"event": "attempt", "job": job, "attempt": attempt,
             "error": error}
        )

    def record_done(
        self,
        job: str,
        outcome: str,
        *,
        error: str | None = None,
        error_kind: str | None = None,
    ) -> None:
        """Durably record a terminal state (result already on disk)."""
        self._record(
            {"event": "done", "job": job, "outcome": outcome,
             "error": error, "error_kind": error_kind}
        )

    # -- lifecycle --------------------------------------------------------
    def close(self) -> None:
        self._log.close()


__all__ = ["SERVICE_JOURNAL_SCHEMA", "ReplayedJob", "ServiceJournal"]
