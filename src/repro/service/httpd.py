"""Stdlib-only HTTP/JSON front end of the profiling service.

Routes (all bodies are JSON; errors carry a machine-readable code):

========================  =================================================
``POST /jobs``            submit a job spec; ``201`` created / ``200``
                          deduplicated, ``400`` bad spec, ``429``
                          ``queue_full``/``quota_exceeded``, ``503``
                          ``draining``/``transient``
``GET /jobs``             job ids and states, sorted by id
``GET /jobs/<id>``        status document (``404`` unknown)
``GET /jobs/<id>/result`` stored result (``409`` not ready, ``410``
                          failed/quarantined)
``GET /healthz``          daemon + store health (always ``200``)
``GET /metrics``          the metrics registry payload
========================  =================================================

Error envelope — every non-2xx body has the same shape, so clients can
branch on ``code`` without parsing prose::

    {"error": {"code": "queue_full", "message": "...", "retryable": true}}

Backpressure responses (429/503) also set ``Retry-After: 1``.  The
handler deliberately contains no business logic: it parses, calls the
:class:`~repro.service.manager.ServiceManager`, and maps exceptions to
status codes — all admission decisions live in the manager where the
unit tests exercise them directly.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.errors import (
    AdmissionError,
    ReproError,
    TransientFaultError,
    UsageError,
)
from repro.obs.runtime import active_obs

#: largest accepted request body (a job spec is tiny; anything bigger
#: is a client bug or abuse).
MAX_BODY_BYTES = 64 * 1024


class ServiceHTTPServer(ThreadingHTTPServer):
    """One listening socket bound to one :class:`ServiceManager`."""

    daemon_threads = True
    # after a kill -9 the restarted daemon must be able to rebind the
    # port immediately (the CI smoke job does exactly this).
    allow_reuse_address = True

    def __init__(self, address, manager) -> None:
        super().__init__(address, ServiceRequestHandler)
        self.manager = manager


class ServiceRequestHandler(BaseHTTPRequestHandler):
    server_version = "gpu-topdown-service/1"
    protocol_version = "HTTP/1.1"
    # a response goes out as two writes (headers, then body).  On a
    # kept-alive connection Nagle's algorithm holds the body until the
    # client ACKs the headers, which a delayed ACK postpones by ~40 ms
    # per request.  TCP_NODELAY sends the body without waiting.
    disable_nagle_algorithm = True

    # -- plumbing ---------------------------------------------------------
    def log_message(self, format, *args):  # noqa: A002 — stdlib signature
        # access logs go to the tracer (visible in --trace timelines),
        # never to stderr — the daemon's stderr is for operators.
        active_obs().tracer.instant(
            "http.request", cat="service", line=format % args
        )

    def _send_json(self, status: int, doc: dict, *, retry_after=None):
        body = (
            json.dumps(doc, sort_keys=True, indent=2) + "\n"
        ).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after is not None:
            self.send_header("Retry-After", str(retry_after))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(
        self,
        status: int,
        code: str,
        message: str,
        *,
        retryable: bool,
    ) -> None:
        active_obs().metrics.inc(f"service.http_{status}")
        self._send_json(
            status,
            {
                "error": {
                    "code": code,
                    "message": message,
                    "retryable": retryable,
                }
            },
            retry_after=1 if status in (429, 503) else None,
        )

    def _read_body(self):
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            raise UsageError(
                f"request body too large ({length} > {MAX_BODY_BYTES})"
            )
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise UsageError("request body must be a JSON object")
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise UsageError(f"request body is not valid JSON: {exc}") from exc

    # -- routes -----------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 — stdlib naming
        if self.path.rstrip("/") != "/jobs":
            self._send_error_json(
                404, "unknown_route", f"no such route: POST {self.path}",
                retryable=False,
            )
            return
        try:
            doc = self._read_body()
            tenant = self.headers.get("X-Tenant") or "default"
            if isinstance(doc, dict) and "tenant" in doc:
                tenant = str(doc["tenant"])
            record, created = self.server.manager.submit(doc, tenant)
        except UsageError as exc:
            self._send_error_json(
                400, "bad_request", str(exc), retryable=False
            )
        except AdmissionError as exc:
            status = 503 if exc.code == "draining" else 429
            self._send_error_json(
                status, exc.code, str(exc), retryable=exc.retryable
            )
        except TransientFaultError as exc:
            self._send_error_json(
                503, "transient", str(exc), retryable=True
            )
        except ReproError as exc:
            self._send_error_json(
                500, "internal", str(exc), retryable=False
            )
        else:
            self._send_json(
                201 if created else 200,
                {
                    "job": record.job_id,
                    "state": record.state,
                    "created": created,
                },
            )

    def do_GET(self) -> None:  # noqa: N802 — stdlib naming
        manager = self.server.manager
        path = self.path.rstrip("/") or "/"
        if path == "/healthz":
            self._send_json(200, manager.describe())
            return
        if path == "/metrics":
            self._send_json(200, active_obs().metrics.payload())
            return
        if path == "/jobs":
            with manager._cv:
                jobs = {
                    job_id: record.state
                    for job_id, record in sorted(manager.jobs.items())
                }
            self._send_json(200, {"jobs": jobs})
            return
        if path.startswith("/jobs/"):
            rest = path[len("/jobs/"):]
            job_id, _, tail = rest.partition("/")
            record = manager.get(job_id)
            if record is None:
                self._send_error_json(
                    404, "unknown_job", f"no such job: {job_id}",
                    retryable=False,
                )
                return
            if tail == "":
                self._send_json(200, record.status_doc())
                return
            if tail == "result":
                if record.state in ("queued", "running"):
                    self._send_error_json(
                        409, "not_ready",
                        f"job {job_id} is {record.state}; poll "
                        "/jobs/<id> until state is done",
                        retryable=True,
                    )
                    return
                if record.state in ("failed", "quarantined"):
                    self._send_error_json(
                        410, record.state,
                        record.error or f"job {job_id} {record.state}",
                        retryable=False,
                    )
                    return
                doc = manager.result_doc(job_id)
                if doc is None:
                    # result file vanished; the manager re-queued it.
                    self._send_error_json(
                        409, "not_ready",
                        f"result of {job_id} is being recomputed",
                        retryable=True,
                    )
                    return
                self._send_json(200, doc)
                return
        self._send_error_json(
            404, "unknown_route", f"no such route: GET {self.path}",
            retryable=False,
        )


__all__ = ["MAX_BODY_BYTES", "ServiceHTTPServer", "ServiceRequestHandler"]
