"""The HTTP/JSON façade: status codes, error envelopes, backpressure
headers — every documented API response, against a real socket.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request
from contextlib import contextmanager

from repro.resilience.faults import install_faults
from repro.service import ServiceConfig, ServiceManager
from repro.service.httpd import ServiceHTTPServer

NN_JOB = {
    "kind": "app",
    "suite": "rodinia",
    "app": "nn",
    "gpu": "NVIDIA Quadro RTX 4000",
    "level": 1,
    "seed": 0,
}


def _manager(tmp_path, **overrides) -> ServiceManager:
    defaults = dict(
        state_dir=tmp_path / "state",
        workers=1,
        queue_cap=3,
        tenant_quota=2,
        hang_timeout_s=None,
    )
    defaults.update(overrides)
    return ServiceManager(ServiceConfig(**defaults))


@contextmanager
def _serve(manager):
    server = ServiceHTTPServer(("127.0.0.1", 0), manager)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}"
    finally:
        server.shutdown()
        server.server_close()


def _request(url, body=None, raw: bytes | None = None):
    """Returns ``(status, doc, headers)`` without raising on 4xx/5xx."""
    data = raw if raw is not None else (
        json.dumps(body).encode() if body is not None else None
    )
    request = urllib.request.Request(
        url, data=data,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read()), dict(
                response.headers
            )
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), dict(exc.headers)


class TestSubmitResponses:
    def test_created_then_deduplicated(self, tmp_path):
        with _serve(_manager(tmp_path)) as base:
            status, doc, _ = _request(f"{base}/jobs", NN_JOB)
            assert status == 201
            assert doc["created"] is True
            assert doc["state"] == "queued"
            status, again, _ = _request(f"{base}/jobs", NN_JOB)
            assert status == 200
            assert again["created"] is False
            assert again["job"] == doc["job"]

    def test_malformed_body_is_400(self, tmp_path):
        with _serve(_manager(tmp_path)) as base:
            status, doc, _ = _request(
                f"{base}/jobs", raw=b"this is not json"
            )
            assert status == 400
            assert doc["error"]["code"] == "bad_request"
            assert doc["error"]["retryable"] is False

    def test_invalid_spec_is_400_with_reason(self, tmp_path):
        with _serve(_manager(tmp_path)) as base:
            status, doc, _ = _request(
                f"{base}/jobs", dict(NN_JOB, app="no-such-app")
            )
            assert status == 400
            assert "unknown app" in doc["error"]["message"]

    def test_queue_full_is_429_with_retry_after(self, tmp_path):
        manager = _manager(tmp_path, queue_cap=1, tenant_quota=10)
        with _serve(manager) as base:
            _request(f"{base}/jobs", NN_JOB)
            status, doc, headers = _request(
                f"{base}/jobs", dict(NN_JOB, app="backprop")
            )
            assert status == 429
            assert doc["error"]["code"] == "queue_full"
            assert doc["error"]["retryable"] is True
            assert headers.get("Retry-After") == "1"

    def test_quota_exceeded_is_429(self, tmp_path):
        manager = _manager(tmp_path, queue_cap=10, tenant_quota=1)
        with _serve(manager) as base:
            _request(f"{base}/jobs", dict(NN_JOB, tenant="alice"))
            status, doc, _ = _request(
                f"{base}/jobs",
                dict(NN_JOB, app="backprop", tenant="alice"),
            )
            assert status == 429
            assert doc["error"]["code"] == "quota_exceeded"

    def test_transient_submit_fault_is_503(self, tmp_path):
        with install_faults("service.submit"):
            with _serve(_manager(tmp_path)) as base:
                status, doc, headers = _request(f"{base}/jobs", NN_JOB)
                assert status == 503
                assert doc["error"]["code"] == "transient"
                assert doc["error"]["retryable"] is True
                assert headers.get("Retry-After") == "1"

    def test_draining_is_503(self, tmp_path):
        manager = _manager(tmp_path)
        manager.start()
        with _serve(manager) as base:
            manager.drain(timeout_s=10)
            status, doc, _ = _request(f"{base}/jobs", NN_JOB)
            assert status == 503
            assert doc["error"]["code"] == "draining"


class TestStatusAndResult:
    def test_unknown_job_is_404(self, tmp_path):
        with _serve(_manager(tmp_path)) as base:
            status, doc, _ = _request(f"{base}/jobs/jdeadbeefdeadbeef")
            assert status == 404
            assert doc["error"]["code"] == "unknown_job"

    def test_unknown_route_is_404(self, tmp_path):
        with _serve(_manager(tmp_path)) as base:
            status, doc, _ = _request(f"{base}/nope")
            assert status == 404
            assert doc["error"]["code"] == "unknown_route"

    def test_result_before_completion_is_409(self, tmp_path):
        with _serve(_manager(tmp_path)) as base:  # workers not started
            _, doc, _ = _request(f"{base}/jobs", NN_JOB)
            status, err, _ = _request(f"{base}/jobs/{doc['job']}/result")
            assert status == 409
            assert err["error"]["code"] == "not_ready"
            assert err["error"]["retryable"] is True

    def test_full_lifecycle_over_http(self, tmp_path):
        manager = _manager(tmp_path)
        manager.start()
        with _serve(manager) as base:
            _, doc, _ = _request(f"{base}/jobs", NN_JOB)
            job = doc["job"]
            assert manager.wait_idle(timeout_s=60)
            status, state_doc, _ = _request(f"{base}/jobs/{job}")
            assert status == 200
            assert state_doc["state"] == "done"
            status, result, _ = _request(f"{base}/jobs/{job}/result")
            assert status == 200
            assert result["job"] == job
            assert result["result"]["name"] == "nn"
            status, listing, _ = _request(f"{base}/jobs")
            assert status == 200
            assert listing["jobs"][job] == "done"
        manager.drain(timeout_s=10)

    def test_non_utf8_result_file_is_recomputed(self, tmp_path):
        manager = _manager(tmp_path)
        manager.start()
        with _serve(manager) as base:
            _, doc, _ = _request(f"{base}/jobs", NN_JOB)
            job = doc["job"]
            assert manager.wait_idle(timeout_s=60)
            path = manager._result_path(job)
            good = path.read_bytes()
            path.write_bytes(b"\xff" + good)
            status, err, _ = _request(f"{base}/jobs/{job}/result")
            assert status == 409
            assert err["error"]["code"] == "not_ready"
            assert manager.wait_idle(timeout_s=60)
            status, _, _ = _request(f"{base}/jobs/{job}/result")
            assert status == 200
            assert path.read_bytes() == good
        manager.drain(timeout_s=10)

    def test_quarantined_result_is_410(self, tmp_path):
        with install_faults("service.worker"):
            manager = _manager(tmp_path, retries=2)
            manager.start()
            with _serve(manager) as base:
                _, doc, _ = _request(f"{base}/jobs", NN_JOB)
                assert manager.wait_idle(timeout_s=60)
                status, err, _ = _request(
                    f"{base}/jobs/{doc['job']}/result"
                )
                assert status == 410
                assert err["error"]["code"] == "quarantined"
                assert err["error"]["retryable"] is False
            manager.drain(timeout_s=10)


class TestIntrospection:
    def test_healthz_shape(self, tmp_path):
        manager = _manager(tmp_path, store_max_bytes=50_000)
        manager.start()
        with _serve(manager) as base:
            _request(f"{base}/jobs", NN_JOB)
            assert manager.wait_idle(timeout_s=60)
            status, health, _ = _request(f"{base}/healthz")
            assert status == 200
            assert health["status"] == "ok"
            assert health["jobs"] == {"done": 1}
            assert health["queue"]["cap"] == 3
            assert health["store"]["max_bytes"] == 50_000
            assert health["store"]["entries"] >= 0
        manager.drain(timeout_s=10)

    def test_metrics_payload_served(self, tmp_path):
        from repro.obs.runtime import obs_context

        with obs_context(enabled=True):
            manager = _manager(tmp_path)
            manager.start()
            with _serve(manager) as base:
                _request(f"{base}/jobs", NN_JOB)
                assert manager.wait_idle(timeout_s=60)
                status, payload, _ = _request(f"{base}/metrics")
                assert status == 200
                assert payload["counters"]["service.submitted"] == 1
                assert payload["counters"]["service.jobs_done"] == 1
            manager.drain(timeout_s=10)

    def test_keepalive_responses_do_not_wait_for_delayed_ack(
        self, tmp_path
    ):
        """Headers and body leave in two writes; with Nagle's algorithm
        on, the body waits ~40 ms for the client's delayed ACK on every
        request of a kept-alive connection."""
        import http.client
        import time

        with _serve(_manager(tmp_path)) as base:
            host, port = base.removeprefix("http://").split(":")
            conn = http.client.HTTPConnection(host, int(port), timeout=10)
            try:
                t0 = time.perf_counter()
                for _ in range(20):
                    conn.request("GET", "/healthz")
                    response = conn.getresponse()
                    assert response.status == 200
                    json.loads(response.read())
                elapsed = time.perf_counter() - t0
            finally:
                conn.close()
        assert elapsed < 0.4, f"20 kept-alive requests took {elapsed:.2f}s"


class TestDaemonLifecycle:
    def test_sigterm_handler_installed_before_port_is_published(
        self, tmp_path, monkeypatch
    ):
        """A supervisor may send SIGTERM the moment the port file
        appears: the drain handler must already be installed, or the
        default action kills the daemon without draining."""
        import signal

        from repro.cli import build_parser
        from repro.service import daemon

        seen = []
        real_write = daemon.atomic_write_text

        def publish(path, text, **kwargs):
            handler = signal.getsignal(signal.SIGTERM)
            seen.append(handler)
            if not callable(handler):
                raise AssertionError(
                    f"SIGTERM handler is {handler!r} when the port file "
                    "is written"
                )
            handler(signal.SIGTERM, None)  # the supervisor's SIGTERM
            real_write(path, text, **kwargs)

        monkeypatch.setattr(daemon, "atomic_write_text", publish)
        port_file = tmp_path / "port"
        args = build_parser().parse_args([
            "serve", "--state-dir", str(tmp_path / "state"),
            "--port-file", str(port_file), "--workers", "1",
        ])
        before = signal.getsignal(signal.SIGTERM)
        assert daemon.run_serve(args) == daemon.EXIT_CLEAN
        assert len(seen) == 1 and callable(seen[0])
        assert int(port_file.read_text()) > 0
        assert signal.getsignal(signal.SIGTERM) is before
