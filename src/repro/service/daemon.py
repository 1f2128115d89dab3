"""Daemon lifecycle: ``gpu-topdown serve``.

Wires the pieces together for one daemon process:

* builds the :class:`~repro.service.manager.ServiceManager` (which
  opens the store, replays the journal and re-queues interrupted jobs)
  inside the ``obs_context``, so ``GET /metrics`` shows the store's
  warm-start gauges and the recovery counts, then enters
  ``engine_context(cache=<store>)`` so every job shares one engine,
  one memo and one eviction-aware store;
* serves the HTTP API on a :class:`ServiceHTTPServer` thread;
* handles **SIGTERM** as *graceful drain*: admissions start returning
  503 ``draining``, in-flight and queued jobs run to completion, the
  journal is closed, and the process exits ``0`` (every job done) or
  ``3`` (degraded — some job failed or was quarantined), per the CLI
  exit-code table.  SIGINT keeps its usual meaning (exit 130).

``--port 0`` binds an ephemeral port; ``--port-file`` publishes
whatever port was bound (written atomically, so a watching client
never reads a torn line) — that is how the CI kill-and-restart smoke
finds a daemon it just started.

``--selfcheck`` runs the whole stack against itself in-process:
start, submit a tiny job over real HTTP, poll it to completion, fetch
the result, drain, and exit with the drain status.  It is the runnable
documentation example and the cheapest possible end-to-end probe.
"""

from __future__ import annotations

import json
import signal
import sys
import threading
import time
import urllib.error
import urllib.request
from contextlib import ExitStack
from pathlib import Path

from repro.errors import ServiceError
from repro.fsutil import atomic_write_text
from repro.service.httpd import ServiceHTTPServer
from repro.service.manager import ServiceConfig, ServiceManager

#: exit codes surfaced to the CLI (match repro.cli's table).
EXIT_CLEAN = 0
EXIT_DEGRADED = 3


def _build_manager(args) -> ServiceManager:
    return ServiceManager(
        ServiceConfig(
            state_dir=Path(args.state_dir),
            workers=args.workers,
            queue_cap=args.queue_cap,
            tenant_quota=args.tenant_quota,
            store_max_bytes=args.store_max_bytes,
            hang_timeout_s=args.hang_timeout,
            retries=args.retries if args.retries is not None else 3,
        )
    )


def run_serve(args) -> int:
    """Entry point of ``gpu-topdown serve`` (returns the exit code)."""
    from repro.obs.runtime import obs_context
    from repro.sim.engine import engine_context

    if getattr(args, "cache_dir", None):
        raise ServiceError(
            "serve: --cache-dir is not accepted; the store lives at "
            "<state-dir>/store (cap it with --store-max-bytes)"
        )
    if args.workers < 1:
        raise ServiceError("serve: --workers must be >= 1")
    if args.queue_cap < 1:
        raise ServiceError("serve: --queue-cap must be >= 1")
    if args.tenant_quota < 1:
        raise ServiceError("serve: --tenant-quota must be >= 1")
    with ExitStack() as stack:
        stack.enter_context(obs_context(
            trace=args.trace, metrics_out=args.metrics_out, enabled=True
        ))
        manager = _build_manager(args)
        stack.enter_context(engine_context(
            jobs=args.jobs,
            no_cache=args.no_cache,
            faults=args.inject_faults,
            retries=args.retries,
            deadline_s=args.deadline,
            backend=args.backend,
            cache=None if args.no_cache else manager.store,
        ))
        # the drain handler goes in before the port is published or
        # served: a supervisor may send SIGTERM the moment it sees
        # either, and the default action would kill without draining.
        drain_requested = threading.Event()
        previous = signal.signal(
            signal.SIGTERM, lambda *_: drain_requested.set()
        )
        try:
            server = ServiceHTTPServer((args.host, args.port), manager)
            host, port = server.server_address[:2]
            if args.port_file:
                atomic_write_text(Path(args.port_file), f"{port}\n")
            manager.start()
            serving = threading.Thread(
                target=server.serve_forever,
                name="service-http",
                daemon=True,
            )
            serving.start()
            print(
                f"serving on http://{host}:{port} "
                f"(state: {manager.state_dir}, workers: "
                f"{manager.config.workers}, recovered: "
                f"{manager.recovered_incomplete} requeued / "
                f"{manager.recovered_complete} served)",
                file=sys.stderr,
            )
            try:
                if args.selfcheck:
                    code = _selfcheck(host, port, args)
                    clean = manager.drain(timeout_s=60.0)
                    return code if code else (
                        EXIT_CLEAN if clean else EXIT_DEGRADED
                    )
                while not drain_requested.is_set():
                    drain_requested.wait(timeout=0.2)
                print("SIGTERM: draining...", file=sys.stderr)
                clean = manager.drain(timeout_s=args.drain_timeout)
                return EXIT_CLEAN if clean else EXIT_DEGRADED
            finally:
                server.shutdown()
                server.server_close()
        finally:
            signal.signal(signal.SIGTERM, previous)


# -- selfcheck ------------------------------------------------------------
def _http_json(url: str, body: dict | None = None) -> tuple[int, dict]:
    """One JSON request against the daemon (stdlib urllib only)."""
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        url,
        data=data,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _selfcheck(host: str, port: int, args) -> int:
    """Submit a tiny job over real HTTP and verify the full lifecycle."""
    base = f"http://{host}:{port}"
    spec = {
        "kind": "app",
        "suite": "rodinia",
        "app": "nn",
        "gpu": "NVIDIA Quadro RTX 4000",
        "level": 1,
        "seed": 0,
    }
    status, doc = _http_json(f"{base}/jobs", spec)
    if status not in (200, 201):
        print(f"selfcheck: submit failed: {status} {doc}", file=sys.stderr)
        return 1
    job = doc["job"]
    deadline = time.monotonic() + 120.0
    while True:
        status, doc = _http_json(f"{base}/jobs/{job}")
        if status != 200:
            print(f"selfcheck: poll failed: {status} {doc}", file=sys.stderr)
            return 1
        if doc["state"] == "done":
            break
        if doc["state"] in ("failed", "quarantined"):
            print(f"selfcheck: job ended {doc['state']}: "
                  f"{doc.get('error')}", file=sys.stderr)
            return 1
        if time.monotonic() > deadline:
            print("selfcheck: job did not finish in time", file=sys.stderr)
            return 1
        time.sleep(0.05)
    status, result = _http_json(f"{base}/jobs/{job}/result")
    if status != 200 or "result" not in result:
        print(f"selfcheck: result fetch failed: {status}", file=sys.stderr)
        return 1
    status, health = _http_json(f"{base}/healthz")
    if status != 200 or health.get("status") not in ("ok", "draining"):
        print(f"selfcheck: healthz failed: {status}", file=sys.stderr)
        return 1
    status, metrics = _http_json(f"{base}/metrics")
    if status != 200 or "counters" not in metrics:
        print(f"selfcheck: metrics failed: {status}", file=sys.stderr)
        return 1
    print(
        f"selfcheck ok: job {job} done; store "
        f"{health['store']['entries']} entries / "
        f"{health['store']['bytes']} bytes",
    )
    return 0


__all__ = ["EXIT_CLEAN", "EXIT_DEGRADED", "run_serve"]
