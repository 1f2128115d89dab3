"""Metrics registry: counters, gauges and histograms with a
deterministic, mergeable JSON export.

Three metric kinds, with deliberately different determinism contracts
(documented in docs/OBSERVABILITY.md and pinned by ``tests/test_obs*``):

* **Counters** (integer, monotonically increasing) count *events of the
  deterministic pipeline* — cache hits, cells simulated, retries under
  a seeded fault plan, replay passes.  For identical inputs and seeds
  their exported values are **bit-identical across runs and across
  worker counts** (``-j1`` vs ``-j4``): merging is commutative addition
  and nothing order- or clock-dependent may ever be counted.
* **Gauges** (latest/maximum value) hold run-shape and resource facts —
  worker count, peak RSS, CPU seconds.  Merging keeps the maximum.
  Excluded from the determinism guarantee.
* **Histograms** (count/sum/min/max summaries) hold wall-clock
  observations — per-stage seconds, per-cell simulation seconds.
  Excluded from the determinism guarantee.

Naming convention: dotted ``subsystem.event`` names, unit suffixes on
anything that is not a plain count (``_seconds``, ``_bytes``, ``_x``
for ratios).  Worker processes run their own registry; the parent
merges their exported payloads (:meth:`MetricsRegistry.merge`), which
is associative and commutative, so the merged export does not depend
on pool scheduling order.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any

from repro.fsutil import atomic_write_text

#: bump when the export layout changes incompatibly.
METRICS_SCHEMA = "repro/obs-metrics@1"


@dataclass
class HistogramSummary:
    """Streaming count/sum/min/max summary of observed values."""

    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def payload(self) -> dict[str, float]:
        return {
            "count": self.count,
            "sum": round(self.total, 9),
            "min": round(self.min, 9) if self.count else 0.0,
            "max": round(self.max, 9) if self.count else 0.0,
        }


class _NullMetrics:
    """Disabled registry: every recording call is a no-op."""

    enabled = False

    def inc(self, name: str, n: int = 1) -> None:
        return None

    def set_gauge(self, name: str, value: float) -> None:
        return None

    def observe(self, name: str, value: float) -> None:
        return None

    def counter(self, name: str) -> int:
        return 0

    def gauge(self, name: str) -> None:
        return None

    def histogram(self, name: str) -> None:
        return None


NULL_METRICS = _NullMetrics()


class MetricsRegistry:
    """One process's metric store; mergeable and JSON-exportable."""

    enabled = True

    def __init__(self) -> None:
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._hists: dict[str, HistogramSummary] = {}

    # -- recording --------------------------------------------------------
    def inc(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name`` (deterministic events only)."""
        self._counters[name] = self._counters.get(name, 0) + n

    def set_gauge(self, name: str, value: float) -> None:
        self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        hist = self._hists.get(name)
        if hist is None:
            hist = self._hists[name] = HistogramSummary()
        hist.observe(value)

    # -- queries ----------------------------------------------------------
    def counter(self, name: str) -> int:
        return self._counters.get(name, 0)

    def gauge(self, name: str) -> float | None:
        return self._gauges.get(name)

    def histogram(self, name: str) -> HistogramSummary | None:
        return self._hists.get(name)

    # -- merge ------------------------------------------------------------
    def merge(self, payload: "MetricsRegistry | dict[str, Any]") -> None:
        """Fold another registry (or its exported payload) into this one.

        Counters add, gauges keep the maximum, histograms combine their
        summaries.  Addition and max are commutative and associative,
        so merging N worker payloads yields the same result in any
        order — the cross-process determinism the tests pin.
        """
        if isinstance(payload, MetricsRegistry):
            payload = payload.payload()
        for name, value in payload.get("counters", {}).items():
            self.inc(name, int(value))
        for name, value in payload.get("gauges", {}).items():
            current = self._gauges.get(name)
            if current is None or value > current:
                self._gauges[name] = value
        for name, doc in payload.get("histograms", {}).items():
            hist = self._hists.get(name)
            if hist is None:
                hist = self._hists[name] = HistogramSummary()
            if doc.get("count", 0):
                hist.count += int(doc["count"])
                hist.total += float(doc["sum"])
                hist.min = min(hist.min, float(doc["min"]))
                hist.max = max(hist.max, float(doc["max"]))

    # -- export -----------------------------------------------------------
    def payload(self, *, deterministic_only: bool = False) -> dict[str, Any]:
        """Exported dict with sorted keys.

        ``deterministic_only=True`` keeps just the schema and the
        counters section — the portion guaranteed bit-identical for
        identical inputs + seed, regardless of ``--jobs``.
        """
        doc: dict[str, Any] = {
            "schema": METRICS_SCHEMA,
            "counters": {
                k: self._counters[k] for k in sorted(self._counters)
            },
        }
        if not deterministic_only:
            doc["gauges"] = {
                k: self._gauges[k] for k in sorted(self._gauges)
            }
            doc["histograms"] = {
                k: self._hists[k].payload() for k in sorted(self._hists)
            }
        return doc

    def to_json(self, *, deterministic_only: bool = False) -> str:
        """Canonical JSON (sorted keys, fixed separators, newline)."""
        return json.dumps(
            self.payload(deterministic_only=deterministic_only),
            sort_keys=True, separators=(",", ": "), indent=1,
        ) + "\n"

    def write(self, path: str | os.PathLike) -> None:
        """Atomically write the full export to ``path``."""
        atomic_write_text(path, self.to_json(), durable=False)


__all__ = [
    "METRICS_SCHEMA",
    "HistogramSummary",
    "MetricsRegistry",
    "NULL_METRICS",
]
