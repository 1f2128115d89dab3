"""Persistent, content-addressed cache of kernel simulation results.

Every entry stores the :class:`~repro.sim.gpu.KernelSimResult` of one
``(program, launch, spec, config)`` tuple under its content fingerprint
(:mod:`repro.sim.fingerprint`), as versioned JSON: per-SM
:class:`~repro.sim.counters.EventCounters` documents plus the kernel
duration and working set.  All stored quantities are integers, so the
round trip is bit-exact.

Design points:

* **Content addressing** — the filename *is* the fingerprint, so a hit
  can only serve a result whose inputs are content-equal; the inputs
  themselves (program/launch/spec) are re-attached from the caller's
  live objects rather than deserialized.
* **Corruption tolerance** — a truncated, hand-edited, non-UTF-8 or
  wrong-schema-version entry is treated as a miss (and counted in
  :attr:`CacheStats.corrupt`); the kernel is re-simulated and the entry
  overwritten.  A cache can never make a run wrong, only slower.
* **Atomic writes** — entries are written to a temp file in the store
  root and renamed into their shard, so a crashed run leaves no
  half-written entries for the next one; opening a store removes the
  temps of writers that no longer exist.
* **Sharded layout** — ``<root>/<aa>/<fingerprint>.json`` keeps
  directories small for experiment-scale caches (thousands of entries).
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.errors import SimulationError
from repro.fsutil import atomic_write_json, fsync_dir
from repro.obs.runtime import active_obs

if TYPE_CHECKING:  # avoid a circular import at runtime
    from repro.arch.spec import GPUSpec
    from repro.isa.program import KernelProgram, LaunchConfig
    from repro.sim.gpu import KernelSimResult

#: bump when the stored layout changes; older entries are re-simulated.
RESULT_SCHEMA = "repro/sim-result@1"


@dataclass
class CacheStats:
    """Hit/miss accounting for one :class:`SimResultCache` lifetime."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: unreadable / wrong-version entries encountered (counted as misses).
    corrupt: int = 0

    def render(self) -> str:
        return (
            f"{self.hits} hit(s) · {self.misses} miss(es) · "
            f"{self.stores} store(s) · {self.corrupt} corrupt"
        )


class SimResultCache:
    """On-disk store of simulation results, keyed by content fingerprint."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.stats = CacheStats()
        self._remove_dead_temps()

    def path_for(self, fingerprint: str) -> Path:
        return self.root / fingerprint[:2] / f"{fingerprint}.json"

    def _remove_dead_temps(self) -> None:
        """Remove temp files whose writer process no longer exists.

        A writer killed between its temp write and the rename leaves
        ``<fp>.tmp.<pid>.<tid>`` (a shard) or
        ``index.json.tmp.<pid>.<tid>`` (the capped store's index) in
        the store root, where no glob of the store counts it (nor a
        byte cap).  Every writer puts its temps in the root, so this
        lists one directory, not every shard.  A live writer's temp
        stays: CLI runs may share the store.
        """
        if os.name != "posix":  # os.kill(pid, 0) is no probe elsewhere
            return
        for path in self.root.glob("*.tmp.*"):
            pid = path.name.split(".tmp.", 1)[1].split(".", 1)[0]
            if not pid.isdigit():
                continue
            try:
                os.kill(int(pid), 0)
            except ProcessLookupError:
                path.unlink(missing_ok=True)
            except PermissionError:  # alive, owned by another user
                pass

    # -- load -------------------------------------------------------------
    def load(
        self,
        fingerprint: str,
        program: "KernelProgram",
        launch: "LaunchConfig",
        spec: "GPUSpec",
    ) -> "KernelSimResult | None":
        """Return the cached result, or ``None`` on miss/corruption."""
        from repro.sim.gpu import KernelSimResult

        obs = active_obs()
        path = self.path_for(fingerprint)
        with obs.tracer.span("cache.load", cat="cache",
                             key=fingerprint[:12]) as span:
            try:
                data = path.read_bytes()
            except OSError:
                self.stats.misses += 1
                obs.metrics.inc("cache.misses")
                span.set(outcome="miss")
                return None
            try:
                doc = json.loads(data.decode("utf-8"))
                result = self._decode(
                    doc, fingerprint, program, launch, spec
                )
            except (SimulationError, json.JSONDecodeError,
                    UnicodeDecodeError):
                # stale schema, truncated write, hand-edited file, not
                # UTF-8, ... — never fatal: re-simulate and overwrite.
                self.stats.corrupt += 1
                self.stats.misses += 1
                obs.metrics.inc("cache.corrupt")
                obs.metrics.inc("cache.misses")
                span.set(outcome="corrupt")
                return None
            self.stats.hits += 1
            obs.metrics.inc("cache.hits")
            span.set(outcome="hit")
            return result

    def _decode(
        self,
        doc: Any,
        fingerprint: str,
        program: "KernelProgram",
        launch: "LaunchConfig",
        spec: "GPUSpec",
    ) -> "KernelSimResult":
        # imported here, not at module top: repro.io pulls in the
        # profiler records, which import back into repro.sim.
        from repro.io.counters_json import counters_from_doc
        from repro.sim.gpu import KernelSimResult

        if not isinstance(doc, dict) or doc.get("schema") != RESULT_SCHEMA:
            raise SimulationError("unknown result schema")
        if doc.get("fingerprint") != fingerprint:
            raise SimulationError("entry/key fingerprint mismatch")
        try:
            per_sm = [counters_from_doc(d) for d in doc["per_sm"]]
            duration = int(doc["duration_cycles"])
            working_set = int(doc["working_set_bytes"])
        except (KeyError, TypeError, ValueError) as exc:
            raise SimulationError(f"malformed result entry: {exc}") from exc
        if not per_sm:
            raise SimulationError("result entry has no per-SM counters")
        return KernelSimResult(
            program=program,
            launch=launch,
            spec=spec,
            per_sm=per_sm,
            duration_cycles=duration,
            working_set_bytes=working_set,
        )

    # -- store ------------------------------------------------------------
    def store(self, fingerprint: str, result: "KernelSimResult") -> None:
        """Persist ``result`` under its fingerprint (atomic overwrite).

        The write protocol is crash-consistent: the entry is fully
        written to a temp file in the store root first, then atomically
        renamed into its shard.  A writer that dies at *any* point (the
        ``cache.write`` fault site simulates exactly that, between the
        temp write and the rename) leaves either the old entry or no
        entry — never a half-written shard a reader could see — and its
        temp is removed when the store is next opened.  A write that
        fails with ``OSError`` (disk full, say) removes its temp file
        and re-raises.
        """
        from repro.io.counters_json import counters_to_doc
        from repro.resilience.faults import active_injector

        doc = {
            "schema": RESULT_SCHEMA,
            "fingerprint": fingerprint,
            "kernel_name": result.program.name,
            "device_name": result.spec.name,
            "duration_cycles": result.duration_cycles,
            "working_set_bytes": result.working_set_bytes,
            "per_sm": [counters_to_doc(c) for c in result.per_sm],
        }
        obs = active_obs()
        path = self.path_for(fingerprint)
        with obs.tracer.span("cache.store", cat="cache",
                             key=fingerprint[:12]):
            path.parent.mkdir(parents=True, exist_ok=True)
            # one temp file per writing thread (the service's workers
            # share this store and may store one key concurrently), in
            # the root, where opening the store looks for dead ones.
            tmp = self.root / (
                f"{fingerprint}.tmp.{os.getpid()}.{threading.get_ident()}"
            )
            injector = active_injector()
            try:
                tmp.write_text(json.dumps(doc, separators=(",", ":")))
                # simulated writer crash: the temp file exists, the
                # entry does not — the atomic-rename protocol makes
                # this invisible.
                injector.fire_cache_write(fingerprint)
                os.replace(tmp, path)
            except OSError:
                tmp.unlink(missing_ok=True)
                raise
            # durability, not just crash consistency: the rename is
            # directory metadata — fsync the shard directory so the
            # entry survives power loss too.
            fsync_dir(path.parent)
            self.stats.stores += 1
            obs.metrics.inc("cache.stores")
            # simulated torn write / bit rot discovered by a later
            # reader: load() treats it as corrupt → miss → re-simulate
            # → heal.
            injector.corrupt_entry(path, fingerprint)

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.json"))


# ---------------------------------------------------------------------------
# the eviction-aware store (multi-tenant service back end)
# ---------------------------------------------------------------------------

#: bump when the size-index layout changes; older indexes are rebuilt.
STORE_INDEX_SCHEMA = "repro/store-index@1"


@dataclass
class _StoreEntry:
    """Size/cost/priority bookkeeping for one stored shard."""

    #: on-disk size of the entry file, bytes.
    size: int
    #: recompute expense proxy: the result's simulated cycle count.
    cost: int
    #: GreedyDual-Size priority; smallest evicts first.
    pri: float


class EvictingResultCache(SimResultCache):
    """A :class:`SimResultCache` with a byte cap and cost-aware LRU.

    This is the result cache promoted to shared infrastructure: many
    clients (service jobs, CLI runs) read and write one store, so it
    must hold a configured size budget without ever serving a wrong
    byte.  Three mechanisms on top of the base cache:

    * **Cost-aware LRU eviction** (GreedyDual-Size): every entry
      carries ``pri = inflate + cost/size`` where *cost* is the
      simulated cycle count (how expensive a re-simulation would be)
      and *inflate* is a logical clock raised to each victim's
      priority.  Recently-touched entries get re-inflated priorities
      (the LRU part); expensive-per-byte results survive longer (the
      cost-aware part).  All inputs are logical, so the eviction order
      is deterministic — no wall clock, pinned by the tests.
    * **Crash-safe size index** — ``<root>/index.json`` persists sizes,
      costs and priorities via temp-file + atomic rename + directory
      fsync.  At open the index is reconciled against the shard files
      actually on disk: missing files drop their entries, unindexed
      files (a writer crashed between the shard rename and the index
      rewrite — the ``store.evict`` fault site manufactures exactly
      that) are re-adopted by reading them back.  A corrupt or
      wrong-schema index is **rebuilt from the shards**, never trusted:
      the index can only mis-order evictions, not corrupt results.
      Shard and index temps left by a writer that died before its
      rename are removed at open (as for every store); a live
      writer's temp is kept.
    * **Warm-start stats** — entries/bytes found at open are reported
      (``store.warm_entries`` / ``store.warm_bytes`` gauges and
      :meth:`describe`), so ``/healthz`` can show how much simulation
      work a restarted daemon inherited.

    Invariant (pinned by ``tests/test_service_store.py``): after
    *every* public operation the store's total on-disk entry bytes are
    ``<= max_bytes``.  An entry larger than the whole cap is written
    and immediately evicted — refused admission, never a cap overrun.
    """

    def __init__(
        self, root: str | Path, *, max_bytes: int | None = None
    ) -> None:
        from repro.errors import UsageError

        if max_bytes is not None and max_bytes <= 0:
            raise UsageError(
                f"store max_bytes must be positive, got {max_bytes}"
            )
        super().__init__(root)
        self.max_bytes = max_bytes
        #: victims removed to hold the cap (lifetime of this object).
        self.evictions = 0
        #: stored entries that were themselves the eviction victim
        #: (larger than the remaining budget at their priority).
        self.rejected = 0
        #: times the index was rebuilt from shards (corrupt/missing).
        self.index_rebuilds = 0
        self._mu = threading.RLock()
        self._entries: dict[str, _StoreEntry] = {}
        self._total = 0
        #: GreedyDual inflation value (logical eviction clock).
        self._inflate = 0.0
        self._open_index()
        self.warm_entries = len(self._entries)
        self.warm_bytes = self._total
        obs = active_obs()
        obs.metrics.set_gauge("store.warm_entries", self.warm_entries)
        obs.metrics.set_gauge("store.warm_bytes", self.warm_bytes)
        self._export_gauges()

    # -- index ------------------------------------------------------------
    @property
    def index_path(self) -> Path:
        return self.root / "index.json"

    @property
    def total_bytes(self) -> int:
        return self._total

    def _entry_from_file(self, path: Path) -> "_StoreEntry | None":
        """Re-adopt an unindexed shard (cost read back from the doc)."""
        try:
            size = path.stat().st_size
            doc = json.loads(path.read_text())
            cost = max(1, int(doc["duration_cycles"]))
        except (OSError, ValueError, TypeError, KeyError):
            # unreadable shard: a later load() treats it as corrupt and
            # heals by overwrite; give it minimal priority meanwhile.
            try:
                size = path.stat().st_size
            except OSError:
                return None
            cost = 1
        return _StoreEntry(
            size=size, cost=cost, pri=self._inflate + cost / max(1, size)
        )

    def _open_index(self) -> None:
        """Load the persisted index and reconcile it with the shards."""
        indexed: dict[str, _StoreEntry] = {}
        ok = False
        try:
            doc = json.loads(self.index_path.read_text())
            if (
                isinstance(doc, dict)
                and doc.get("schema") == STORE_INDEX_SCHEMA
            ):
                self._inflate = float(doc.get("inflate", 0.0))
                for fp, rec in doc.get("entries", {}).items():
                    size, cost, pri = rec
                    indexed[str(fp)] = _StoreEntry(
                        size=int(size), cost=int(cost), pri=float(pri)
                    )
                ok = True
        except (OSError, ValueError, TypeError, KeyError):
            ok = False
        if not ok and self.index_path.exists():
            self.index_rebuilds += 1
            active_obs().metrics.inc("store.index_rebuilds")
        # ground truth is the shard files on disk, in sorted order so
        # the reconciliation itself is deterministic.
        dirty = not ok
        for path in sorted(self.root.glob("[0-9a-f][0-9a-f]/*.json")):
            fp = path.stem
            entry = indexed.pop(fp, None)
            if entry is not None:
                try:
                    actual = path.stat().st_size
                except OSError:
                    dirty = True
                    continue
                if actual != entry.size:  # torn write discovered early
                    entry.size = actual
                    dirty = True
            else:
                entry = self._entry_from_file(path)
                dirty = True
                if entry is None:
                    continue
            self._entries[fp] = entry
            self._total += entry.size
        if indexed:  # index rows whose files vanished
            dirty = True
        if self.max_bytes is not None and self._total > self.max_bytes:
            self._evict_to_cap()  # a restart may carry a smaller cap
            dirty = True
        if dirty:
            self._persist_index()

    def _persist_index(self) -> None:
        """Atomically (and durably) rewrite the size index."""
        doc = {
            "schema": STORE_INDEX_SCHEMA,
            "inflate": self._inflate,
            "entries": {
                fp: [e.size, e.cost, e.pri]
                for fp, e in sorted(self._entries.items())
            },
        }
        atomic_write_json(self.index_path, doc)

    def _export_gauges(self) -> None:
        obs = active_obs()
        obs.metrics.set_gauge("store.bytes", self._total)
        obs.metrics.set_gauge("store.entries", len(self._entries))

    # -- eviction ---------------------------------------------------------
    def _evict_to_cap(self) -> None:
        """Remove minimum-priority victims until within ``max_bytes``.

        The ``store.evict`` fault site fires *after* the victim shard
        is unlinked and *before* the index rewrite — the exact window a
        real crash would leave an index row pointing at a missing file.
        Recovery is the reconcile pass in :meth:`_open_index`.
        """
        from repro.resilience.faults import active_injector

        if self.max_bytes is None:
            return
        injector = active_injector()
        obs = active_obs()
        while self._total > self.max_bytes and self._entries:
            victim, entry = min(
                self._entries.items(), key=lambda kv: (kv[1].pri, kv[0])
            )
            del self._entries[victim]
            self._total -= entry.size
            # GreedyDual aging: survivors must beat the evicted
            # priority to stay next round.
            if entry.pri > self._inflate:
                self._inflate = entry.pri
            try:
                self.path_for(victim).unlink()
            except OSError:
                pass
            self.evictions += 1
            obs.metrics.inc("store.evictions")
            injector.fire_store_evict(victim)

    # -- cache API overrides ----------------------------------------------
    def load(self, fingerprint, program, launch, spec):
        result = super().load(fingerprint, program, launch, spec)
        with self._mu:
            entry = self._entries.get(fingerprint)
            if result is None:
                if (
                    entry is not None
                    and not self.path_for(fingerprint).exists()
                ):
                    # stale index row (crashed eviction): heal lazily.
                    del self._entries[fingerprint]
                    self._total -= entry.size
            elif entry is not None:
                # touch: re-inflate so the hit counts as recent use.
                entry.pri = self._inflate + entry.cost / max(1, entry.size)
        return result

    def store(self, fingerprint, result) -> None:
        super().store(fingerprint, result)
        path = self.path_for(fingerprint)
        with self._mu:
            try:
                size = path.stat().st_size
            except OSError:
                return
            old = self._entries.pop(fingerprint, None)
            if old is not None:
                self._total -= old.size
            cost = max(1, int(result.duration_cycles))
            self._entries[fingerprint] = _StoreEntry(
                size=size,
                cost=cost,
                pri=self._inflate + cost / max(1, size),
            )
            self._total += size
            before = self.evictions
            try:
                self._evict_to_cap()
            finally:
                if (
                    self.evictions > before
                    and fingerprint not in self._entries
                ):
                    self.rejected += 1
                    active_obs().metrics.inc("store.rejected")
            self._persist_index()
            self._export_gauges()

    # -- introspection ----------------------------------------------------
    def describe(self) -> dict:
        """Machine-readable store state (served by ``/healthz``)."""
        with self._mu:
            return {
                "entries": len(self._entries),
                "bytes": self._total,
                "max_bytes": self.max_bytes,
                "evictions": self.evictions,
                "rejected": self.rejected,
                "warm_entries": self.warm_entries,
                "warm_bytes": self.warm_bytes,
                "index_rebuilds": self.index_rebuilds,
                "hits": self.stats.hits,
                "misses": self.stats.misses,
                "stores": self.stats.stores,
                "corrupt": self.stats.corrupt,
            }


__all__ = [
    "RESULT_SCHEMA",
    "STORE_INDEX_SCHEMA",
    "CacheStats",
    "EvictingResultCache",
    "SimResultCache",
]
