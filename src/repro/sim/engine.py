"""Parallel simulation engine with content-addressed caching and a
resilient execution layer.

The simulator is deterministic: a kernel execution is a pure function
of ``(program, launch, spec, config)``.  That makes the two classic
profiling-pipeline optimizations safe to apply aggressively:

* **never recompute** — results are memoized in memory for the whole
  :func:`engine_context` block and (optionally) persisted on disk
  under their content fingerprint, so replay passes, the stages of one
  experiment regeneration, repeated CLI runs and whole regenerations
  skip simulation entirely (:mod:`repro.sim.result_cache`);
* **fan out** — independent simulation cells (the distinct kernel
  launches of an application, a suite or an experiment) execute on a
  process pool, with results merged back in submission order so every
  output is **bit-identical to a serial run**.

On top of that sits the resilience layer (:mod:`repro.resilience`):
every simulation *cell* (one kernel launch), in-process or pooled,
runs through one loop under a
:class:`~repro.resilience.policy.RetryPolicy` — transient failures,
dead pool workers and per-cell deadline overruns are retried in
rounds with deterministic exponential backoff, and a cell that
exhausts its budget is **quarantined** (recorded in
:class:`~repro.resilience.health.RunHealth` and raised as
:class:`~repro.errors.QuarantineError`) so the suite run can complete
in degraded mode instead of aborting.  Named fault sites
(``engine.transient``, ``engine.worker``, ``sim.hang``) let tests
exercise all of this reproducibly.

One :class:`ExecutionEngine` is active at a time.  The default engine
is a serial pass-through (no pool, no persistence, no memo) that
preserves the library's historical behaviour and grows no
process-lifetime state; CLI entry points install a configured engine
via :func:`engine_context` (``--jobs/--cache-dir/--no-cache``), and
every such engine memoizes results by content key whatever its
``jobs`` and cache — so a serial, store-less run simulates each
distinct cell once, exactly like a parallel one.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.errors import (
    CellTimeoutError,
    QuarantineError,
    ReproError,
    UsageError,
    WorkerCrashError,
)
from repro.obs.runtime import active_obs
from repro.resilience.health import RunHealth
from repro.resilience.policy import RetryPolicy, is_retryable
from repro.sim.fingerprint import sim_fingerprint
from repro.sim.result_cache import SimResultCache

if TYPE_CHECKING:
    from repro.sim.gpu import KernelSimResult

#: environment override for the worker count (used when no explicit
#: ``--jobs`` was given; ``0`` means all cores).
JOBS_ENV = "GPU_TOPDOWN_JOBS"

# ---------------------------------------------------------------------------
# the process-pool task (top-level so it pickles); a work item is one
# ``(spec, program, launch, config)`` tuple.
# ---------------------------------------------------------------------------

def _simulate_kernel_cell(key: str, item, attempt: int) -> "KernelSimResult":
    """One resilient cell execution: fault sites fire first.

    Runs in a worker process under a parallel engine, inline otherwise.
    The fault decisions are pure functions of ``(site, key, attempt)``,
    so serial and parallel runs observe the same fault schedule.  The
    ``sim.cell`` span (and the ``sim.cells_executed`` counter) is
    recorded here — in the worker when parallel — so the trace shows
    the real per-cell timeline regardless of where the cell ran.
    """
    from repro.resilience.faults import active_injector
    from repro.sim.gpu import GPUSimulator

    injector = active_injector()
    injector.fire_transient(key, attempt)
    injector.fire_worker_crash(key, attempt)
    injector.maybe_hang(key, attempt)
    obs = active_obs()
    spec, program, launch, config = item
    with obs.tracer.span("sim.cell", cat="sim",
                         cell=f"{program.name}@{spec.name}",
                         key=key[:12], attempt=attempt):
        t0 = time.perf_counter()
        result = GPUSimulator(spec, config).launch_uncached(program, launch)
    obs.metrics.inc("sim.cells_executed")
    obs.metrics.observe("sim.cell_seconds", time.perf_counter() - t0)
    return result


def _pool_worker_init(fault_spec: str, obs_args, backend: str) -> None:
    """Pool initializer: install the fault plan, obs, and simulator
    backend in workers.

    The backend selection is process-global (see
    :mod:`repro.sim.backend`), so fork-based pools inherit it — but
    spawn-based platforms would silently revert to the default, hence
    the explicit re-install here.
    """
    if fault_spec:
        from repro.resilience.faults import worker_init

        worker_init(fault_spec)
    if obs_args is not None:
        from repro.obs.runtime import worker_obs_init

        worker_obs_init(*obs_args)
    from repro.sim.backend import set_backend

    set_backend(backend)


def _timeout_own_fault(injector, future, key: str, attempt: int) -> bool:
    """Was a deadline overrun the timed-out cell's own fault?

    With hang injection active, the injected schedule decides — only
    cells actually scheduled to hang are charged, so
    :class:`~repro.resilience.health.RunHealth` depends on the fault
    plan alone.  Without injection (a genuinely runaway cell), a future
    that actually started running is charged; one still queued behind
    the runaway worker timed out through no fault of its own and must
    be re-dispatched as collateral, not billed retries for work it
    never got to do.
    """
    if injector.plan.rates.get("sim.hang"):
        return injector.decide("sim.hang", key, attempt)
    return future.running() or future.done()


def _overrun(label: str, deadline: float) -> CellTimeoutError:
    """A deadline overrun, in one text for pooled and in-process cells."""
    return CellTimeoutError(f"cell {label} exceeded its {deadline:g}s deadline")


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------

@dataclass
class EngineStats:
    """Work and wall-time accounting for one engine lifetime."""

    #: kernels actually simulated (memo/disk misses).
    sim_calls: int = 0
    #: kernel results served from the in-memory content memo.
    memo_hits: int = 0
    #: parallel kernel batches dispatched and tasks within them.
    batch_count: int = 0
    batch_tasks: int = 0
    #: wall seconds spent resolving misses: simulation, pool wait and
    #: retry backoff, timed once around each dispatch.
    sim_seconds: float = 0.0
    #: wall seconds spent in persistent-cache I/O.
    cache_seconds: float = 0.0
    #: caller-labelled stage timings (see :meth:`ExecutionEngine.stage`).
    stage_seconds: dict[str, float] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------

class ExecutionEngine:
    """Schedules kernel simulations over a process pool and caches."""

    def __init__(
        self,
        jobs: int = 1,
        cache: SimResultCache | None = None,
        retry: RetryPolicy | None = None,
        memo: bool = True,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1 (resolve 0/auto first)")
        self.jobs = jobs
        self.cache = cache
        self.retry = retry if retry is not None else RetryPolicy()
        self.stats = EngineStats()
        self.health = RunHealth()
        # content-addressed in-process memo, alive as long as the
        # engine: one engine_context block, whatever jobs and cache.
        # Only the pass-through default turns it off — it must not
        # grow process-lifetime state behind the caller's back.
        self._memo: "dict[str, KernelSimResult] | None" = (
            {} if memo else None
        )
        # cells that exhausted their retry budget: key -> (label, reason).
        # Hitting one again raises immediately instead of re-retrying.
        self._quarantined: dict[str, tuple[str, str]] = {}
        self._pool = None

    # -- properties -------------------------------------------------------
    @property
    def parallel(self) -> bool:
        return self.jobs > 1

    # -- pool management --------------------------------------------------
    def _executor(self):
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor

            from repro.resilience.faults import active_injector

            from repro.sim import backend as sim_backend

            plan = active_injector().plan
            # fork inherits the installed fault plan for free; the
            # initializer covers spawn-based platforms too, and
            # (re)installs worker-side observability and backend
            # selection either way.
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                mp_context=_mp_context(),
                initializer=_pool_worker_init,
                initargs=(
                    plan.spec_string() if not plan.empty else "",
                    active_obs().worker_init_args(),
                    sim_backend.current_backend(),
                ),
            )
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def _reset_pool(self, kill: bool = False) -> None:
        """Tear the pool down (hard when ``kill``); next use rebuilds it.

        ``kill`` terminates worker processes outright — required after a
        deadline overrun, where a worker is still grinding on a runaway
        cell and would otherwise keep a pool slot hostage forever.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        if kill:
            for proc in list(getattr(pool, "_processes", {}).values()):
                try:
                    proc.terminate()
                except OSError:  # pragma: no cover - already dead
                    pass
        try:
            pool.shutdown(wait=not kill, cancel_futures=True)
        except Exception:  # pragma: no cover - broken pools may throw
            pass

    # -- resilience helpers ----------------------------------------------
    @staticmethod
    def _cell_label(item) -> str:
        spec, program, launch, _config = item
        return f"{program.name}@{spec.name}"

    def _quarantine(
        self, key: str, label: str, reason: str, attempts: int
    ) -> None:
        """Record a cell as dead for this engine's lifetime."""
        self._quarantined[key] = (label, reason)
        self.health.record_quarantine(label, reason, attempts)
        obs = active_obs()
        obs.tracer.instant("quarantine", cat="resilience",
                           cell=label, reason=reason, attempts=attempts)
        obs.metrics.inc("resilience.quarantined_cells")

    def _record_retry(self, exc: ReproError, label: str,
                      attempt: int) -> None:
        """Account one budget-consuming retry in health + obs."""
        self.health.record_retry(type(exc).__name__)
        obs = active_obs()
        obs.tracer.instant("retry", cat="resilience", cell=label,
                           attempt=attempt, error=type(exc).__name__)
        obs.metrics.inc(f"resilience.retries.{type(exc).__name__}")

    def _raise_if_quarantined(self, key: str) -> None:
        hit = self._quarantined.get(key)
        if hit is not None:
            raise QuarantineError(hit[0], hit[1])

    def _run_in_process(self, key: str, item,
                        attempt: int) -> "KernelSimResult":
        """One in-process attempt of a cell, counted when it starts.

        An in-process cell cannot be preempted, but an overrun of the
        deadline is still detected, as a :class:`CellTimeoutError`
        charged to the cell.  Its text is the pool's, with no measured
        time in it, so a quarantine's reason does not depend on
        ``jobs`` or on the host's speed.
        """
        self.health.record_attempt()
        t0 = time.perf_counter()
        result = _simulate_kernel_cell(key, item, attempt)
        deadline = self.retry.deadline_s
        if deadline is not None and time.perf_counter() - t0 > deadline:
            raise _overrun(self._cell_label(item), deadline)
        return result

    def _dispatch(
        self, miss_keys: "list[str]", miss_items: "list"
    ) -> "dict[str, KernelSimResult | None]":
        """Resolve distinct cache misses; ``None`` marks quarantined.

        One loop runs every miss, in-process or fanned across the pool
        (more than one miss on a parallel engine), so both share one
        definition of an attempt, a retry, a deadline overrun, a
        backoff and a quarantine.  It works in rounds: a round takes
        the queue in submission order, requeues the cells that failed
        retryably and then sleeps once, for the round's largest
        backoff.  A pooled cell's attempt counts when it is submitted;
        an in-process cell runs, and counts its attempt, when the loop
        reaches it, so a non-retryable error stops a serial batch
        before later cells run.

        Failure handling distinguishes a cell's *own* faults (its
        injected crash/hang/transient decision, computed identically in
        the parent, or a real deadline overrun of a cell that actually
        ran) from *collateral* damage, which only a pool can do (the
        pool broke under it because some other cell killed a worker, or
        it was still queued behind a runaway cell when the deadline
        fired): own faults consume the cell's retry budget, collateral
        re-dispatches do not — so under fault injection
        :class:`RunHealth` depends only on the fault schedule, not on
        pool scheduling order or ``jobs``.
        """
        from repro.resilience.faults import active_injector

        pooled = self.parallel and len(miss_items) > 1
        if pooled:
            from concurrent.futures import TimeoutError as FutureTimeout
            from concurrent.futures.process import BrokenProcessPool

            self.stats.batch_count += 1
            self.stats.batch_tasks += len(miss_items)
            worker_died = BrokenProcessPool
        else:
            # an in-process cell has no future to time out on
            # (``except ()`` matches nothing), and its worker "dies"
            # only as the injected WorkerCrashError.
            FutureTimeout, worker_died = (), WorkerCrashError
        deadline = self.retry.deadline_s
        injector = active_injector()
        resolved: "dict[str, KernelSimResult | None]" = {}
        # (key, item, attempt, fresh): ``fresh`` marks a first try or a
        # budget-consuming retry, which count as attempts in RunHealth.
        queue = [(key, item, 0, True)
                 for key, item in zip(miss_keys, miss_items)]
        collateral: dict[str, int] = {}
        t0 = time.perf_counter()
        try:
            with ExitStack() as stack:
                if pooled:
                    stack.enter_context(active_obs().tracer.span(
                        "engine.dispatch", cat="engine",
                        cells=len(miss_items), jobs=self.jobs,
                    ))
                while queue:
                    pool = self._executor() if pooled else None
                    started = []
                    for key, item, attempt, fresh in queue:
                        future = None
                        if pool is not None:
                            if fresh:
                                self.health.record_attempt()
                            future = pool.submit(
                                _simulate_kernel_cell, key, item, attempt
                            )
                        started.append((future, key, item, attempt))
                    retry_queue = []
                    pool_dirty = False
                    backoff = 0.0
                    for future, key, item, attempt in started:
                        label = self._cell_label(item)
                        try:
                            resolved[key] = (
                                self._run_in_process(key, item, attempt)
                                if future is None
                                else future.result(timeout=deadline)
                            )
                            self.stats.sim_calls += 1
                            continue
                        except FutureTimeout:
                            exc: ReproError = _overrun(label, deadline)
                            own_fault = _timeout_own_fault(
                                injector, future, key, attempt
                            )
                            pool_dirty = True
                        except worker_died:
                            # reads alike in-process and pooled, so a
                            # quarantine does not depend on ``jobs``.
                            exc = WorkerCrashError(
                                f"worker died while simulating {label}"
                            )
                            own_fault = injector.decide(
                                "engine.worker", key, attempt
                            )
                            pool_dirty = pooled
                        except ReproError as raised:
                            if not is_retryable(raised):
                                raise
                            exc = raised
                            own_fault = True
                        if not own_fault:
                            # the pool collapsed under an innocent cell:
                            # re-dispatch without charging its retry
                            # budget (bounded, in case the pool keeps
                            # dying for real).
                            collateral[key] = collateral.get(key, 0) + 1
                            if collateral[key] <= 3 * self.retry.max_attempts:
                                retry_queue.append((key, item, attempt, False))
                                continue
                            own_fault = True  # escalate: something is wrong
                        attempt += 1
                        if attempt >= self.retry.max_attempts:
                            self._quarantine(key, label, str(exc), attempt)
                            resolved[key] = None
                        else:
                            self._record_retry(exc, label, attempt)
                            retry_queue.append((key, item, attempt, True))
                            backoff = max(
                                backoff, self.retry.backoff_s(key, attempt)
                            )
                    if pool_dirty:
                        # deadline overruns leave workers grinding on
                        # runaway cells; crashes leave the pool broken.
                        self._reset_pool(kill=True)
                    if backoff > 0.0:
                        time.sleep(backoff)
                    queue = retry_queue
        except KeyboardInterrupt:
            # terminate the pool promptly: never hang on in-flight
            # futures while the user is holding Ctrl-C.
            self._reset_pool(kill=True)
            raise
        finally:
            self.stats.sim_seconds += time.perf_counter() - t0
        return resolved

    # -- single-kernel entry (used by GPUSimulator.launch) ---------------
    def simulate(self, spec, program, launch, config,
                 key: str | None = None) -> "KernelSimResult":
        """Return the result for one launch, via memo/disk when possible.

        ``key`` is the launch's :func:`sim_fingerprint` when the caller
        already computed it (:meth:`GPUSimulator.launch` does), so the
        same launch is not hashed twice.  Raises
        :class:`~repro.errors.QuarantineError` when the cell exhausted
        its retry budget (now or earlier in this engine's lifetime).
        """
        if key is None:
            key = sim_fingerprint(program, launch, spec, config)
        (result,), _ = self._resolve([key], [(spec, program, launch, config)])
        if result is None:
            self._raise_if_quarantined(key)
        return result

    def _load(self, key: str, item) -> "KernelSimResult | None":
        if self.cache is None:
            return None
        spec, program, launch, _config = item
        t0 = time.perf_counter()
        result = self.cache.load(key, program, launch, spec)
        self.stats.cache_seconds += time.perf_counter() - t0
        return result

    def _store(self, key: str, result: "KernelSimResult") -> None:
        if self.cache is None:
            return
        t0 = time.perf_counter()
        try:
            self.cache.store(key, result)
        except (ReproError, OSError):
            # a cache can never fail a run — only make it slower.  The
            # atomic write protocol guarantees no torn entry is visible.
            self.health.cache_write_failures += 1
        finally:
            self.stats.cache_seconds += time.perf_counter() - t0

    # -- batched fan-out (applications, suites, experiment cells) --------
    def simulate_batch(
        self, items: Sequence
    ) -> "list[KernelSimResult | None]":
        """Resolve many launches at once; parallel over cache misses.

        ``items`` is a sequence of ``(spec, program, launch, config)``
        tuples.  Duplicates (by content) are simulated once.  The
        returned list matches ``items`` in order and is bit-identical
        to calling :meth:`simulate` serially on each element — except
        that cells whose retry budget is exhausted come back as
        ``None`` (and are registered as quarantined, so a later
        :meth:`simulate` of the same content raises
        :class:`~repro.errors.QuarantineError` instead of retrying
        again).
        """
        obs = active_obs()
        with obs.tracer.span("engine.batch", cat="engine",
                             items=len(items)) as batch_span:
            keys = [
                sim_fingerprint(program, launch, spec, config)
                for spec, program, launch, config in items
            ]
            out, misses = self._resolve(keys, items)
            batch_span.set(misses=misses)
            return out

    def _resolve(
        self, keys: "list[str]", items: Sequence
    ) -> "tuple[list[KernelSimResult | None], int]":
        """Memo, then store, then one dispatch of the distinct misses.

        Returns the results in ``items`` order (``None`` for a
        quarantined cell) and the number of distinct misses.
        """
        out: "list[KernelSimResult | None]" = [None] * len(items)
        # resolve memo/disk hits; collect distinct misses in first-seen
        # order so the merge order is deterministic.
        miss_keys: list[str] = []
        miss_items: list = []
        seen_missing: set[str] = set()
        for idx, key in enumerate(keys):
            if key in self._quarantined:
                continue  # already dead: stays None
            if self._memo is not None and key in self._memo:
                self.stats.memo_hits += 1
                out[idx] = self._memo[key]
                continue
            if key not in seen_missing:
                loaded = self._load(key, items[idx])
                if loaded is not None:
                    if self._memo is not None:
                        self._memo[key] = loaded
                    out[idx] = loaded
                    continue
                seen_missing.add(key)
                miss_keys.append(key)
                miss_items.append(items[idx])
        resolved: "dict[str, KernelSimResult | None]" = {}
        if miss_items:
            resolved = self._dispatch(miss_keys, miss_items)
            for key, result in resolved.items():
                if result is None:
                    continue
                self._store(key, result)
                if self._memo is not None:
                    self._memo[key] = result
        # fill remaining slots (duplicates of misses, memo-late hits).
        for idx, key in enumerate(keys):
            if out[idx] is None:
                if self._memo is not None and key in self._memo:
                    out[idx] = self._memo[key]
                else:
                    out[idx] = resolved.get(key)
        return out, len(miss_keys)

    # -- timing stages ----------------------------------------------------
    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Accumulate wall time of a caller-labelled pipeline stage.

        Stages also appear as ``stage:<name>`` spans and per-stage
        wall/CPU histograms when an observability session is active.
        """
        obs = active_obs()
        t0 = time.perf_counter()
        c0 = time.process_time()
        try:
            with obs.tracer.span(f"stage:{name}", cat="stage"):
                yield
        finally:
            elapsed = time.perf_counter() - t0
            self.stats.stage_seconds[name] = (
                self.stats.stage_seconds.get(name, 0.0) + elapsed
            )
            obs.metrics.inc("engine.stages")
            obs.metrics.observe(f"stage.{name}.wall_seconds", elapsed)
            obs.metrics.observe(f"stage.{name}.cpu_seconds",
                                time.process_time() - c0)

    def export_metrics(self) -> None:
        """Mirror this engine's accounting into the active obs session.

        Called when the engine context exits.  Counters carry only
        values that are deterministic for identical inputs + seed and
        independent of ``--jobs``; parallelism-shape and wall-clock
        quantities go to gauges/histograms (excluded from the
        determinism guarantee — see docs/OBSERVABILITY.md).
        """
        obs = active_obs()
        if not obs.enabled:
            return
        s = self.stats
        obs.metrics.inc("engine.sim_cells", s.sim_calls)
        # memo hits depend on pool shape (a parallel engine prewarms
        # each batch's distinct cells, so every later launch of them
        # is a hit; a serial engine simulates on the first launch, a
        # miss), so they are a gauge, not a counter.
        obs.metrics.set_gauge("engine.memo_hits", s.memo_hits)
        obs.metrics.set_gauge("engine.jobs", self.jobs)
        obs.metrics.set_gauge("engine.parallel_batches", s.batch_count)
        obs.metrics.set_gauge("engine.parallel_batch_tasks", s.batch_tasks)
        obs.metrics.observe("engine.sim_seconds", s.sim_seconds)
        obs.metrics.observe("engine.cache_io_seconds", s.cache_seconds)
        if self.health.cache_write_failures:
            obs.metrics.inc("cache.write_failures",
                            self.health.cache_write_failures)

    def summary(self) -> str:
        """Human-readable wall-time/cache report (CLI ``--timings``)."""
        s = self.stats
        lines = [f"engine: jobs={self.jobs}"]
        lines.append(
            f"  simulate: {s.sim_calls} kernel(s) in {s.sim_seconds:.2f}s"
            f" · memo {s.memo_hits} hit(s)"
            f" · {s.batch_count} parallel batch(es)"
            f" ({s.batch_tasks} task(s))"
        )
        if self.cache is not None:
            lines.append(
                f"  cache: {self.cache.root} ({self.cache.stats.render()}"
                f") · io {s.cache_seconds:.2f}s"
            )
        if s.stage_seconds:
            parts = " · ".join(
                f"{name} {secs:.2f}s"
                for name, secs in s.stage_seconds.items()
            )
            total = sum(s.stage_seconds.values())
            lines.append(f"  stages: {parts} · total {total:.2f}s")
        if (self.health.retry_count or self.health.degraded
                or self.health.cache_write_failures):
            lines.append(
                "\n".join("  " + ln for ln in
                          self.health.render().splitlines())
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# active-engine plumbing
# ---------------------------------------------------------------------------

_DEFAULT_ENGINE: ExecutionEngine | None = None
_ACTIVE: list[ExecutionEngine] = []


def current_engine() -> ExecutionEngine:
    """The engine in effect (innermost :func:`engine_context`, else the
    serial pass-through default)."""
    if _ACTIVE:
        return _ACTIVE[-1]
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is None:
        _DEFAULT_ENGINE = ExecutionEngine(memo=False)
    return _DEFAULT_ENGINE


def _mp_context():
    """Multiprocessing context for the pool: ``fork`` where available
    (cheap, inherits the installed fault plan), else ``spawn``, else
    whatever the platform default is."""
    for method in ("fork", "spawn"):
        try:
            return multiprocessing.get_context(method)
        except ValueError:
            continue
    return multiprocessing.get_context()  # pragma: no cover - exotic


def max_jobs() -> int:
    """Upper clamp for the worker count — enough to oversubscribe any
    reasonable box, low enough to stop a typo'd ``-j 100000`` from
    fork-bombing it."""
    return max(64, 4 * (os.cpu_count() or 1))


def resolve_jobs(jobs: int | None = None) -> int:
    """Map the CLI convention to a worker count.

    ``None`` (no ``--jobs`` flag) consults the ``GPU_TOPDOWN_JOBS``
    environment variable, defaulting to 1 (serial); ``0`` means all
    cores.  Absurd values are clamped to :func:`max_jobs`.  A bad
    environment value is warned about and ignored; an explicit
    negative ``--jobs`` raises :class:`~repro.errors.UsageError` (a
    clean usage failure, not a traceback).
    """
    if jobs is None:
        env = os.environ.get(JOBS_ENV)
        if env is None or not env.strip():
            return 1
        try:
            jobs = int(env)
        except ValueError:
            print(
                f"warning: ignoring non-integer {JOBS_ENV}={env!r}",
                file=sys.stderr,
            )
            return 1
        if jobs < 0:
            print(
                f"warning: ignoring negative {JOBS_ENV}={env!r}",
                file=sys.stderr,
            )
            return 1
    if jobs < 0:
        raise UsageError(f"--jobs must be >= 0 (0 = all cores), got {jobs}")
    if jobs == 0:
        jobs = os.cpu_count() or 1
    return max(1, min(jobs, max_jobs()))


@contextmanager
def engine_context(
    jobs: int | None = None,
    cache_dir: str | os.PathLike | None = None,
    no_cache: bool = False,
    faults: str | None = None,
    retries: int | None = None,
    deadline_s: float | None = None,
    backend: str | None = None,
    cache: "SimResultCache | None" = None,
) -> Iterator[ExecutionEngine]:
    """Install a configured engine for the duration of the block.

    The engine memoizes every result by content key until the block
    exits, so each distinct cell is simulated at most once per block.
    ``faults`` is a fault-injection spec string (see
    :mod:`repro.resilience.faults`); it is installed around the engine
    so pool workers inherit it.  ``retries``/``deadline_s`` configure
    the engine's :class:`~repro.resilience.policy.RetryPolicy`.
    ``backend`` selects the SM cycle-loop implementation for the block
    (see :mod:`repro.sim.backend`).

    A ``cache`` *instance* wins over ``cache_dir``: the service daemon
    passes its long-lived eviction-aware store here so every engine
    block shares one set of byte-cap/priority bookkeeping instead of
    each opening a fresh index.
    """
    from repro.resilience.faults import install_faults

    with ExitStack() as stack:
        if faults:
            stack.enter_context(install_faults(faults))
        if backend is not None:
            from repro.sim.backend import backend_context

            stack.enter_context(backend_context(backend))
        if no_cache:
            cache = None
        elif cache is None and cache_dir is not None:
            cache = SimResultCache(cache_dir)
        retry = RetryPolicy(
            max_attempts=retries if retries is not None else 3,
            deadline_s=deadline_s,
        )
        engine = ExecutionEngine(
            jobs=resolve_jobs(jobs), cache=cache, retry=retry
        )
        _ACTIVE.append(engine)
        try:
            with active_obs().tracer.span("engine", cat="engine",
                                          jobs=engine.jobs,
                                          cache=cache is not None):
                yield engine
        finally:
            _ACTIVE.remove(engine)
            engine.close()
            engine.export_metrics()


__all__ = [
    "EngineStats",
    "ExecutionEngine",
    "JOBS_ENV",
    "current_engine",
    "engine_context",
    "max_jobs",
    "resolve_jobs",
]
