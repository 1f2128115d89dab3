"""Generate the full artifact bundle: every table/figure's data as text
(and the figure datasets as CSV) under one output directory.

``python -m repro.experiments.generate_all --output artifacts/``
produces the complete paper-reproduction evidence in one run — the
files a replication reviewer would want to diff.

The run is organised as a sequence of *cells* (one experiment stage
each) journalled through :class:`repro.resilience.checkpoint.RunJournal`:
a run killed at any instant can be relaunched with ``--resume`` and
restarts from the first incomplete cell, producing a bundle
bit-identical to an uninterrupted run.  ``MANIFEST.txt`` is fully
deterministic (parameters + file list); wall-clock timings and the
engine's :class:`~repro.resilience.health.RunHealth` summary go to
``RUNHEALTH.txt``, the bundle's only nondeterministic file.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
import time
from pathlib import Path

from repro.core.nodes import LEVEL1, LEVEL2, Node
from repro.errors import ReproError
from repro.fsutil import atomic_write_text
from repro.resilience.checkpoint import RunJournal

#: journal file name inside the output directory (deleted on success).
JOURNAL_NAME = ".generate_all.journal"


def _write(path: Path, text: str) -> None:
    # atomic and durable: a killed run never leaves a torn artifact,
    # and each one is on disk before the journal entry vouching for it.
    atomic_write_text(path, text)
    print(f"  wrote {path}")


def _level_csv(results: dict[str, "TopDownResult"]) -> str:
    out = io.StringIO()
    writer = csv.writer(out)
    nodes = [*LEVEL1, Node.UNATTRIBUTED, *LEVEL2]
    writer.writerow(["application"] + [n.value for n in nodes])
    for name, result in results.items():
        writer.writerow(
            [name] + [f"{result.fraction(n):.6f}" for n in nodes]
        )
    return out.getvalue()


def _stages(seed: int, srad_invocations: int):
    """The run's cells: ``(name, fn)`` where ``fn() -> [(file, text)]``.

    Each cell is independently journalable — it returns every file it
    owns in one shot, so a cell is either fully present in the bundle
    or re-run from scratch on ``--resume``.
    """
    from repro.experiments import (
        ext_cross_arch,
        ext_sampling,
        ext_suites,
        fig03,
        fig04,
        fig05,
        fig06,
        fig07,
        fig08,
        fig09,
        fig10,
        fig11_12,
        fig13,
        table9,
        tables_metrics,
    )

    def s_fig04():
        r = fig04.run(seed=seed)
        return [
            ("fig04.txt", fig04.render(r)),
            ("fig04.csv", _level_csv(
                {f"tile{t}": res for t, res in r.results.items()}
            )),
        ]

    def s_fig05():
        r = fig05.run(seed=seed)
        return [
            ("fig05.txt", fig05.render(r)),
            ("fig05_pascal.csv", _level_csv(r.pascal.results)),
            ("fig05_turing.csv", _level_csv(r.turing.results)),
        ]

    def s_fig08():
        r = fig08.run(seed=seed)
        return [
            ("fig08.txt", fig08.render(r)),
            ("fig08.csv", _level_csv(r.run.results)),
        ]

    def s_fig11_12():
        r = fig11_12.run(invocations=srad_invocations, seed=seed)
        series_csv = io.StringIO()
        writer = csv.writer(series_csv)
        writer.writerow(
            ["kernel", "invocation"] + [n.value for n in LEVEL1]
        )
        for kernel, series in r.series.items():
            for i, result in enumerate(series.results):
                writer.writerow(
                    [kernel, i]
                    + [f"{result.fraction(n):.6f}" for n in LEVEL1]
                )
        return [
            ("fig11_12.txt", fig11_12.render(r)),
            ("fig11_12.csv", series_csv.getvalue()),
        ]

    def s_fig13():
        r = fig13.run(seed=seed)
        overhead_csv = io.StringIO()
        writer = csv.writer(overhead_csv)
        writer.writerow(["application", "overhead", "passes"])
        for record in r.records:
            writer.writerow([
                record.application, f"{record.overhead:.4f}", record.passes,
            ])
        return [
            ("fig13.txt", fig13.render(r)),
            ("fig13.csv", overhead_csv.getvalue()),
        ]

    return [
        ("table9", lambda: [("table9.txt", table9.render())]),
        ("tables_1_to_8",
         lambda: [("tables_1_to_8.txt", tables_metrics.render())]),
        ("fig03", lambda: [("fig03_hierarchy.txt", fig03.render())]),
        ("fig04", s_fig04),
        ("fig05", s_fig05),
        ("fig06", lambda: [("fig06.txt", fig06.render(fig06.run(seed=seed)))]),
        ("fig07", lambda: [("fig07.txt", fig07.render(fig07.run(seed=seed)))]),
        ("fig08", s_fig08),
        ("fig09", lambda: [("fig09.txt", fig09.render(fig09.run(seed=seed)))]),
        ("fig10", lambda: [("fig10.txt", fig10.render(fig10.run(seed=seed)))]),
        ("fig11_12", s_fig11_12),
        ("fig13", s_fig13),
        ("ext_sampling", lambda: [
            ("ext_sampling.txt",
             ext_sampling.render(ext_sampling.run(seed=seed))),
        ]),
        ("ext_cross_arch", lambda: [
            ("ext_cross_arch.txt",
             ext_cross_arch.render(ext_cross_arch.run(seed=seed))),
        ]),
        ("ext_suites", lambda: [
            ("ext_suites.txt", ext_suites.render(ext_suites.run(seed=seed))),
        ]),
    ]


def generate_all(output: Path, *, seed: int = 0,
                 srad_invocations: int = 120,
                 resume: bool = False) -> list[Path]:
    """Run every experiment and write its rendered text + CSV data.

    Honours the active :mod:`repro.sim.engine` — run under
    ``engine_context(jobs=..., cache_dir=...)`` (or the CLI flags of
    :func:`main`) to fan experiment cells out across processes and to
    reuse simulations across repeated regenerations.

    With ``resume=True``, cells already recorded complete in the run
    journal (same seed/parameters, artifact files still present) are
    skipped; everything else re-runs.  The resulting bundle is
    bit-identical to an uninterrupted run except ``RUNHEALTH.txt``
    (wall-clock timings).
    """
    from repro.obs.runtime import active_obs
    from repro.sim.engine import current_engine

    obs = active_obs()
    output.mkdir(parents=True, exist_ok=True)
    journal = RunJournal(
        output / JOURNAL_NAME,
        {"seed": seed, "srad_invocations": srad_invocations},
        resume=resume,
    )
    written: list[Path] = []
    stage_times: list[tuple[str, float]] = []
    resumed = 0
    engine = current_engine()

    start = time.time()
    try:
        for name, fn in _stages(seed, srad_invocations):
            if journal.done(name):
                # cell completed by a previous (killed) run: keep it.
                for fname in journal.files_of(name):
                    written.append(output / fname)
                resumed += 1
                obs.tracer.instant("journal.resume_skip",
                                   cat="resilience", cell=name)
                obs.metrics.inc("generate_all.cells_resumed")
                print(f"  resume: {name} complete, skipping")
                continue
            t0 = time.perf_counter()
            with engine.stage(name):
                files = fn()
            stage_times.append((name, time.perf_counter() - t0))
            for fname, text in files:
                path = output / fname
                _write(path, text)
                written.append(path)
            # artifacts are on disk before the cell is marked done.
            journal.record(name, [fname for fname, _ in files])
    finally:
        journal.close()

    elapsed = time.time() - start
    manifest = output / "MANIFEST.txt"
    # deterministic: parameters + file list only (no wall times), so a
    # resumed run's bundle diffs clean against an uninterrupted one.
    _write(manifest, "\n".join(
        [f"generated with seed={seed} "
         f"srad_invocations={srad_invocations}"]
        + [p.name for p in written]
    ) + "\n")
    written.append(manifest)

    health = output / "RUNHEALTH.txt"
    health_lines = [f"elapsed: {elapsed:.1f}s"]
    if resumed:
        health_lines.append(f"resumed: {resumed} cell(s) from journal")
    health_lines += [
        f"stage {name}: {secs:.2f}s" for name, secs in stage_times
    ]
    health_lines.append(engine.health.render())
    # the tool profiling itself: payload (simulated-kernel) seconds vs
    # orchestration overhead, our analogue of the paper's §VI numbers.
    from repro.obs.selfprof import render_lines, self_profile

    health_lines += render_lines(self_profile(
        engine.stats, elapsed, health=engine.health, metrics=obs.metrics,
    ))
    _write(health, "\n".join(health_lines) + "\n")
    written.append(health)

    journal.complete()
    return written


def main(argv: list[str] | None = None) -> int:
    from repro.obs.runtime import obs_context
    from repro.sim.engine import engine_context

    parser = argparse.ArgumentParser(
        description="generate the full paper-reproduction artifact bundle"
    )
    parser.add_argument("--output", default="artifacts")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--srad-invocations", type=int, default=120)
    parser.add_argument("--resume", action="store_true",
                        help="skip cells a previous (interrupted) run "
                             "already completed")
    parser.add_argument("-j", "--jobs", type=int, default=None,
                        help="simulation worker processes (0 = all cores; "
                             "default: $GPU_TOPDOWN_JOBS or serial)")
    parser.add_argument("--cache-dir", default=None,
                        help="persistent simulation-result cache directory")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore --cache-dir (simulate everything)")
    parser.add_argument("--timings", action="store_true",
                        help="print the engine wall-time summary")
    parser.add_argument("--trace", default=None, metavar="FILE",
                        help="write a Chrome trace-event / Perfetto "
                             "timeline of the run (docs/OBSERVABILITY.md)")
    parser.add_argument("--metrics-out", default=None, metavar="FILE",
                        help="write the observability metrics export "
                             "(counters deterministic across --jobs)")
    parser.add_argument("--inject-faults", default=None, metavar="SPEC",
                        help="deterministic fault plan "
                             "(default: $GPU_TOPDOWN_FAULTS)")
    parser.add_argument("--retries", type=int, default=None,
                        help="attempts per simulation cell (default 3)")
    parser.add_argument("--deadline", type=float, default=None,
                        help="wall-clock deadline per cell, seconds")
    args = parser.parse_args(argv)
    try:
        with obs_context(trace=args.trace, metrics_out=args.metrics_out,
                         process_name="generate_all"), \
             engine_context(jobs=args.jobs, cache_dir=args.cache_dir,
                            no_cache=args.no_cache,
                            faults=args.inject_faults,
                            retries=args.retries,
                            deadline_s=args.deadline) as engine:
            written = generate_all(Path(args.output), seed=args.seed,
                                   srad_invocations=args.srad_invocations,
                                   resume=args.resume)
            if (args.timings or engine.parallel
                    or engine.cache is not None or engine.health.degraded):
                print(engine.summary(), file=sys.stderr)
            degraded = engine.health.degraded
    except KeyboardInterrupt:
        print("interrupted (relaunch with --resume to continue)",
              file=sys.stderr)
        return 130
    except ReproError as exc:
        from repro.cli import exit_code_for

        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    print(f"{len(written)} artifacts in {args.output}/")
    return 3 if degraded else 0


if __name__ == "__main__":
    sys.exit(main())
