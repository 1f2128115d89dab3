"""``gpu-topdown`` command-line front end.

Sub-commands::

    gpu-topdown gpus                      # list known devices
    gpu-topdown metrics --gpu <name>      # metrics a device exposes
    gpu-topdown analyze --gpu <name> --suite rodinia [--app srad_v2]
                        [--level 1|2|3] [--raw-stalls] [--csv out.csv]
    gpu-topdown analyze-csv --input run.csv --format ncu --cc 7.5
                        --ipc-max 2 --subpartitions 2
    gpu-topdown dynamic --kernel srad_cuda_1 [--invocations 120]
    gpu-topdown overhead [--suite rodinia]
    gpu-topdown experiment <id>           # regenerate a paper figure
    gpu-topdown report --suite altis --output report.md
    gpu-topdown workloads [--suite rodinia]
    gpu-topdown sections --app nn         # ncu default report
    gpu-topdown summary --app nn          # nvprof default mode
    gpu-topdown trace --app nn            # issue-level pipeline trace
    gpu-topdown tune --app hotspot        # Top-Down-guided launch tuning
    gpu-topdown lint [--suite all] [--json] [--drift] [--strict]
    gpu-topdown profile-self [--suite rodinia] [--level 3]
                                          # profile the profiler itself
    gpu-topdown timeline trace.sqlite     # nsys-style timeline analysis
                        [--gpu N] [--stream N] [--iters] [--json]
                        [--diff other.sqlite] [--topdown results.json]

Every simulating sub-command also accepts the execution-engine flags
(``-j/--jobs``, ``--cache-dir``, ``--no-cache``, ``--timings``), the
resilience flags (``--inject-faults``, ``--retries``, ``--deadline``)
and the observability flags (``--trace``, ``--metrics-out``); see
docs/PERFORMANCE.md, docs/RESILIENCE.md and docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro import errors
from repro.arch.compute_capability import ComputeCapability
from repro.arch.registry import get_gpu, list_gpus
from repro.core.analyzer import DeviceModel, TopDownAnalyzer
from repro.core.dynamic import detect_phases, dynamic_analysis
from repro.core.nodes import LEVEL1, Node
from repro.core.report import (
    format_table,
    hierarchy_report,
    level1_report,
    level2_report,
    level3_report,
)
from repro.core.tables import metric_names_for_level
from repro.errors import ReproError
from repro.profilers import parse_ncu_csv, parse_nvprof_csv, tool_for
from repro.sim.config import SimConfig
from repro.workloads import srad_application

#: every bundled suite, in CLI order.
SUITES = ("rodinia", "altis", "parboil", "shoc", "cuda_samples", "synth")

# -- exit codes (documented in README "Exit codes") --------------------
EXIT_OK = 0
EXIT_ERROR = 1          # generic ReproError
EXIT_USAGE = 2          # argparse usage errors (argparse's own code)
#: the run *completed* but in degraded mode: some cells/apps were
#: quarantined and the reports carry DEGRADED/QUARANTINED annotations.
EXIT_DEGRADED = 3
EXIT_INTERRUPTED = 130  # Ctrl-C (128 + SIGINT)

#: ReproError subclass → exit code; first isinstance match wins, so
#: subclasses must precede their bases.
ERROR_EXIT_CODES: tuple[tuple[type[ReproError], int], ...] = (
    (errors.UsageError, EXIT_USAGE),
    (errors.ArchitectureError, 4),
    (errors.ProgramError, 5),
    (errors.SimulationError, 6),
    (errors.CounterError, 7),
    (errors.TraceError, 14),
    (errors.ProfilerError, 8),
    (errors.AnalysisError, 9),
    (errors.WorkloadError, 10),
    (errors.LintError, 11),
    (errors.ResilienceError, 12),
    (errors.ServiceError, 13),
)


def exit_code_for(exc: ReproError) -> int:
    """Distinct exit code for each error family (scriptability)."""
    for etype, code in ERROR_EXIT_CODES:
        if isinstance(exc, etype):
            return code
    return EXIT_ERROR


def _suite(name: str):
    from repro.lint import bundled_suites

    suites = bundled_suites()
    if name not in suites:
        raise ReproError(
            f"unknown suite {name!r} ({'|'.join(SUITES)})"
        )
    return suites[name]


def _cmd_gpus(_args: argparse.Namespace) -> int:
    rows = []
    for name in list_gpus():
        spec = get_gpu(name)
        rows.append([
            name, str(spec.compute_capability),
            spec.compute_capability.generation, str(spec.sm_count),
            spec.default_profiler,
        ])
    print(format_table(["GPU", "CC", "Generation", "SMs", "Profiler"], rows))
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    spec = get_gpu(args.gpu)
    tool = tool_for(spec)
    for name in tool.available_metrics():
        print(name)
    return 0


def _prelint(apps, spec) -> int:
    """Lint + sanitize ``apps`` before an expensive run; ERRORs abort.

    ``analyze`` and ``tune`` call this unless ``--no-lint`` is given.
    Both the perf-heuristic lint rules and the static sanitizer passes
    gate the run; warnings never block — they are either waived on the
    workload or surfaced by an explicit ``gpu-topdown lint`` /
    ``gpu-topdown sanitize`` run.
    """
    from repro.lint import lint_application
    from repro.sanitize import sanitize_application

    blocking = []
    for app in apps:
        report = lint_application(app, spec)
        blocking.extend(report.errors)
        san = sanitize_application(app, spec)
        blocking.extend(san.errors)
    if not blocking:
        return 0
    for diag in blocking:
        print(f"lint: {diag.render()}", file=sys.stderr)
    print(
        "error: lint found blocking findings; fix them or rerun with "
        "--no-lint",
        file=sys.stderr,
    )
    return 1


def _presanitize(apps, spec, seed: int) -> int:
    """Dynamically-confirmed sanitize pass over ``apps`` (``--sanitize``).

    Runs every sanitizer pass with simulator confirmation and prints
    the findings; active ERROR findings abort like the lint gate.  The
    observing replay never perturbs counters, so a subsequent analysis
    of the same seed is unaffected.
    """
    from repro.sanitize import sanitize_application
    from repro.sim.config import SimConfig

    config = SimConfig(seed=seed)
    rc = 0
    for app in apps:
        report = sanitize_application(app, spec, dynamic=True,
                                      config=config)
        if report.diagnostics:
            print(report.render(), file=sys.stderr)
        if report.errors:
            rc = 1
    if rc:
        print(
            "error: sanitize found blocking findings; fix or waive "
            "them, or rerun without --sanitize",
            file=sys.stderr,
        )
    return rc


def _cmd_lint(args: argparse.Namespace) -> int:
    import dataclasses
    import json as jsonlib

    from repro.lint import (
        bundled_suites,
        default_registry,
        drift_check,
        lint_application,
        lint_model,
        lint_suite,
    )

    registry = default_registry()
    for rule_id in args.disable or ():
        registry.disable(rule_id)
    for override in args.severity or ():
        rule_id, sep, level = override.partition("=")
        if not sep:
            raise ReproError(
                f"bad --severity {override!r}; expected RULE=LEVEL"
            )
        registry.override_severity(rule_id, level)

    if args.list_rules:
        rows = [[rid, sev, scope, title]
                for rid, sev, title, scope in registry.catalog()]
        print(format_table(["Rule", "Severity", "Scope", "Title"], rows))
        return 0

    spec = get_gpu(args.gpu)
    suites = bundled_suites()
    if args.app is not None:
        if args.suite == "all":
            raise ReproError("--app needs a specific --suite")
        app = suites[args.suite].get(args.app)
        report = lint_model(spec, registry=registry).merged_with(
            lint_application(app, spec, registry=registry)
        )
        if args.drift:
            report = report.merged_with(
                drift_check(app, spec, registry=registry, seed=args.seed)
            )
        subject = f"{app.suite}/{app.name}"
    else:
        names = list(SUITES) if args.suite == "all" else [args.suite]
        report = lint_model(spec, registry=registry)
        for name in names:
            report = report.merged_with(
                lint_suite(suites[name], spec, registry=registry,
                           include_model=False)
            )
            if args.drift:
                for app in suites[name]:
                    report = report.merged_with(
                        drift_check(app, spec, registry=registry,
                                    seed=args.seed)
                    )
        subject = ("all suites" if args.suite == "all"
                   else f"suite {args.suite}")
    report = dataclasses.replace(report, subject=subject)
    if args.json:
        print(jsonlib.dumps(report.payload(), indent=2))
    else:
        print(report.render(show_suppressed=not args.hide_allowed))
    return report.exit_code(strict=args.strict)


def _cmd_sanitize(args: argparse.Namespace) -> int:
    import dataclasses
    import json as jsonlib

    from repro.lint import bundled_suites
    from repro.sanitize import (
        sanitize_application,
        sanitize_registry,
        sanitize_suite,
    )
    from repro.sim.config import SimConfig

    registry = sanitize_registry()
    for rule_id in args.disable or ():
        registry.disable(rule_id)
    for override in args.severity or ():
        rule_id, sep, level = override.partition("=")
        if not sep:
            raise ReproError(
                f"bad --severity {override!r}; expected RULE=LEVEL"
            )
        registry.override_severity(rule_id, level)

    if args.list_passes:
        rows = [[rid, sev, title]
                for rid, sev, title, _scope in registry.catalog()]
        print(format_table(["Pass", "Severity", "Title"], rows))
        return 0

    spec = get_gpu(args.gpu)
    suites = bundled_suites()
    dynamic = not args.static
    config = SimConfig(seed=args.seed)
    if args.app is not None:
        if args.suite == "all":
            raise ReproError("--app needs a specific --suite")
        app = suites[args.suite].get(args.app)
        report = sanitize_application(app, spec, registry=registry,
                                      dynamic=dynamic, config=config)
        subject = f"{app.suite}/{app.name}"
    else:
        names = list(SUITES) if args.suite == "all" else [args.suite]
        report = None
        for name in names:
            part = sanitize_suite(suites[name], spec, registry=registry,
                                  dynamic=dynamic, config=config)
            report = part if report is None else report.merged_with(part)
        subject = ("all suites" if args.suite == "all"
                   else f"suite {args.suite}")
    report = dataclasses.replace(report, subject=subject)
    if args.json:
        print(jsonlib.dumps(report.payload(), indent=2))
    else:
        print(report.render(show_suppressed=not args.hide_allowed))
    return report.exit_code(strict=args.strict)


def _prewarm(spec, apps, config) -> None:
    """Fan every distinct kernel simulation of ``apps`` across the
    active engine's pool (no-op for the serial default engine).  The
    per-app collection loops that follow hit memoized results, keeping
    their output bit-identical to a serial run."""
    from repro.sim.engine import current_engine

    engine = current_engine()
    if not engine.parallel:
        return
    engine.simulate_batch([
        (spec, inv.program, inv.launch, config)
        for app in apps
        for inv in app.invocations
    ])


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.core.attribution import attribute_node, attribution_report
    from repro.core.report import quarantine_footer
    from repro.errors import QuarantineError
    from repro.profilers.sampling import (
        SamplingPolicy,
        profile_application_sampled,
    )

    spec = get_gpu(args.gpu)
    suite = _suite(args.suite)
    apps = [suite.get(args.app)] if args.app else list(suite)
    if not args.no_lint and _prelint(apps, spec):
        return 1
    if args.sanitize and _presanitize(apps, spec, args.seed):
        return 1
    config = SimConfig(seed=args.seed)
    tool = tool_for(spec, config=config)
    metrics = metric_names_for_level(spec.compute_capability, args.level)
    analyzer = TopDownAnalyzer(spec, normalize_stalls=not args.raw_stalls)
    _prewarm(spec, apps, config)
    results = []
    profiles = []
    quarantined: dict[str, str] = {}
    for app in apps:
        try:
            if args.sample_every and args.sample_every > 1:
                sampled = profile_application_sampled(
                    tool, app, metrics,
                    SamplingPolicy.every_nth(args.sample_every),
                )
                profile = sampled.profile
            else:
                profile = tool.profile_application(app, metrics)
            profiles.append(profile)
            results.append(analyzer.analyze_application(profile))
        except QuarantineError as exc:
            # degrade: lose this app, keep the run alive.
            quarantined[app.name] = exc.reason
    if not results:
        raise QuarantineError(
            f"{suite.name}@{spec.name}",
            f"all {len(quarantined)} application(s) quarantined",
        )
    if args.app and args.level >= 2:
        print(hierarchy_report(results[0]))
        print(quarantine_footer(quarantined, results), end="")
    elif args.level == 1:
        print(level1_report(results, quarantined))
    elif args.level == 2:
        print(level2_report(results, quarantined))
    else:
        print(level3_report(results, quarantined=quarantined))
    if args.per_kernel:
        node = Node(args.per_kernel)
        for profile in profiles:
            contributions = attribute_node(analyzer, profile, node)
            print(attribution_report(contributions, node))
    if args.advise:
        from repro.core.advisor import advice_report

        for result in results:
            print(advice_report(result))
    if args.csv:
        _write_csv(args.csv, results)
        print(f"wrote {args.csv}")
    if args.json:
        from repro.io import result_to_json

        with open(args.json, "w") as fh:
            if len(results) == 1:
                fh.write(result_to_json(results[0]))
            else:
                fh.write(
                    "[" + ",\n".join(
                        result_to_json(r) for r in results
                    ) + "]"
                )
        print(f"wrote {args.json}")
    if args.json_kernels:
        from repro.core.analyzer import combine_results
        from repro.io import result_to_json

        by_kernel: dict[str, list] = {}
        for profile in profiles:
            for k in profile.kernels:
                by_kernel.setdefault(k.kernel_name, []).append(k)
        docs = []
        for kernel_name in sorted(by_kernel):
            invs = by_kernel[kernel_name]
            docs.append(result_to_json(combine_results(
                [analyzer.analyze_kernel(k) for k in invs],
                [max(1, k.duration_cycles) for k in invs],
                name=kernel_name,
                device=spec.name,
                ipc_max=spec.ipc_max,
            )))
        with open(args.json_kernels, "w") as fh:
            fh.write("[" + ",\n".join(docs) + "]")
        print(f"wrote {args.json_kernels}")
    if quarantined or any(r.degraded for r in results):
        return EXIT_DEGRADED
    return 0


def _write_csv(path: str, results) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        nodes = [Node.RETIRE, Node.DIVERGENCE, Node.FRONTEND, Node.BACKEND,
                 Node.BRANCH, Node.REPLAY, Node.FETCH, Node.DECODE,
                 Node.CORE, Node.MEMORY]
        writer.writerow(["application"] + [n.value for n in nodes])
        for r in results:
            writer.writerow([r.name] + [f"{r.fraction(n):.6f}" for n in nodes])


def _cmd_analyze_csv(args: argparse.Namespace) -> int:
    from repro.profilers.validate import validate_profile

    text = sys.stdin.read() if args.input == "-" else open(args.input).read()
    cc = ComputeCapability.parse(args.cc)
    if args.format == "ncu":
        profile = parse_ncu_csv(text, application=args.application,
                                compute_capability=cc)
    else:
        profile = parse_nvprof_csv(text, application=args.application,
                                   compute_capability=cc)
    report = validate_profile(profile)
    if report.findings:
        print(report.render(), file=sys.stderr)
    if not report.ok:
        print("error: profile failed validation; see findings above",
              file=sys.stderr)
        return 1
    device = DeviceModel(
        name=args.device_name or profile.device_name,
        compute_capability=cc,
        ipc_max=args.ipc_max,
        subpartitions=args.subpartitions,
    )
    analyzer = TopDownAnalyzer(device, normalize_stalls=not args.raw_stalls)
    result = analyzer.analyze_application(profile)
    print(hierarchy_report(result))
    return 0


def _cmd_dynamic(args: argparse.Namespace) -> int:
    spec = get_gpu(args.gpu)
    tool = tool_for(spec, config=SimConfig(seed=args.seed))
    metrics = metric_names_for_level(spec.compute_capability, 3)
    analyzer = TopDownAnalyzer(spec)
    app = srad_application(args.invocations)
    profile = tool.profile_application(app, metrics)
    series = dynamic_analysis(analyzer, profile, args.kernel)
    rows = []
    for i, r in enumerate(series.results):
        if i % max(1, args.stride) == 0:
            rows.append([str(i)] + [
                f"{r.fraction(n) * 100:6.2f}%" for n in LEVEL1
            ])
    print(format_table(
        ["Invocation", "Retire", "Divergence", "Frontend", "Backend"], rows
    ))
    phases = detect_phases(series)
    print("phases:", ", ".join(f"[{p.start}, {p.end})" for p in phases))
    return 0


def _cmd_overhead(args: argparse.Namespace) -> int:
    from repro.experiments import fig13

    suites = (_suite(args.suite),) if args.suite else None
    print(fig13.render(fig13.run(seed=args.seed, suites=suites)))
    return 0


def _cmd_workloads(args: argparse.Namespace) -> int:
    suites = ([_suite(args.suite)] if args.suite
              else [_suite(name) for name in SUITES])
    rows = []
    for suite in suites:
        for app in suite:
            kernels = ", ".join(app.kernel_names)
            rows.append([
                suite.name, app.name, str(len(app.invocations)),
                kernels[:46], app.description[:52],
            ])
    print(format_table(
        ["Suite", "Application", "Invocations", "Kernels", "Description"],
        rows,
    ))
    return 0


def _cmd_sections(args: argparse.Namespace) -> int:
    from repro.profilers import NcuTool

    spec = get_gpu(args.gpu)
    app = _suite(args.suite).get(args.app)
    tool = NcuTool(spec, SimConfig(seed=args.seed))
    seen: set[str] = set()
    for inv in app.invocations:
        if inv.name in seen:
            continue
        seen.add(inv.name)
        print(tool.details_report(inv.program, inv.launch))
    return 0


def _cmd_summary(args: argparse.Namespace) -> int:
    from repro.profilers import NvprofTool

    spec = get_gpu(args.gpu)
    app = _suite(args.suite).get(args.app)
    tool = NvprofTool(spec, SimConfig(seed=args.seed))
    print(tool.summary_report(app))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.sim.trace import trace_kernel

    spec = get_gpu(args.gpu)
    app = _suite(args.suite).get(args.app)
    inv = app.invocations[0]
    _, tracer = trace_kernel(spec, inv.program, inv.launch,
                             SimConfig(seed=args.seed))
    print(f"issue trace of {inv.name} on {spec.name} "
          f"({len(tracer.events)} issues):")
    print(tracer.listing(limit=args.limit))
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    from repro.tuner import tune_launch
    from repro.tuner.search import tuning_report

    spec = get_gpu(args.gpu)
    app = _suite(args.suite).get(args.app)
    if not args.no_lint and _prelint([app], spec):
        return 1
    if args.sanitize and _presanitize([app], spec, args.seed):
        return 1
    program = app.invocations[0].program
    tuning = tune_launch(spec, program, total_threads=args.threads,
                         seed=args.seed)
    print(f"tuning {program.name} on {spec.name} "
          f"({args.threads} threads):")
    print(tuning_report(tuning))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.core.markdown_report import markdown_report
    from repro.errors import QuarantineError

    spec = get_gpu(args.gpu)
    suite = _suite(args.suite)
    config = SimConfig(seed=args.seed)
    tool = tool_for(spec, config=config)
    metrics = metric_names_for_level(spec.compute_capability, 3)
    analyzer = TopDownAnalyzer(spec)
    _prewarm(spec, list(suite), config)
    results = {}
    quarantined: dict[str, str] = {}
    for app in suite:
        try:
            profile = tool.profile_application(app, metrics)
            results[app.name] = analyzer.analyze_application(profile)
        except QuarantineError as exc:
            quarantined[app.name] = exc.reason
    if not results:
        raise QuarantineError(
            f"{suite.name}@{spec.name}",
            f"all {len(quarantined)} application(s) quarantined",
        )
    text = markdown_report(
        results,
        title=f"Top-Down analysis: {suite.name} on {spec.name}",
        device=spec.name,
    )
    if quarantined:
        text += "\n## Quarantined applications\n\n" + "".join(
            f"- `{name}` — {reason}\n"
            for name, reason in quarantined.items()
        )
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"wrote {args.output}")
    else:
        print(text)
    if quarantined or any(r.degraded for r in results.values()):
        return EXIT_DEGRADED
    return 0


def _cmd_profile_self(args: argparse.Namespace) -> int:
    import time

    from repro.experiments.runner import profile_suite
    from repro.obs.runtime import active_obs
    from repro.obs.selfprof import render, self_profile
    from repro.sim.engine import current_engine

    spec = get_gpu(args.gpu)
    suite = _suite(args.suite)
    engine = current_engine()
    obs = active_obs()
    t0 = time.perf_counter()
    run = profile_suite(spec, suite, level=args.level, seed=args.seed)
    wall = time.perf_counter() - t0
    report = self_profile(engine.stats, wall, health=engine.health,
                          metrics=obs.metrics)
    print(f"profiling the profiler: suite {suite.name} on {spec.name} "
          f"(level {args.level}, {len(run.results)} application(s))")
    print(render(report))
    if engine.cache is not None:
        print(f"cache: {engine.cache.stats.render()}")
    return EXIT_DEGRADED if run.degraded else 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import ALL_EXPERIMENTS

    module = ALL_EXPERIMENTS.get(args.id)
    if module is None:
        print(f"unknown experiment {args.id!r}; available: "
              f"{', '.join(ALL_EXPERIMENTS)}", file=sys.stderr)
        return 2
    module.main()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.daemon import run_serve

    return run_serve(args)


def _cmd_timeline(args: argparse.Namespace) -> int:
    from repro.io.nsys_sqlite import read_trace
    from repro.obs.runtime import obs_context
    from repro.timeline import (
        diff_payload,
        diff_report,
        diff_traces,
        load_topdown_results,
        payload_to_json,
        timeline_payload,
        timeline_report,
    )

    # timeline does not simulate, so it installs its own observability
    # context instead of riding the engine wrapper in main().
    with obs_context(trace=args.trace, metrics_out=args.metrics_out):
        trace = read_trace(args.database)
        if args.diff:
            other = read_trace(args.diff)
            diff = diff_traces(
                trace, other, min_gap_us=args.min_gap_us,
                launch_threshold_us=args.launch_threshold_us,
            )
            if args.json:
                import json

                sys.stdout.write(json.dumps(
                    diff_payload(diff, top=args.top), sort_keys=True,
                    separators=(",", ": "), indent=1) + "\n")
            else:
                print(diff_report(diff, top=args.top))
            return 0
        topdown = (load_topdown_results(args.topdown)
                   if args.topdown else None)
        kwargs = dict(
            device=args.gpu, stream=args.stream,
            min_gap_us=args.min_gap_us,
            launch_threshold_us=args.launch_threshold_us,
            top=args.top, topdown=topdown,
        )
        if args.json:
            sys.stdout.write(
                payload_to_json(timeline_payload(trace, **kwargs))
            )
        else:
            print(timeline_report(trace, show_iterations=args.iters,
                                  **kwargs))
    return 0


def _engine_parent() -> argparse.ArgumentParser:
    """Shared execution-engine flags for every simulating sub-command."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("execution engine")
    group.add_argument("-j", "--jobs", type=int, default=None,
                       help="simulation worker processes (0 = all cores; "
                            "default: $GPU_TOPDOWN_JOBS or 1 = serial)")
    group.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="persist simulation results under DIR and "
                            "reuse them across runs")
    group.add_argument("--no-cache", action="store_true",
                       help="ignore --cache-dir for this run")
    from repro.sim.backend import BACKENDS, DEFAULT_BACKEND

    group.add_argument("--backend", default=None, choices=list(BACKENDS),
                       help="SM cycle-loop implementation (default: "
                            f"{DEFAULT_BACKEND}; both backends produce "
                            "bit-identical counters, see "
                            "docs/SIMULATOR.md)")
    group.add_argument("--timings", action="store_true",
                       help="print the engine wall-time/cache/health "
                            "summary to stderr")
    resil = parent.add_argument_group("resilience")
    resil.add_argument("--inject-faults", default=None, metavar="SPEC",
                       help="deterministic fault plan, e.g. "
                            "'seed=7,engine.transient@0.3,cache.entry' "
                            "(default: $GPU_TOPDOWN_FAULTS)")
    resil.add_argument("--retries", type=int, default=None, metavar="N",
                       help="attempts per simulation cell before "
                            "quarantine (default 3)")
    resil.add_argument("--deadline", type=float, default=None,
                       metavar="SECONDS",
                       help="wall-clock deadline per simulation cell "
                            "(default: none)")
    obsgrp = parent.add_argument_group("observability")
    obsgrp.add_argument("--trace", default=None, metavar="FILE",
                        help="write a Chrome trace-event / Perfetto "
                             "timeline of this run to FILE "
                             "(see docs/OBSERVABILITY.md)")
    obsgrp.add_argument("--metrics-out", default=None, metavar="FILE",
                        help="write the metrics export (counters, "
                             "gauges, histograms) to FILE as JSON; the "
                             "counters section is deterministic across "
                             "--jobs")
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpu-topdown",
        description="Top-Down performance profiling for NVIDIA GPUs "
                    "(IPPS 2022 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    engine_parent = _engine_parent()

    sub.add_parser("gpus", help="list known devices").set_defaults(
        func=_cmd_gpus
    )

    p = sub.add_parser("metrics", help="list a device's metrics")
    p.add_argument("--gpu", default="NVIDIA Quadro RTX 4000")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("analyze", parents=[engine_parent], help="Top-Down analysis of a suite/app")
    p.add_argument("--gpu", default="NVIDIA Quadro RTX 4000")
    p.add_argument("--suite", default="rodinia", choices=list(SUITES))
    p.add_argument("--app", default=None)
    p.add_argument("--level", type=int, default=1, choices=[1, 2, 3])
    p.add_argument("--raw-stalls", action="store_true",
                   help="report the unattributed stall residue instead of "
                        "normalizing Frontend/Backend over IPC_STALL")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", default=None, help="also write results as CSV")
    p.add_argument("--json", default=None,
                   help="also write results as JSON")
    p.add_argument("--json-kernels", default=None, metavar="FILE",
                   help="also write *per-kernel* results as a JSON "
                        "array (joinable by gpu-topdown timeline "
                        "--topdown)")
    p.add_argument("--sample-every", type=int, default=0,
                   help="instrument only every Nth invocation "
                        "(sampling-based collection, paper §VII)")
    p.add_argument("--per-kernel", default=None,
                   metavar="NODE",
                   help="attribute one hierarchy node back to kernels "
                        "(e.g. memory_bound)")
    p.add_argument("--advise", action="store_true",
                   help="print ranked optimization guidance per app")
    p.add_argument("--no-lint", action="store_true",
                   help="skip the pre-run lint pass")
    p.add_argument("--sanitize", action="store_true",
                   help="run the dynamically-confirmed sanitizer passes "
                        "before analysis (ERROR findings abort)")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("analyze-csv",
                       help="analyze a real nvprof/ncu CSV export")
    p.add_argument("--input", required=True, help="path or - for stdin")
    p.add_argument("--format", choices=["ncu", "nvprof"], required=True)
    p.add_argument("--cc", required=True, help="compute capability, e.g. 7.5")
    p.add_argument("--ipc-max", type=float, required=True)
    p.add_argument("--subpartitions", type=int, required=True)
    p.add_argument("--application", default="application")
    p.add_argument("--device-name", default=None)
    p.add_argument("--raw-stalls", action="store_true")
    p.set_defaults(func=_cmd_analyze_csv)

    p = sub.add_parser("dynamic", parents=[engine_parent], help="per-invocation kernel evolution")
    p.add_argument("--gpu", default="NVIDIA Quadro RTX 4000")
    p.add_argument("--kernel", default="srad_cuda_1",
                   choices=["srad_cuda_1", "srad_cuda_2"])
    p.add_argument("--invocations", type=int, default=120)
    p.add_argument("--stride", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_dynamic)

    p = sub.add_parser("overhead", parents=[engine_parent], help="profiling-overhead report")
    p.add_argument("--suite", default=None, choices=list(SUITES))
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_overhead)

    p = sub.add_parser(
        "profile-self", parents=[engine_parent],
        help="profile the profiler itself: payload vs orchestration "
             "time (docs/OBSERVABILITY.md)",
    )
    p.add_argument("--gpu", default="NVIDIA Quadro RTX 4000")
    p.add_argument("--suite", default="rodinia", choices=list(SUITES))
    p.add_argument("--level", type=int, default=3, choices=[1, 2, 3])
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_profile_self)

    p = sub.add_parser("experiment", parents=[engine_parent], help="regenerate a paper table/figure")
    p.add_argument("id", help="table9|tables|fig4|...|fig13|ext-...")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("tune", parents=[engine_parent], help="Top-Down-guided launch tuning")
    p.add_argument("--gpu", default="NVIDIA Quadro RTX 4000")
    p.add_argument("--suite", default="rodinia", choices=list(SUITES))
    p.add_argument("--app", required=True)
    p.add_argument("--threads", type=int, default=36 * 2048)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-lint", action="store_true",
                   help="skip the pre-run lint pass")
    p.add_argument("--sanitize", action="store_true",
                   help="run the dynamically-confirmed sanitizer passes "
                        "before tuning (ERROR findings abort)")
    p.set_defaults(func=_cmd_tune)

    p = sub.add_parser("report", parents=[engine_parent], help="write a markdown analysis report")
    p.add_argument("--gpu", default="NVIDIA Quadro RTX 4000")
    p.add_argument("--suite", default="rodinia", choices=list(SUITES))
    p.add_argument("--output", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("workloads", help="list the modelled applications")
    p.add_argument("--suite", default=None, choices=list(SUITES))
    p.set_defaults(func=_cmd_workloads)

    p = sub.add_parser("sections", parents=[engine_parent],
                       help="ncu default report (SOL/launch/occupancy)")
    p.add_argument("--gpu", default="NVIDIA Quadro RTX 4000")
    p.add_argument("--suite", default="rodinia",
                   choices=list(SUITES))
    p.add_argument("--app", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_sections)

    p = sub.add_parser("summary", parents=[engine_parent],
                       help="nvprof default summary (kernels + memcpy)")
    p.add_argument("--gpu", default="NVIDIA GTX 1070")
    p.add_argument("--suite", default="rodinia",
                   choices=list(SUITES))
    p.add_argument("--app", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_summary)

    p = sub.add_parser("trace", parents=[engine_parent], help="issue-level pipeline trace")
    p.add_argument("--gpu", default="NVIDIA Quadro RTX 4000")
    p.add_argument("--suite", default="rodinia",
                   choices=list(SUITES))
    p.add_argument("--app", required=True)
    p.add_argument("--limit", type=int, default=40)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "lint",
        parents=[engine_parent],
        help="static analysis of kernels and the model itself",
    )
    p.add_argument("--gpu", default="NVIDIA Quadro RTX 4000")
    p.add_argument("--suite", default="all",
                   choices=["all", *SUITES])
    p.add_argument("--app", default=None,
                   help="lint a single application of --suite")
    p.add_argument("--json", action="store_true",
                   help="emit the machine-readable report")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule catalog and exit")
    p.add_argument("--disable", action="append", metavar="RULE",
                   help="disable a rule id (repeatable)")
    p.add_argument("--severity", action="append", metavar="RULE=LEVEL",
                   help="override a rule's severity (repeatable)")
    p.add_argument("--drift", action="store_true",
                   help="also run the TD-DRIFT static-vs-measured "
                        "cross-check (profiles each application)")
    p.add_argument("--strict", action="store_true",
                   help="exit non-zero on warnings too")
    p.add_argument("--hide-allowed", action="store_true",
                   help="omit waived findings from the text report")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser(
        "serve", parents=[engine_parent],
        help="profiling-as-a-service daemon (HTTP/JSON job API, "
             "crash-recoverable; docs/SERVICE.md)",
    )
    p.add_argument("--state-dir", required=True, metavar="DIR",
                   help="journal, result store and job results live "
                        "here; a restart recovers from it")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="listen port (0 = ephemeral; see --port-file)")
    p.add_argument("--port-file", default=None, metavar="FILE",
                   help="atomically write the bound port to FILE once "
                        "listening")
    p.add_argument("--workers", type=int, default=2,
                   help="job worker threads (default 2)")
    p.add_argument("--queue-cap", type=int, default=16,
                   help="queued-job capacity; beyond it submissions get "
                        "429 queue_full (default 16)")
    p.add_argument("--tenant-quota", type=int, default=8,
                   help="max active jobs per tenant; beyond it 429 "
                        "quota_exceeded (default 8)")
    p.add_argument("--store-max-bytes", type=int, default=None,
                   metavar="N",
                   help="byte cap of the kernel-result store; holding "
                        "it evicts cost-aware-LRU victims (default: "
                        "unbounded)")
    p.add_argument("--hang-timeout", type=float, default=60.0,
                   metavar="SECONDS",
                   help="a job running longer than this is abandoned "
                        "and re-dispatched (default 60)")
    p.add_argument("--drain-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="max time to wait for in-flight jobs on "
                        "SIGTERM (default: wait forever)")
    p.add_argument("--selfcheck", action="store_true",
                   help="start, run one job through the HTTP API, "
                        "verify, drain, exit")
    # serve owns its obs/engine/store lifecycle (the engine must share
    # the daemon's eviction-aware store), so main() must not wrap it.
    p.set_defaults(func=_cmd_serve, own_engine=True)

    p = sub.add_parser(
        "sanitize",
        parents=[engine_parent],
        help="compute-sanitizer-style correctness passes with "
             "simulator-confirmed race/divergence verdicts",
    )
    p.add_argument("--gpu", default="NVIDIA Quadro RTX 4000")
    p.add_argument("--suite", default="all",
                   choices=["all", *SUITES])
    p.add_argument("--app", default=None,
                   help="sanitize a single application of --suite")
    p.add_argument("--json", action="store_true",
                   help="emit the machine-readable report")
    p.add_argument("--list-passes", action="store_true",
                   help="print the pass catalog and exit")
    p.add_argument("--disable", action="append", metavar="PASS",
                   help="disable a pass id (repeatable)")
    p.add_argument("--severity", action="append", metavar="PASS=LEVEL",
                   help="override a pass's severity (repeatable)")
    p.add_argument("--static", action="store_true",
                   help="skip the simulator replay (no dynamic "
                        "CONFIRMED/NOT-OBSERVED verdicts)")
    p.add_argument("--strict", action="store_true",
                   help="exit non-zero on warnings too")
    p.add_argument("--hide-allowed", action="store_true",
                   help="omit waived findings from the text report")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_sanitize)

    p = sub.add_parser(
        "timeline",
        help="timeline analysis of an nsys-style SQLite trace: "
             "bubbles, iterations, hotspots, occupancy, diffs",
    )
    p.add_argument("database", help="nsys-exported .sqlite trace")
    p.add_argument("--gpu", type=int, default=None, metavar="ID",
                   help="restrict the analyses to one device id")
    p.add_argument("--stream", type=int, default=None, metavar="ID",
                   help="restrict the analyses to one stream id")
    p.add_argument("--iters", action="store_true",
                   help="print the per-iteration table (NVTX-detected)")
    p.add_argument("--diff", default=None, metavar="OTHER",
                   help="diff this trace (A) against OTHER (B) instead "
                        "of reporting")
    p.add_argument("--json", action="store_true",
                   help="emit the canonical machine-readable report "
                        "(bit-identical across runs)")
    p.add_argument("--top", type=int, default=10,
                   help="hotspot/diff rows to keep (default 10)")
    p.add_argument("--topdown", default=None, metavar="RESULTS",
                   help="join hotspot kernels to Top-Down results from "
                        "analyze --json / --json-kernels")
    p.add_argument("--min-gap-us", type=float, default=1.0,
                   help="ignore idle gaps shorter than this (default 1)")
    p.add_argument("--launch-threshold-us", type=float, default=10.0,
                   help="gaps at or below this classify as launch "
                        "latency (default 10)")
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="write a Chrome trace-event timeline of this "
                        "run to FILE (see docs/OBSERVABILITY.md)")
    p.add_argument("--metrics-out", default=None, metavar="FILE",
                   help="write the metrics export to FILE as JSON")
    p.set_defaults(func=_cmd_timeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    from repro.obs.runtime import obs_context
    from repro.sim.engine import engine_context

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "jobs") and not getattr(args, "own_engine", False):
            # simulating sub-command: install observability (outermost,
            # so worker spills merge after the pool drains) and the
            # configured engine.  profile-self always records obs
            # in-memory; otherwise --trace/--metrics-out opt in.
            with obs_context(
                trace=args.trace, metrics_out=args.metrics_out,
                enabled=(True if args.command == "profile-self"
                         else None),
            ), engine_context(jobs=args.jobs, cache_dir=args.cache_dir,
                              no_cache=args.no_cache,
                              faults=args.inject_faults,
                              retries=args.retries,
                              deadline_s=args.deadline,
                              backend=args.backend) as engine:
                rc = args.func(args)
                if (args.timings or engine.parallel
                        or engine.cache is not None
                        or engine.health.degraded):
                    print(engine.summary(), file=sys.stderr)
            return rc
        return args.func(args)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except BrokenPipeError:
        # The stdout consumer (head, less, ...) went away mid-print.
        # Point stdout at devnull so the interpreter's exit-time flush
        # cannot traceback, and exit like a signalled filter would.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 128 + 13  # SIGPIPE
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
