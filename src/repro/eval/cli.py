"""Command-line interface: run paper experiments from a shell.

Usage (via ``python -m repro``)::

    python -m repro list                      # available experiments/traces
    python -m repro run fig5                  # one figure, quick trace set
    python -m repro run fig9 --full           # all 45 traces
    python -m repro run fig5 --full --jobs 4  # 4 parallel worker processes
    python -m repro run fig7 --traces INT_xli MM_aud --instructions 50000
    python -m repro summarize INT_xli         # trace statistics
    python -m repro analyze INT_xli           # Section 2-style load analysis
    python -m repro sweep cap.history_length 1 2 4 8
    python -m repro verify --fuzz 500 --seed 0   # differential fuzzing
    python -m repro verify --traces INT_xli      # differential suite replay
    python -m repro lint                         # static-analysis rules
    python -m repro lint --rules R001 --format json
    python -m repro stats breakdown              # misprediction-cause tables
    python -m repro stats summarize telemetry/   # run-manifest summary
    python -m repro stats diff base/ cand/       # flag perf/accuracy drift
    python -m repro stats validate telemetry/    # schema-check manifests
    python -m repro stats bench --gate 15        # fig5 wall-clock history
    python -m repro stats slo slo_report.json    # render a serving SLO report
    python -m repro stats tail 127.0.0.1:9100    # follow a live admin endpoint
    python -m repro stats tail telemetry/ --once # digest manifests/postmortems
    python -m repro stats spans spans.json       # summarise a span export
    python -m repro run fig5 --full --backend python   # force scalar path
    python -m repro serve --port 8377            # prediction-as-a-service
    python -m repro serve --shards 2 --telemetry # sharded, with manifests
    python -m repro serve --admin-port 0 --flight-dir flight/  # observable
    python -m repro ingest convert t.trc t.npz   # external trace -> Trace
    python -m repro ingest validate              # check the trace registry
    python -m repro run fig5 --traces ext_quick  # registry set in a figure
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict, List, Optional

from ..workloads import suites
from . import config as run_config
from . import experiments as E
from .engine import resolve_jobs

#: name -> (driver, description)
EXPERIMENTS: Dict[str, tuple] = {
    "fig5": (E.fig5, "prediction rate/accuracy of stride, CAP, hybrid"),
    "fig6": (E.fig6, "hybrid vs Load Buffer geometry"),
    "lt_sweep": (E.lt_sweep, "hybrid vs Link Table size (Sec 4.2)"),
    "fig7": (E.fig7, "processor speedup, immediate update"),
    "lt_update_policy": (E.lt_update_policy, "LT update policies (Sec 4.3)"),
    "fig8": (E.fig8, "hybrid selector performance"),
    "fig9": (E.fig9, "history length x global correlation"),
    "fig10": (E.fig10, "LT tags / CFI vs mispredictions"),
    "fig11": (E.fig11, "prediction-gap sweep"),
    "fig12": (E.fig12, "speedup at prediction gap 8"),
    "baselines": (E.baselines, "last-address / stride coverage (Sec 1)"),
    "control_based": (E.control_based, "g-share / call-path predictors"),
    "value_vs_address": (
        E.value_vs_address, "load-value vs address predictability (Sec 1)"
    ),
}


def _cmd_list(_args: argparse.Namespace) -> int:
    from ..workloads import registry

    print("experiments:")
    for name, (_, description) in EXPERIMENTS.items():
        print(f"  {name:<18} {description}")
    print()
    print("suites / traces:")
    for suite in suites.SUITE_NAMES:
        print(f"  {suite:<5} {' '.join(suites.trace_names(suite))}")
    external = registry.trace_names()
    if external:
        print()
        print("registry traces (external):")
        for name in external:
            print(f"  {suites.suite_of(name):<5} {name}")
        reg = registry.get_registry()
        if reg is not None and reg.sets:
            print("registry sets:")
            for set_name, members in reg.sets.items():
                print(f"  {set_name:<12} {' '.join(members)}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    if args.experiment not in EXPERIMENTS:
        print(f"unknown experiment {args.experiment!r}; try 'list'",
              file=sys.stderr)
        return 2
    driver, _ = EXPERIMENTS[args.experiment]

    try:
        # One resolution point: defaults < environment < CLI flags.  The
        # resolved config is exported back into the environment, which
        # stays the transport to engine pool workers — every driver
        # signature is unchanged and workers inherit the settings.
        run_config.apply(run_config.from_args(args))
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2

    traces: Optional[List[str]]
    if args.traces:
        # Registry set names expand to their members; plain trace names
        # (built-in or registry) pass through untouched.
        from ..workloads import registry

        traces = registry.expand_trace_names(args.traces)
    elif args.full:
        traces = suites.trace_names()
    else:
        traces = E.quick_trace_set()

    # Wall-clock here only feeds the "[N traces, Ns]" status line printed
    # after the results; no simulated state depends on it.
    started = time.time()  # repro-lint: disable=R002
    result = driver(traces=traces, instructions=args.instructions)
    elapsed = time.time() - started  # repro-lint: disable=R002
    if args.chart and hasattr(result, "render_chart"):
        print(result.render_chart())
    else:
        print(result.render())
    print(f"\n[{len(traces)} traces, {resolve_jobs()} worker(s),"
          f" {elapsed:.1f}s]")
    return 0


def _cmd_summarize(args: argparse.Namespace) -> int:
    for name in args.traces:
        trace = suites.get_trace(name, args.instructions)
        print(trace.summary())
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from ..analysis import analyze_trace, load_fingerprint

    for name in args.traces:
        trace = suites.get_trace(name, args.instructions)
        analysis = analyze_trace(trace)
        print(analysis.render(top=args.top))
        if args.fingerprints:
            ranked = sorted(analysis.profiles, key=lambda p: -p.count)
            for profile in ranked[: args.fingerprints]:
                print(
                    f"  {profile.ip:#x} ({profile.classification}): "
                    + load_fingerprint(trace, profile.ip, limit=24)
                )
        print()
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .sensitivity import SWEEPABLE, sweep

    if args.list:
        for knob, description in SWEEPABLE.items():
            print(f"  {knob:<28} {description}")
        return 0
    if not args.knob or not args.values:
        print("usage: sweep <knob> <value>... (or --list)", file=sys.stderr)
        return 2
    values = [int(v) for v in args.values]
    traces = args.traces or E.quick_trace_set()
    result = sweep(
        args.knob, values, traces=traces, instructions=args.instructions,
    )
    print(result.render())
    print(f"\nbest by correct rate: {args.knob} = {result.best()}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from pathlib import Path

    from ..verify.differential import VARIANTS
    from ..verify.fuzz import run_fuzz
    from ..verify.metamorphic import run_metamorphic_checks
    from ..verify.fuzz import generate_events
    from ..verify.regressions import (
        RegressionCase,
        load_cases,
        save_case,
    )

    for name in args.variants or ():
        if name not in VARIANTS:
            print(f"unknown variant {name!r};"
                  f" choose from {sorted(VARIANTS)}", file=sys.stderr)
            return 2
    # The vectorized differential lane honours the same backend selection
    # the evaluation runs do; see _cmd_run.
    run_config.apply(run_config.from_args(args))
    failed = False

    # 1. Saved regression traces always replay first: they are tiny, and a
    #    reintroduced bug should be reported by the trace that named it.
    replay_dir = Path(args.replay) if args.replay else None
    cases = load_cases(replay_dir)
    for case in cases:
        divergence = case.replay()
        if divergence is not None:
            failed = True
            print(f"regression {case.name!r} diverges again:")
            print(divergence.format())
    print(f"regressions: {len(cases)} replayed,"
          f" {sum(1 for c in cases if c.replay() is None)} clean")

    # 2. The differential fuzzer.
    if args.fuzz:
        save_dir = Path(args.save_dir) if args.save_dir else None
        failures = run_fuzz(
            cases=args.fuzz,
            seed=args.seed,
            events_per_case=args.events,
            variants=args.variants,
        )
        for index, failure in enumerate(failures):
            failed = True
            print(failure.describe())
            saved = save_case(
                RegressionCase(
                    name=(
                        f"fuzz-{failure.variant}-seed{args.seed}-{index}"
                    ),
                    variant=failure.variant,
                    events=failure.events,
                    note=(
                        f"found by 'verify --fuzz {args.fuzz} --seed"
                        f" {args.seed}', profile {failure.profile}"
                    ),
                ),
                save_dir,
            )
            print(f"minimised trace saved to {saved}")
        print(f"fuzz: {args.fuzz} cases, {len(failures)} divergence(s)")

    # 3. Metamorphic invariants over a few freshly generated traces.
    if not args.no_metamorphic:
        checked = 0
        for profile in ("rds_walk", "aliasing", "branch_churn", "mixed"):
            events = generate_events(profile, args.seed, args.events)
            for message in run_metamorphic_checks(events):
                failed = True
                print(f"metamorphic failure on {profile}: {message}")
            checked += 1
        print(f"metamorphic: {checked} traces checked")

    # 4. Optional full-suite traces through the engine (parallel-friendly).
    if args.traces:
        from .engine import KIND_VERIFY, Job, run_jobs

        names = args.variants or ["cap", "stride", "hybrid"]
        jobs = [
            Job(trace=trace, kind=KIND_VERIFY, variant=variant,
                instructions=args.instructions)
            for trace in args.traces
            for variant in names
        ]
        clean = 0
        for result in run_jobs(jobs):
            if result.divergence is None:
                clean += 1
            else:
                failed = True
                print(f"trace {result.trace} / {result.variant}:")
                print(result.divergence)
        print(f"suite traces: {len(jobs)} replays, {clean} clean")

    return 1 if failed else 0


def _cmd_stats(args: argparse.Namespace) -> int:
    # Imported lazily: the other subcommands don't need the reports.
    from ..obs import report as S

    mode = args.stats_mode
    if mode == "breakdown":
        run_config.apply(run_config.from_args(args))
        if args.traces:
            traces = args.traces
        elif args.full:
            traces = suites.trace_names()
        else:
            traces = E.quick_trace_set()
        result = E.collect_breakdown(
            traces=traces, instructions=args.instructions,
        )
        if args.format == "json":
            rendered = result.to_json()
        elif args.format == "csv":
            rendered = result.to_csv()
        else:
            rendered = result.render_text()
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(rendered + "\n")
            print(f"wrote {args.output}")
        else:
            print(rendered)
        return 0
    if mode == "summarize":
        print(S.summarize_manifests(args.directory))
        return 0
    if mode == "validate":
        problems = S.validate_directory(args.directory)
        if not problems:
            print(f"all manifests in {args.directory} validate")
            return 0
        for path, errors in problems:
            print(f"{path}:")
            for error in errors:
                print(f"  {error}")
        return 1
    if mode == "diff":
        diff = S.diff_manifests(
            args.baseline,
            args.candidate,
            wall_tolerance=args.wall_tol,
            accuracy_tolerance=args.acc_tol,
        )
        print(diff.render())
        return 0 if diff.clean else 1
    if mode == "slo":
        problems = S.check_slo_report(args.file)
        if problems:
            for problem in problems:
                print(problem, file=sys.stderr)
            return 2
        print(S.render_slo_report(args.file))
        return 0
    if mode == "tail":
        return S.tail(args.target, interval_s=args.interval, once=args.once)
    if mode == "spans":
        return S.spans_report(args.file)
    if mode == "bench":
        problems = S.check_bench_file(args.file)
        if problems:
            for problem in problems:
                print(problem, file=sys.stderr)
            return 2
        print(S.render_bench_history(args.file))
        if args.gate is not None:
            message = S.bench_regression(args.file, args.gate / 100.0)
            if message is not None:
                print(message, file=sys.stderr)
                return 1
            print(f"gate: newest entry within {args.gate:.0f}% of best peer")
        return 0
    print(f"unknown stats mode {mode!r}", file=sys.stderr)
    return 2


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from ..serve.server import ServeConfig, serve

    try:
        run_config.apply(run_config.from_args(args))
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    config = ServeConfig(
        host=args.host,
        port=args.port,
        max_sessions=args.max_sessions,
        queue_depth=args.queue_depth,
        max_batch=args.max_batch,
        session_timeout_s=args.timeout,
        shards=args.shards,
        admin_port=args.admin_port,
        flight_dir=args.flight_dir,
    )
    try:
        asyncio.run(serve(config))
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from ..lint.cli import run_lint_command

    return run_lint_command(args)


def _cmd_ingest(args: argparse.Namespace) -> int:
    from ..ingest.cli import run_ingest_command

    return run_ingest_command(args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Reproduction harness for 'Correlated Load-Address Predictors'"
            " (ISCA 1999)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments and traces").set_defaults(
        func=_cmd_list
    )

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("experiment", help="experiment name (see 'list')")
    run.add_argument("--full", action="store_true",
                     help="use all 45 traces (default: 2 per suite)")
    run.add_argument("--traces", nargs="+", metavar="NAME",
                     help="explicit trace names")
    run.add_argument("--instructions", type=int, default=None,
                     help="per-trace dynamic instruction budget")
    run.add_argument("--chart", action="store_true",
                     help="render as ASCII bars instead of a table")
    run.add_argument("--jobs", type=int, default=None, metavar="N",
                     help="parallel worker processes (default: REPRO_JOBS"
                          " env var, else CPU count; 1 = serial)")
    run.add_argument("--backend", choices=["python", "numpy"], default=None,
                     help="predictor evaluation backend (default:"
                          " REPRO_BACKEND env var, else numpy when"
                          " available)")
    run.add_argument("--registry", default=None, metavar="MANIFEST",
                     help="benchmark-set registry manifest (default:"
                          " REPRO_REGISTRY env var, else"
                          " benchmarks/traces/registry.json)")
    run.set_defaults(func=_cmd_run)

    summarize = sub.add_parser("summarize", help="print trace statistics")
    summarize.add_argument("traces", nargs="+", metavar="NAME")
    summarize.add_argument("--instructions", type=int, default=None)
    summarize.set_defaults(func=_cmd_summarize)

    analyze = sub.add_parser(
        "analyze", help="Section 2-style load-pattern analysis"
    )
    analyze.add_argument("traces", nargs="+", metavar="NAME")
    analyze.add_argument("--instructions", type=int, default=None)
    analyze.add_argument("--top", type=int, default=10,
                         help="static loads to detail")
    analyze.add_argument("--fingerprints", type=int, default=3,
                         help="fingerprinted loads to print (0 = none)")
    analyze.set_defaults(func=_cmd_analyze)

    sweep_cmd = sub.add_parser(
        "sweep", help="sensitivity sweep over a predictor config knob"
    )
    sweep_cmd.add_argument("knob", nargs="?", help="e.g. cap.history_length")
    sweep_cmd.add_argument("values", nargs="*", help="integer values to try")
    sweep_cmd.add_argument("--list", action="store_true",
                           help="list documented knobs")
    sweep_cmd.add_argument("--traces", nargs="+", metavar="NAME")
    sweep_cmd.add_argument("--instructions", type=int, default=None)
    sweep_cmd.set_defaults(func=_cmd_sweep)

    verify = sub.add_parser(
        "verify",
        help="differential verification: oracle vs scalar vs kernel",
    )
    verify.add_argument("--fuzz", type=int, default=200, metavar="N",
                        help="fuzz cases to run (0 = skip fuzzing)")
    verify.add_argument("--seed", type=int, default=0,
                        help="master seed for deterministic fuzzing")
    verify.add_argument("--events", type=int, default=300, metavar="N",
                        help="events per fuzzed trace")
    verify.add_argument("--variants", nargs="+", metavar="NAME",
                        help="restrict to these differential variants")
    verify.add_argument("--traces", nargs="+", metavar="NAME",
                        help="also replay these suite traces differentially")
    verify.add_argument("--instructions", type=int, default=20000,
                        help="per-trace budget for --traces replays")
    verify.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes for --traces replays")
    verify.add_argument("--replay", metavar="DIR", default=None,
                        help="regression directory (default:"
                             " tests/regressions)")
    verify.add_argument("--save-dir", metavar="DIR", default=None,
                        help="where to save new minimised failures"
                             " (default: tests/regressions)")
    verify.add_argument("--no-metamorphic", action="store_true",
                        help="skip the metamorphic invariant checks")
    verify.add_argument("--backend", choices=["python", "numpy"],
                        default=None,
                        help="backend for the vectorized differential lane"
                             " (default: REPRO_BACKEND env var)")
    verify.set_defaults(func=_cmd_verify)

    stats = sub.add_parser(
        "stats",
        help="attribution breakdowns and run-manifest reporting",
    )
    stats_sub = stats.add_subparsers(dest="stats_mode", required=True)

    breakdown = stats_sub.add_parser(
        "breakdown",
        help="per-predictor misprediction-cause tables (Figure 10 style)",
    )
    breakdown.add_argument("--traces", nargs="+", metavar="NAME",
                           help="explicit trace names")
    breakdown.add_argument("--full", action="store_true",
                           help="use all traces (default: 2 per suite)")
    breakdown.add_argument("--instructions", type=int, default=None,
                           help="per-trace dynamic instruction budget")
    breakdown.add_argument("--format", choices=("text", "json", "csv"),
                           default="text")
    breakdown.add_argument("--output", metavar="FILE", default=None,
                           help="write to FILE instead of stdout")
    breakdown.add_argument("--jobs", type=int, default=None, metavar="N",
                           help="parallel worker processes")
    breakdown.set_defaults(func=_cmd_stats)

    summarize_stats = stats_sub.add_parser(
        "summarize", help="tabulate run manifests from a directory"
    )
    summarize_stats.add_argument("directory", metavar="DIR")
    summarize_stats.set_defaults(func=_cmd_stats)

    diff = stats_sub.add_parser(
        "diff",
        help="compare two manifest sets, flag perf/accuracy regressions",
    )
    diff.add_argument("baseline", metavar="BASELINE_DIR")
    diff.add_argument("candidate", metavar="CANDIDATE_DIR")
    diff.add_argument("--wall-tol", type=float, default=0.25,
                      help="relative wall-time slowdown tolerance")
    diff.add_argument("--acc-tol", type=float, default=0.005,
                      help="absolute accuracy/rate drop tolerance")
    diff.set_defaults(func=_cmd_stats)

    validate = stats_sub.add_parser(
        "validate", help="schema-validate run manifests in a directory"
    )
    validate.add_argument("directory", metavar="DIR")
    validate.set_defaults(func=_cmd_stats)

    bench = stats_sub.add_parser(
        "bench",
        help="fig5 wall-clock trajectory recorded in BENCH_fig5.json",
    )
    bench.add_argument(
        "file", nargs="?", default="BENCH_fig5.json", metavar="FILE",
    )
    bench.add_argument(
        "--gate", type=float, default=None, metavar="PCT",
        help="exit 1 if the newest entry is more than PCT%% slower than"
             " the best earlier run on the same backend and worker count",
    )
    bench.set_defaults(func=_cmd_stats)

    slo = stats_sub.add_parser(
        "slo",
        help="validate and render a serving SLO report"
             " (benchmarks/loadgen.py output)",
    )
    slo.add_argument("file", metavar="FILE",
                     help="SLO report JSON written by the load generator")
    slo.set_defaults(func=_cmd_stats)

    tail_cmd = stats_sub.add_parser(
        "tail",
        help="follow a live admin endpoint (host:port) or a"
             " manifest/postmortem directory",
    )
    tail_cmd.add_argument("target", metavar="TARGET",
                          help="host:port of a serve --admin-port"
                               " endpoint, or a telemetry/flight"
                               " directory")
    tail_cmd.add_argument("--interval", type=float, default=2.0,
                          metavar="SEC", help="poll interval")
    tail_cmd.add_argument("--once", action="store_true",
                          help="print one snapshot and exit (CI mode)")
    tail_cmd.set_defaults(func=_cmd_stats)

    spans_cmd = stats_sub.add_parser(
        "spans",
        help="validate and summarise a Chrome trace-event export"
             " (admin 'spans' answer or loadgen --trace-export)",
    )
    spans_cmd.add_argument("file", metavar="FILE",
                           help="trace-event JSON document")
    spans_cmd.set_defaults(func=_cmd_stats)

    serve_cmd = sub.add_parser(
        "serve",
        help="prediction-as-a-service: asyncio server over sessions",
    )
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument("--port", type=int, default=8377,
                           help="TCP port (0 = ephemeral; the bound port"
                                " is printed on the ready line)")
    serve_cmd.add_argument("--max-sessions", type=int, default=256,
                           help="concurrently open session cap")
    serve_cmd.add_argument("--queue-depth", type=int, default=64,
                           help="bounded feed queue (backpressure valve)")
    serve_cmd.add_argument("--max-batch", type=int, default=16,
                           help="max feeds micro-batched per executor hop")
    serve_cmd.add_argument("--timeout", type=float, default=30.0,
                           help="per-feed budget in seconds")
    serve_cmd.add_argument("--shards", type=int, default=0, metavar="N",
                           help="session worker processes (0 = in-process)")
    serve_cmd.add_argument("--backend", choices=["python", "numpy"],
                           default=None,
                           help="evaluation backend for served sessions")
    serve_cmd.add_argument("--telemetry", action="store_true",
                           help="write kind=serve run manifests per session")
    serve_cmd.add_argument("--telemetry-dir", default=None, metavar="DIR",
                           help="manifest output directory")
    serve_cmd.add_argument("--admin-port", type=int, default=None,
                           metavar="PORT",
                           help="observability admin endpoint port"
                                " (0 = ephemeral; omitted = no admin"
                                " listener)")
    serve_cmd.add_argument("--flight-dir", default=None, metavar="DIR",
                           help="flight-recorder postmortem directory"
                                " (omitted = rings stay in memory only)")
    serve_cmd.set_defaults(func=_cmd_serve)

    lint = sub.add_parser(
        "lint",
        help="AST-based simulator-correctness linter (R001-R006)",
    )
    from ..lint.cli import add_lint_arguments

    add_lint_arguments(lint)
    lint.set_defaults(func=_cmd_lint)

    ingest = sub.add_parser(
        "ingest",
        help="convert/describe/validate external traces and the"
             " benchmark-set registry",
    )
    from ..ingest.cli import add_ingest_arguments

    add_ingest_arguments(ingest)
    ingest.set_defaults(func=_cmd_ingest)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro``."""
    args = build_parser().parse_args(argv)
    handler: Callable[[argparse.Namespace], int] = args.func
    return handler(args)
