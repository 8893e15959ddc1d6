#!/usr/bin/env python3
"""The repository benchmark: run one workload, print one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload predict-grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --record-digests

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that gives the per-layer
metrics and writes its span export to ``perfbench/.work/``.  Human-readable
lines (every percentile with its sample count, the ladder, the stamp)
come first; the last line of standard output is the JSON result.  The
exit code is 1 when any output check fails.

``--record-digests`` rewrites ``digests.json``: the sha256 of every
grid's rendered tables and of every served feed's records, each computed
under both the numpy and the python backend and refused unless the two
agree.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import sys
from pathlib import Path
from typing import Any, Dict, List

import grids
import proc
import serving

DIGESTS = Path(__file__).resolve().with_name("digests.json")

WORKLOADS = ("predict-grid", "timing-gap-grid", "serve-stream")

#: The gated workload whose traced run also runs serve-stream's, so the
#: serve layer is measured by the driver's runs.  serve-stream itself is
#: not gated: its wall times follow the host's CPU contention (two busy
#: processes on two vCPUs) far more than the grids' do.
SERVE_PROBE = "timing-gap-grid"

#: End-to-end metrics (tracing off); every workload reports all of them.
END_TO_END = {
    "grid_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (the traced run); a layer a workload leaves idle
#: reads 0.
PER_LAYER = {
    "trace.gen_s": "s",
    "trace.load_s": "s",
    "eval.build_s": "s",
    "eval.render_s": "s",
    "eval.other_s": "s",
    "eval.job_p50_ms": "ms",
    "eval.job_p90_ms": "ms",
    "kernels.batch_s": "s",
    "kernels.plan_s": "s",
    "kernels.commit_s": "s",
    "kernels.ns_per_load": "ns/load",
    "kernels.dispatched": "count",
    "kernels.fallback": "count",
    "kernels.declined": "count",
    "kernels.dispatch_ratio": "share",
    "predictors.scalar_s": "s",
    "predictors.scalar_ns_per_load": "ns/load",
    "pipeline.gap_s": "s",
    "pipeline.gap_ns_per_load": "ns/load",
    "timing.simulate_s": "s",
    "timing.instructions": "count",
    "timing.ns_per_instr": "ns/instr",
    "serve.session_feed_ms": "ms",
    "serve.queue_wait_p50_ms": "ms",
    "serve.queue_wait_p90_ms": "ms",
    "serve.encode_ms": "ms",
    "serve.decode_ms": "ms",
    "serve.response_bytes_per_load": "B/load",
    "serve.overhead_ms": "ms",
    "serve.kernel_feed_ratio": "share",
    "loadgen.feed_p50_ms": "ms",
    "loadgen.feed_p90_ms": "ms",
    "loadgen.lag_p50_ms": "ms",
    "loadgen.lag_p90_ms": "ms",
    "loadgen.rate_at_slo_fps": "feeds/s",
    "bench.trace_overhead_s": "s",
}


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if not args.record_digests and args.workload is None:
        parser.error("--workload is required")
    return args


def prepare_process(cache: Path) -> None:
    """Make the program importable here, with the workloads' settings."""
    sys.path.insert(0, str(proc.SRC))
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ.update(
        {k: v for k, v in proc.program_env(cache).items() if k.startswith("REPRO_")}
    )


def git_revision() -> str:
    """The checkout's commit, read from ``.git`` without leaving the tree."""
    head = proc.ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text(encoding="utf-8").strip()
    if ref.startswith("ref: "):
        target = proc.ROOT / ".git" / ref[5:]
        return target.read_text(encoding="utf-8").strip() if target.is_file() else ref
    return ref


def stamp(workload: str, seed: int) -> Dict[str, Any]:
    import numpy

    instructions = (
        serving.INSTRUCTIONS if workload == "serve-stream"
        else grids.GRIDS[workload].instructions
    )
    result = {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git": git_revision(),
        "REPRO_JOBS": proc.REPRO_JOBS,
        "backend": proc.BACKEND,
        "instructions": instructions,
    }
    if workload == "serve-stream":
        result["feed_events"] = serving.FEED_EVENTS
        result["latency_limit_ms"] = serving.LATENCY_LIMIT_MS
    return result


def recorded_budget_problems(workload: str, recorded: Dict[str, Any]) -> List[str]:
    want = stamp(workload, 0)["instructions"]
    if recorded.get("instructions") != want:
        return [f"digests.json records {workload} at"
                f" {recorded.get('instructions')} instructions, not {want};"
                f" run --record-digests"]
    return []


def run_workload(args: argparse.Namespace, work: Path) -> Dict[str, Any]:
    from repro.eval.experiments import quick_trace_set

    roster = quick_trace_set()
    digests = json.loads(DIGESTS.read_text(encoding="utf-8"))
    recorded = digests.get(args.workload, {})
    budget_problems = recorded_budget_problems(args.workload, recorded)
    if args.workload == "serve-stream":
        grid = grids.Grid(args.workload, (), serving.INSTRUCTIONS, False)
    else:
        grid = grids.GRIDS[args.workload]
    runner = grids.GridRunner(grid, work, digests, roster, args.seed)
    if args.workload == "serve-stream":
        env = proc.program_env(runner.cache)
        measure = serving.measure_layers if args.trace else serving.measure
        result = measure(runner, env, recorded, roster, args.seed, args.seconds)
    else:
        measure = grids.measure_layers if args.trace else grids.measure
        result = measure(grid, runner, args.seconds)
        result["spans"] = runner.spans
        if args.trace and args.workload == SERVE_PROBE:
            _add_serve_layers(result, args, work, digests, roster)
    result["problems"] = budget_problems + result["problems"]
    return result


def _add_serve_layers(result: Dict[str, Any], args: argparse.Namespace,
                      work: Path, digests: Dict[str, Any],
                      roster: List[str]) -> None:
    """Run ``serve-stream``'s traced run and add its serve/loadgen layers."""
    grid = grids.Grid("serve-stream", (), serving.INSTRUCTIONS, False)
    runner = grids.GridRunner(grid, work, digests, roster, args.seed)
    recorded = digests.get("serve-stream", {})
    serve = serving.measure_layers(runner, proc.program_env(runner.cache),
                                   recorded, roster, args.seed, args.seconds)
    result["layers"].update(
        (name, value) for name, value in serve["layers"].items()
        if name.startswith(("serve.", "loadgen."))
    )
    result["spans"] = result["spans"] + serve["spans"]
    result["attempted"] += serve["attempted"]
    result["failed"] += serve["failed"]
    result["problems"] += (
        recorded_budget_problems("serve-stream", recorded) + serve["problems"]
    )
    result["lines"] += ["serve-stream (traced run):"] + serve["lines"]


def export_spans(workload: str, spans: List[Dict[str, Any]]) -> List[str]:
    """Validate and write the traced run's span export."""
    from repro.obs.tracing import validate_trace_export

    document = {"displayTimeUnit": "ms", "traceEvents": spans}
    problems = validate_trace_export(document)
    if not spans:
        problems = problems + ["the traced run recorded no spans"]
    if not problems:
        proc.WORK.mkdir(parents=True, exist_ok=True)
        path = proc.WORK / f"spans-{workload}.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        print(f"span export: {path.relative_to(proc.ROOT)}"
              f" ({len(spans)} spans, schema ok)")
    return [f"span export: {p}" for p in problems]


def _finite(value: float) -> float:
    """JSON has no infinity: a latency that never ended (a failed feed,
    which also fails the run) is reported as the largest float."""
    return float(value) if math.isfinite(value) else sys.float_info.max


def _terminate(signum: int, _frame: Any) -> None:
    # Unwind through the finally blocks that stop the spawned server.
    raise SystemExit(128 + signum)


def main(argv: List[str]) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    args = parse_args(argv)
    if not (proc.SRC / "repro" / "__init__.py").is_file():
        print(f"no program sources under {proc.SRC}", file=sys.stderr)
        return 2
    work = proc.WORK / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    prepare_process(work / "cache")
    try:
        if args.record_digests:
            import record

            return record.record_digests(work, DIGESTS)
        result = run_workload(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = list(result["problems"])
    if args.trace:
        problems += export_spans(args.workload, result["spans"])
        # Layers the workload leaves idle (no server on a grid) read 0.
        metrics = {name: 0.0 for name in PER_LAYER}
        metrics.update(result["layers"])
        metrics["bench.trace_overhead_s"] = result["overhead_s"]
        units = PER_LAYER
    else:
        metrics = result["metrics"]
        units = END_TO_END
    for line in result["lines"]:
        print(line)
    attempted, failed = int(result["attempted"]), int(result["failed"])
    print(f"error_rate={failed / max(1, attempted):.6f} share"
          f" ({failed} failed of {attempted} attempted)")
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}")
    if len(problems) > 20:
        print(f"CHECK FAILED: ... and {len(problems) - 20} more")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print("stamp: " + json.dumps(stamp(args.workload, args.seed), sort_keys=True))
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {
            name: {"value": _finite(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
