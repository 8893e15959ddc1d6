"""The figure-grid workloads: ``predict-grid`` and ``timing-gap-grid``.

Each iteration runs the workload's figures as ``python -m repro run <fig>``
processes (through ``layers.py``, which adds the per-job log) on a warm
trace cache, and checks every rendered table against its recorded digest.
Set-up generates the workload's traces into an empty cache with
``python -m repro summarize``.
"""

from __future__ import annotations

import json
import re
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import probe
import proc
import stats
from layers import GLUE

LAYERS = str(Path(__file__).resolve().with_name("layers.py"))

#: Runs of the trace-generating set-up per measured run; the median is
#: reported as ``setup_s``.
SETUP_REPEATS = 7

_FOOTER = re.compile(r"^\[\d+ traces, \d+ worker\(s\), [0-9.]+s\]$")


@dataclass(frozen=True)
class Grid:
    """One grid workload: figures run over the quick roster."""

    name: str
    figures: Tuple[str, ...]
    #: Per-trace instruction budget (recorded with the digests).
    instructions: int
    #: Every job must take the kernel path (fail on any scalar fallback).
    require_kernels: bool


GRIDS = {
    "predict-grid": Grid("predict-grid", ("fig5", "fig6"), 25_000, True),
    "timing-gap-grid": Grid("timing-gap-grid", ("fig7", "fig11"), 6_000, False),
}


def rendered_tables(stdout: str) -> str:
    """A figure's output without its timing footer (the digested part)."""
    lines = stdout.rstrip("\n").split("\n")
    if lines and _FOOTER.match(lines[-1]):
        lines.pop()
    return "\n".join(lines).rstrip("\n") + "\n"


@dataclass
class FigureRun:
    """One ``repro run <fig>`` process and what it reported."""

    figure: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    digest: Optional[str]
    sidecar: Dict[str, Any]
    problems: List[str] = field(default_factory=list)
    #: The process exited cleanly and its tables match the recorded digest.
    tables_ok: bool = False
    #: Jobs that ran the scalar loop where the kernel path was required.
    scalar_jobs: int = 0

    @property
    def jobs(self) -> List[Dict[str, Any]]:
        return self.sidecar.get("jobs", [])


class GridRunner:
    """Drives one grid workload inside a private work directory."""

    def __init__(self, grid: Grid, work: Path, digests: Dict[str, Any],
                 roster: List[str], seed: int) -> None:
        self.grid = grid
        self.work = work
        self.roster = roster
        self.seed = seed
        self.recorded = digests.get(grid.name, {})
        self.cache = work / "cache"
        self.spans: List[Dict[str, Any]] = []
        self._count = 0

    # -- set-up -------------------------------------------------------------------

    def setup(self, traced: bool = False) -> Tuple[float, Dict[str, Any]]:
        """Generate the roster's traces into an empty cache; returns wall."""
        if self.cache.exists():
            shutil.rmtree(self.cache)
        self.cache.mkdir(parents=True)
        args = ["summarize", *self.roster,
                "--instructions", str(self.grid.instructions)]
        run, sidecar = self._child(args, traced, "setup")
        if run.returncode != 0:
            raise RuntimeError(f"set-up failed: {run.stderr.strip()[-400:]}")
        return run.wall_s, sidecar

    # -- one figure -----------------------------------------------------------------

    def figure(self, figure: str, traced: bool = False,
               backend: str = proc.BACKEND) -> FigureRun:
        args = ["run", figure, "--instructions", str(self.grid.instructions),
                "--jobs", proc.REPRO_JOBS, "--backend", backend]
        run, sidecar = self._child(args, traced, figure, backend)
        result = FigureRun(figure, run.wall_s, run.cpu_s,
                           sidecar.get("peak_rss_mb", 0.0), None, sidecar)
        if run.returncode != 0:
            result.problems.append(
                f"{figure}: exit {run.returncode}: {run.stderr.strip()[-400:]}"
            )
            return result
        result.digest = stats.text_digest(rendered_tables(run.stdout))
        want = self.recorded.get(figure)
        mismatches = stats.digest_mismatches(
            {figure: want} if want else {}, {figure: result.digest}
        )
        result.problems.extend(mismatches)
        result.tables_ok = not mismatches
        if self.grid.require_kernels:
            for job in result.jobs:
                if job["backend"] != proc.BACKEND:
                    result.scalar_jobs += 1
                    result.problems.append(
                        f"{figure}: job {job['variant']}/{job['trace']} ran"
                        f" on {job['backend']!r}, not the kernel path"
                    )
        return result

    def _child(self, args: List[str], traced: bool, label: str,
               backend: str = proc.BACKEND) -> Tuple[proc.ChildRun, Dict[str, Any]]:
        self._count += 1
        sidecar_path = self.work / f"sidecar-{self._count}.json"
        spans_path = self.work / f"spans-{self._count}.json"
        command = [LAYERS, "--sidecar", str(sidecar_path)]
        if traced:
            command += ["--traced", str(spans_path), "--trace-id",
                        f"{self.grid.name}-{self.seed}-{label}-{self._count}"]
        run = proc.run_child(
            command + ["--", *args],
            proc.program_env(self.cache, backend),
            self.work / f"stderr-{self._count}.txt",
        )
        sidecar: Dict[str, Any] = {}
        if sidecar_path.exists():
            sidecar = json.loads(sidecar_path.read_text(encoding="utf-8"))
        if traced and spans_path.exists():
            self.spans.extend(
                json.loads(spans_path.read_text(encoding="utf-8"))["traceEvents"]
            )
        return run, sidecar

    # -- measured runs ----------------------------------------------------------------

    def iteration(self, traced: bool = False) -> List[FigureRun]:
        return [self.figure(fig, traced) for fig in self.grid.figures]


def _tally(runs: List[FigureRun]) -> Tuple[int, int, List[str]]:
    """(attempted, failed, problems) over figure runs; a bad table fails
    every job that fed it."""
    attempted = failed = 0
    problems: List[str] = []
    for run in runs:
        jobs = max(1, len(run.jobs))
        attempted += jobs
        failed += run.scalar_jobs if run.tables_ok else jobs
        problems.extend(run.problems)
    return attempted, failed, problems


def measure(grid: Grid, runner: GridRunner, seconds: float) -> Dict[str, Any]:
    """The untraced run: end-to-end metrics of one grid workload."""
    probes: List[float] = []

    def setup() -> float:
        wall_s = runner.setup()[0]
        probes.append(probe.probe_s())
        return wall_s

    def iteration() -> List[FigureRun]:
        runs = []
        for fig in grid.figures:
            runs.append(runner.figure(fig))
            probes.append(probe.probe_s())
        return runs

    setups = [setup()]
    iterations: List[List[FigureRun]] = []
    busy_s = 0.0
    while not iterations or busy_s < seconds:
        started = time.perf_counter()
        iterations.append(iteration())
        busy_s += time.perf_counter() - started
        # Spread the set-up repeats over the run, so that one burst of
        # interference from the shared host cannot slow all of them.
        if len(setups) < SETUP_REPEATS:
            setups.append(setup())
    while len(setups) < SETUP_REPEATS:
        setups.append(setup())
    speed = probe.scale(probes)
    runs = [run for it in iterations for run in it]
    attempted, failed, problems = _tally(runs)
    latencies = [job["ms"] for run in runs for job in run.jobs]
    p50 = stats.percentile(latencies, 0.50)
    p90 = stats.percentile(latencies, 0.90)
    walls = [sum(run.wall_s for run in it) for it in iterations]
    rss = [max(run.peak_rss_mb for run in it) for it in iterations]
    dispatch = _sum_dispatch(iterations[-1])
    backends = _backends(runs)
    lines = [
        f"setup: {', '.join(f'{s:.3f}' for s in setups)} s"
        f" (median {stats.median(setups):.3f} of {len(setups)})",
        f"grid walls: {', '.join(f'{w:.3f}' for w in walls)} s"
        f" (median {stats.median(walls):.3f} of {len(walls)}); CPU "
        f"{', '.join(f'{sum(r.cpu_s for r in it):.3f}' for it in iterations)} s",
        f"host-speed probe: median {stats.median(probes):.4f} s of {len(probes)}"
        f" (reference {probe.REFERENCE_S} s): setup and grid medians x {speed:.4f}",
        p50.label("job_p50", "ms"),
        p90.label("job_p90", "ms"),
        f"job backends: {backends}",
        f"kernel dispatch per iteration: {dispatch}",
        f"table digests: {'ok' if not problems else 'MISMATCH'}"
        f" ({', '.join(f'{r.figure}={r.digest[:12] if r.digest else None}' for r in iterations[0])})",
    ]
    return {
        "metrics": {
            "grid_s": stats.median(walls) * speed,
            "setup_s": stats.median(setups) * speed,
            "peak_rss_mb": stats.median(rss),
        },
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "lines": lines,
    }


def _sum_dispatch(runs: List[FigureRun]) -> Dict[str, int]:
    total = {"dispatched": 0, "fallback": 0, "declined": 0}
    for run in runs:
        for key, value in run.sidecar.get("dispatch", {}).items():
            total[key] = total.get(key, 0) + int(value)
    return total


def _backends(runs: List[FigureRun]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for run in runs:
        for job in run.jobs:
            key = str(job["backend"])
            counts[key] = counts.get(key, 0) + 1
    return counts


def measure_layers(grid: Grid, runner: GridRunner, seconds: float) -> Dict[str, Any]:
    """The traced run: per-layer metrics, plus untraced walls for overhead."""
    _, setup_sidecar = runner.setup(traced=True)
    gen_s = setup_sidecar.get("self_s", {}).get("trace.gen", 0.0)
    untraced: List[List[FigureRun]] = []
    traced: List[List[FigureRun]] = []
    started = time.perf_counter()
    while not traced or time.perf_counter() - started < seconds:
        untraced.append(runner.iteration())
        traced.append(runner.iteration(traced=True))
    attempted, failed, problems = _tally(
        [run for it in untraced + traced for run in it]
    )
    self_s: Dict[str, float] = {}
    work: Dict[str, float] = {}
    for it in traced:
        for run in it:
            for key, value in run.sidecar.get("self_s", {}).items():
                self_s[key] = self_s.get(key, 0.0) + value / len(traced)
            for key, value in run.sidecar.get("work", {}).items():
                work[key] = work.get(key, 0.0) + value / len(traced)
    traced_walls = [sum(r.wall_s for r in it) for it in traced]
    traced_wall = stats.median(traced_walls)
    untraced_wall = stats.median([sum(r.wall_s for r in it) for it in untraced])
    dispatch = _sum_dispatch(traced[-1])
    # Layer times are means per traced iteration, so the wall they must
    # account for is the mean traced wall.
    layers = layer_metrics(self_s, work, sum(traced_walls) / len(traced),
                           dispatch, gen_s)
    latencies = [job["ms"] for it in untraced for run in it for job in run.jobs]
    layers["eval.job_p50_ms"] = stats.percentile(latencies, 0.50).value
    layers["eval.job_p90_ms"] = stats.percentile(latencies, 0.90).value
    return {
        "layers": layers,
        "overhead_s": traced_wall - untraced_wall,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "lines": [
            f"traced walls: {', '.join(f'{sum(r.wall_s for r in it):.3f}' for it in traced)} s;"
            f" untraced: {', '.join(f'{sum(r.wall_s for r in it):.3f}' for it in untraced)} s",
            f"kernel dispatch per iteration: {dispatch}",
        ],
    }


def layer_metrics(
    self_s: Dict[str, float],
    work: Dict[str, float],
    wall_s: float,
    dispatch: Dict[str, int],
    gen_s: float,
) -> Dict[str, float]:
    """Per-layer metrics from self times; the uncovered rest is other."""

    def ns_per(seconds: float, units: float) -> float:
        return seconds * 1e9 / units if units else 0.0

    kernel_s = sum(self_s.get(k, 0.0) for k in
                   ("kernels.batch", "kernels.plan", "kernels.commit"))
    layered = sum(
        value for key, value in self_s.items()
        if key not in GLUE and key != "trace.gen"
    )
    attempts = sum(dispatch.values())
    return {
        "trace.gen_s": gen_s,
        "trace.load_s": self_s.get("trace.load", 0.0),
        "eval.build_s": self_s.get("eval.build", 0.0),
        "eval.render_s": self_s.get("eval.render", 0.0),
        "eval.other_s": max(0.0, wall_s - layered),
        "kernels.batch_s": self_s.get("kernels.batch", 0.0),
        "kernels.plan_s": self_s.get("kernels.plan", 0.0),
        "kernels.commit_s": self_s.get("kernels.commit", 0.0),
        "kernels.ns_per_load": ns_per(kernel_s, work.get("kernels.batch", 0)),
        "kernels.dispatched": float(dispatch.get("dispatched", 0)),
        "kernels.fallback": float(dispatch.get("fallback", 0)),
        "kernels.declined": float(dispatch.get("declined", 0)),
        "kernels.dispatch_ratio": (
            dispatch.get("dispatched", 0) / attempts if attempts else 0.0
        ),
        "predictors.scalar_s": self_s.get("predictors.scalar", 0.0),
        "predictors.scalar_ns_per_load": ns_per(
            self_s.get("predictors.scalar", 0.0),
            work.get("predictors.scalar", 0),
        ),
        "pipeline.gap_s": self_s.get("pipeline.gap", 0.0),
        "pipeline.gap_ns_per_load": ns_per(
            self_s.get("pipeline.gap", 0.0), work.get("pipeline.gap", 0)
        ),
        "timing.simulate_s": self_s.get("timing.simulate", 0.0),
        "timing.instructions": float(work.get("timing.simulate", 0)),
        "timing.ns_per_instr": ns_per(
            self_s.get("timing.simulate", 0.0), work.get("timing.simulate", 0)
        ),
    }
