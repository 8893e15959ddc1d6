"""Parallel experiment engine: a declarative job model for the figure suite.

Every grid-shaped experiment in :mod:`repro.eval.experiments` is a cross
product of (predictor variant x trace), optionally wrapped in a pipelined
prediction gap or run through the timing model.  This module turns one
cell of that grid into a picklable :class:`Job` *spec* — predictor factory
name, config overrides, trace name, instruction budget — and executes a
batch of them either fully in-process or across a ``ProcessPoolExecutor``.

Design rules:

* **Jobs are specs, not live objects.**  Workers resolve the trace through
  the on-disk cache in :mod:`repro.workloads.suites` (first generation is
  file-locked and atomically renamed, so cold-cache workers don't race)
  and instantiate the predictor locally from the factory registry.
* **Results merge in job order.**  ``run_jobs`` returns one
  :class:`JobResult` per job, in the order the jobs were given, no matter
  which worker finished first — serial and parallel runs are
  bit-identical.
* **Worker count comes from ``REPRO_JOBS``** (default: CPU count).
  ``REPRO_JOBS=1`` short-circuits to plain in-process execution, so pytest
  and debugging behaviour is exactly the single-process code path.
* **Jobs run grouped by trace.**  The jobs of one trace execute back to
  back in one process under one :class:`~repro.kernels.batch.PlanScope`,
  so their kernel plans share one event batch and the solves memoised on
  it (LB grouping, stride and CAP rows).  The scope is dropped when the
  group ends, before the next trace's plans are built.
"""

from __future__ import annotations

import math
import os
import platform
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from ..kernels.batch import PlanScope
from ..pipeline.delayed import PipelinedPredictor
from ..predictors.base import AddressPredictor
from ..predictors.cap import CAPConfig, CAPPredictor
from ..predictors.gshare_address import (
    GShareAddressConfig,
    GShareAddressPredictor,
)
from ..predictors.hybrid import HybridConfig, HybridPredictor, SelectorStats
from ..predictors.last_address import LastAddressConfig, LastAddressPredictor
from ..predictors.stride import StrideConfig, StridePredictor
from ..obs import manifest as run_manifest
from ..obs import profiler as sampling
from ..timing.machine import MachineConfig
from ..timing.ooo import simulate
from ..trace.trace import PredictorStream, Trace
from ..workloads import suites as suite_registry
from . import config as run_config
from .metrics import PredictorMetrics
from .runner import new_metrics, predict_loads, run_on_columns

__all__ = [
    "FACTORIES",
    "Job",
    "JobResult",
    "build_predictor",
    "execute_job",
    "resolve_jobs",
    "run_jobs",
]

KIND_PREDICT = "predict"
KIND_TIMING = "timing"
KIND_VERIFY = "verify"


def _make_stride(**overrides) -> StridePredictor:
    return StridePredictor(StrideConfig(**overrides))


def _make_basic_stride(**overrides) -> StridePredictor:
    return StridePredictor(StrideConfig.basic(**overrides))


def _make_cap(**overrides) -> CAPPredictor:
    return CAPPredictor(CAPConfig(**overrides))


def _make_hybrid(**overrides) -> HybridPredictor:
    return HybridPredictor(HybridConfig(**overrides))


def _make_last_address(**overrides) -> LastAddressPredictor:
    return LastAddressPredictor(LastAddressConfig(**overrides))


def _make_gshare(**overrides) -> GShareAddressPredictor:
    return GShareAddressPredictor(GShareAddressConfig(**overrides))


#: Named predictor factories a :class:`Job` may reference.  Keys — not
#: callables — cross the process boundary, so workers rebuild predictors
#: from configuration alone.
FACTORIES: Dict[str, Callable[..., AddressPredictor]] = {
    "stride": _make_stride,
    "basic_stride": _make_basic_stride,
    "cap": _make_cap,
    "hybrid": _make_hybrid,
    "last_address": _make_last_address,
    "gshare": _make_gshare,
}


@dataclass(frozen=True)
class Job:
    """One cell of an experiment grid, fully described by picklable data.

    ``factory`` names an entry of :data:`FACTORIES`; ``None`` is only
    meaningful for ``kind="timing"`` and simulates the no-prediction
    baseline.  ``gap`` (when not ``None``) wraps the predictor in
    :class:`~repro.pipeline.delayed.PipelinedPredictor`.  ``gap=0`` wraps
    too (the immediate-update end of the Figure 11 sweep); that wrapper
    behaves exactly like its inner predictor and takes the batch kernels
    wherever the inner predictor does.
    ``variant`` labels the result for merging; ``capture_selector`` ships
    the hybrid's Figure 8 selector statistics back with the metrics.

    ``kind="verify"`` runs the trace through the three-way differential
    harness instead of a plain evaluation; there ``variant`` names a
    :data:`repro.verify.differential.VARIANTS` entry and the result carries
    a formatted divergence report (or ``None`` when all paths agree).

    ``instrument=True`` attaches an attribution probe to the predictor tree
    and returns :class:`~repro.eval.metrics.AttributionCounters` (a
    :class:`~repro.eval.metrics.PredictorMetrics` subclass) instead of
    plain metrics — the backbone of ``python -m repro stats``.
    """

    trace: str
    factory: Optional[str] = None
    overrides: Dict[str, Any] = field(default_factory=dict)
    instructions: Optional[int] = None
    warmup_fraction: float = 0.0
    gap: Optional[int] = None
    kind: str = KIND_PREDICT
    capture_selector: bool = False
    machine: Optional[MachineConfig] = None
    variant: str = ""
    instrument: bool = False
    #: Observability trace id riding along with the spec (excluded from
    #: the config hash: tracing a job must not change its identity).
    trace_id: Optional[str] = None


@dataclass
class JobResult:
    """Outcome of one executed :class:`Job`, tagged for deterministic merge."""

    variant: str
    trace: str
    suite: str
    metrics: Optional[PredictorMetrics] = None
    cycles: Optional[int] = None
    selector_stats: Optional[SelectorStats] = None
    #: Formatted divergence report from a ``verify`` job (None = clean).
    divergence: Optional[str] = None
    #: Which evaluation backend actually ran ("python" / "numpy"); None
    #: for job kinds that never enter the prediction loop.
    backend: Optional[str] = None
    #: Execution wall time measured in the worker; lets the submitting
    #: process split pool latency into queue-wait vs run wall.
    wall_s: Optional[float] = None


# Tiny per-process memo for traces and stream columns: drivers emit jobs
# trace-outer, so serial runs and pool workers alike keep hitting the same
# few traces back to back; this avoids re-reading the .npz for every
# variant of a grid row.
_MEMO: "OrderedDict[tuple, Any]" = OrderedDict()
_MEMO_CAPACITY = 4


def _memoized(key: tuple, loader: Callable[[], Any]) -> Any:
    value = _MEMO.get(key)
    if value is None:
        value = loader()
        _MEMO[key] = value
        if len(_MEMO) > _MEMO_CAPACITY:
            _MEMO.popitem(last=False)
    else:
        _MEMO.move_to_end(key)
    return value


def _memoized_trace(name: str, instructions: Optional[int]) -> Trace:
    key = ("trace", name, instructions, run_config.trace_cache_dir())
    return _memoized(
        key, lambda: suite_registry.get_trace(name, instructions)
    )


def _memoized_stream(
    name: str, instructions: Optional[int]
) -> PredictorStream:
    """Stream columns only — skips the full event columns on a warm cache.

    A trace already memoised (by a timing job) donates its stream instead
    of re-reading anything.
    """
    cache_dir = run_config.trace_cache_dir()
    trace = _MEMO.get(("trace", name, instructions, cache_dir))
    if trace is not None:
        return trace.predictor_columns()
    key = ("stream", name, instructions, cache_dir)
    return _memoized(
        key, lambda: suite_registry.get_predictor_stream(name, instructions)
    )


#: The plan scope of the trace group being executed (None outside one).
#: Set and reset by :func:`_run_group` around its jobs; a context variable
#: because ``execute_job(job)`` keeps its one-argument form for callers
#: that wrap it.
_PLAN_SCOPE: "ContextVar[Optional[PlanScope]]" = ContextVar(
    "repro_plan_scope", default=None
)


def _suite_of(trace_name: str) -> str:
    try:
        return suite_registry.suite_of(trace_name)
    except KeyError:
        return "MISC"


def build_predictor(job: Job) -> AddressPredictor:
    """Instantiate the predictor a job describes (worker side)."""
    if job.factory is None:
        raise ValueError("job has no predictor factory")
    try:
        factory = FACTORIES[job.factory]
    except KeyError:
        raise KeyError(
            f"unknown predictor factory {job.factory!r};"
            f" choose from {sorted(FACTORIES)}"
        ) from None
    predictor = factory(**job.overrides)
    if job.gap is not None:
        predictor = PipelinedPredictor(predictor, job.gap)
    return predictor


def _execute(job: Job, aux: Dict[str, Any]) -> JobResult:
    """Run one job in the current process, recording run details in ``aux``.

    ``aux`` receives ``events``/``loads`` counts, the attribution ``probe``
    (instrumented jobs: the attached
    :class:`~repro.eval.metrics.AttributionCounters`) and the sampling
    ``profile`` (when enabled) — the raw material for the job's run
    manifest.
    """
    if job.kind == KIND_TIMING:
        trace = _memoized_trace(job.trace, job.instructions)
        aux["events"] = len(trace)
        outcomes = None
        if job.factory is not None:
            predictor = build_predictor(job)
            if job.instrument:
                aux["probe"] = new_metrics(predictor, True)
            outcomes = predict_loads(
                predictor, trace.predictor_columns(), _PLAN_SCOPE.get()
            )
        timing = simulate(trace, outcomes, job.machine)
        aux["loads"] = timing.loads
        return JobResult(
            variant=job.variant, trace=job.trace,
            suite=trace.meta.get("suite", "MISC"), cycles=timing.cycles,
        )
    if job.kind == KIND_VERIFY:
        # Imported lazily: most engine users never touch the verifier.
        from ..verify.differential import verify_events

        stream = _memoized_stream(job.trace, job.instructions)
        aux["events"] = len(stream.tag)
        aux["loads"] = stream.loads
        divergence = verify_events(job.variant, stream.tuples())
        return JobResult(
            variant=job.variant, trace=job.trace, suite=_suite_of(job.trace),
            divergence=None if divergence is None else divergence.format(),
        )
    if job.kind != KIND_PREDICT:
        raise ValueError(f"unknown job kind {job.kind!r}")
    suite = _suite_of(job.trace)
    stream = _memoized_stream(job.trace, job.instructions)
    aux["events"] = len(stream.tag)
    aux["loads"] = stream.loads
    warmup = int(stream.loads * job.warmup_fraction)
    predictor = build_predictor(job)
    metrics = new_metrics(
        predictor, job.instrument, job.variant, job.trace, suite,
    )
    if job.instrument:
        aux["probe"] = metrics
    profiler = None
    if run_config.profile_enabled() and sampling.available():
        profiler = sampling.SamplingProfiler()
        profiler.start()
    try:
        run_on_columns(
            predictor, stream, metrics, warmup_loads=warmup,
            scope=_PLAN_SCOPE.get(),
        )
    finally:
        if profiler is not None:
            aux["profile"] = profiler.stop()
    selector_stats = None
    if job.capture_selector:
        core = getattr(predictor, "inner", predictor)
        selector_stats = getattr(core, "selector_stats", None)
    return JobResult(
        variant=job.variant, trace=job.trace, suite=suite,
        metrics=metrics, selector_stats=selector_stats,
        backend=metrics.backend or None,
    )


def _build_manifest(
    job: Job,
    result: JobResult,
    aux: Dict[str, Any],
    started_wall: float,
    wall_s: float,
    cpu_s: float,
) -> Dict[str, Any]:
    """Assemble one run-manifest dict (``run_manifest.schema.json``)."""
    from ..workloads import registry as external_registry

    loads = aux.get("loads")
    probe = aux.get("probe")
    metrics = result.metrics
    metrics_record: Optional[Dict[str, Any]] = None
    if metrics is not None:
        metrics_record = {
            "loads": metrics.loads,
            "predictions": metrics.predictions,
            "speculative": metrics.speculative,
            "correct_speculative": metrics.correct_speculative,
            "correct_predictions": metrics.correct_predictions,
            "prediction_rate": metrics.prediction_rate,
            "accuracy": metrics.accuracy,
            "misprediction_rate": metrics.misprediction_rate,
            "correct_rate": metrics.correct_rate,
            "coverage": metrics.coverage,
        }
    # Registry (ingested) traces cache under their own digest-stamped
    # naming and carry ingest provenance: format, source digest, record
    # counts and drop reasons travel into the manifest so an external
    # trace's figures trace back to the exact source bytes.
    if external_registry.has_trace(job.trace):
        cache_file = external_registry.cache_path(job.trace, job.instructions)
        ingest = external_registry.ingest_meta(job.trace, job.instructions)
    else:
        cache_file = suite_registry.trace_cache_path(
            job.trace, job.instructions
        )
        ingest = None
    trace_record: Dict[str, Any] = {
        "name": job.trace,
        "suite": result.suite,
        "events": aux.get("events"),
        "loads": loads,
        "cache": run_manifest.file_provenance(cache_file),
    }
    if ingest is not None:
        trace_record["ingest"] = ingest
    from dataclasses import asdict

    from ..obs.metrics import global_registry

    # trace_id is observability metadata, not configuration: hash the
    # spec without it so traced and untraced runs of the same job agree.
    hashable = {
        k: v for k, v in asdict(job).items() if k != "trace_id"
    }
    return {
        "schema": run_manifest.MANIFEST_SCHEMA_ID,
        "config_hash": run_manifest.config_hash(hashable),
        "job": {
            "trace": job.trace,
            "factory": job.factory,
            "variant": job.variant,
            "kind": job.kind,
            "overrides": run_manifest.jsonable(job.overrides),
            "instructions": job.instructions,
            "warmup_fraction": job.warmup_fraction,
            "gap": job.gap,
            "instrument": job.instrument,
        },
        "trace": trace_record,
        "run": {
            "started_at": run_manifest.iso_utc(started_wall),
            "wall_s": wall_s,
            "cpu_s": cpu_s,
            "loads_per_sec": (
                loads / wall_s if loads and wall_s > 0 else None
            ),
            "peak_rss_kb": run_manifest.peak_rss_kb(),
            "pid": os.getpid(),
            "python": platform.python_version(),
            "backend": result.backend,
        },
        "metrics": metrics_record,
        "cycles": result.cycles,
        "divergence": result.divergence,
        "obs": {
            "trace_id": job.trace_id,
            "flight_recorder": None,
            "metrics": global_registry().snapshot(),
        },
        "attribution": probe.attribution() if probe is not None else None,
        "profile": aux.get("profile"),
    }


def execute_job(job: Job) -> JobResult:
    """Run one job to completion in the current process.

    Under ``REPRO_TELEMETRY=1`` the run is bracketed with heartbeat lines
    and a JSON run manifest (config hash, trace provenance, wall/CPU cost,
    metrics, attribution) is written to the telemetry directory — in
    worker processes just as in serial runs, since the flag travels
    through the inherited environment.
    """
    from ..obs.metrics import global_registry

    registry = global_registry()
    if not run_config.telemetry_enabled():
        started_perf = run_manifest.perf_clock()
        result = _execute(job, {})
        result.wall_s = run_manifest.perf_clock() - started_perf
        registry.counter("engine.jobs").inc()
        registry.histogram("engine.job.run_s").observe(result.wall_s)
        return result
    label = job.variant or job.factory or job.kind
    started_wall = run_manifest.wall_clock()
    started_perf = run_manifest.perf_clock()
    started_cpu = run_manifest.cpu_clock()
    run_manifest.heartbeat(
        f"start kind={job.kind} variant={label} trace={job.trace}"
    )
    aux: Dict[str, Any] = {}
    result = _execute(job, aux)
    wall_s = run_manifest.perf_clock() - started_perf
    cpu_s = run_manifest.cpu_clock() - started_cpu
    result.wall_s = wall_s
    registry.counter("engine.jobs").inc()
    registry.histogram("engine.job.run_s").observe(wall_s)
    manifest = _build_manifest(job, result, aux, started_wall, wall_s, cpu_s)
    path = run_manifest.write_manifest(manifest, run_config.telemetry_dir())
    run_manifest.heartbeat(
        f"done  kind={job.kind} variant={label} trace={job.trace}"
        f" wall={wall_s:.2f}s manifest={path}"
    )
    return result


# Re-exported from the single configuration-resolution point; kept under
# its historical name because drivers and tests import it from here.
resolve_jobs = run_config.resolve_jobs


def _trace_groups(jobs: Sequence[Job], chunk: int) -> List[List[int]]:
    """Job indices grouped by trace, at most ``chunk`` to a group.

    Groups follow each trace's first appearance and keep job order
    within a trace.
    """
    by_trace: Dict[tuple, List[int]] = {}
    for index, job in enumerate(jobs):
        by_trace.setdefault((job.trace, job.instructions), []).append(index)
    return [
        indices[start:start + chunk]
        for indices in by_trace.values()
        for start in range(0, len(indices), chunk)
    ]


def _run_group(jobs: Sequence[Job]) -> List[JobResult]:
    """Execute one trace's jobs in order under a fresh plan scope."""
    token = _PLAN_SCOPE.set(PlanScope())
    try:
        return [execute_job(job) for job in jobs]
    finally:
        _PLAN_SCOPE.reset(token)


def run_jobs(
    jobs: Iterable[Job],
    max_workers: Optional[int] = None,
) -> List[JobResult]:
    """Execute a batch of jobs and return results in job order.

    Jobs run in per-trace groups (:func:`_run_group`).  With one worker
    (``REPRO_JOBS=1`` or a single job) everything runs in-process;
    otherwise the groups — split so there are at least as many as
    workers when the jobs allow — fan out over a ``ProcessPoolExecutor``
    and results are stitched back by job index, so the output is
    independent of worker scheduling.
    """
    from ..obs.metrics import global_registry

    job_list: Sequence[Job] = list(jobs)
    results: List[Optional[JobResult]] = [None] * len(job_list)
    workers = resolve_jobs(max_workers)
    if workers == 1 or len(job_list) < 2:
        for indices in _trace_groups(job_list, len(job_list)):
            group = _run_group([job_list[i] for i in indices])
            for index, result in zip(indices, group):
                results[index] = result
        return results  # type: ignore[return-value]
    registry = global_registry()
    queue_wait = registry.histogram("engine.job.queue_wait_s")
    telemetry_on = run_config.telemetry_enabled()
    completed = 0
    pool_workers = min(workers, len(job_list))
    chunk = math.ceil(len(job_list) / pool_workers)
    busy_s = 0.0
    submitted = run_manifest.perf_clock()
    with ProcessPoolExecutor(max_workers=pool_workers) as pool:
        futures = {
            pool.submit(_run_group, [job_list[i] for i in indices]): indices
            for indices in _trace_groups(job_list, chunk)
        }
        for future in as_completed(futures):
            indices = futures[future]
            group = future.result()
            # Pool latency splits into queue-wait (time the group spent
            # waiting for a worker slot) and the run wall the worker
            # measured; both travel into the metrics registry.
            done = run_manifest.perf_clock()
            group_wall = sum(result.wall_s or 0.0 for result in group)
            busy_s += group_wall
            for index, result in zip(indices, group):
                results[index] = result
                queue_wait.observe(max(0.0, done - submitted - group_wall))
            if telemetry_on:
                completed += len(indices)
                run_manifest.heartbeat(
                    f"progress {completed}/{len(job_list)} jobs complete"
                )
    span_s = run_manifest.perf_clock() - submitted
    if span_s > 0:
        registry.gauge("engine.workers.utilisation").set(
            min(1.0, busy_s / (pool_workers * span_s))
        )
    if telemetry_on:
        run_manifest.heartbeat(
            f"pool done jobs={len(job_list)} workers={pool_workers}"
            f" span={span_s:.2f}s busy={busy_s:.2f}s"
        )
    return results  # type: ignore[return-value]
