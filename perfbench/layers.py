"""Layer clocks: time the program's layers from outside their code.

:class:`LayerClock` replaces public functions of the program's modules
with wrappers that time each call.  A call's *self* time (its duration
minus the time of wrapped calls made inside it) is charged to one layer,
so the layer times of a run add up to the time the run spent inside
wrapped calls; the rest of the wall clock is reported as ``eval.other_s``.
With a :class:`repro.obs.tracing.Tracer` attached, every wrapped call is
also recorded as a span whose ``parent`` argument names the enclosing
span.

Run as a script, this module is the grid workloads' child process::

    python3 perfbench/layers.py --sidecar OUT.json [--traced SPANS.json] \\
        -- run fig5 --instructions 50000 --jobs 1 --backend numpy

It runs ``python -m repro``'s ``main`` with the arguments after ``--``.
Untraced it wraps only ``engine.execute_job`` (two clock reads per job)
to record each job's latency and backend; ``--traced`` wraps every layer
and writes the span export.  The sidecar JSON carries the per-job
records, the kernel dispatch tallies, the process's peak RSS and
(traced) the layer times.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import proc

#: Layer names of wrapped calls whose self time is glue, not work of the
#: layer itself; the report folds them into ``eval.other_s``.
GLUE = ("eval.job", "kernels.glue", "serve.session")


class LayerClock:
    """Self-time accounting (and optional spans) over wrapped functions."""

    def __init__(self, tracer: Any = None, trace_id: Optional[str] = None):
        self.tracer = tracer
        self.trace_id = trace_id
        self.self_s: Dict[str, float] = defaultdict(float)
        #: Work units per layer: dynamic loads, or simulated instructions
        #: for ``timing.simulate``.
        self.work: Dict[str, int] = defaultdict(int)
        self._stack: List[List[Any]] = []
        self._undo: List[Callable[[], None]] = []

    # -- wrapping --------------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        layer: Any,
        classify: Optional[Callable[..., str]] = None,
        work: Optional[Callable[..., int]] = None,
        method: str = "",
    ) -> None:
        """Time every call of ``owner.attr``.

        ``layer`` is a layer name or a function of the call's arguments
        giving one.  ``classify(result, *args)`` may rename the layer once
        the call returns; ``work(*args)`` counts the work units the call
        processed.  A call made while a call of the same layer is open is
        not timed separately: the outer one already covers it.
        ``method`` is ``"classmethod"`` for class methods.
        """
        original = owner.__dict__[attr] if method else getattr(owner, attr)
        fn = original.__func__ if method == "classmethod" else original
        clock = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            name = layer(*args, **kwargs) if callable(layer) else layer
            if any(frame[0] == name for frame in clock._stack):
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            clock._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                clock._stack.pop()
            final = classify(result, *args) if classify else name
            clock._charge(final, start, duration, frame[1])
            if work is not None:
                clock.work[final] += work(*args)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        replacement = classmethod(wrapper) if method == "classmethod" else wrapper
        setattr(owner, attr, replacement)
        self._undo.append(lambda: setattr(owner, attr, original))

    def _charge(
        self, name: str, start: float, duration: float, child_s: float
    ) -> None:
        self.self_s[name] += duration - child_s
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += duration
        if self.tracer is not None:
            self.tracer.record(
                name,
                start_us=start * 1e6,
                dur_us=duration * 1e6,
                trace=self.trace_id,
                args={"parent": parent[0] if parent else None},
            )

    def restore(self) -> None:
        """Put every wrapped function back."""
        while self._undo:
            self._undo.pop()()

    # -- the program's layers ----------------------------------------------------

    def install_layers(self) -> None:
        """Wrap each layer's public entry points (see the README's table)."""
        from repro.eval import engine, experiments
        from repro.kernels import batch as kbatch
        from repro.pipeline.delayed import PipelinedPredictor
        from repro.predictors.base import AddressPredictor
        from repro.serve import session as session_mod
        from repro.workloads import suites

        def trace_layer(name: str, instructions: Optional[int] = None, *_: Any, **__: Any) -> str:
            cached = suites.trace_cache_path(name, instructions).exists()
            return "trace.load" if cached else "trace.gen"

        self.wrap(suites, "get_trace", trace_layer)
        self.wrap(suites, "get_predictor_stream", trace_layer)
        self.wrap(engine, "build_predictor", "eval.build")
        self.wrap(engine, "simulate", "timing.simulate",
                  work=lambda trace, *_: len(trace))
        self.wrap(experiments, "aggregate_by_suite", "eval.render")
        for result_type in (experiments.SuiteComparison,
                            experiments.SpeedupResult,
                            experiments.GapResult):
            self.wrap(result_type, "render", "eval.render")
        self.wrap(kbatch.EventBatch, "from_stream", "kernels.batch",
                  work=lambda _cls, stream: int(stream.loads),
                  method="classmethod")
        for cls in _subclasses(AddressPredictor):
            if "predict_batch" in cls.__dict__:
                self.wrap(cls, "predict_batch", "kernels.plan")
                self.wrap(cls, "update_batch", "kernels.commit")

        def scalar_layer(predictor: Any) -> str:
            # A gap-0 pipeline updates immediately: its work is the plain
            # scalar loop; only a real prediction gap is pipeline work.
            if isinstance(predictor, PipelinedPredictor) and predictor.gap > 0:
                return "pipeline.gap"
            return "predictors.scalar"

        def loop_layer(result: Any, predictor: Any, *_: Any) -> str:
            if getattr(result, "backend", "") == "numpy":
                return "kernels.glue"
            return scalar_layer(predictor)

        def stream_loads(_predictor: Any, stream: Any, *_: Any) -> int:
            loads = getattr(stream, "loads", None)
            if loads is None:
                loads = sum(1 for event in stream if event[0] == 1)
            return int(loads)

        self.wrap(engine, "run_on_columns", "predictors.loop",
                  classify=loop_layer, work=stream_loads)
        # Served sessions: feed glue, and the scalar continuation loop.
        self.wrap(session_mod.PredictorSession, "feed", "serve.session")
        self.wrap(session_mod, "run_on_stream", "predictors.loop",
                  classify=lambda result, predictor, *_: scalar_layer(predictor),
                  work=stream_loads)


def _subclasses(cls: type) -> List[type]:
    found: List[type] = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def dispatch_tallies(snapshot: Dict[str, Any]) -> Dict[str, int]:
    """Sum ``kernels.<Type>.<outcome>`` counters of a registry snapshot."""
    tallies = {"dispatched": 0, "fallback": 0, "declined": 0}
    for name, value in (snapshot.get("counters") or {}).items():
        parts = name.split(".")
        if len(parts) == 3 and parts[0] == "kernels" and parts[2] in tallies:
            tallies[parts[2]] += int(value)
    return tallies


def install_job_log(jobs: List[Dict[str, Any]]) -> None:
    """Wrap ``engine.execute_job`` to log each job's latency and backend."""
    from repro.eval import engine

    original = engine.execute_job

    def execute_job(job: Any) -> Any:
        start = time.perf_counter()
        result = original(job)
        jobs.append({
            "ms": (time.perf_counter() - start) * 1000.0,
            "variant": job.variant,
            "trace": job.trace,
            "kind": job.kind,
            "backend": result.backend,
        })
        return result

    engine.execute_job = execute_job


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sidecar", required=True, type=Path)
    parser.add_argument("--traced", type=Path, default=None,
                        help="wrap every layer and write spans here")
    parser.add_argument("--trace-id", default=None)
    parser.add_argument("repro_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    repro_args = args.repro_args
    if repro_args and repro_args[0] == "--":
        repro_args = repro_args[1:]

    from repro.eval.cli import main as repro_main
    from repro.obs.metrics import global_registry
    from repro.obs.tracing import Tracer

    jobs: List[Dict[str, Any]] = []
    install_job_log(jobs)
    clock: Optional[LayerClock] = None
    tracer: Optional[Tracer] = None
    if args.traced is not None:
        tracer = Tracer(capacity=1 << 20)
        clock = LayerClock(tracer, args.trace_id)
        clock.install_layers()
        from repro.eval import engine

        clock.wrap(engine, "execute_job", "eval.job")
    status = repro_main(repro_args)
    sys.stdout.flush()
    sidecar: Dict[str, Any] = {
        "jobs": jobs,
        "dispatch": dispatch_tallies(global_registry().snapshot()),
        "peak_rss_mb": proc.high_water_mb(),
    }
    if clock is not None and tracer is not None:
        sidecar["self_s"] = dict(clock.self_s)
        sidecar["work"] = dict(clock.work)
        args.traced.write_text(json.dumps(tracer.export()), encoding="utf-8")
    args.sidecar.write_text(json.dumps(sidecar), encoding="utf-8")
    return int(status or 0)


if __name__ == "__main__":
    raise SystemExit(main())
