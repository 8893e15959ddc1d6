"""Batch kernel layer: vectorised predictor evaluation over columnar events.

The scalar evaluation loop (:func:`repro.eval.runner.run_on_stream`)
interprets one event at a time; for table-indexed predictors the same
computation factors into grouped array passes — the kernels here evaluate
a whole :class:`~repro.trace.trace.PredictorStream` per predictor in a
handful of numpy operations plus short Python loops over rare sequential
stretches (CFI dirty periods, per-key state commits).

Entry point: :func:`dispatch_batch`, the one dispatch rule.  It runs a
predictor's ``predict_batch``/``update_batch`` kernel when

* the predictor advertises ``supports_batch`` and is not in the pipelined
  ``speculative_mode`` (a :class:`~repro.pipeline.PipelinedPredictor`
  advertises it at gap 0 only, where it is its inner predictor),
* the resolved backend is ``numpy`` (``REPRO_BACKEND`` / ``--backend``),
  and
* no per-access observer is attached (the differential harness has its
  own record-reconstruction entry point, :func:`batch_records`),

and leaves the scalar reference to the caller when the kernel raises
:class:`BatchFallback` (configurations with genuinely sequential table
dynamics, e.g. an overflowing load-buffer set or a set-associative LT).
Its callers are ``run_on_columns`` (which folds the result into metrics
and records which backend actually ran) and ``predict_loads`` (the
per-load outcome columns the timing model consumes), both in
:mod:`repro.eval.runner`, and the first feed of a served
:class:`~repro.serve.session.PredictorSession`.

Each dispatch plans over an :class:`~repro.kernels.batch.EventBatch` of
the stream.  Without a scope every call builds its own (a served feed);
with a :class:`~repro.kernels.batch.PlanScope` the calls on one stream
share one batch and the plan pieces memoised on it (the engine gives the
jobs of each trace one scope).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from .api import (
    BACKEND_ENV,
    BACKEND_NUMPY,
    BACKEND_PYTHON,
    BatchFallback,
    BatchResult,
    available_backends,
    record_dispatch,
    resolve_backend,
)

if TYPE_CHECKING:
    from .batch import PlanScope

__all__ = [
    "BACKEND_ENV",
    "BACKEND_NUMPY",
    "BACKEND_PYTHON",
    "BatchFallback",
    "BatchResult",
    "available_backends",
    "record_dispatch",
    "resolve_backend",
    "supports_batch",
    "dispatch_batch",
    "run_batch",
    "batch_records",
]


def supports_batch(predictor) -> bool:
    """Whether ``predictor`` can be evaluated by a batch kernel at all."""
    return bool(getattr(predictor, "supports_batch", False)) and not getattr(
        predictor, "speculative_mode", False
    )


def run_batch(
    predictor,
    stream,
    warmup_loads: int = 0,
    scope: Optional["PlanScope"] = None,
) -> Optional[BatchResult]:
    """Run the kernel path unconditionally; ``None`` on :class:`BatchFallback`.

    The predictor must pass :func:`supports_batch`.  On success the
    predictor holds the same end-of-stream state the scalar path would
    have produced.  With a ``scope`` the plan reuses what earlier runs on
    the same stream solved, and the ``kernels.plan_share.hit``/``.miss``
    counters record (once per run) whether it did.
    """
    from .batch import EventBatch

    if scope is None:
        batch = EventBatch.from_stream(stream)
    else:
        batch = scope.batch_for(stream)
    batch.begin_plan()
    reuses = batch.reuses
    try:
        result = predictor.predict_batch(batch)
    except BatchFallback:
        return None
    finally:
        if scope is not None:
            _record_plan_share(batch.reuses > reuses)
    predictor.update_batch(batch, result)
    return result


def _record_plan_share(reused: bool) -> None:
    """Count one scoped plan: ``hit`` when it reused a sibling's solve."""
    from ..obs.metrics import global_registry

    outcome = "hit" if reused else "miss"
    global_registry().counter(f"kernels.plan_share.{outcome}").inc()


def dispatch_batch(
    predictor,
    stream,
    observer: Optional[Callable] = None,
    scope: Optional["PlanScope"] = None,
) -> Optional[BatchResult]:
    """The kernel-dispatch rule; the batch result, or ``None`` for scalar.

    Records one ``declined``/``fallback``/``dispatched`` tally for the
    run (:func:`record_dispatch`).  ``scope`` is handed to
    :func:`run_batch`.
    """
    if observer is not None or not supports_batch(predictor):
        record_dispatch(predictor, "declined")
        return None
    if resolve_backend() != BACKEND_NUMPY:
        record_dispatch(predictor, "declined")
        return None
    result = run_batch(predictor, stream, scope=scope)
    record_dispatch(predictor, "fallback" if result is None else "dispatched")
    return result


def fold_metrics(result: BatchResult, metrics, warmup_loads: int) -> None:
    """Accumulate a batch result into a PredictorMetrics, skipping warm-up."""
    n = len(result.made)
    w = min(max(warmup_loads, 0), n)
    made = result.made[w:]
    spec = result.speculative[w:]
    corr = result.correct[w:]
    metrics.loads += n - w
    metrics.predictions += int(made.sum())
    metrics.correct_predictions += int(corr.sum())
    metrics.speculative += int(spec.sum())
    metrics.correct_speculative += int((spec & corr).sum())


def batch_records(result: BatchResult, stream) -> list:
    """Reconstruct per-access ``(ip, offset, actual, prediction)`` views.

    Returns one ``(ip, offset, actual, address, speculative, source)``
    tuple per dynamic load — the exact fields the differential harness's
    observer captures from the scalar paths.
    """
    import numpy as np

    tag, ip, a, b = stream.arrays()
    idx = np.flatnonzero(tag == 1)
    ips = ip[idx].tolist()
    actual = a[idx].tolist()
    offsets = b[idx].tolist()
    addresses = result.address.tolist()
    made = result.made.tolist()
    spec = result.speculative.tolist()
    names = result.source_names
    codes = result.source_code.tolist()
    return [
        (
            ips[i],
            offsets[i],
            actual[i],
            addresses[i] if made[i] else None,
            spec[i],
            names[codes[i]],
        )
        for i in range(len(ips))
    ]
