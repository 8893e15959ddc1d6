"""Drive a predictor over a trace and collect metrics.

The runner walks the trace's predictor stream (loads, branches, calls,
returns in program order), calls ``predict``/``update`` for every dynamic
load and maintains the correctness bookkeeping.  With the default
immediate-update predictors this reproduces the Section 4 machine model;
wrapping the predictor in :class:`repro.pipeline.PipelinedPredictor` gives
the Section 5 model without changing the loop.

There is one scalar loop, :func:`run_on_stream`.  :func:`run_on_columns`
and :func:`predict_loads` first offer a columnar stream to the batch
kernels through the one dispatch rule,
:func:`repro.kernels.dispatch_batch`, and run that loop when it declines.
The serving layer (:class:`repro.serve.session.PredictorSession`) is a
stateful wrapper over the same functions.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterable,
    List,
    Optional,
    Tuple,
    Union,
)

from ..kernels import BACKEND_NUMPY, dispatch_batch, fold_metrics
from ..predictors.base import AddressPredictor
from ..trace.trace import PredictorStream, Trace
from .metrics import AttributionCounters, PredictorMetrics

if TYPE_CHECKING:
    from ..kernels.batch import PlanScope

__all__ = ["predict_loads", "run_on_columns", "run_on_stream", "run_predictor"]


def run_on_stream(
    predictor: AddressPredictor,
    events: Iterable[tuple],
    metrics: PredictorMetrics,
    warmup_loads: int = 0,
    observer: Optional[Callable] = None,
) -> PredictorMetrics:
    """The scalar evaluation loop: evaluate ``predictor`` over ``events``.

    ``events`` is any iterable of :meth:`repro.trace.Trace.predictor_stream`
    items: ``(1, ip, addr, offset)`` loads, ``(0, ip, taken, 0)`` branches,
    ``(2, ip, 0, 0)`` calls, ``(3, ip, 0, 0)`` returns.

    ``warmup_loads`` loads at the start train the predictor without being
    counted (the paper's 30M-instruction traces amortise warm-up; short
    synthetic traces may not).

    ``observer`` (when given) is called as ``observer(ip, offset, actual,
    prediction)`` for every dynamic load, between prediction and table
    update — the hook the differential verification harness uses to diff
    per-access behaviour across evaluation paths.

    The correctness counters accumulate in locals and are folded into
    ``metrics`` once at the end instead of paying a method call per
    dynamic load; ``metrics.backend`` is set to ``python``.
    """
    predict = predictor.predict
    update = predictor.update
    on_branch = predictor.on_branch
    on_call = predictor.on_call
    on_return = predictor.on_return
    seen_loads = 0
    loads = predictions = correct_predictions = 0
    speculative = correct_speculative = 0
    metrics.backend = "python"

    for tag, ip, a, b in events:
        if tag == 1:
            prediction = predict(ip, b)
            if observer is not None:
                observer(ip, b, a, prediction)
            seen_loads += 1
            if seen_loads > warmup_loads:
                loads += 1
                correct = prediction.address == a
                if prediction.made:
                    predictions += 1
                    if correct:
                        correct_predictions += 1
                if prediction.speculative:
                    speculative += 1
                    if correct:
                        correct_speculative += 1
            update(ip, b, a, prediction)
        elif tag == 0:
            on_branch(ip, bool(a))
        elif tag == 2:
            on_call(ip)
        else:
            on_return(ip)

    metrics.loads += loads
    metrics.predictions += predictions
    metrics.correct_predictions += correct_predictions
    metrics.speculative += speculative
    metrics.correct_speculative += correct_speculative
    return metrics


def run_on_columns(
    predictor: AddressPredictor,
    stream: PredictorStream,
    metrics: PredictorMetrics,
    warmup_loads: int = 0,
    observer: Optional[Callable] = None,
    scope: Optional["PlanScope"] = None,
) -> PredictorMetrics:
    """Evaluate over a :class:`PredictorStream`, on the kernels when allowed.

    Offers the stream to :func:`repro.kernels.dispatch_batch`; when a
    kernel ran, its result is folded into ``metrics`` and
    ``metrics.backend`` is ``numpy``.  Otherwise :func:`run_on_stream`
    runs over ``zip`` of the four parallel columns, which lets CPython
    recycle the event tuple every iteration instead of keeping one 4-tuple
    per event alive.  ``scope`` (offline engine jobs) shares kernel plans
    among the runs on one stream; see :func:`repro.kernels.run_batch`.
    """
    result = dispatch_batch(predictor, stream, observer, scope)
    if result is not None:
        fold_metrics(result, metrics, warmup_loads)
        metrics.backend = BACKEND_NUMPY
        return metrics
    return run_on_stream(
        predictor, zip(*stream.lists()), metrics, warmup_loads, observer
    )


def predict_loads(
    predictor: AddressPredictor,
    stream: PredictorStream,
    scope: Optional["PlanScope"] = None,
) -> Tuple[List[bool], List[bool]]:
    """Per-load ``(speculative, correct)`` columns of one immediate run.

    The outcome pass the timing model consumes
    (:func:`repro.timing.ooo.simulate`): entry ``i`` says whether the
    ``i``-th dynamic load of ``stream`` made a speculative access and
    whether its predicted address matched.  Timing never feeds back into
    a prediction (a pipelined predictor counts its gap in loads and
    flushes on its own g-share), so the columns can be computed before
    scheduling.  Dispatches like :func:`run_on_columns`, with ``scope``
    sharing kernel plans; the scalar path is :func:`run_on_stream` with a
    recording observer.  The predictor ends trained on the whole stream
    either way.
    """
    result = dispatch_batch(predictor, stream, scope=scope)
    if result is not None:
        return result.speculative.tolist(), result.correct.tolist()
    speculative: List[bool] = []
    correct: List[bool] = []

    def _record(ip: int, offset: int, actual: int, prediction: Any) -> None:
        speculative.append(prediction.speculative)
        correct.append(prediction.address == actual)

    run_on_stream(
        predictor, zip(*stream.lists()), PredictorMetrics(), 0, _record
    )
    return speculative, correct


def run_predictor(
    predictor: AddressPredictor,
    trace: Union[Trace, PredictorStream, list],
    name: Optional[str] = None,
    warmup_loads: int = 0,
    instrument: bool = False,
) -> PredictorMetrics:
    """Evaluate ``predictor`` on ``trace`` and return fresh metrics.

    ``trace`` may be a :class:`Trace` (evaluated through its columnar
    stream), a :class:`PredictorStream`, or an already-extracted list of
    stream tuples (useful when evaluating many predictors over one trace).

    With ``instrument=True`` an attribution probe is attached to the
    predictor tree and the result is an
    :class:`~repro.eval.metrics.AttributionCounters` carrying the
    per-component misprediction-cause breakdown.
    """
    trace_name = ""
    suite = ""
    if isinstance(trace, Trace):
        stream: Union[PredictorStream, list] = trace.predictor_columns()
        trace_name = trace.name
        suite = trace.meta.get("suite", "")
    else:
        stream = trace
    metrics: PredictorMetrics
    probe = None
    if instrument:
        # Imported here: the runner itself stays telemetry-free for the
        # (overwhelmingly common) uninstrumented path.
        from ..telemetry.instrumentation import (
            AttributionProbe,
            instrument_predictor,
        )

        probe = AttributionProbe()
        instrument_predictor(predictor, probe)
        metrics = AttributionCounters(
            name=name or predictor.name, trace=trace_name, suite=suite,
        )
    else:
        metrics = PredictorMetrics(
            name=name or predictor.name, trace=trace_name, suite=suite,
        )
    if isinstance(stream, PredictorStream):
        run_on_columns(predictor, stream, metrics, warmup_loads)
    else:
        run_on_stream(predictor, stream, metrics, warmup_loads)
    if probe is not None:
        assert isinstance(metrics, AttributionCounters)
        metrics.absorb_probe(probe)
    return metrics
