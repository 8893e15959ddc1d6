"""Sessionized predictor evaluation: the facade the serving layer drives.

A :class:`PredictorSession` owns one predictor plus everything the
offline runner used to scatter across call sites: the LB/LT tables live
in the predictor, the correctness counters in a
:class:`~repro.eval.metrics.PredictorMetrics` (or
:class:`~repro.eval.metrics.AttributionCounters` when instrumented), and
cross-feed warm-up accounting in the session itself.  ``feed(events)``
returns one prediction record per dynamic load; ``finish()`` seals the
session and returns the metrics.

The evaluation loops themselves — :func:`run_on_stream`,
:func:`run_on_columns`, :func:`run_predictor` — moved here from
:mod:`repro.eval.runner` (which keeps thin delegating shims for existing
drivers and tests).  Their semantics are unchanged; the session is a
stateful wrapper over them plus the batch-kernel dispatch rules:

* The numpy kernels evaluate a whole stream against an **untrained**
  predictor, so the kernel path is only valid on the *first* feed of a
  fresh session.  Later feeds run the incremental scalar loop against
  the already-trained tables.
* ``metrics.backend`` records the backend that *actually ran*: ``numpy``
  iff at least one kernel dispatch succeeded, else ``python`` — a
  session whose every dispatch fell back reports ``python``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
    Union,
)

from ..eval.metrics import AttributionCounters, PredictorMetrics
from ..kernels import (
    BACKEND_NUMPY,
    BACKEND_PYTHON,
    batch_records,
    dispatch_batch,
    fold_metrics,
    record_dispatch,
    try_run_batch,
)
from ..predictors.base import AddressPredictor
from ..trace.trace import PredictorStream, Trace

if TYPE_CHECKING:
    from ..kernels.batch import PlanScope

__all__ = [
    "PredictionRecord",
    "PredictorSession",
    "SessionConfig",
    "predict_loads",
    "run_on_columns",
    "run_on_stream",
    "run_predictor",
]

#: One served prediction: ``(ip, offset, actual, address, speculative,
#: source)`` with ``address is None`` when the predictor had nothing to
#: offer — the exact tuple shape :func:`repro.kernels.batch_records`
#: reconstructs from a kernel run, so served output is byte-identical
#: whichever path evaluated the load.
PredictionRecord = Tuple[int, int, int, Optional[int], bool, str]


# ---------------------------------------------------------------------------
# Evaluation loops (moved from repro.eval.runner; shims remain there)
# ---------------------------------------------------------------------------

def run_on_stream(
    predictor: AddressPredictor,
    stream: Iterable[tuple],
    metrics: PredictorMetrics,
    warmup_loads: int = 0,
    observer: Optional[Callable] = None,
) -> PredictorMetrics:
    """Evaluate ``predictor`` over a predictor stream.

    ``stream`` items follow :meth:`repro.trace.Trace.predictor_stream`:
    ``(1, ip, addr, offset)`` loads, ``(0, ip, taken, 0)`` branches,
    ``(2, ip, 0, 0)`` calls, ``(3, ip, 0, 0)`` returns.

    ``warmup_loads`` loads at the start train the predictor without being
    counted (the paper's 30M-instruction traces amortise warm-up; short
    synthetic traces may not).

    ``observer`` (when given) is called as ``observer(ip, offset, actual,
    prediction)`` for every dynamic load, between prediction and table
    update — the hook the differential verification harness uses to diff
    per-access behaviour across evaluation paths.
    """
    predict = predictor.predict
    update = predictor.update
    on_branch = predictor.on_branch
    on_call = predictor.on_call
    on_return = predictor.on_return
    seen_loads = 0
    metrics.backend = "python"

    for tag, ip, a, b in stream:
        if tag == 1:
            prediction = predict(ip, b)
            if observer is not None:
                observer(ip, b, a, prediction)
            seen_loads += 1
            if seen_loads > warmup_loads:
                metrics.record(
                    made=prediction.made,
                    speculative=prediction.speculative,
                    correct=prediction.address == a,
                )
            update(ip, b, a, prediction)
        elif tag == 0:
            on_branch(ip, bool(a))
        elif tag == 2:
            on_call(ip)
        else:
            on_return(ip)
    return metrics


def run_on_columns(
    predictor: AddressPredictor,
    stream: PredictorStream,
    metrics: PredictorMetrics,
    warmup_loads: int = 0,
    observer: Optional[Callable] = None,
    scope: Optional["PlanScope"] = None,
) -> PredictorMetrics:
    """Columnar fast path: evaluate over a :class:`PredictorStream`.

    Dispatches to the batch kernels (:mod:`repro.kernels`) when the
    predictor advertises ``supports_batch`` and the resolved backend is
    ``numpy``; otherwise runs the scalar reference loop.  The scalar loop
    is semantically identical to :func:`run_on_stream`, with two wins over
    iterating a tuple list: ``zip`` over the four parallel columns lets
    CPython recycle the event tuple every iteration instead of keeping one
    4-tuple per event alive, and the correctness counters accumulate in
    locals (folded into ``metrics`` once at the end) instead of paying a
    method call per dynamic load.  ``metrics.backend`` records which path
    actually ran.  ``scope`` (offline engine jobs) shares kernel plans
    among the runs on one stream; see :func:`repro.kernels.run_batch`.
    """
    if try_run_batch(predictor, stream, metrics, warmup_loads, observer, scope):
        return metrics
    return _scalar_columns(predictor, stream, metrics, warmup_loads, observer)


def _scalar_columns(
    predictor: AddressPredictor,
    stream: PredictorStream,
    metrics: PredictorMetrics,
    warmup_loads: int,
    observer: Optional[Callable],
) -> PredictorMetrics:
    """The scalar reference loop of :func:`run_on_columns`."""
    predict = predictor.predict
    update = predictor.update
    on_branch = predictor.on_branch
    on_call = predictor.on_call
    on_return = predictor.on_return
    seen_loads = 0
    loads = predictions = correct_predictions = 0
    speculative = correct_speculative = 0
    metrics.backend = "python"

    for tag, ip, a, b in zip(*stream.lists()):
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
    scheduling.  Dispatches by :func:`repro.kernels.dispatch_batch` like
    :func:`run_on_columns`, with ``scope`` sharing kernel plans; the
    scalar path is that function's loop with a recording observer.  The
    predictor ends trained on the whole stream either way.
    """
    result = dispatch_batch(predictor, stream, scope=scope)
    if result is not None:
        return result.speculative.tolist(), result.correct.tolist()
    speculative: List[bool] = []
    correct: List[bool] = []

    def _record(ip: int, offset: int, actual: int, prediction: Any) -> None:
        speculative.append(prediction.speculative)
        correct.append(prediction.address == actual)

    _scalar_columns(predictor, stream, PredictorMetrics(), 0, _record)
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


# ---------------------------------------------------------------------------
# Session configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SessionConfig:
    """Picklable spec of one predictor session.

    The same factory/overrides/gap vocabulary as
    :class:`repro.eval.engine.Job` — :meth:`to_job` maps a config onto a
    (trace-less) job so session workers reuse
    :func:`repro.eval.engine.build_predictor` verbatim, the serving
    analogue of jobs crossing the engine's process boundary as specs.
    """

    factory: str = "hybrid"
    overrides: Dict[str, Any] = field(default_factory=dict)
    warmup_loads: int = 0
    gap: Optional[int] = None
    instrument: bool = False
    variant: str = ""
    trace: str = ""

    def to_job(self) -> Any:
        """The engine job this session spec corresponds to."""
        from ..eval.engine import Job

        return Job(
            trace=self.trace,
            factory=self.factory,
            overrides=dict(self.overrides),
            gap=self.gap,
            variant=self.variant,
            instrument=self.instrument,
        )

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SessionConfig":
        """Build a config from a wire-protocol ``open`` payload."""
        known = {f: payload[f] for f in (
            "factory", "warmup_loads", "gap", "instrument", "variant",
            "trace",
        ) if f in payload}
        overrides = payload.get("overrides") or {}
        if not isinstance(overrides, dict):
            raise ValueError("overrides must be an object")
        return cls(overrides=dict(overrides), **known)


def _columns_of(events: List[tuple]) -> PredictorStream:
    """Pack a list of ``(tag, ip, a, b)`` tuples into a columnar stream."""
    if not events:
        return PredictorStream([], [], [], [], loads=0)
    tag, ip, a, b = (list(col) for col in zip(*events))
    return PredictorStream(tag, ip, a, b)


# ---------------------------------------------------------------------------
# The session facade
# ---------------------------------------------------------------------------

class PredictorSession:
    """One stateful prediction session: predictor + metrics + warm-up.

    ``feed(events)`` evaluates a chunk of the stream and returns one
    :data:`PredictionRecord` per dynamic load in it; ``finish()`` seals
    the session and returns the accumulated metrics.  Sessions are
    single-owner objects (one per connection in the serving layer) and
    are not thread-safe.
    """

    def __init__(
        self, config: SessionConfig, session_id: str = ""
    ) -> None:
        # Lazy: repro.eval.engine imports the runner shims, which import
        # this module — resolving the factory registry at session-build
        # time keeps the module graph acyclic.
        from ..eval.engine import build_predictor

        self.config = config
        self.session_id = session_id
        self.predictor: AddressPredictor = build_predictor(config.to_job())
        self._probe: Optional[Any] = None
        if config.instrument:
            from ..telemetry.instrumentation import (
                AttributionProbe,
                instrument_predictor,
            )

            self._probe = AttributionProbe()
            instrument_predictor(self.predictor, self._probe)
            self.metrics: PredictorMetrics = AttributionCounters(
                name=config.variant or self.predictor.name,
                trace=config.trace, suite="serve",
            )
        else:
            self.metrics = PredictorMetrics(
                name=config.variant or self.predictor.name,
                trace=config.trace, suite="serve",
            )
        self.seen_loads = 0
        self.seen_events = 0
        self.feeds = 0
        self.kernel_feeds = 0
        self.finished = False

    # -- introspection -------------------------------------------------------

    @property
    def backend(self) -> str:
        """Backend that actually ran: ``numpy`` iff a kernel dispatch did."""
        return BACKEND_NUMPY if self.kernel_feeds else BACKEND_PYTHON

    # -- the facade ----------------------------------------------------------

    def feed(
        self,
        events: Union[PredictorStream, Iterable[tuple]],
        observer: Optional[Callable] = None,
    ) -> List[PredictionRecord]:
        """Evaluate one chunk of the stream; one record per dynamic load.

        Records cover *every* load in the chunk — warm-up only suppresses
        metric accounting, a served client still gets its prediction.
        Raises :class:`RuntimeError` on a finished session.
        """
        if self.finished:
            raise RuntimeError(
                f"session {self.session_id or '<anonymous>'} is finished"
            )
        if isinstance(events, PredictorStream):
            stream: Optional[PredictorStream] = events
            tuples: Optional[List[tuple]] = None
        else:
            stream = None
            tuples = list(events)

        # Batch kernels replay a whole stream against an *untrained*
        # predictor, so only the first feed of a session may take them.
        records: Optional[List[PredictionRecord]] = None
        if self.feeds:
            record_dispatch(self.predictor, "declined")
        else:
            if stream is None:
                assert tuples is not None
                stream = _columns_of(tuples)
            result = dispatch_batch(self.predictor, stream, observer)
            if result is not None:
                fold_metrics(
                    result, self.metrics, self.config.warmup_loads
                )
                records = batch_records(result, stream)
                self.kernel_feeds += 1
        if records is None:
            captured: List[PredictionRecord] = []

            def _capture(
                ip: int, offset: int, actual: int, prediction: Any
            ) -> None:
                captured.append((
                    ip, offset, actual,
                    prediction.address if prediction.made else None,
                    prediction.speculative, prediction.source,
                ))
                if observer is not None:
                    observer(ip, offset, actual, prediction)

            remaining_warmup = max(
                0, self.config.warmup_loads - self.seen_loads
            )
            run_on_stream(
                self.predictor,
                tuples if tuples is not None else stream.tuples(),
                self.metrics,
                warmup_loads=remaining_warmup,
                observer=_capture,
            )
            records = captured
        self.seen_loads += len(records)
        self.seen_events += (
            len(tuples) if tuples is not None else len(stream.tag)
        )
        self.feeds += 1
        self.metrics.backend = self.backend
        return records

    def finish(self) -> PredictorMetrics:
        """Seal the session and return its metrics (idempotent)."""
        if not self.finished:
            self.finished = True
            if self._probe is not None:
                assert isinstance(self.metrics, AttributionCounters)
                self.metrics.absorb_probe(self._probe)
        return self.metrics
