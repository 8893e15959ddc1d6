"""Sessionized predictor evaluation: the facade the serving layer drives.

A :class:`PredictorSession` owns one predictor plus everything the
offline runner used to scatter across call sites: the LB/LT tables live
in the predictor, the correctness counters in a
:class:`~repro.eval.metrics.PredictorMetrics` (or
:class:`~repro.eval.metrics.AttributionCounters` when instrumented), and
cross-feed warm-up accounting in the session itself.  Instrumented
counters are the predictor's attribution probe, so they count live
across feeds.  ``feed(events)`` returns one prediction record per
dynamic load; ``finish()`` seals the session and returns the metrics.

The evaluation loops live in :mod:`repro.eval.runner`; the session is a
stateful wrapper over them plus the batch-kernel dispatch rule
(:func:`repro.kernels.dispatch_batch`):

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
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

from ..eval.engine import Job, build_predictor
from ..eval.metrics import PredictorMetrics
from ..eval.runner import new_metrics, run_on_stream
from ..kernels import (
    BACKEND_NUMPY,
    BACKEND_PYTHON,
    batch_records,
    dispatch_batch,
    fold_metrics,
    record_dispatch,
)
from ..predictors.base import AddressPredictor
from ..trace.trace import PredictorStream

__all__ = ["PredictionRecord", "PredictorSession", "SessionConfig"]

#: One served prediction: ``(ip, offset, actual, address, speculative,
#: source)`` with ``address is None`` when the predictor had nothing to
#: offer — the exact tuple shape :func:`repro.kernels.batch_records`
#: reconstructs from a kernel run, so served output is byte-identical
#: whichever path evaluated the load.
PredictionRecord = Tuple[int, int, int, Optional[int], bool, str]


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

    def to_job(self) -> Job:
        """The engine job this session spec corresponds to."""
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
        self.config = config
        self.session_id = session_id
        self.predictor: AddressPredictor = build_predictor(config.to_job())
        self.metrics: PredictorMetrics = new_metrics(
            self.predictor, config.instrument, config.variant,
            config.trace, "serve",
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
                stream = PredictorStream.from_events(tuples)
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
        self.finished = True
        return self.metrics
