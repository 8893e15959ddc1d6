"""Prediction-quality metrics, matching the paper's definitions.

* **prediction rate** — speculative accesses (correct *and* incorrect) as a
  fraction of all dynamic loads (Section 4.2);
* **accuracy** — correct predictions as a fraction of speculative accesses;
* **misprediction rate** — ``1 - accuracy`` (out of speculative accesses,
  as in Figure 10);
* **correct rate** — correct speculative accesses out of all dynamic loads
  (the Figure 9 metric).

:class:`AttributionCounters` adds the misprediction causes and doubles as
the predictors' attribution probe.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Iterable, Optional

__all__ = [
    "AttributionCounters",
    "PredictorMetrics",
    "SuiteMetrics",
    "aggregate_by_suite",
]

#: Dataclass fields that label a metrics object rather than count events.
_LABEL_FIELDS = ("name", "trace", "suite", "backend")


@dataclass
class PredictorMetrics:
    """Counters from one predictor x trace evaluation."""

    name: str = ""
    trace: str = ""
    suite: str = ""
    #: Evaluation backend that produced these counters ("python" scalar
    #: loop or "numpy" batch kernels); "" when aggregated or unknown.
    backend: str = ""
    loads: int = 0
    predictions: int = 0          # an address was produced (LB hit + link)
    speculative: int = 0          # confidence agreed -> speculative access
    correct_speculative: int = 0
    correct_predictions: int = 0  # correctness over all produced addresses

    def record(self, made: bool, speculative: bool, correct: bool) -> None:
        """Account for one dynamic load."""
        self.loads += 1
        if made:
            self.predictions += 1
            if correct:
                self.correct_predictions += 1
        if speculative:
            self.speculative += 1
            if correct:
                self.correct_speculative += 1

    # -- derived rates ------------------------------------------------------

    @property
    def prediction_rate(self) -> float:
        """Speculative accesses / all loads."""
        return self.speculative / self.loads if self.loads else 0.0

    @property
    def accuracy(self) -> float:
        """Correct / speculative accesses."""
        if not self.speculative:
            return 0.0
        return self.correct_speculative / self.speculative

    @property
    def misprediction_rate(self) -> float:
        """Incorrect / speculative accesses."""
        if not self.speculative:
            return 0.0
        return 1.0 - self.accuracy

    @property
    def correct_rate(self) -> float:
        """Correct speculative accesses / all loads (Figure 9 metric)."""
        return self.correct_speculative / self.loads if self.loads else 0.0

    @property
    def coverage(self) -> float:
        """Loads for which any address was produced / all loads."""
        return self.predictions / self.loads if self.loads else 0.0

    @property
    def mispredictions(self) -> int:
        """Absolute count of wrong speculative accesses."""
        return self.speculative - self.correct_speculative

    # -- combination ------------------------------------------------------------

    def add(self, other: "PredictorMetrics") -> None:
        """Accumulate another metrics object into this one.

        Generic over dataclass fields, so subclasses that append counter
        fields (:class:`AttributionCounters`) merge without overriding;
        counters the other object lacks contribute zero.
        """
        for spec in fields(self):
            if spec.name in _LABEL_FIELDS:
                continue
            setattr(
                self,
                spec.name,
                getattr(self, spec.name) + getattr(other, spec.name, 0),
            )

    def __iadd__(self, other: "PredictorMetrics") -> "PredictorMetrics":
        self.add(other)
        return self

    def __str__(self) -> str:
        return (
            f"{self.name or 'predictor'} on {self.trace or 'trace'}: "
            f"rate={self.prediction_rate:.1%} acc={self.accuracy:.2%} "
            f"({self.speculative}/{self.loads} spec)"
        )


@dataclass
class AttributionCounters(PredictorMetrics):
    """:class:`PredictorMetrics` plus one counter per misprediction cause.

    The paper explains *why* loads mispredict (Sections 4.2-4.5, Figures
    9-10); these counters keep the causes apart.  An instance is also the
    attribution **probe**: :func:`repro.eval.runner.instrument_predictor`
    attaches it to a predictor tree, whose components call the event
    methods below from already-rare branches (a table miss, a veto, a
    rollback), and the batch kernels add their counts to the same fields.
    :meth:`add` is generic over dataclass fields, so instances survive
    the engine's deterministic merge.  The counter taxonomy is in
    ``docs/observability.md``.
    """

    lb_misses: int = 0
    lt_misses: int = 0
    lt_tag_mismatches: int = 0
    pf_rejections: int = 0
    confidence_vetoes: int = 0
    cfi_vetoes: int = 0
    interval_stops: int = 0
    drain_suppressions: int = 0
    selector_cap: int = 0
    selector_stride: int = 0
    catchups_fired: int = 0
    spec_rollbacks: int = 0
    cfi_bad_patterns: int = 0
    pipeline_flushes: int = 0

    def attribution(self) -> Dict[str, int]:
        """The attribution counters alone, as an ordered plain dict."""
        base = {spec.name for spec in fields(PredictorMetrics)}
        return {
            spec.name: getattr(self, spec.name)
            for spec in fields(self)
            if spec.name not in base
        }

    # -- event sinks (called from predictor hot paths) ----------------------

    def lb_miss(self) -> None:
        self.lb_misses += 1

    def lt_miss(self) -> None:
        self.lt_misses += 1

    def lt_tag_mismatch(self) -> None:
        self.lt_tag_mismatches += 1

    def pf_rejection(self) -> None:
        self.pf_rejections += 1

    def confidence_veto(self) -> None:
        self.confidence_vetoes += 1

    def cfi_veto(self) -> None:
        self.cfi_vetoes += 1

    def interval_stop(self) -> None:
        self.interval_stops += 1

    def drain_suppression(self) -> None:
        self.drain_suppressions += 1

    def selector_choice(self, component: str) -> None:
        if component == "cap":
            self.selector_cap += 1
        else:
            self.selector_stride += 1

    def catchup_fired(self) -> None:
        self.catchups_fired += 1

    def spec_rollback(self) -> None:
        self.spec_rollbacks += 1

    def cfi_bad_pattern(self) -> None:
        self.cfi_bad_patterns += 1

    def pipeline_flush(self) -> None:
        self.pipeline_flushes += 1


@dataclass
class SuiteMetrics:
    """Per-suite aggregation of several trace runs."""

    suite: str
    combined: PredictorMetrics = field(default_factory=PredictorMetrics)
    traces: Dict[str, PredictorMetrics] = field(default_factory=dict)

    def add(self, metrics: PredictorMetrics) -> None:
        """Fold one trace's metrics into the suite.

        When the incoming metrics are a richer subclass than ``combined``
        (e.g. :class:`AttributionCounters` folding into a default-built
        :class:`PredictorMetrics`), ``combined`` is upgraded to that
        subclass first so no counter is dropped in aggregation.
        """
        self.traces[metrics.trace] = metrics
        if not isinstance(self.combined, type(metrics)):
            upgraded = type(metrics)(
                name=self.combined.name,
                trace=self.combined.trace,
                suite=self.combined.suite,
            )
            upgraded.add(self.combined)
            self.combined = upgraded
        self.combined.add(metrics)

    def __iadd__(self, other: "SuiteMetrics") -> "SuiteMetrics":
        """Merge another suite aggregation (same suite) into this one."""
        for metrics in other.traces.values():
            self.add(metrics)
        return self


def aggregate_by_suite(
    runs: Iterable[PredictorMetrics],
    name: Optional[str] = None,
) -> Dict[str, SuiteMetrics]:
    """Group per-trace metrics into suites, plus an ``"Average"`` entry.

    The ``"Average"`` bucket sums counters across every trace — the same
    load-weighted averaging the paper uses for its "Average" bars.
    """
    suites: Dict[str, SuiteMetrics] = {}
    overall = SuiteMetrics(suite="Average")
    overall.combined.name = name or ""
    for metrics in runs:
        suite = metrics.suite or "MISC"
        if suite not in suites:
            suites[suite] = SuiteMetrics(suite=suite)
            suites[suite].combined.name = metrics.name
        suites[suite].add(metrics)
        overall.add(metrics)
    suites["Average"] = overall
    return suites
