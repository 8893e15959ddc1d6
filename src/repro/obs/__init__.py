"""The observability package: manifests, metrics, tracing, reports.

Everything in this package *observes* the serving/engine stack and never
feeds back into simulated state — which is why the R002 determinism rule
allowlists ``obs/`` for wall-clock reads, and why nothing here is
imported by a predictor or evaluation loop (only by the layers around
them: the engine, the server, the shard manager, the kernel
dispatcher).  Nothing here imports a predictor, the pipeline, the
kernels or the server either (``tests/test_layering.py``); the one
exception is the admin endpoint's use of the wire framing in
:mod:`repro.serve.protocol`.

* :mod:`repro.obs.manifest` — JSON run manifests, heartbeat lines and
  the clock reads the engine and server time runs with
  (``REPRO_TELEMETRY=1``); :mod:`repro.obs.schema` — the dependency-free
  validator for the checked-in manifest, SLO-report, span and
  postmortem schemas.
* :mod:`repro.obs.profiler` — the opt-in sampling profiler
  (``REPRO_TELEMETRY_PROFILE=1``) around the engine's hot loop.
* :mod:`repro.obs.metrics` — a process-mergeable registry of counters,
  gauges and fixed-bucket latency histograms.  Snapshots are plain JSON
  dicts; shard workers ship theirs over the pipe and the manager merges.
* :mod:`repro.obs.tracing` — trace/span IDs minted at the wire protocol
  and propagated through frames, the micro-batching executor, the shard
  hop and engine job specs; exported as Chrome trace-event JSON
  (Perfetto-loadable), validated against a checked-in schema.
* :mod:`repro.obs.flight` — a bounded per-session ring buffer of recent
  events, dumped to a postmortem manifest when a session dies badly.
* :mod:`repro.obs.admin` — the server's admin endpoint (separate port,
  same length-prefixed protocol) serving ``metrics``/``health``/``spans``.
* :mod:`repro.obs.report` — the ``repro stats`` backend (manifest
  summaries, validation and diffs, the bench trajectory, SLO reports,
  ``tail`` and ``spans``).

Attribution counters — *why* loads mispredict — are metrics, not
observability plumbing: :class:`repro.eval.metrics.AttributionCounters`
is attached to a predictor as its probe by
:func:`repro.eval.runner.instrument_predictor`.
"""

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    global_registry,
    histogram_percentile,
)
from .tracing import (
    TRACE_EVENT_SCHEMA_PATH,
    Tracer,
    mint_trace_id,
    validate_trace_export,
)
from .flight import FlightRecorder, POSTMORTEM_SCHEMA_ID

__all__ = [
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "POSTMORTEM_SCHEMA_ID",
    "TRACE_EVENT_SCHEMA_PATH",
    "Tracer",
    "global_registry",
    "histogram_percentile",
    "mint_trace_id",
    "validate_trace_export",
]
