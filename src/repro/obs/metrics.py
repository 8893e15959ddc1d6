"""Process-mergeable metrics registry: counters, gauges, histograms.

Design constraints, in order:

* **Near-zero disabled-path cost.**  Call sites resolve their instrument
  once (``registry.counter("serve.feeds")``) and hold the object; a
  disabled registry hands out shared null instruments whose mutators are
  single ``pass`` statements, so an instrumented hot path costs one
  no-op method call when observability is off.
* **Process-mergeable.**  :meth:`MetricsRegistry.snapshot` is a plain
  JSON dict and :meth:`MetricsRegistry.merge` folds another process's
  snapshot in (counters and histogram buckets add, gauges add — every
  gauge here is an occupancy, so summing across shard workers is the
  fleet-wide value).  Shard workers answer an ``OP_METRICS`` pipe
  request with their snapshot; the manager merges before serving the
  admin endpoint.
* **No clocks, no environment.**  The registry stores what callers hand
  it; timing lives with the caller (``obs/`` is clock-allowlisted, the
  rest of the tree goes through :mod:`repro.obs.manifest`).

Histograms are fixed-bucket: ``bounds`` are inclusive upper edges, with
one implicit overflow bucket.  :func:`histogram_percentile` estimates a
percentile from a snapshot by walking the cumulative counts and
answering the matched bucket's upper edge — coarse, but mergeable across
processes, which sorted-sample percentiles are not.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_LATENCY_BOUNDS_S",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "global_registry",
    "histogram_percentile",
]

#: Default latency bucket upper edges, in seconds: 100µs .. 30s, roughly
#: logarithmic — wide enough for both a kernel feed (~ms) and a saturated
#: queue wait (~s).
DEFAULT_LATENCY_BOUNDS_S: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


class Counter:
    """A monotonically increasing tally."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time level (queue depth, sessions active, utilisation)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Fixed-bucket histogram: ``bounds`` upper edges + overflow bucket."""

    __slots__ = ("name", "bounds", "counts", "total", "count")

    def __init__(
        self, name: str, bounds: Sequence[float] = DEFAULT_LATENCY_BOUNDS_S
    ) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError(
                f"histogram bounds must be a non-empty ascending"
                f" sequence, got {bounds!r}"
            )
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        index = len(self.bounds)
        # Linear scan: bucket lists are short and observations are per
        # feed/job, not per event; bisect would cost an import for no win.
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                index = i
                break
        self.counts[index] += 1
        self.total += value
        self.count += 1

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None


class _NullCounter(Counter):
    """Shared no-op counter handed out by a disabled registry."""

    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


_NULL_COUNTER = _NullCounter("null")
_NULL_GAUGE = _NullGauge("null")
_NULL_HISTOGRAM = _NullHistogram("null")


class MetricsRegistry:
    """Named instruments with JSON snapshot/merge across processes."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instrument resolution (call once, hold the object) ------------------

    def counter(self, name: str) -> Counter:
        if not self.enabled:
            return _NULL_COUNTER
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        if not self.enabled:
            return _NULL_GAUGE
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(
        self,
        name: str,
        bounds: Sequence[float] = DEFAULT_LATENCY_BOUNDS_S,
    ) -> Histogram:
        if not self.enabled:
            return _NULL_HISTOGRAM
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name, bounds)
        return instrument

    # -- lifecycle -----------------------------------------------------------

    def reset(self) -> None:
        """Drop every instrument (tests and per-run isolation)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    def __len__(self) -> int:
        return (
            len(self._counters) + len(self._gauges) + len(self._histograms)
        )

    # -- snapshot / merge ----------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """The registry as a plain JSON dict (stable key order)."""
        return {
            "counters": {
                name: c.value for name, c in sorted(self._counters.items())
            },
            "gauges": {
                name: g.value for name, g in sorted(self._gauges.items())
            },
            "histograms": {
                name: {
                    "bounds": list(h.bounds),
                    "counts": list(h.counts),
                    "sum": h.total,
                    "count": h.count,
                }
                for name, h in sorted(self._histograms.items())
            },
        }

    def merge(self, snapshot: Mapping[str, Any]) -> None:
        """Fold another process's :meth:`snapshot` into this registry.

        Counters and histogram buckets add; gauges add too (every gauge
        is an occupancy level, and the fleet-wide occupancy is the sum of
        the per-process ones).  Histograms only merge when the bucket
        bounds agree — mismatched bounds raise rather than silently
        corrupting the distribution.
        """
        for name, value in (snapshot.get("counters") or {}).items():
            self.counter(name).inc(int(value))
        for name, value in (snapshot.get("gauges") or {}).items():
            self.gauge(name).inc(float(value))
        for name, record in (snapshot.get("histograms") or {}).items():
            hist = self.histogram(name, record["bounds"])
            if list(hist.bounds) != [float(b) for b in record["bounds"]]:
                raise ValueError(
                    f"histogram {name!r} bounds mismatch on merge"
                )
            counts = record["counts"]
            if len(counts) != len(hist.counts):
                raise ValueError(
                    f"histogram {name!r} bucket count mismatch on merge"
                )
            for i, c in enumerate(counts):
                hist.counts[i] += int(c)
            hist.total += float(record["sum"])
            hist.count += int(record["count"])


def histogram_percentile(
    record: Mapping[str, Any], q: float
) -> Optional[float]:
    """Approximate percentile from a histogram snapshot record.

    Walks the cumulative bucket counts and returns the upper edge of the
    bucket containing the ``q``-th observation (the last finite edge for
    the overflow bucket).  ``None`` on an empty histogram.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"percentile must be in [0, 1], got {q}")
    count = int(record.get("count") or 0)
    if count == 0:
        return None
    bounds = [float(b) for b in record["bounds"]]
    counts = [int(c) for c in record["counts"]]
    rank = max(1, round(q * count))
    seen = 0
    for i, c in enumerate(counts):
        seen += c
        if seen >= rank:
            return bounds[i] if i < len(bounds) else bounds[-1]
    return bounds[-1]  # pragma: no cover - counts always sum to count


#: The process-wide registry: the server, shard workers, the engine pool
#: and the kernel dispatcher all record here; shard workers ship its
#: snapshot back over the pipe for merging.
_GLOBAL = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    """This process's shared registry."""
    return _GLOBAL
