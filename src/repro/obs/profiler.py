"""Opt-in sampling profiler for the evaluation hot loop.

Set ``REPRO_TELEMETRY_PROFILE=1`` (in addition to ``REPRO_TELEMETRY=1``)
and the engine samples the Python stack around the ``run_on_columns``
hot loop with a ``SIGPROF`` interval timer — CPU-time driven, so a
blocked process stops accumulating samples.  The aggregated call sites
land in the job's run manifest under ``"profile"``.

A *sampling* profiler is the only kind that belongs near this loop:
``sys.setprofile``-style tracing slows the columnar path by an order of
magnitude and would invalidate the very loads/sec figures the manifest
records.  Sampling at the default 5 ms period costs well under 1%.

The profiler degrades to a no-op where ``signal.setitimer`` is missing
(non-POSIX) or off the main thread (where Python forbids signal handler
installation) — callers need no platform guards.
"""

from __future__ import annotations

import os
import signal
import threading
from types import FrameType
from typing import Any, Dict, List, Optional

__all__ = ["SamplingProfiler", "available"]

#: Default sampling period, seconds of *CPU* time between samples.
DEFAULT_INTERVAL = 0.005

#: Stack frames folded into one site label (innermost first).
SITE_DEPTH = 3


def available() -> bool:
    """Whether this platform/thread can host the interval timer."""
    return (
        hasattr(signal, "setitimer")
        and hasattr(signal, "SIGPROF")
        and threading.current_thread() is threading.main_thread()
    )


def _site_of(frame: Optional[FrameType]) -> str:
    """Collapse the innermost frames into ``mod.func>mod.func`` labels."""
    parts: List[str] = []
    while frame is not None and len(parts) < SITE_DEPTH:
        code = frame.f_code
        module = os.path.splitext(os.path.basename(code.co_filename))[0]
        parts.append(f"{module}.{code.co_name}")
        frame = frame.f_back
    return ">".join(parts)


class SamplingProfiler:
    """SIGPROF-driven stack sampler aggregating hit counts per call site."""

    def __init__(
        self, interval: float = DEFAULT_INTERVAL, max_sites: int = 20
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.interval = interval
        self.max_sites = max_sites
        self.samples = 0
        self._counts: Dict[str, int] = {}
        self._previous_handler: Any = None
        self._running = False

    # -- signal plumbing ----------------------------------------------------

    def _handle(self, signum: int, frame: Optional[FrameType]) -> None:
        self.samples += 1
        site = _site_of(frame)
        self._counts[site] = self._counts.get(site, 0) + 1

    def start(self) -> None:
        """Install the handler and arm the CPU-time interval timer."""
        if self._running:
            raise RuntimeError("profiler already running")
        if not available():  # pragma: no cover - platform dependent
            return
        self._previous_handler = signal.signal(signal.SIGPROF, self._handle)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        self._running = True

    def stop(self) -> Dict[str, Any]:
        """Disarm the timer and return the aggregated profile record."""
        if self._running:
            signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
            signal.signal(signal.SIGPROF, self._previous_handler)
            self._running = False
        ranked = sorted(
            self._counts.items(), key=lambda item: (-item[1], item[0])
        )
        return {
            "interval_ms": self.interval * 1000.0,
            "samples": self.samples,
            "sites": [
                {"site": site, "count": count}
                for site, count in ranked[: self.max_sites]
            ],
        }
