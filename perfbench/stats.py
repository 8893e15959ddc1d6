"""Statistics and checks shared by the benchmark's workload drivers.

Everything here is pure: percentiles with the sample-count rule, latency
from due times, the open-loop ladder's stop rule and the output-digest
comparison.  The drivers and ``perfbench/tests`` import it directly.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

#: A percentile is reported only when at least this many samples lie
#: beyond it; below that it is the sample maximum in disguise.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


@dataclass(frozen=True)
class Percentile:
    """One reported percentile with the sample it came from."""

    q: float
    value: float
    samples: int

    def label(self, name: str, unit: str) -> str:
        return f"{name}={self.value:.3f} {unit} (p{self.q * 100:g}, n={self.samples})"


def beyond(samples: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q`` percentile."""
    rank = max(1, math.ceil(q * samples))
    return samples - rank


def percentile(values: Sequence[float], q: float) -> Percentile:
    """Nearest-rank percentile; refuses samples that cannot support it."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"percentile must be in (0, 1), got {q}")
    n = len(values)
    if n == 0 or beyond(n, q) < MIN_BEYOND:
        need = next(m for m in range(1, 100_000) if beyond(m, q) >= MIN_BEYOND)
        raise TooFewSamples(
            f"p{q * 100:g} needs at least {need} samples"
            f" ({MIN_BEYOND} beyond it), got {n}"
        )
    ordered = sorted(values)
    return Percentile(q, ordered[max(1, math.ceil(q * n)) - 1], n)


def median(values: Sequence[float]) -> float:
    """Plain median of a non-empty sample (run-level summaries)."""
    if not values:
        raise ValueError("median of an empty sample")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def due_latencies_ms(
    due_s: Sequence[float], done_s: Sequence[Optional[float]]
) -> List[float]:
    """Open-loop latency of each request, timed from when it was due.

    Timing from the due time (not the send time) charges a stall to every
    request queued behind it.  A request that never completed (``None``)
    counts as infinitely late, so it misses any latency limit.
    """
    if len(due_s) != len(done_s):
        raise ValueError("due and done series differ in length")
    return [
        math.inf if done is None else max(0.0, done - due) * 1000.0
        for due, done in zip(due_s, done_s)
    ]


@dataclass(frozen=True)
class StepVerdict:
    """Outcome of one open-loop ladder step against the latency limit."""

    rate_fps: float
    p90: Optional[Percentile]
    backlog: int
    passed: bool
    reason: str


def judge_step(
    rate_fps: float,
    latencies_ms: Sequence[float],
    backlog: int,
    limit_ms: float,
    connections: int,
) -> StepVerdict:
    """Whether a step meets the limit: p90 under it and no growing backlog.

    ``backlog`` is the number of requests sent but unanswered when the
    step's last request went out.  By Little's law a server keeping up
    holds about ``rate x latency`` requests in flight; more than
    ``rate x limit`` (and more than two per connection) means the queue
    was still growing when the step ended.
    """
    allowed = max(2 * connections, math.ceil(rate_fps * limit_ms / 1000.0))
    try:
        p90 = percentile(latencies_ms, 0.90)
    except TooFewSamples as error:
        return StepVerdict(rate_fps, None, backlog, False, str(error))
    if p90.value > limit_ms:
        return StepVerdict(
            rate_fps, p90, backlog, False,
            f"p90 {p90.value:.1f} ms over the {limit_ms:g} ms limit",
        )
    if backlog > allowed:
        return StepVerdict(
            rate_fps, p90, backlog, False,
            f"backlog of {backlog} in flight (allowed {allowed})",
        )
    return StepVerdict(rate_fps, p90, backlog, True, "ok")


def rate_at_slo(verdicts: Sequence[StepVerdict]) -> float:
    """Highest ladder rate passed before the first failing step (0 if none)."""
    best = 0.0
    for verdict in verdicts:
        if not verdict.passed:
            break
        best = verdict.rate_fps
    return best


def text_digest(text: str) -> str:
    """sha256 of a rendered table block."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def records_digest(records: Sequence[Sequence[object]]) -> str:
    """sha256 of one feed's prediction records in the wire's JSON form."""
    body = json.dumps([list(r) for r in records], separators=(",", ":"))
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def digest_mismatches(
    expected: Dict[str, str], observed: Dict[str, str]
) -> List[str]:
    """Human-readable mismatches between expected and observed digests."""
    problems = []
    for key in sorted(set(expected) | set(observed)):
        want, got = expected.get(key), observed.get(key)
        if want is None:
            problems.append(f"{key}: no recorded digest (got {got[:12]})")
        elif got is None:
            problems.append(f"{key}: not produced (want {want[:12]})")
        elif want != got:
            problems.append(f"{key}: digest {got[:12]} != recorded {want[:12]}")
    return problems
