"""Segmented array primitives for the batch kernels.

Every batch kernel reduces a predictor's per-key (or per-slot) sequential
state machine to array passes over a *segmented* layout: events are stably
sorted by group key, so each group occupies a contiguous run, and the
recurrences are solved with per-segment shifts, forward fills, prefix sums
and scans.  These helpers implement that vocabulary once.

Conventions shared by all helpers:

* ``starts`` is a boolean array marking the first element of each segment
  in the sorted layout.
* All index-valued outputs use ``-1`` for "no such position".
* Inputs are ``int64``/``bool`` numpy arrays; none of the helpers mutate
  their arguments.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "group_sort",
    "segment_starts",
    "sorted_unique",
    "seg_shift",
    "seg_last_index_where",
    "seg_exclusive_cumsum",
    "seg_streak_before",
    "seg_clamped_walk",
    "fold_xor_array",
]


def group_sort(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Stable sort positions by ``keys``.

    Returns ``(order, starts)``: ``order`` permutes original positions into
    the segmented layout (groups contiguous, original order preserved
    within a group), ``starts`` marks segment heads in that layout.
    """
    order = np.argsort(keys, kind="stable")
    return order, segment_starts(keys[order])


def segment_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Segment-head marker array for already-grouped keys."""
    n = len(sorted_keys)
    starts = np.empty(n, dtype=bool)
    if n:
        starts[0] = True
        np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=starts[1:])
    return starts


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` of a 1-d array, by sort and segment heads.

    ``np.unique`` without index or count outputs imports ``numpy.ma`` on
    its first call (about 2 MB of resident memory for one
    ``is_masked`` check); the kernels never see masked arrays.
    """
    ordered = np.sort(values)
    return ordered[segment_starts(ordered)]


def seg_shift(values: np.ndarray, starts: np.ndarray, fill) -> np.ndarray:
    """Shift ``values`` down by one within each segment.

    ``out[i] = values[i-1]`` except at segment heads, which get ``fill``.
    """
    out = np.empty_like(values)
    out[1:] = values[:-1]
    if len(out):
        out[0] = fill
    out[starts] = fill
    return out


def seg_last_index_where(mask: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per position: index of the last ``mask`` hit at-or-before it in its
    segment, or ``-1``.

    Works by max-accumulating hit indices globally and discarding carries
    that predate the current segment head (indices are monotone, so any
    carry from an earlier segment is smaller than the head position).
    """
    n = len(mask)
    pos = np.arange(n, dtype=np.int64)
    hit = np.where(mask, pos, -1)
    np.maximum.accumulate(hit, out=hit)
    head = np.where(starts, pos, -1)
    np.maximum.accumulate(head, out=head)
    return np.where(hit >= head, hit, -1)


def seg_exclusive_cumsum(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per-segment exclusive prefix sum (segment heads get 0).

    ``values`` must be non-negative: the segment-base subtraction rides on
    the global prefix sum being non-decreasing.
    """
    total = np.cumsum(values) - values
    head_base = np.where(starts, total, 0)
    np.maximum.accumulate(head_base, out=head_base)
    return total - head_base


def seg_streak_before(correct: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Length of the run of ``True`` immediately *before* each position,
    within its segment.

    ``out[i]`` counts consecutive ``correct`` values ending at ``i-1``; a
    segment head gets 0.  This is the saturating-counter/interval-detector
    workhorse: a reset-on-miss counter's pre-update value is
    ``min(maximum, streak_before)``.
    """
    n = len(correct)
    pos = np.arange(n, dtype=np.int64)
    # Boundary = last miss at-or-before i-1, or the position before the
    # segment head.  Model both as "last boundary position" and subtract.
    miss_at = seg_last_index_where(~correct, starts)
    head = np.where(starts, pos, -1)
    np.maximum.accumulate(head, out=head)
    shifted_miss = np.empty(n, dtype=np.int64)
    shifted_miss[1:] = miss_at[:-1]
    if n:
        shifted_miss[0] = -1
    shifted_miss[starts] = -1  # misses before the head don't carry over
    boundary = np.maximum(shifted_miss, head - 1)
    return pos - 1 - boundary


def seg_clamped_walk(
    delta: np.ndarray,
    starts: np.ndarray,
    low: int,
    high: int,
    initial: int,
) -> np.ndarray:
    """Per-segment clamped walk: ``v_i = clip(v_{i-1} + delta_i, low, high)``
    with ``v`` starting at ``initial`` at each segment head.  Returns the
    post-update value at every position.

    Each step is the clamp-affine map ``x -> min(high, max(low, x + d))``;
    such maps compose into maps of the same shape, so the running
    composition is computed with a Hillis–Steele segmented scan in
    ``O(n log n)`` array work.
    """
    n = len(delta)
    if not n:
        return np.empty(0, dtype=np.int64)
    lo = np.full(n, low, dtype=np.int64)
    hi = np.full(n, high, dtype=np.int64)
    dd = delta.astype(np.int64, copy=True)
    seg_id = np.cumsum(starts) - 1
    step = 1
    while step < n:
        same = seg_id[step:] == seg_id[:-step]
        # Compose: current map (later) applied after the map at i-step.
        f_lo = lo[:-step][same]
        f_hi = hi[:-step][same]
        f_d = dd[:-step][same]
        idx = np.flatnonzero(same) + step
        g_lo = lo[idx]
        g_hi = hi[idx]
        g_d = dd[idx]
        lo[idx] = np.minimum(g_hi, np.maximum(g_lo, f_lo + g_d))
        hi[idx] = np.minimum(g_hi, np.maximum(g_lo, f_hi + g_d))
        dd[idx] = f_d + g_d
        step <<= 1
    return np.minimum(hi, np.maximum(lo, initial + dd))


def fold_xor_array(values: np.ndarray, width: int) -> np.ndarray:
    """Vectorised :func:`repro.common.bitops.fold_xor`.

    XOR-folds each value down to ``width`` bits.  Ingest canonicalises
    addresses to 63 bits, but this kernel must terminate for *any*
    int64 input: a negative value (an un-canonicalised address at or
    above ``2**63``) under arithmetic ``>>`` converges to ``-1``, never
    ``0``, and the fold loop below would spin forever.  Dropping the
    sign bit at entry bounds the loop; for canonical inputs the mask is
    the identity.
    """
    if width <= 0:
        return np.zeros_like(values)
    mask = np.int64((1 << width) - 1)
    folded = np.zeros_like(values)
    remaining = values & np.int64((1 << 63) - 1)
    while True:
        live = remaining != 0
        if not live.any():
            break
        folded[live] ^= remaining[live] & mask
        remaining[live] >>= width
    return folded
