"""Shared per-batch precomputation for the predictor kernels.

An :class:`EventBatch` wraps one trace's :class:`~repro.trace.trace.
PredictorStream` as numpy arrays plus the derived views every kernel
needs: the load sub-stream, the load-buffer grouping (each static load's
dynamic instances — each generation's, where sets overflow — as one
contiguous segment), the global history register value visible to each
load, and the call-path hash stream for path-indexed predictors.

Everything is computed lazily and memoised — a last-address kernel never
pays for GHR reconstruction, and the call-path hash is only built for
``call_path``-indexed gshare configs.

One batch may serve several predictors on the same stream (the engine
hands the jobs of one trace a shared batch through a :class:`PlanScope`).
Solves that depend only on the stream, the load-buffer grouping and a
configuration slice — the grouping itself, the stride and CAP component
rows — are memoised with :meth:`EventBatch.shared` and handed out
read-only, so a kernel that tried to write into a sibling's plan raises
instead of corrupting it.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Callable, Dict, Hashable, Optional, Tuple

import numpy as np

from ..predictors.base import AddressPredictor

__all__ = ["EventBatch", "PlanScope"]

GHR_BITS = AddressPredictor.GHR_BITS
PATH_DEPTH = AddressPredictor.PATH_DEPTH
_GHR_MASK = np.int64((1 << GHR_BITS) - 1)
_PATH_HASH_BITS = 30


def freeze(value: Any) -> Any:
    """Make a memoised plan piece read-only, all the way down.

    numpy arrays lose their ``writeable`` flag, dicts become read-only
    mapping proxies and tuples are frozen item by item.  Lists in plans
    hold plain records (e.g. a Link Table way's ``(slot, link, tag, pf,
    stamp)``) and become tuples as they are; anything else (ints, None)
    is immutable already.
    """
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, dict):
        value = MappingProxyType({k: freeze(v) for k, v in value.items()})
    elif isinstance(value, tuple):
        value = tuple(freeze(v) for v in value)
    elif isinstance(value, list):
        value = tuple(value)
    return value


class EventBatch:
    """Columnar event batch with memoised derived views."""

    def __init__(self, arrays: Tuple[np.ndarray, ...]) -> None:
        self.tag, self.ip, self.a, self.b = arrays
        self._load_idx: Optional[np.ndarray] = None
        self._load_cols: Optional[Tuple[np.ndarray, ...]] = None
        self._lb_keys: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._grouping: Dict[Tuple[int, int], Hashable] = {}
        #: The grouping whose pieces ``_shared`` holds, and those pieces:
        #: key -> (frozen value, number of the plan that solved it).
        self._held: Hashable = None
        self._shared: Dict[Hashable, Tuple[Any, int]] = {}
        self._plan = 0
        #: :meth:`shared` lookups answered by an earlier plan's solve.
        self.reuses = 0
        self._ghr: Optional[np.ndarray] = None
        self._final_ghr: Optional[int] = None
        self._path_hash: Optional[np.ndarray] = None
        self._final_path: Optional[list] = None

    @classmethod
    def from_stream(cls, stream) -> "EventBatch":
        return cls(stream.arrays())

    # -- loads ---------------------------------------------------------------

    @property
    def load_idx(self) -> np.ndarray:
        """Event positions of the dynamic loads."""
        if self._load_idx is None:
            self._load_idx = freeze(np.flatnonzero(self.tag == 1))
        return self._load_idx

    @property
    def n_loads(self) -> int:
        return len(self.load_idx)

    def load_columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(ip, actual, offset)`` restricted to the dynamic loads."""
        if self._load_cols is None:
            idx = self.load_idx
            self._load_cols = freeze((self.ip[idx], self.a[idx], self.b[idx]))
        return self._load_cols

    # -- shared plan pieces -------------------------------------------------------

    def shared(self, table, key: Hashable, build: Callable[[], Any]) -> Any:
        """The memoised, read-only (:func:`freeze`) result of ``build()``.

        The result belongs to the LB grouping of ``table``
        (:meth:`grouping_key`); ``key`` must name everything else it
        depends on besides this batch's events — the solve and the
        configuration slice it reads.  Kernels only ever plan untrained
        predictors, so no predictor state belongs in a key.

        Pieces of one grouping are held at a time: asking for a piece of
        another grouping first drops the held ones.  Siblings that share
        a grouping run back to back in the figure grids, while an
        overflowing geometry's pieces are rarely wanted again — so this
        keeps nearly all the reuse with one grouping's plans in memory.
        """
        grouping = self.grouping_key(table)
        if grouping != self._held:
            self._shared = {}
            self._held = grouping
        found = self._shared.get(key)
        if found is None:
            value = freeze(build())
            self._shared[key] = (value, self._plan)
            return value
        value, plan = found
        if plan != self._plan:
            self.reuses += 1
        return value

    def begin_plan(self) -> None:
        """Mark the start of the next predictor's plan on this batch.

        :attr:`reuses` counts only lookups served by a solve from an
        earlier plan, not a plan re-reading what it solved itself.
        """
        self._plan += 1

    def grouping_key(self, table) -> Hashable:
        """Which LB grouping a load buffer of ``table``'s geometry sees.

        ``"flat"`` when no set of that geometry receives more distinct
        static loads than it has ways: then every static load keeps one
        generation, the grouping is the plain per-key one, and all such
        geometries share it.  Otherwise the ``(index_bits, ways)`` shape,
        whose LRU replay is solved on its own.
        """
        from .lb import overflow_sets
        from .segops import sorted_unique

        shape = (table.index_bits, table.ways)
        found = self._grouping.get(shape)
        if found is None:
            if self._lb_keys is None:
                ips, _, _ = self.load_columns()
                key = ips >> 2
                self._lb_keys = freeze((key, sorted_unique(key)))
            found = (
                shape if overflow_sets(table, self._lb_keys[1]).any()
                else "flat"
            )
            self._grouping[shape] = found
        return found

    def lb_groups(self, table) -> Any:
        """Generation-aware grouping against a load buffer's geometry.

        Shared by every predictor on this batch whose load buffer sees
        the same grouping (:meth:`grouping_key`) — a fig5 row's stride,
        CAP and hybrid, and each non-overflowing fig6 geometry, solve it
        once.  See :func:`repro.kernels.lb.lb_solve`.
        """
        from .lb import lb_solve

        def solve() -> dict:
            assert self._lb_keys is not None  # set by grouping_key
            return lb_solve(table, self._lb_keys[0])

        return self.shared(table, "lb", solve)

    # -- control-flow history -------------------------------------------------

    def _build_ghr(self) -> None:
        branch_pos = np.flatnonzero(self.tag == 0)
        taken = (self.a[branch_pos] != 0).astype(np.int64)
        nb = len(taken)
        # The scalar model shifts left and ORs the new outcome into bit 0,
        # so g_after[j] = sum_{s < GHR_BITS} taken[j - s] << s (newest
        # branch in bit 0).
        padded = np.zeros(nb + GHR_BITS - 1, dtype=np.int64)
        if nb:
            padded[GHR_BITS - 1:] = taken
        g_after = np.zeros(nb, dtype=np.int64)
        for s in range(GHR_BITS):
            g_after += padded[GHR_BITS - 1 - s: GHR_BITS - 1 - s + nb] << s
        g_after &= _GHR_MASK
        # Per load: GHR after the most recent earlier branch.
        before = np.searchsorted(branch_pos, self.load_idx)
        ghr = np.zeros(self.n_loads, dtype=np.int64)
        has_prior = before > 0
        ghr[has_prior] = g_after[before[has_prior] - 1]
        self._ghr = freeze(ghr)
        self._final_ghr = int(g_after[-1]) if nb else 0

    @property
    def ghr_at_load(self) -> np.ndarray:
        """GHR value each load's ``predict`` call observes."""
        if self._ghr is None:
            self._build_ghr()
        return self._ghr  # type: ignore[return-value]

    @property
    def final_ghr(self) -> int:
        """GHR value after the whole batch (committed to the predictor)."""
        if self._final_ghr is None:
            self._build_ghr()
        return self._final_ghr  # type: ignore[return-value]

    def _build_path(self) -> None:
        call_pos = np.flatnonzero(self.tag == 2)
        call_ip = self.ip[call_pos]
        nc = len(call_ip)
        # Path hash after call j over the last PATH_DEPTH call ips:
        # value = ((value << 3) ^ (ip >> 2)) & mask, oldest first.
        mask = np.int64((1 << _PATH_HASH_BITS) - 1)
        x = call_ip >> 2
        h = np.zeros(nc, dtype=np.int64)
        for back in range(PATH_DEPTH - 1, -1, -1):
            contrib = np.zeros(nc, dtype=np.int64)
            if nc > back:
                contrib[back:] = x[: nc - back] if back else x
            h = ((h << 3) ^ contrib) & mask
        self._path_hash = freeze(h)
        tail = call_ip[-PATH_DEPTH:] if nc else call_ip
        self._final_path = [int(v) for v in tail]

    def path_hash_at_load(self) -> np.ndarray:
        """Call-path hash each load observes (0 before the first call)."""
        if self._path_hash is None:
            self._build_path()
        call_pos = np.flatnonzero(self.tag == 2)
        before = np.searchsorted(call_pos, self.load_idx)
        out = np.zeros(self.n_loads, dtype=np.int64)
        has_prior = before > 0
        assert self._path_hash is not None
        out[has_prior] = self._path_hash[before[has_prior] - 1]
        return out

    @property
    def final_path(self) -> list:
        """Call path (last ``PATH_DEPTH`` call ips) after the batch."""
        if self._final_path is None:
            self._build_path()
        return list(self._final_path)  # type: ignore[arg-type]

    def commit_control_flow(self, predictor) -> None:
        """Write the end-of-batch GHR and call path into ``predictor``."""
        predictor.ghr = self.final_ghr
        predictor.call_path = self.final_path


class PlanScope:
    """Hands the jobs of one stream a single shared :class:`EventBatch`.

    The batch for a stream is built on the first request and kept only
    until a request names a different stream: the old batch (and every
    plan piece memoised on it) is dropped before the new one is built,
    so a scope holds at most one stream's plans at a time.
    """

    def __init__(self) -> None:
        self._stream: Any = None
        self._batch: Optional[EventBatch] = None

    def batch_for(self, stream) -> EventBatch:
        """The shared batch of ``stream``."""
        if self._batch is None or stream is not self._stream:
            self._stream = self._batch = None
            self._batch = EventBatch.from_stream(stream)
            self._stream = stream
        return self._batch
