"""Batch kernel tests: segops units, backend resolution, scalar parity.

The parity tests here are the committed distillation of the exhaustive
harness used to bring the kernels up: each predictor family runs the same
randomised stream through the scalar ``run_on_columns`` reference and the
batch kernel path, then compares metrics, per-access observer records,
control-flow state, full table dumps (tags, LRU stamps, confidence, CFI
machines, Link Table entries) and attribution-probe counters.  The
three-way differential harness (``tests/test_verify.py``) covers the same
ground on the registered variants; this file pins the kernel layer's own
API surface — dispatch gates, fallbacks, warm-up folding — and the
segmented-array primitives the kernels are built from.
"""

import random

import numpy as np
import pytest

from repro.common.bitops import fold_xor
from repro.eval.metrics import AttributionCounters, PredictorMetrics
from repro.eval.runner import instrument_predictor, run_on_columns
from repro.kernels import (
    BACKEND_ENV,
    BACKEND_NUMPY,
    BACKEND_PYTHON,
    available_backends,
    batch_records,
    fold_metrics,
    resolve_backend,
    run_batch,
    supports_batch,
)
from repro.kernels.segops import (
    fold_xor_array,
    group_sort,
    seg_clamped_walk,
    seg_exclusive_cumsum,
    seg_last_index_where,
    seg_shift,
    seg_streak_before,
    segment_starts,
)
from repro.predictors.cap import CAPConfig, CAPPredictor
from repro.predictors.gshare_address import (
    HISTORY_CALL_PATH,
    GShareAddressConfig,
    GShareAddressPredictor,
)
from repro.predictors.hybrid import HybridConfig, HybridPredictor
from repro.predictors.last_address import LastAddressConfig, LastAddressPredictor
from repro.predictors.link_table import LinkTableConfig
from repro.obs.metrics import global_registry
from repro.pipeline.delayed import PipelinedPredictor
from repro.predictors.stride import StrideConfig, StridePredictor
from repro.trace.trace import PredictorStream


# ---------------------------------------------------------------------------
# Stream generation (mirrors the differential harness's mixed profile).

def make_stream(rng, n_events, n_keys, correlated=0.6):
    tag, ip, a, b = [], [], [], []
    last = {}
    for _ in range(n_events):
        r = rng.random()
        if r < 0.55:
            k = rng.randrange(n_keys)
            the_ip = 0x1000 + 4 * k
            if k in last and rng.random() < correlated:
                addr = last[k]
                if rng.random() < 0.3:
                    addr = (addr + 8) & 0xFFFFFFFF
            else:
                addr = rng.randrange(1 << 32) & ~3
            last[k] = addr
            tag.append(1), ip.append(the_ip), a.append(addr), b.append(addr & 0xFF)
        elif r < 0.85:
            tag.append(0), ip.append(0x2000 + 4 * rng.randrange(16))
            a.append(rng.randrange(2)), b.append(0)
        elif r < 0.95:
            tag.append(2), ip.append(0x3000 + 4 * rng.randrange(8))
            a.append(0), b.append(0)
        else:
            tag.append(3), ip.append(0x3000 + 4 * rng.randrange(8))
            a.append(0), b.append(0)
    return PredictorStream(tag, ip, a, b)


def metrics_tuple(m):
    return (m.loads, m.predictions, m.correct_predictions,
            m.speculative, m.correct_speculative)


# ---------------------------------------------------------------------------
# Architectural state dumps, one per predictor family.

def la_dump(p):
    t = p.table
    out = {}
    for si, ways in enumerate(t._sets):
        for wi, w in enumerate(ways):
            if w.tag is not None:
                out[(si, wi)] = (w.tag, w.lru, w.entry.last_addr,
                                 w.entry.confidence.value)
    return (out, (t.hits, t.misses, t.evictions, t._clock))


def gs_dump(p):
    t = p.table
    out = {i: (e.address, e.confidence.value)
           for i, e in enumerate(t._slots) if e is not None}
    return (out, (t.conflict_writes,))


def st_dump(p):
    t = p.table
    out = {}
    for si, ways in enumerate(t._sets):
        for wi, w in enumerate(ways):
            if w.tag is not None:
                s = w.entry
                out[(si, wi)] = (
                    w.tag, w.lru, s.last_addr, s.stride, s.last_delta,
                    s.confidence.value, s.cfi._bad_pattern, s.cfi._path_bad,
                    s.run_length, s.interval, s.spec_last_addr,
                    s.pending, s.suppress,
                )
    return (out, (t.hits, t.misses, t.evictions, t._clock))


def _lt_dump(lt):
    state = {}
    for si, ways in enumerate(lt._sets):
        for wi, e in enumerate(ways):
            if e.link is not None or e.pf is not None:
                state[(si, wi)] = (e.link, e.tag, e.pf, e.stamp)
    pf_tab = None
    if lt._pf_table is not None:
        pf_tab = {i: v for i, v in enumerate(lt._pf_table) if v is not None}
    stats = (lt.lookups, lt.tag_mismatches, lt.pf_rejections,
             lt.link_writes, lt._clock)
    return state, pf_tab, stats


def _cap_entry(s):
    return (s.offset, s.history, s.confidence.value, s.cfi._bad_pattern,
            s.cfi._path_bad, s.last_addr, s.spec_history, s.pending, s.suppress)


def cap_dump(p):
    t = p.load_buffer
    out = {}
    for si, ways in enumerate(t._sets):
        for wi, w in enumerate(ways):
            if w.tag is not None:
                out[(si, wi)] = (w.tag, w.lru) + _cap_entry(w.entry)
    lt_state, pf_tab, lt_stats = _lt_dump(p.component.link_table)
    return (out, lt_state, pf_tab,
            (t.hits, t.misses, t.evictions, t._clock) + lt_stats)


def hy_dump(p):
    t = p.load_buffer
    out = {}
    for si, ways in enumerate(t._sets):
        for wi, w in enumerate(ways):
            if w.tag is not None:
                e = w.entry
                s = e.stride
                out[(si, wi)] = (
                    (w.tag, w.lru) + _cap_entry(e.cap)
                    + (s.last_addr, s.stride, s.last_delta, s.confidence.value,
                       s.cfi._bad_pattern, s.cfi._path_bad, s.run_length,
                       s.interval, s.spec_last_addr, s.pending, s.suppress,
                       e.selector.value)
                )
    lt_state, pf_tab, lt_stats = _lt_dump(p.cap.link_table)
    ss = p.selector_stats
    sel = (dict(ss.states.counts), ss.selection.hits, ss.selection.total,
           ss.dual_speculative, ss.speculative)
    return (out, lt_state, pf_tab, sel,
            (t.hits, t.misses, t.evictions, t._clock) + lt_stats)


def _lt(**kw):
    return LinkTableConfig(ways=1, **kw)


# (name, factory, dump) — families and mechanism corners, including tiny
# tables whose sets overflow (the generation-grouped LRU solver's domain).
ROSTER = [
    ("la-default",
     lambda: LastAddressPredictor(LastAddressConfig(entries=1024, ways=4)),
     la_dump),
    ("la-hyst-tiny",
     lambda: LastAddressPredictor(LastAddressConfig(
         entries=8, ways=2, hysteresis=True,
         confidence_max=5, confidence_threshold=3)),
     la_dump),
    ("gshare-branch",
     lambda: GShareAddressPredictor(GShareAddressConfig(
         entries=256, history_bits=6)),
     gs_dump),
    ("gshare-path",
     lambda: GShareAddressPredictor(GShareAddressConfig(
         entries=128, history_mode=HISTORY_CALL_PATH, history_bits=8,
         confidence_max=4, confidence_threshold=1)),
     gs_dump),
    ("stride-enhanced",
     lambda: StridePredictor(StrideConfig(entries=512, ways=4)),
     st_dump),
    ("stride-basic-tiny",
     lambda: StridePredictor(StrideConfig.basic(entries=8, ways=4)),
     st_dump),
    ("stride-paths-dm",
     lambda: StridePredictor(StrideConfig(
         entries=16, ways=1, cfi_mode="paths", cfi_bits=3)),
     st_dump),
    ("cap-base",
     lambda: CAPPredictor(CAPConfig(
         lb_entries=512, lb_ways=4,
         lt=_lt(entries=128, tag_bits=6, pf_bits=2))),
     cap_dump),
    ("cap-delta-tiny",
     lambda: CAPPredictor(CAPConfig(
         lb_entries=16, lb_ways=4, correlation="delta",
         lt=_lt(entries=32, tag_bits=0, pf_bits=0))),
     cap_dump),
    ("cap-decoupled",
     lambda: CAPPredictor(CAPConfig(
         lb_entries=512, lb_ways=4,
         lt=_lt(entries=128, tag_bits=6, pf_bits=3,
                pf_decoupled=True, pf_table_entries=512))),
     cap_dump),
    ("hybrid-default",
     lambda: HybridPredictor(HybridConfig(
         lb_entries=512, lb_ways=4,
         cap=CAPConfig(lt=_lt(entries=128, tag_bits=6, pf_bits=2)))),
     hy_dump),
    ("hybrid-stride-correct-tiny",
     lambda: HybridPredictor(HybridConfig(
         lb_entries=8, lb_ways=2, lt_update_policy="unless_stride_correct",
         cap=CAPConfig(lt=_lt(entries=64, tag_bits=4, pf_bits=2)))),
     hy_dump),
    ("hybrid-static-cap",
     lambda: HybridPredictor(HybridConfig(
         lb_entries=256, lb_ways=8, static_selector="cap",
         cap=CAPConfig(correlation="delta",
                       lt=_lt(entries=256, tag_bits=0, pf_bits=0)))),
     hy_dump),
]


# ---------------------------------------------------------------------------
# Segmented-primitive unit tests against direct scalar loops.

class TestSegops:
    def _segments(self, seed, n=400, n_keys=17):
        rng = np.random.default_rng(seed)
        keys = rng.integers(0, n_keys, size=n)
        order, starts = group_sort(keys)
        assert np.array_equal(starts, segment_starts(keys[order]))
        return rng, keys[order], starts

    def test_group_sort_is_stable_and_marks_heads(self):
        keys = np.array([3, 1, 3, 3, 1, 0, 1], dtype=np.int64)
        order, starts = group_sort(keys)
        grouped = keys[order]
        # Grouped keys are non-decreasing, original order kept within a key.
        assert grouped.tolist() == sorted(keys.tolist())
        for k in set(keys.tolist()):
            positions = order[grouped == k]
            assert positions.tolist() == sorted(positions.tolist())
        assert starts.tolist() == [True, True, False, False, True, False, False]

    def test_empty_inputs(self):
        empty = np.empty(0, dtype=np.int64)
        order, starts = group_sort(empty)
        assert len(order) == 0 and len(starts) == 0
        assert len(seg_shift(empty, starts.astype(bool), -1)) == 0
        assert len(seg_clamped_walk(empty, starts.astype(bool), 0, 3, 0)) == 0

    def test_seg_shift(self):
        _, keys, starts = self._segments(0)
        values = np.arange(len(keys), dtype=np.int64)
        out = seg_shift(values, starts, -7)
        for i in range(len(keys)):
            assert out[i] == (-7 if starts[i] else values[i - 1])

    def test_seg_exclusive_cumsum(self):
        rng, keys, starts = self._segments(1)
        values = rng.integers(0, 5, size=len(keys))
        out = seg_exclusive_cumsum(values, starts)
        acc = 0
        for i in range(len(keys)):
            if starts[i]:
                acc = 0
            assert out[i] == acc
            acc += values[i]

    def test_seg_last_index_where(self):
        rng, keys, starts = self._segments(2)
        mask = rng.random(len(keys)) < 0.3
        out = seg_last_index_where(mask, starts)
        last = -1
        for i in range(len(keys)):
            if starts[i]:
                last = -1
            if mask[i]:
                last = i
            assert out[i] == last

    def test_seg_streak_before(self):
        rng, keys, starts = self._segments(3)
        correct = rng.random(len(keys)) < 0.6
        out = seg_streak_before(correct, starts)
        streak = 0
        for i in range(len(keys)):
            if starts[i]:
                streak = 0
            assert out[i] == streak
            streak = streak + 1 if correct[i] else 0

    @pytest.mark.parametrize("low,high,initial", [(0, 3, 0), (0, 7, 5), (-2, 2, 0)])
    def test_seg_clamped_walk(self, low, high, initial):
        rng, keys, starts = self._segments(4 + high)
        delta = rng.integers(-2, 3, size=len(keys))
        out = seg_clamped_walk(delta, starts, low, high, initial)
        value = initial
        for i in range(len(keys)):
            if starts[i]:
                value = initial
            value = min(high, max(low, value + int(delta[i])))
            assert out[i] == value

    @pytest.mark.parametrize("width", [1, 4, 9, 16])
    def test_fold_xor_array_matches_scalar(self, width):
        rng = np.random.default_rng(width)
        values = rng.integers(0, 1 << 40, size=200)
        out = fold_xor_array(values, width)
        for v, f in zip(values.tolist(), out.tolist()):
            assert f == fold_xor(v, width)

    def test_fold_xor_array_terminates_on_negative_int64(self):
        """Regression: an un-canonicalised address at or above ``2**63``
        arrives as a *negative* int64, and the fold loop's arithmetic
        ``>>`` converged to ``-1`` instead of ``0`` — it never
        terminated.  The kernel now drops the sign bit at entry, which
        is the identity on canonical (63-bit) addresses."""
        values = np.array([-1, -(2**62), 2**63 - 1, 0], dtype=np.int64)
        out = fold_xor_array(values, 8)
        canonical = values.astype(np.int64) & np.int64((1 << 63) - 1)
        for v, f in zip(canonical.tolist(), out.tolist()):
            assert f == fold_xor(v, 8)


# ---------------------------------------------------------------------------
# Backend resolution and dispatch gates.

class TestBackendResolution:
    def test_python_always_available(self):
        assert BACKEND_PYTHON in available_backends()

    def test_override_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, BACKEND_NUMPY)
        assert resolve_backend(BACKEND_PYTHON) == BACKEND_PYTHON

    def test_env_variable_forces(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "python")
        assert resolve_backend() == BACKEND_PYTHON
        monkeypatch.setenv(BACKEND_ENV, " NUMPY ")  # normalised
        assert resolve_backend() == BACKEND_NUMPY

    def test_default_feature_detects_numpy(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        # numpy imports in this suite, so detection must pick it.
        assert resolve_backend() == BACKEND_NUMPY

    def test_unknown_backend_raises(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "fortran")
        with pytest.raises(ValueError):
            resolve_backend()


class TestDispatchGates:
    def _predictor(self):
        return LastAddressPredictor(LastAddressConfig(entries=64, ways=2))

    def _stream(self, n=300):
        return make_stream(random.Random(11), n, 9)

    def test_supports_batch_flags(self):
        assert supports_batch(self._predictor())

        class Scalar:
            pass

        assert not supports_batch(Scalar())

    def _tally(self, outcome):
        counters = global_registry().snapshot()["counters"]
        return counters.get(f"kernels.LastAddressPredictor.{outcome}", 0)

    def test_python_backend_declines(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, BACKEND_PYTHON)
        before = self._tally("declined")
        m = run_on_columns(self._predictor(), self._stream(), PredictorMetrics())
        assert m.backend == BACKEND_PYTHON
        assert m.loads > 0
        assert self._tally("declined") == before + 1

    def test_observer_declines(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, BACKEND_NUMPY)
        seen = []
        before = self._tally("declined")
        m = run_on_columns(self._predictor(), self._stream(), PredictorMetrics(),
                           observer=lambda *a: seen.append(a))
        assert m.backend == BACKEND_PYTHON
        assert len(seen) == m.loads > 0
        assert self._tally("declined") == before + 1

    def test_numpy_backend_runs_and_records(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, BACKEND_NUMPY)
        before = self._tally("dispatched")
        m = run_on_columns(self._predictor(), self._stream(), PredictorMetrics())
        assert m.backend == BACKEND_NUMPY
        assert m.loads > 0
        assert self._tally("dispatched") == before + 1

    def test_associative_lt_falls_back(self):
        p = CAPPredictor(CAPConfig(
            lb_entries=64, lb_ways=2,
            lt=LinkTableConfig(entries=64, ways=2, tag_bits=4, pf_bits=2)))
        assert run_batch(p, self._stream()) is None

    def test_unless_stride_selected_falls_back(self):
        p = HybridPredictor(HybridConfig(
            lb_entries=64, lb_ways=2, lt_update_policy="unless_stride_selected",
            cap=CAPConfig(lt=_lt(entries=64, tag_bits=4, pf_bits=2))))
        assert run_batch(p, self._stream()) is None

    def test_run_on_columns_routes_per_backend(self, monkeypatch):
        stream = self._stream()
        monkeypatch.setenv(BACKEND_ENV, BACKEND_NUMPY)
        m_fast = PredictorMetrics()
        run_on_columns(self._predictor(), stream, m_fast)
        monkeypatch.setenv(BACKEND_ENV, BACKEND_PYTHON)
        m_ref = PredictorMetrics()
        run_on_columns(self._predictor(), stream, m_ref)
        assert m_fast.backend == BACKEND_NUMPY
        assert m_ref.backend == BACKEND_PYTHON
        assert metrics_tuple(m_fast) == metrics_tuple(m_ref)


# ---------------------------------------------------------------------------
# Kernel-vs-scalar parity: metrics, records, tables, probes.

def _run_both(factory, stream, warmup):
    scalar = factory()
    probe_s = AttributionCounters()
    instrument_predictor(scalar, probe_s)
    m_scalar = PredictorMetrics()
    records = []
    run_on_columns(
        scalar, stream, m_scalar, warmup_loads=warmup,
        observer=lambda ip, off, act, pr: records.append(
            (ip, off, act, pr.address, pr.speculative, pr.source)))

    batch = factory()
    probe_b = AttributionCounters()
    instrument_predictor(batch, probe_b)
    m_batch = PredictorMetrics()
    result = run_batch(batch, stream)
    assert result is not None, "kernel unexpectedly fell back"
    fold_metrics(result, m_batch, warmup)
    return (scalar, m_scalar, records, probe_s,
            batch, m_batch, batch_records(result, stream), probe_b)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name,factory,dump", ROSTER,
                         ids=[r[0] for r in ROSTER])
def test_kernel_matches_scalar(name, factory, dump, seed):
    rng = random.Random(1000 * seed + hash(name) % 97)
    stream = make_stream(rng, 1500, rng.choice([5, 23, 150]),
                         correlated=rng.choice([0.4, 0.8]))
    warmup = rng.choice([0, 40])
    (scalar, m_scalar, records, probe_s,
     batch, m_batch, brecords, probe_b) = _run_both(factory, stream, warmup)
    assert metrics_tuple(m_scalar) == metrics_tuple(m_batch)
    assert records == brecords
    assert (scalar.ghr, scalar.call_path) == (batch.ghr, batch.call_path)
    assert dump(scalar) == dump(batch)
    assert probe_s.attribution() == probe_b.attribution()


@pytest.mark.parametrize("events", [0, 1, 7])
def test_kernel_matches_scalar_degenerate_streams(events):
    stream = make_stream(random.Random(5), events, 3)
    _, m_scalar, records, _, _, m_batch, brecords, _ = _run_both(
        lambda: StridePredictor(StrideConfig(entries=64, ways=2)), stream, 0)
    assert metrics_tuple(m_scalar) == metrics_tuple(m_batch)
    assert records == brecords


def test_warmup_beyond_stream_counts_nothing():
    stream = make_stream(random.Random(6), 400, 7)
    _, m_scalar, _, _, _, m_batch, _, _ = _run_both(
        lambda: LastAddressPredictor(LastAddressConfig(entries=64, ways=2)),
        stream, 10**9)
    assert metrics_tuple(m_scalar) == metrics_tuple(m_batch)
    assert m_batch.loads == 0 and m_batch.predictions == 0


# ---------------------------------------------------------------------------
# Gap 0: the pipelined wrapper takes the kernels and is its inner predictor.

GAP_TRACES = ("INT_xli", "CAD_cat")
GAP_INSTRUCTIONS = 8000


@pytest.fixture(scope="module")
def roster_streams(tmp_path_factory):
    from repro.workloads import suites

    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_TRACE_CACHE", str(tmp_path_factory.mktemp("cache")))
        return {
            name: suites.get_trace(name, GAP_INSTRUCTIONS).predictor_columns()
            for name in GAP_TRACES
        }


def _gap0_run(factory, stream, backend, monkeypatch, wrap=True):
    monkeypatch.setenv(BACKEND_ENV, backend)
    inner = factory()
    predictor = PipelinedPredictor(inner, 0) if wrap else inner
    metrics = PredictorMetrics()
    run_on_columns(predictor, stream, metrics)
    return predictor, inner, metrics


@pytest.mark.parametrize("trace", GAP_TRACES)
@pytest.mark.parametrize("factory,dump", [
    (StridePredictor, st_dump), (HybridPredictor, hy_dump),
], ids=["stride", "hybrid"])
def test_gap0_wrapper_kernel_matches_scalar_and_unwrapped(
    roster_streams, monkeypatch, trace, factory, dump
):
    stream = roster_streams[trace]
    runs = {
        "numpy": _gap0_run(factory, stream, BACKEND_NUMPY, monkeypatch),
        "python": _gap0_run(factory, stream, BACKEND_PYTHON, monkeypatch),
    }
    assert runs["numpy"][2].backend == BACKEND_NUMPY
    assert runs["python"][2].backend == BACKEND_PYTHON
    _, ref, m_ref = _gap0_run(
        factory, stream, BACKEND_PYTHON, monkeypatch, wrap=False)
    assert m_ref.loads > 1000
    for wrapper, inner, metrics in runs.values():
        assert metrics_tuple(metrics) == metrics_tuple(m_ref)
        # hy_dump carries the hybrid's selector statistics.
        assert dump(inner) == dump(ref)
        assert (wrapper.ghr, inner.call_path) == (ref.ghr, ref.call_path)
        assert (wrapper.pending_updates, wrapper.flushes) == (0, 0)


class _ScalarStride(StridePredictor):
    supports_batch = False


def _declined() -> int:
    counters = global_registry().snapshot()["counters"]
    return counters.get("kernels.PipelinedPredictor.declined", 0)


@pytest.mark.parametrize("inner,gap", [
    (StridePredictor, 4), (HybridPredictor, 4), (_ScalarStride, 0),
], ids=["stride-gap4", "hybrid-gap4", "scalar-inner-gap0"])
def test_real_gap_and_scalar_inner_are_declined(
    roster_streams, monkeypatch, inner, gap
):
    monkeypatch.setenv(BACKEND_ENV, BACKEND_NUMPY)
    predictor = PipelinedPredictor(inner(), gap)
    assert not supports_batch(predictor)
    before = _declined()
    metrics = PredictorMetrics()
    run_on_columns(predictor, roster_streams["INT_xli"], metrics)
    assert metrics.backend == BACKEND_PYTHON
    assert _declined() == before + 1
