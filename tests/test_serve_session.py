"""PredictorSession facade: served-vs-offline parity, isolation, warm-up.

The acceptance bar for the serving layer is *byte-identical* predictions:
whatever a client receives over the wire must equal what an offline
``run_on_columns`` pass over the same events would have produced — on
both backends, and regardless of how the stream is chunked into feeds.
"""

import pytest

from repro.eval.engine import Job, build_predictor
from repro.eval.metrics import PredictorMetrics
from repro.eval.runner import run_on_stream, run_predictor
from repro.serve.session import PredictorSession, SessionConfig
from repro.verify.fuzz import generate_events

N_EVENTS = 600


def _events(profile="mixed", seed=0, n=N_EVENTS):
    return [tuple(event) for event in generate_events(profile, seed, n)]


def offline_records(factory, events, warmup=0, overrides=None, gap=None):
    """Reference: scalar offline run with a capturing observer."""
    predictor = build_predictor(Job(
        trace="", factory=factory, overrides=dict(overrides or {}), gap=gap,
    ))
    metrics = PredictorMetrics(name="offline", trace="", suite="serve")
    captured = []

    def _capture(ip, offset, actual, prediction):
        captured.append((
            ip, offset, actual,
            prediction.address if prediction.made else None,
            prediction.speculative, prediction.source,
        ))

    run_on_stream(
        predictor, events, metrics,
        warmup_loads=warmup, observer=_capture,
    )
    return captured, metrics


def _metric_tuple(m):
    return (m.loads, m.predictions, m.speculative,
            m.correct_speculative, m.correct_predictions)


class TestParity:
    @pytest.mark.parametrize("backend", ["python", "numpy"])
    @pytest.mark.parametrize("factory", ["stride", "cap", "hybrid"])
    def test_single_feed_matches_offline(
        self, monkeypatch, backend, factory
    ):
        monkeypatch.setenv("REPRO_BACKEND", backend)
        events = _events(seed=3)
        session = PredictorSession(SessionConfig(factory=factory))
        served = session.feed(events)
        expected, metrics = offline_records(factory, events)
        assert served == expected
        assert _metric_tuple(session.finish()) == _metric_tuple(metrics)

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_chunked_feeds_match_offline(self, monkeypatch, backend):
        # Chunking must be invisible: first feed may take the kernel
        # path, later feeds continue scalar on the trained predictor.
        monkeypatch.setenv("REPRO_BACKEND", backend)
        events = _events("rds_walk", seed=7)
        session = PredictorSession(SessionConfig(factory="hybrid"))
        served = []
        for start in range(0, len(events), 150):
            served.extend(session.feed(events[start : start + 150]))
        expected, metrics = offline_records("hybrid", events)
        assert served == expected
        assert _metric_tuple(session.finish()) == _metric_tuple(metrics)

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    @pytest.mark.parametrize("chunk", [None, 150], ids=["whole", "chunk150"])
    @pytest.mark.parametrize("gap", [0, 8])
    def test_gap_sessions_match_offline(
        self, monkeypatch, backend, chunk, gap
    ):
        # Gap 0 is kernel-eligible (its first feed may take the kernels);
        # gap 8 stays on the scalar loop on every feed.
        monkeypatch.setenv("REPRO_BACKEND", backend)
        events = _events("rds_walk", seed=11)
        session = PredictorSession(SessionConfig(factory="hybrid", gap=gap))
        step = chunk or len(events)
        served = []
        for start in range(0, len(events), step):
            served.extend(session.feed(events[start : start + step]))
        expected, metrics = offline_records("hybrid", events, gap=gap)
        assert served == expected
        assert _metric_tuple(session.finish()) == _metric_tuple(metrics)
        kernel = backend == "numpy" and gap == 0
        assert session.kernel_feeds == (1 if kernel else 0)

    def test_kernel_path_actually_ran(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        session = PredictorSession(SessionConfig(factory="hybrid"))
        session.feed(_events(seed=1))
        assert session.kernel_feeds == 1
        assert session.backend == "numpy"
        assert session.metrics.backend == "numpy"

    def test_scalar_backend_recorded(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "python")
        session = PredictorSession(SessionConfig(factory="hybrid"))
        session.feed(_events(seed=1))
        assert session.kernel_feeds == 0
        assert session.backend == "python"

    def test_warmup_spanning_feed_boundary(self, monkeypatch):
        # Warm-up is global across feeds: 100 loads of warm-up split
        # over two feeds must account exactly like one offline run.
        monkeypatch.setenv("REPRO_BACKEND", "python")
        events = _events("aliasing", seed=5)
        session = PredictorSession(
            SessionConfig(factory="cap", warmup_loads=100)
        )
        served = []
        served.extend(session.feed(events[:200]))
        served.extend(session.feed(events[200:]))
        expected, metrics = offline_records("cap", events, warmup=100)
        # Records cover *every* load (a served client always gets its
        # prediction); only the metrics respect warm-up.
        assert served == expected
        assert _metric_tuple(session.finish()) == _metric_tuple(metrics)
        assert len(served) > session.metrics.loads


class TestIsolation:
    def test_interleaved_sessions_do_not_share_state(self, monkeypatch):
        # Feeding two sessions alternately must equal running each
        # alone — LB/LT/GHR state is per-session, not per-process.
        monkeypatch.setenv("REPRO_BACKEND", "python")
        events_a = _events("rds_walk", seed=11)
        events_b = _events("branch_churn", seed=22)
        a = PredictorSession(SessionConfig(factory="hybrid"), "a")
        b = PredictorSession(SessionConfig(factory="hybrid"), "b")
        got_a, got_b = [], []
        span = max(len(events_a), len(events_b))
        for start in range(0, span, 100):
            got_a.extend(a.feed(events_a[start : start + 100]))
            got_b.extend(b.feed(events_b[start : start + 100]))
        solo_a, _ = offline_records("hybrid", events_a)
        solo_b, _ = offline_records("hybrid", events_b)
        assert got_a == solo_a
        assert got_b == solo_b


class TestLifecycle:
    def test_feed_after_finish_raises(self):
        session = PredictorSession(SessionConfig(factory="stride"), "s1")
        session.feed(_events(n=50))
        session.finish()
        with pytest.raises(RuntimeError, match="s1 is finished"):
            session.feed(_events(n=10))

    def test_finish_is_idempotent(self):
        session = PredictorSession(SessionConfig(factory="stride"))
        session.feed(_events(n=50))
        assert session.finish() is session.finish()

    def test_empty_feed(self):
        session = PredictorSession(SessionConfig(factory="stride"))
        assert session.feed([]) == []
        assert session.seen_events == 0

    def test_instrumented_session_attribution(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "python")
        events = _events(seed=2)
        session = PredictorSession(
            SessionConfig(factory="hybrid", instrument=True)
        )
        session.feed(events)
        metrics = session.finish()
        offline = run_predictor(
            build_predictor(Job(trace="", factory="hybrid")), events,
            instrument=True,
        )
        assert metrics.attribution() == offline.attribution()
        assert any(metrics.attribution().values())


@pytest.fixture(scope="module")
def int_xli():
    from repro.workloads.suites import get_trace

    return get_trace("INT_xli", 8000, use_cache=False)


class TestServedAttribution:
    """Sessions count attribution live across feeds; the totals must
    equal one offline instrumented run, however the stream is chunked
    and whichever backend evaluates the first feed."""

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    @pytest.mark.parametrize("chunk", [None, 150])
    @pytest.mark.parametrize("gap", [None, 4])
    @pytest.mark.parametrize("factory", ["stride", "cap", "hybrid"])
    def test_matches_offline_run(
        self, monkeypatch, int_xli, factory, gap, chunk, backend
    ):
        monkeypatch.setenv("REPRO_BACKEND", backend)
        offline = run_predictor(
            build_predictor(Job(trace="", factory=factory, gap=gap)),
            int_xli, instrument=True, warmup_loads=50,
        )
        session = PredictorSession(SessionConfig(
            factory=factory, gap=gap, instrument=True, warmup_loads=50,
        ))
        stream = int_xli.predictor_columns()
        if chunk is None:
            session.feed(stream)
        else:
            events = list(stream.tuples())
            for start in range(0, len(events), chunk):
                session.feed(events[start:start + chunk])
        served = session.finish()
        assert served.attribution() == offline.attribution()
        assert served.loads == offline.loads
        assert served.correct_speculative == offline.correct_speculative


class TestSessionConfig:
    def test_from_dict_picks_known_fields(self):
        config = SessionConfig.from_dict({
            "type": "open", "factory": "cap", "warmup_loads": 10,
            "overrides": {"history_length": 2}, "variant": "v",
        })
        assert config.factory == "cap"
        assert config.warmup_loads == 10
        assert config.overrides == {"history_length": 2}
        assert config.variant == "v"

    def test_from_dict_rejects_non_dict_overrides(self):
        with pytest.raises(ValueError, match="overrides"):
            SessionConfig.from_dict({"factory": "cap", "overrides": [1]})

    def test_unknown_factory_fails_at_build(self):
        with pytest.raises(KeyError, match="unknown predictor factory"):
            PredictorSession(SessionConfig(factory="bogus"))
