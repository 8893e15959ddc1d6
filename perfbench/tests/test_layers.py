"""The traced run measures the program without changing what it computes."""

import dataclasses

import pytest

import serving
import stats
from layers import LayerClock, dispatch_tallies

TRACES = ["INT_gcc", "MM_aud"]
INSTRUCTIONS = 3000


@pytest.fixture
def program_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_BACKEND", "numpy")
    monkeypatch.setenv("REPRO_JOBS", "1")


def _jobs():
    from repro.eval.engine import Job

    jobs = []
    for trace in TRACES:
        jobs.append(Job(trace=trace, instructions=INSTRUCTIONS, kind="timing"))
        for factory in ("stride", "cap", "hybrid"):
            jobs.append(Job(trace=trace, factory=factory,
                            instructions=INSTRUCTIONS, variant=factory))
            jobs.append(Job(trace=trace, factory=factory, gap=4,
                            instructions=INSTRUCTIONS, variant=f"{factory}|4"))
            jobs.append(Job(trace=trace, factory=factory, kind="timing",
                            instructions=INSTRUCTIONS, variant=factory))
        jobs.append(Job(trace=trace, factory="hybrid", instructions=INSTRUCTIONS,
                        overrides={"lb_entries": 2048, "lb_ways": 2}))
        # No kernel for this policy: the scalar loop runs.
        jobs.append(Job(trace=trace, factory="hybrid", instructions=INSTRUCTIONS,
                        overrides={"lt_update_policy": "unless_stride_selected"}))
    return jobs


def _comparable(result):
    record = dataclasses.asdict(result)
    record.pop("wall_s")
    return record


def test_traced_job_results_equal_execute_job(program_env):
    from repro.eval import engine
    from repro.obs.tracing import Tracer, validate_trace_export

    jobs = _jobs()
    plain = [_comparable(engine.execute_job(job)) for job in jobs]
    tracer = Tracer(capacity=1 << 16)
    clock = LayerClock(tracer, "test")
    clock.install_layers()
    clock.wrap(engine, "execute_job", "eval.job")
    # Start from the engine's per-process trace memo empty, as a fresh
    # ``repro run`` process does, so trace loading is exercised too.
    engine._MEMO.clear()
    try:
        traced = [_comparable(engine.execute_job(job)) for job in jobs]
    finally:
        clock.restore()
    assert traced == plain
    assert engine.execute_job.__name__ == "execute_job"  # restored
    # Every layer the jobs cross was seen, and the spans export cleanly.
    for layer in ("trace.load", "eval.build", "kernels.plan", "kernels.commit",
                  "predictors.scalar", "pipeline.gap", "timing.simulate"):
        assert clock.self_s[layer] > 0, layer
    assert clock.work["timing.simulate"] > 0
    assert validate_trace_export(tracer.export()) == []


def test_self_times_never_exceed_the_wall(program_env):
    import time

    from repro.eval import engine

    clock = LayerClock()
    clock.install_layers()
    clock.wrap(engine, "execute_job", "eval.job")
    started = time.perf_counter()
    try:
        for job in _jobs():
            engine.execute_job(job)
    finally:
        clock.restore()
    wall = time.perf_counter() - started
    assert 0 < sum(clock.self_s.values()) <= wall
    assert all(value >= 0 for value in clock.self_s.values())


def test_dispatch_tallies_sum_counters_across_predictor_types():
    snapshot = {"counters": {
        "kernels.HybridPredictor.dispatched": 3,
        "kernels.StridePredictor.dispatched": 2,
        "kernels.PipelinedPredictor.declined": 4,
        "serve.errors.timeout": 1,
    }}
    assert dispatch_tallies(snapshot) == {
        "dispatched": 5, "fallback": 0, "declined": 4,
    }


def test_served_record_mismatch_fails_the_feed():
    from repro.serve import protocol

    records = [[4096, 0, 64, 64, True, "stride"]]
    ref = serving.StreamRef("INT_gcc", [b""], [stats.records_digest(records)],
                            [1.0], [0.1])
    good = serving.Feed(ref, 0, 0.0, done=0.01, payload=protocol.encode_json(
        {"type": "predictions", "records": records})[5:])
    bad = serving.Feed(ref, 0, 0.0, done=0.01, payload=protocol.encode_json(
        {"type": "predictions", "records": [[4096, 0, 64, 72, True, "stride"]]})[5:])
    refused = serving.Feed(ref, 0, 0.0, done=0.01, payload=protocol.encode_json(
        protocol.error_message("overloaded", "queue full"))[5:])
    lost = serving.Feed(ref, 0, 0.0)
    problems, _, loads, _ = serving.check_feeds([good, bad, refused, lost])
    assert [good.ok, bad.ok, refused.ok, lost.ok] == [True, False, False, False]
    assert loads == 1
    assert "served records differ" in problems[0]
    assert "overloaded" in problems[1]
    assert "no answer" in problems[2]
