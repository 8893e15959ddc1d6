"""The benchmark's own logic: percentiles, host-speed scaling, due-time
latency, the ladder stop rule and digest checks."""

import math

import pytest

import grids
import probe
import stats


class TestProbeScale:
    def test_scales_by_the_median_probe_time(self):
        reference = probe.REFERENCE_S
        assert probe.scale([reference]) == pytest.approx(1.0)
        # A host running the probe at half speed halves the times.
        slow = [2 * reference, 2 * reference, 9 * reference]
        assert probe.scale(slow) == pytest.approx(0.5)

    def test_refuses_a_run_without_probes(self):
        with pytest.raises(ValueError):
            probe.scale([])


class TestPercentile:
    def test_p90_needs_ten_samples_beyond(self):
        with pytest.raises(stats.TooFewSamples, match="at least 100 samples"):
            stats.percentile(list(range(99)), 0.90)
        p90 = stats.percentile([float(v) for v in range(1, 101)], 0.90)
        assert (p90.value, p90.samples) == (90.0, 100)
        assert stats.beyond(100, 0.90) == 10

    def test_p50_needs_twenty_samples(self):
        with pytest.raises(stats.TooFewSamples):
            stats.percentile([1.0] * 19, 0.50)
        assert stats.percentile([1.0] * 20, 0.50).samples == 20

    def test_nearest_rank_ignores_input_order(self):
        values = [float(v) for v in range(200, 0, -1)]
        assert stats.percentile(values, 0.50).value == 100.0

    def test_label_carries_the_sample_count(self):
        label = stats.percentile([2.0] * 100, 0.90).label("feed", "ms")
        assert label == "feed=2.000 ms (p90, n=100)"

    def test_empty_sample_is_refused(self):
        with pytest.raises(stats.TooFewSamples):
            stats.percentile([], 0.50)


class TestDueTimeLatency:
    def test_latency_runs_from_the_due_time(self):
        # The second request was due at 1.0 but sent late at 2.5 behind a
        # stall; timing from the send would report 0.5 s, not 2 s.
        latencies = stats.due_latencies_ms([0.0, 1.0], [0.25, 3.0])
        assert latencies == [250.0, 2000.0]

    def test_unanswered_request_misses_every_limit(self):
        assert stats.due_latencies_ms([0.0], [None]) == [math.inf]

    def test_series_must_align(self):
        with pytest.raises(ValueError):
            stats.due_latencies_ms([0.0, 1.0], [1.0])


class TestLadder:
    def test_step_within_limit_passes(self):
        verdict = stats.judge_step(40.0, [10.0] * 100, 1, 25.0, 2)
        assert verdict.passed and verdict.p90.value == 10.0

    def test_p90_over_limit_fails(self):
        latencies = [10.0] * 89 + [30.0] * 11
        verdict = stats.judge_step(40.0, latencies, 1, 25.0, 2)
        assert not verdict.passed and "over the 25 ms limit" in verdict.reason

    def test_failed_feed_counts_as_late(self):
        latencies = [10.0] * 89 + [math.inf] * 11
        assert not stats.judge_step(40.0, latencies, 0, 25.0, 2).passed

    def test_growing_backlog_fails(self):
        # 200 feeds/s x 25 ms allows 5 in flight; 6 means a growing queue.
        assert stats.judge_step(200.0, [10.0] * 100, 5, 25.0, 2).passed
        verdict = stats.judge_step(200.0, [10.0] * 100, 6, 25.0, 2)
        assert not verdict.passed and "backlog" in verdict.reason

    def test_too_few_samples_fail_the_step(self):
        verdict = stats.judge_step(40.0, [1.0] * 50, 0, 25.0, 2)
        assert not verdict.passed and verdict.p90 is None

    def test_rate_at_slo_stops_at_first_failure(self):
        ok = stats.judge_step(40.0, [1.0] * 100, 0, 25.0, 2)
        ok2 = stats.judge_step(60.0, [1.0] * 100, 0, 25.0, 2)
        bad = stats.judge_step(90.0, [99.0] * 100, 0, 25.0, 2)
        later = stats.judge_step(135.0, [1.0] * 100, 0, 25.0, 2)
        assert stats.rate_at_slo([ok, ok2, bad, later]) == 60.0
        assert stats.rate_at_slo([bad, ok]) == 0.0


class TestDigests:
    def test_mismatch_missing_and_unrecorded_are_all_reported(self):
        expected = {"fig5": "a" * 64, "fig6": "b" * 64}
        observed = {"fig5": "a" * 64, "fig6": "c" * 64, "fig7": "d" * 64}
        problems = stats.digest_mismatches(expected, observed)
        assert len(problems) == 2
        assert problems[0].startswith("fig6: digest cccc")
        assert problems[1].startswith("fig7: no recorded digest")
        assert stats.digest_mismatches(expected, {"fig5": "a" * 64}) == [
            f"fig6: not produced (want {'b' * 12})"
        ]

    def test_records_digest_matches_wire_form(self):
        records = [(4096, 8, 123, None, False, "stride")]
        wire = [[4096, 8, 123, None, False, "stride"]]
        assert stats.records_digest(records) == stats.records_digest(wire)
        changed = [[4096, 8, 123, 123, False, "stride"]]
        assert stats.records_digest(changed) != stats.records_digest(wire)

    def test_table_digest_ignores_the_timing_footer(self):
        table = "Figure 5\nsuite | rate\nINT | 50.0%\n"
        a = grids.rendered_tables(table + "\n[16 traces, 1 worker(s), 4.8s]\n")
        b = grids.rendered_tables(table + "\n[16 traces, 1 worker(s), 5.1s]\n")
        assert a == b == table
        assert stats.text_digest(a) != stats.text_digest(table.replace("50.0", "50.1"))
