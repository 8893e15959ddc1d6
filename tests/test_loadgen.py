"""Load generator: percentile math, report schema, end-to-end smoke."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
LOADGEN = REPO_ROOT / "benchmarks" / "loadgen.py"


def _loadgen_module():
    spec = importlib.util.spec_from_file_location("loadgen", LOADGEN)
    module = importlib.util.module_from_spec(spec)
    # Registered before exec: dataclass field resolution looks the
    # module up in sys.modules.
    sys.modules["loadgen"] = module
    spec.loader.exec_module(module)
    return module


class TestPercentiles:
    def test_empty_is_none(self):
        lg = _loadgen_module()
        assert lg.percentile([], 0.5) is None
        summary = lg.latency_summary([])
        assert summary == {
            "p50": None, "p90": None, "p99": None, "mean": None, "max": None,
        }

    def test_single_value(self):
        lg = _loadgen_module()
        assert lg.percentile([7.0], 0.5) == 7.0
        assert lg.percentile([7.0], 0.99) == 7.0

    def test_nearest_rank(self):
        lg = _loadgen_module()
        values = [float(v) for v in range(1, 101)]
        assert lg.percentile(values, 0.50) == 51.0
        assert lg.percentile(values, 0.99) == 99.0
        assert lg.percentile(values, 1.0) == 100.0

    def test_summary_fields(self):
        lg = _loadgen_module()
        summary = lg.latency_summary([3.0, 1.0, 2.0])
        assert summary["p50"] == 2.0
        assert summary["max"] == 3.0
        assert summary["mean"] == pytest.approx(2.0)


class TestArgs:
    def test_ramp_parsing(self):
        lg = _loadgen_module()
        args = lg.parse_args(["--ramp", "1,2,8"])
        assert args.ramp_steps == [1, 2, 8]

    def test_bad_ramp_rejected(self):
        lg = _loadgen_module()
        with pytest.raises(SystemExit):
            lg.parse_args(["--ramp", "0,2"])


class TestEndToEnd:
    def test_spawn_smoke_writes_valid_report(self, tmp_path):
        """The CI smoke scenario: spawn, burst, schema-valid report,
        zero dropped sessions."""
        out = tmp_path / "slo_report.json"
        completed = subprocess.run(
            [
                sys.executable, str(LOADGEN), "--spawn",
                "--ramp", "1", "--events-per-feed", "80",
                "--feeds-per-session", "2",
                "--output", str(out), "--require-zero-drops",
            ],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=180,
        )
        assert completed.returncode == 0, completed.stdout + completed.stderr

        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["schema"] == "repro.slo_report/v1"
        assert report["totals"]["dropped_sessions"] == 0
        assert report["totals"]["errors"] == 0
        assert report["slo"]["p50_ms"] is not None

        from repro.obs.report import check_slo_report, render_slo_report

        assert check_slo_report(out) == []
        rendered = render_slo_report(out)
        assert "SLO:" in rendered and "dropped=0" in rendered

    def test_spawn_with_admin_joins_server_obs_and_exports_trace(
        self, tmp_path
    ):
        """The observability CI scenario: spawn with an admin endpoint,
        scrape server-side queue-wait into the report, export a
        schema-valid span file whose trace ids are the loadgen ones."""
        out = tmp_path / "slo_report.json"
        trace_out = tmp_path / "trace.json"
        completed = subprocess.run(
            [
                sys.executable, str(LOADGEN), "--spawn", "--admin",
                "--ramp", "1,2", "--events-per-feed", "80",
                "--feeds-per-session", "2",
                "--output", str(out),
                "--trace-export", str(trace_out),
                "--require-zero-drops", "--require-server-obs",
            ],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=180,
        )
        assert completed.returncode == 0, completed.stdout + completed.stderr
        assert "admin=" in completed.stdout

        report = json.loads(out.read_text(encoding="utf-8"))
        obs = report["server_obs"]
        assert obs is not None
        assert obs["queue_wait_ms"]["count"] > 0
        assert obs["queue_wait_ms"]["p50"] is not None
        assert obs["sessions_dropped"] == 0
        assert obs["spans_exported"] > 0

        from repro.obs.report import check_slo_report, render_slo_report
        from repro.obs.tracing import validate_trace_export

        assert check_slo_report(out) == []
        assert "queue-wait" in render_slo_report(out)

        document = json.loads(trace_out.read_text(encoding="utf-8"))
        assert validate_trace_export(document) == []
        traces = {
            (e.get("args") or {}).get("trace")
            for e in document["traceEvents"]
        }
        # Client request ids join server spans across the queue hop.
        assert any(t and t.startswith("lg0-") for t in traces)

    def test_server_obs_section_is_optional_in_schema(self):
        lg = _loadgen_module()
        from repro.obs.schema import load_schema, validate

        schema = load_schema(lg.SLO_SCHEMA_PATH)
        base = {
            "schema": "repro.slo_report/v1",
            "server": {"host": "h", "port": 1, "spawned": False},
            "workload": {"profile": "mixed", "seed": 0, "mode": "closed",
                         "events_per_feed": 1, "feeds_per_session": 1},
            "steps": [], "totals": {"sessions": 0, "feeds": 0, "loads": 0,
                                    "errors": 0, "dropped_sessions": None},
            "slo": {"p50_ms": None, "p99_ms": None, "throughput_lps": None},
        }
        assert validate(base, schema) == []
        assert validate({**base, "server_obs": None}, schema) == []
        assert validate({**base, "server_obs": {
            "admin_port": 1,
            "queue_wait_ms": {"count": 0},
        }}, schema) == []
        assert validate({**base, "server_obs": {"admin_port": 1}}, schema)

    def test_stats_slo_cli_rejects_invalid(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "nope"}', encoding="utf-8")
        env = {"PYTHONPATH": str(REPO_ROOT / "src")}
        import os
        env = {**os.environ, **env}
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "stats", "slo", str(bad)],
            cwd=REPO_ROOT, capture_output=True, text=True, env=env,
            timeout=60,
        )
        assert completed.returncode == 2
        assert "schema" in completed.stderr
