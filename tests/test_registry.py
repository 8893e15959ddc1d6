"""Benchmark-set registry: manifest schema, integrity, CLI, engine wiring.

Exercises the declarative registry end to end:

* every way a manifest can be malformed raises a typed
  :class:`RegistryError` with the manifest path in the message;
* integrity is load-bearing — digest or record-count drift between the
  manifest and the trace file refuses to build a trace;
* ``repro ingest validate`` maps clean / findings / unloadable onto the
  repo's 0 / 1 / 2 exit-code convention;
* registry names resolve through :mod:`repro.workloads.suites`, the
  engine records ingest provenance in schema-valid run manifests, and a
  fig5 cell computed on an ingested trace is byte-identical between the
  ``python`` and ``numpy`` backends (acceptance criterion).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.eval import cli as repro_cli
from repro.eval import experiments
from repro.eval.engine import Job, run_jobs
from repro.ingest import RegistryError
from repro.ingest.normalize import sha256_bytes
from repro.obs import manifest as run_manifest
from repro.obs.schema import validate_manifest
from repro.workloads import registry, suites

CHECKED_IN = Path("benchmarks") / "traces" / "registry.json"

DRAM_BODY = b"".join(
    b"0x%x READ %d\n" % (0x1000 + 64 * i, 10 * i) for i in range(50)
)
CSV_BODY = b"pc,addr,size,is_load\n" + b"".join(
    b"0x401000,0x%x,8,1\n" % (0x2000 + 8 * i) for i in range(40)
)


@pytest.fixture(autouse=True)
def _isolated(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_JOBS", "1")
    monkeypatch.delenv("REPRO_REGISTRY", raising=False)
    registry.clear_cache()
    yield
    registry.clear_cache()


def _write(tmp_path, document, name="registry.json"):
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return path


def _entry(tmp_path, *, name="ext_a", body=DRAM_BODY, records=50, **extra):
    trace_file = tmp_path / f"{name}.trc"
    trace_file.write_bytes(body)
    entry = {
        "name": name,
        "file": trace_file.name,
        "sha256": sha256_bytes(body),
        "records": records,
    }
    entry.update(extra)
    return entry


def _manifest(tmp_path, entries=None, sets=None):
    document = {"traces": entries or [_entry(tmp_path)]}
    if sets is not None:
        document["sets"] = sets
    return _write(tmp_path, document)


# ---------------------------------------------------------------------------
# Manifest schema errors (all typed, all naming the manifest)
# ---------------------------------------------------------------------------


class TestManifestSchema:
    def _error(self, path):
        with pytest.raises(RegistryError) as excinfo:
            registry.load_registry(path)
        message = str(excinfo.value)
        assert str(path) in message
        return message

    def test_happy_path(self, tmp_path):
        path = _manifest(
            tmp_path,
            entries=[_entry(tmp_path, format="dramsim",
                            description="a stream", suite="EXT")],
            sets={"quick": ["ext_a"]},
        )
        loaded = registry.load_registry(path)
        assert list(loaded.entries) == ["ext_a"]
        entry = loaded.entries["ext_a"]
        assert entry.format == "dramsim"
        assert entry.suite == "EXT"
        assert entry.path == tmp_path / "ext_a.trc"
        assert loaded.sets == {"quick": ("ext_a",)}

    def test_missing_manifest(self, tmp_path):
        message = self._error(tmp_path / "nope.json")
        assert message.endswith("registry manifest not found")

    def test_unsupported_suffix(self, tmp_path):
        path = tmp_path / "registry.yaml"
        path.write_text("traces: []")
        assert "unsupported manifest suffix '.yaml'" in self._error(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "registry.json"
        path.write_text("{not json")
        assert "invalid JSON" in self._error(path)

    def test_root_not_object(self, tmp_path):
        assert "manifest root must be a table/object" in self._error(
            _write(tmp_path, ["not", "a", "table"])
        )

    def test_unknown_top_level_key(self, tmp_path):
        path = _write(
            tmp_path, {"traces": [_entry(tmp_path)], "tracez": []}
        )
        assert "unknown top-level key(s): tracez" in self._error(path)

    def test_traces_missing_or_empty(self, tmp_path):
        for document in ({}, {"traces": []}, {"traces": "x"}):
            assert "'traces' must be a non-empty array" in self._error(
                _write(tmp_path, document)
            )

    def test_entry_not_object(self, tmp_path):
        assert "traces[0] must be a table/object" in self._error(
            _write(tmp_path, {"traces": ["x"]})
        )

    def test_entry_unknown_key(self, tmp_path):
        entry = _entry(tmp_path, nickname="fast")
        assert "traces[0] has unknown key(s): nickname" in self._error(
            _write(tmp_path, {"traces": [entry]})
        )

    def test_entry_missing_required_keys(self, tmp_path):
        entry = _entry(tmp_path)
        del entry["sha256"], entry["records"]
        assert (
            "traces[0] missing required key(s): sha256, records"
            in self._error(_write(tmp_path, {"traces": [entry]}))
        )

    def test_records_must_be_positive_int(self, tmp_path):
        bad = _entry(tmp_path, records=0)
        assert "traces[0].records must be >= 1" in self._error(
            _write(tmp_path, {"traces": [bad]})
        )
        bad = _entry(tmp_path)
        bad["records"] = "50"
        assert "traces[0].records must be int" in self._error(
            _write(tmp_path, {"traces": [bad]})
        )

    def test_sha256_must_be_64_lowercase_hex(self, tmp_path):
        for digest in ("abc123", "A" * 64, "g" * 64):
            bad = _entry(tmp_path)
            bad["sha256"] = digest
            assert (
                "traces[0].sha256 must be 64 lowercase hex digits"
                in self._error(_write(tmp_path, {"traces": [bad]}))
            )

    def test_unknown_format(self, tmp_path):
        bad = _entry(tmp_path, format="elf")
        assert (
            "traces[0].format 'elf' unknown"
            " (expected one of: dramsim, pincsv)"
            in self._error(_write(tmp_path, {"traces": [bad]}))
        )

    def test_duplicate_trace_name(self, tmp_path):
        entries = [_entry(tmp_path), _entry(tmp_path)]
        assert "duplicate trace name 'ext_a'" in self._error(
            _write(tmp_path, {"traces": entries})
        )

    def test_builtin_name_shadowing_rejected(self, tmp_path):
        builtin = suites.trace_names()[0]
        entry = _entry(tmp_path, name=builtin)
        assert (
            f"trace name {builtin!r} shadows a built-in"
            in self._error(_write(tmp_path, {"traces": [entry]}))
        )

    def test_set_must_be_nonempty_list_of_known_traces(self, tmp_path):
        assert "set 'q' must be a non-empty array" in self._error(
            _manifest(tmp_path, sets={"q": []})
        )
        assert "set 'q' references unknown trace 'ghost'" in self._error(
            _manifest(tmp_path, sets={"q": ["ghost"]})
        )

    def test_set_name_colliding_with_trace(self, tmp_path):
        assert "set name 'ext_a' collides with a trace name" in self._error(
            _manifest(tmp_path, sets={"ext_a": ["ext_a"]})
        )

    def test_toml_manifest_loads(self, tmp_path):
        pytest.importorskip("tomllib")
        entry = _entry(tmp_path)
        path = tmp_path / "registry.toml"
        path.write_text(
            "[[traces]]\n"
            f'name = "{entry["name"]}"\n'
            f'file = "{entry["file"]}"\n'
            f'sha256 = "{entry["sha256"]}"\n'
            f"records = {entry['records']}\n"
            "[sets]\n"
            'quick = ["ext_a"]\n'
        )
        loaded = registry.load_registry(path)
        assert list(loaded.entries) == ["ext_a"]
        assert loaded.sets == {"quick": ("ext_a",)}

    def test_invalid_toml(self, tmp_path):
        pytest.importorskip("tomllib")
        path = tmp_path / "registry.toml"
        path.write_text("[[traces\n")
        assert "invalid TOML" in self._error(path)


# ---------------------------------------------------------------------------
# Integrity: digest and record count gate trace materialisation
# ---------------------------------------------------------------------------


class TestIntegrity:
    def _use(self, monkeypatch, path):
        monkeypatch.setenv("REPRO_REGISTRY", str(path))
        registry.clear_cache()

    def test_get_trace_builds_and_caches(self, tmp_path, monkeypatch):
        self._use(monkeypatch, _manifest(tmp_path))
        trace = registry.get_trace("ext_a")
        assert trace.meta["suite"] == "EXT"
        assert trace.meta["ingest"]["records"] == 50
        cache_file = registry.cache_path("ext_a")
        assert cache_file.exists()
        digest = sha256_bytes(DRAM_BODY)
        assert digest[:12] in cache_file.name
        # Warm path survives the source file disappearing.
        (tmp_path / "ext_a.trc").unlink()
        again = registry.get_trace("ext_a")
        assert list(again.addr) == list(trace.addr)

    def test_sha_mismatch_refuses_to_build(self, tmp_path, monkeypatch):
        entry = _entry(tmp_path)
        entry["sha256"] = "0" * 64
        self._use(monkeypatch, _write(tmp_path, {"traces": [entry]}))
        with pytest.raises(RegistryError) as excinfo:
            registry.get_trace("ext_a")
        message = str(excinfo.value)
        assert "ext_a: sha256 mismatch" in message
        assert "manifest 000000000000..." in message

    def test_record_count_mismatch_refuses_to_build(
        self, tmp_path, monkeypatch
    ):
        self._use(
            monkeypatch,
            _write(tmp_path, {"traces": [_entry(tmp_path, records=49)]}),
        )
        with pytest.raises(RegistryError) as excinfo:
            registry.get_trace("ext_a")
        assert "record count mismatch" in str(excinfo.value)
        assert "(manifest 49, file 50)" in str(excinfo.value)

    def test_missing_file_is_registry_error(self, tmp_path, monkeypatch):
        path = _manifest(tmp_path)
        (tmp_path / "ext_a.trc").unlink()
        self._use(monkeypatch, path)
        with pytest.raises(RegistryError) as excinfo:
            registry.get_trace("ext_a")
        assert "ext_a: trace file" in str(excinfo.value)
        assert "unreadable" in str(excinfo.value)

    def test_unknown_name_is_key_error(self, tmp_path, monkeypatch):
        self._use(monkeypatch, _manifest(tmp_path))
        with pytest.raises(KeyError):
            registry.get_trace("ext_ghost")

    def test_instruction_cap_truncates_with_own_cache(
        self, tmp_path, monkeypatch
    ):
        self._use(monkeypatch, _manifest(tmp_path))
        capped = registry.get_trace("ext_a", instructions=10)
        assert len(capped) == 10
        assert capped.meta["ingest"]["dropped"] == {"truncated": 40}
        assert registry.cache_path("ext_a", 10) != registry.cache_path("ext_a")

    def test_validate_reports_problems_without_raising(
        self, tmp_path, monkeypatch
    ):
        good = _entry(tmp_path, name="ext_ok", body=CSV_BODY, records=40)
        drifted = _entry(tmp_path, name="ext_bad")
        drifted["sha256"] = "0" * 64
        path = _write(tmp_path, {"traces": [good, drifted]})
        self._use(monkeypatch, path)
        problems = registry.validate(registry.load_registry(path))
        assert len(problems) == 1
        assert "ext_bad: sha256 mismatch" in problems[0]


# ---------------------------------------------------------------------------
# suites integration: registry names are first-class trace names
# ---------------------------------------------------------------------------


class TestSuitesIntegration:
    def test_suites_fall_back_to_registry(self, tmp_path, monkeypatch):
        monkeypatch.setenv(
            "REPRO_REGISTRY", str(_manifest(tmp_path))
        )
        registry.clear_cache()
        trace = suites.get_trace("ext_a")
        assert trace.meta["workload"] == "external"
        stream = suites.get_predictor_stream("ext_a")
        assert len(stream) == 50
        assert suites.suite_of("ext_a") == "EXT"

    def test_set_names_expand_on_the_cli_path(self, tmp_path, monkeypatch):
        monkeypatch.setenv(
            "REPRO_REGISTRY",
            str(_manifest(tmp_path, sets={"quick": ["ext_a"]})),
        )
        registry.clear_cache()
        assert registry.expand_trace_names(["quick", "INT_xli"]) == [
            "ext_a", "INT_xli"
        ]

    def test_checked_in_manifest_is_valid(self):
        loaded = registry.load_registry(CHECKED_IN)
        assert set(loaded.entries) == {"ext_dram_stream", "ext_pin_mix"}
        assert registry.validate(loaded) == []


# ---------------------------------------------------------------------------
# CLI exit codes: repro ingest validate
# ---------------------------------------------------------------------------


class TestValidateCli:
    def test_clean_manifest_exits_zero(self, tmp_path, capsys):
        path = _manifest(tmp_path, sets={"quick": ["ext_a"]})
        assert repro_cli.main(["ingest", "validate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "1 trace(s), 1 set(s) validate" in out

    def test_findings_exit_one(self, tmp_path, capsys):
        path = _manifest(tmp_path)
        (tmp_path / "ext_a.trc").write_bytes(b"0xdead READ 0\n")  # drift
        assert repro_cli.main(["ingest", "validate", str(path)]) == 1
        assert "sha256 mismatch" in capsys.readouterr().out

    def test_malformed_manifest_exits_two(self, tmp_path, capsys):
        path = _write(tmp_path, {"traces": [{"name": "x"}]})
        assert repro_cli.main(["ingest", "validate", str(path)]) == 2
        assert "missing required key(s)" in capsys.readouterr().err

    def test_missing_manifest_exits_two(self, tmp_path, capsys):
        missing = tmp_path / "none.json"
        assert repro_cli.main(["ingest", "validate", str(missing)]) == 2
        assert "registry manifest not found" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Engine + manifests + backend parity (acceptance criteria)
# ---------------------------------------------------------------------------

INSTR = 2000


class TestEngineIntegration:
    def test_manifest_records_ingest_provenance(self, tmp_path, monkeypatch):
        out = tmp_path / "telemetry"
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(out))
        registry.clear_cache()
        job = Job(trace="ext_dram_stream", factory="hybrid",
                  variant="hybrid", instructions=INSTR)
        run_jobs([job])
        manifests = run_manifest.load_manifests(out)
        assert len(manifests) == 1
        manifest = manifests[0]
        assert validate_manifest(manifest) == []
        ingest = manifest["trace"]["ingest"]
        assert ingest["format"] == "dramsim"
        assert ingest["records"] == 600
        assert ingest["sha256"] == sha256_bytes(
            (CHECKED_IN.parent / "ext_dram_stream.trc").read_bytes()
        )
        cache_name = Path(manifest["trace"]["cache"]["path"]).name
        assert ingest["sha256"][:12] in cache_name

    @pytest.mark.parametrize("name", ["ext_dram_stream", "ext_pin_mix"])
    def test_fig5_cell_backend_parity(self, name, monkeypatch):
        """python and numpy produce byte-identical metrics and tables."""
        registry.clear_cache()
        rendered = {}
        metrics = {}
        for backend in ("python", "numpy"):
            monkeypatch.setenv("REPRO_BACKEND", backend)
            comparison = experiments.fig5(
                traces=[name], instructions=INSTR
            )
            rendered[backend] = comparison.render()
            metrics[backend] = {
                variant: {
                    suite: (sm.combined.loads, sm.combined.predictions,
                            sm.combined.speculative,
                            sm.combined.correct_speculative,
                            sm.combined.correct_predictions)
                    for suite, sm in by_suite.items()
                }
                for variant, by_suite in comparison.suites.items()
            }
        assert metrics["python"] == metrics["numpy"]
        assert rendered["python"].encode() == rendered["numpy"].encode()
        assert "EXT" in rendered["python"]
