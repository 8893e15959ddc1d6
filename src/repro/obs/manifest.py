"""Structured run telemetry: JSON manifests, heartbeats, clocks.

Under ``REPRO_TELEMETRY=1`` every engine job writes one JSON **run
manifest** — config hash, trace identity and cache-file provenance, wall
and CPU time, loads/second, peak RSS, metrics, attribution counters — to
the directory named by ``REPRO_TELEMETRY_DIR`` (default ``telemetry/``),
plus heartbeat progress lines on stderr.  Manifests are the durable,
diffable record of a run: ``python -m repro stats --diff A B`` compares
two manifest sets to flag perf or accuracy regressions, and CI validates
them against ``run_manifest.schema.json``.

This module is deliberately free of simulator imports: it handles plain
dicts and knows nothing about jobs or predictors (the engine owns that
glue).  Code outside ``obs/`` reads the clock through :func:`wall_clock` /
:func:`perf_clock` — observability *observes* runs, it never feeds time
back into simulated state.  Whether telemetry is on, and where manifests
go, is :mod:`repro.eval.config`'s business (``telemetry_enabled`` /
``telemetry_dir``).
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from dataclasses import asdict, is_dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

__all__ = [
    "MANIFEST_SCHEMA_ID",
    "canonical_json",
    "config_hash",
    "cpu_clock",
    "file_provenance",
    "heartbeat",
    "iso_utc",
    "jsonable",
    "load_manifests",
    "peak_rss_kb",
    "perf_clock",
    "wall_clock",
    "write_manifest",
]

#: Schema identifier embedded in (and required of) every manifest.
MANIFEST_SCHEMA_ID = "repro.run_manifest/v1"


# ---------------------------------------------------------------------------
# Clocks and process statistics (observability only, never simulated state)
# ---------------------------------------------------------------------------

def wall_clock() -> float:
    """Current wall time in seconds since the epoch.

    Manifest timestamps and heartbeat pacing only; nothing simulated may
    consume this value (the R002 determinism rule polices exactly that,
    and allows the read here because ``obs/`` measures time by design).
    """
    return time.time()


def perf_clock() -> float:
    """Monotonic high-resolution timer for measuring run durations.

    Display/manifest only — see :func:`wall_clock` for the policy.
    """
    return time.perf_counter()


def cpu_clock() -> float:
    """Process CPU time in seconds (user + system)."""
    return time.process_time()


def peak_rss_kb() -> Optional[int]:
    """Peak resident set size of this process in KiB (None if unknown).

    ``ru_maxrss`` is KiB on Linux and bytes on macOS; normalised to KiB.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - macOS units
        peak //= 1024
    return int(peak)


def iso_utc(epoch_seconds: float) -> str:
    """Render an epoch timestamp as an ISO-8601 UTC string."""
    stamp = datetime.fromtimestamp(epoch_seconds, tz=timezone.utc)
    return stamp.isoformat(timespec="seconds").replace("+00:00", "Z")


# ---------------------------------------------------------------------------
# Canonical JSON and hashing
# ---------------------------------------------------------------------------

def jsonable(value: Any) -> Any:
    """Recursively coerce ``value`` into JSON-encodable structures.

    Dataclasses (predictor/machine configs inside job overrides) become
    dicts; mappings and sequences recurse; anything else non-primitive
    falls back to ``repr`` so hashing never fails on an exotic override.
    """
    if is_dataclass(value) and not isinstance(value, type):
        return jsonable(asdict(value))
    if isinstance(value, dict):
        return {str(key): jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def canonical_json(value: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace variance."""
    return json.dumps(
        jsonable(value), sort_keys=True, separators=(",", ":"),
    )


def config_hash(spec: Any) -> str:
    """SHA-256 over the canonical JSON of a job/config spec."""
    return hashlib.sha256(canonical_json(spec).encode("utf-8")).hexdigest()


def file_provenance(path: Path) -> Dict[str, Any]:
    """Identity of an on-disk artifact (trace cache file provenance)."""
    record: Dict[str, Any] = {"path": str(path), "exists": path.exists()}
    if record["exists"]:
        stat = path.stat()
        record["bytes"] = stat.st_size
        record["mtime_ns"] = stat.st_mtime_ns
    return record


# ---------------------------------------------------------------------------
# Heartbeats and manifest IO
# ---------------------------------------------------------------------------

def heartbeat(message: str) -> None:
    """One progress line on stderr (workers interleave safely per line)."""
    print(f"[telemetry] pid={os.getpid()} {message}",
          file=sys.stderr, flush=True)


def write_manifest(data: Dict[str, Any], directory: Path) -> Path:
    """Atomically write one manifest into ``directory``; returns its path.

    The file name is derived from variant/trace/config-hash, so re-running
    the same job spec overwrites its own manifest (last writer wins) and
    distinct specs never collide.
    """
    directory.mkdir(parents=True, exist_ok=True)
    digest = str(data.get("config_hash", ""))[:12] or "nohash"
    variant = _slug(str(data.get("job", {}).get("variant", "")) or "run")
    trace = _slug(str(data.get("job", {}).get("trace", "")) or "trace")
    path = directory / f"{variant}-{trace}-{digest}.json"
    tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
    tmp.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)
    return path


def load_manifests(directory: Union[str, Path]) -> List[Dict[str, Any]]:
    """Every ``*.json`` manifest under ``directory``, sorted by file name."""
    manifests: List[Dict[str, Any]] = []
    for path in sorted(Path(directory).glob("*.json")):
        with path.open() as fh:
            data = json.load(fh)
        if isinstance(data, dict):
            data["_path"] = str(path)
            manifests.append(data)
    return manifests


def _slug(text: str) -> str:
    """File-name-safe slug (job variants may contain spaces/commas)."""
    return "".join(c if c.isalnum() or c in "._-" else "_" for c in text)
