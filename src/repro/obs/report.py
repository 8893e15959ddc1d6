"""The ``repro stats`` reporting backend (every mode but ``breakdown``).

* ``summarize`` / ``validate`` / ``diff`` — tabulate, schema-check and
  compare directories of run manifests (``diff`` flags wall-clock,
  accuracy and prediction-rate regressions between two sets).
* ``bench`` — the ``BENCH_fig5.json`` wall-clock trajectory, with an
  optional regression gate.
* ``slo`` — a ``benchmarks/loadgen.py`` SLO report, schema-checked and
  rendered as a saturation curve.

The ``breakdown`` mode runs an instrumented grid, so it lives with the
other engine grids in :mod:`repro.eval.experiments`.

``tail`` follows either side of the observability plane:

* ``host:port`` — poll a live server's admin endpoint and render its
  merged metrics snapshot (counters, occupancy gauges, queue-wait
  percentiles) every interval.
* a directory — watch a telemetry/flight-recorder directory and print a
  one-line digest for every run manifest and postmortem as it appears
  (``--once`` reports the current contents and exits, which is what CI
  uses).

``spans`` loads a Chrome trace-event export (the admin endpoint's
``spans`` answer, or ``loadgen --trace-export``), validates it against
the checked-in ``trace_event.schema.json``, and summarises per span name
and per trace id — the quick "where did the time go" view without
opening Perfetto.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

from ..eval.report import format_percent, format_table
from .manifest import load_manifests
from .metrics import histogram_percentile
from .schema import SLO_SCHEMA_PATH, load_schema, validate, validate_manifest

__all__ = [
    "BENCH_SCHEMA_ID",
    "ManifestDiff",
    "SLO_SCHEMA_ID",
    "bench_regression",
    "check_bench_file",
    "check_slo_report",
    "diff_manifests",
    "render_bench_history",
    "render_metrics_snapshot",
    "render_slo_report",
    "scan_directory",
    "spans_report",
    "summarize_manifests",
    "summarize_spans",
    "tail",
    "validate_directory",
]

#: Output sink, injectable for tests.
_Print = Callable[[str], None]


def render_metrics_snapshot(snapshot: Mapping[str, Any]) -> str:
    """A compact human view of one registry snapshot."""
    lines: List[str] = []
    counters = snapshot.get("counters") or {}
    gauges = snapshot.get("gauges") or {}
    histograms = snapshot.get("histograms") or {}
    if counters:
        lines.append("counters:")
        for name in sorted(counters):
            lines.append(f"  {name:<36} {counters[name]}")
    if gauges:
        lines.append("gauges:")
        for name in sorted(gauges):
            lines.append(f"  {name:<36} {gauges[name]:g}")
    if histograms:
        lines.append("histograms:")
        for name in sorted(histograms):
            record = histograms[name]
            count = int(record.get("count") or 0)
            if count == 0:
                lines.append(f"  {name:<36} (empty)")
                continue
            p50 = histogram_percentile(record, 0.50)
            p95 = histogram_percentile(record, 0.95)
            p99 = histogram_percentile(record, 0.99)
            mean = float(record["sum"]) / count
            lines.append(
                f"  {name:<36} n={count}"
                f" mean={mean * 1e3:.3f}ms"
                f" p50<={_ms(p50, 'g', 1e3)}ms"
                f" p95<={_ms(p95, 'g', 1e3)}ms"
                f" p99<={_ms(p99, 'g', 1e3)}ms"
            )
    if not lines:
        lines.append("(no metrics recorded)")
    return "\n".join(lines)


def _ms(
    value: Optional[float], spec: str = ".2f", scale: float = 1.0
) -> str:
    """Milliseconds (``value * scale``) formatted with ``spec``, or ``-``."""
    return "-" if value is None else format(value * scale, spec)


def _load_json(path: Union[str, Path]) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _digest_file(path: Path) -> str:
    """One line describing a manifest or postmortem JSON file."""
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as error:
        return f"{path.name}: unreadable ({error})"
    schema = document.get("schema", "")
    if str(schema).startswith("repro.postmortem"):
        return (
            f"postmortem {path.name}:"
            f" session={document.get('session')}"
            f" reason={document.get('reason')}"
            f" events={len(document.get('events') or [])}"
        )
    job = document.get("job") or {}
    run = document.get("run") or {}
    wall = run.get("wall_s")
    return (
        f"manifest {path.name}:"
        f" kind={job.get('kind')}"
        f" trace={job.get('trace')}"
        f" variant={job.get('variant')}"
        f" wall_s={wall if wall is None else round(float(wall), 3)}"
    )


def scan_directory(
    directory: Path, seen: Optional[set] = None
) -> Tuple[List[str], set]:
    """Digest lines for JSON files not in ``seen``; returns (lines, seen')."""
    seen = set(seen or ())
    lines: List[str] = []
    for path in sorted(Path(directory).glob("*.json")):
        if path.name in seen:
            continue
        seen.add(path.name)
        lines.append(_digest_file(path))
    return lines, seen


def _parse_target(target: str) -> Tuple[str, Any]:
    if ":" in target and not Path(target).exists():
        host, _, port_text = target.rpartition(":")
        try:
            return "admin", (host or "127.0.0.1", int(port_text))
        except ValueError:
            pass
    return "dir", Path(target)


def tail(
    target: str,
    *,
    interval_s: float = 2.0,
    once: bool = False,
    out: _Print = print,
    sleep: Callable[[float], None] = time.sleep,
) -> int:
    """Follow a live admin endpoint or a manifest/postmortem directory."""
    mode, parsed = _parse_target(target)
    if mode == "admin":
        from .admin import fetch_admin

        host, port = parsed
        while True:
            try:
                answer = fetch_admin(host, port, "metrics")
            except OSError as error:
                out(f"admin endpoint {host}:{port} unreachable: {error}")
                return 1
            out(render_metrics_snapshot(answer.get("metrics") or {}))
            if once:
                return 0
            out("")
            sleep(interval_s)
    directory = parsed
    if not directory.is_dir():
        out(f"{target}: not a directory and not a host:port")
        return 2
    lines, seen = scan_directory(directory)
    for line in lines:
        out(line)
    if once:
        if not lines:
            out(f"(no manifests or postmortems in {directory})")
        return 0
    while True:
        sleep(interval_s)
        lines, seen = scan_directory(directory, seen)
        for line in lines:
            out(line)


def summarize_spans(document: Mapping[str, Any]) -> str:
    """Per-name and per-trace summary of a trace-event export."""
    events = document.get("traceEvents") or []
    by_name: Dict[str, List[float]] = {}
    by_trace: Dict[str, int] = {}
    for event in events:
        by_name.setdefault(event["name"], []).append(float(event["dur"]))
        trace = (event.get("args") or {}).get("trace")
        if trace is not None:
            by_trace[str(trace)] = by_trace.get(str(trace), 0) + 1
    lines = [
        f"spans: {len(events)} events,"
        f" {len(by_name)} names, {len(by_trace)} trace ids"
    ]
    if by_name:
        lines.append(
            f"  {'name':<28} {'count':>6} {'total_ms':>10}"
            f" {'mean_ms':>9} {'max_ms':>9}"
        )
        ranked = sorted(
            by_name.items(), key=lambda item: -sum(item[1])
        )
        for name, durs in ranked:
            total = sum(durs)
            lines.append(
                f"  {name:<28} {len(durs):>6}"
                f" {total / 1e3:>10.3f}"
                f" {total / len(durs) / 1e3:>9.3f}"
                f" {max(durs) / 1e3:>9.3f}"
            )
    if by_trace:
        busiest = sorted(by_trace.items(), key=lambda item: -item[1])[:5]
        lines.append(
            "  busiest traces: "
            + ", ".join(f"{t} ({n} spans)" for t, n in busiest)
        )
    return "\n".join(lines)


def spans_report(path: str, out: _Print = print) -> int:
    """Validate + summarise one trace-event export file (CLI backend)."""
    from .tracing import validate_trace_export

    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as error:
        out(f"{path}: unreadable ({error})")
        return 2
    errors = validate_trace_export(document)
    if errors:
        for error in errors:
            out(f"{path}: {error}")
        return 2
    out(summarize_spans(document))
    return 0


# ---------------------------------------------------------------------------
# Manifest summarising / validation
# ---------------------------------------------------------------------------

def summarize_manifests(directory: Union[str, Path]) -> str:
    """One table row per manifest: identity, cost, and headline accuracy."""
    manifests = load_manifests(directory)
    if not manifests:
        return f"no manifests under {directory}"
    rows: List[List[object]] = []
    for manifest in manifests:
        job = manifest.get("job", {})
        run = manifest.get("run", {})
        metrics = manifest.get("metrics") or {}
        loads_per_sec = run.get("loads_per_sec")
        rows.append([
            job.get("variant", "?"),
            job.get("trace", "?"),
            job.get("kind", "?"),
            metrics.get("loads", "-"),
            f"{run.get('wall_s', 0.0):.2f}",
            f"{loads_per_sec:,.0f}" if loads_per_sec else "-",
            run.get("peak_rss_kb", "-"),
            (
                format_percent(metrics["accuracy"], 2)
                if "accuracy" in metrics else "-"
            ),
        ])
    return format_table(
        ["variant", "trace", "kind", "loads", "wall s", "loads/s",
         "rss KiB", "accuracy"],
        rows,
        title=f"{len(manifests)} manifest(s) under {directory}",
    )


def validate_directory(
    directory: Union[str, Path],
) -> List[Tuple[str, List[str]]]:
    """Schema-validate every manifest; returns (path, errors) per failure."""
    failures: List[Tuple[str, List[str]]] = []
    for manifest in load_manifests(directory):
        errors = validate_manifest(manifest)
        if errors:
            failures.append((manifest.get("_path", "?"), errors))
    return failures


# ---------------------------------------------------------------------------
# Manifest diffing (regression flagging)
# ---------------------------------------------------------------------------

@dataclass
class ManifestDiff:
    """Baseline-vs-candidate comparison of two manifest directories."""

    baseline: Union[str, Path]
    candidate: Union[str, Path]
    #: one record per matched (variant, trace) pair
    rows: List[Dict[str, Any]] = field(default_factory=list)
    #: human-readable regression flags (empty = clean)
    regressions: List[str] = field(default_factory=list)
    only_baseline: List[str] = field(default_factory=list)
    only_candidate: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        lines: List[str] = []
        if self.rows:
            table_rows: List[List[object]] = []
            for row in self.rows:
                table_rows.append([
                    row["variant"],
                    row["trace"],
                    _signed_percent(row["wall_ratio"] - 1.0),
                    _signed_pp(row["accuracy_delta"]),
                    _signed_pp(row["rate_delta"]),
                    ",".join(row["flags"]) or "-",
                ])
            lines.append(format_table(
                ["variant", "trace", "wall Δ", "acc Δpp", "rate Δpp",
                 "flags"],
                table_rows,
                title=f"manifest diff: {self.baseline} -> {self.candidate}",
            ))
        for name in self.only_baseline:
            lines.append(f"only in baseline:  {name}")
        for name in self.only_candidate:
            lines.append(f"only in candidate: {name}")
        if self.regressions:
            lines.append("")
            lines.append(f"{len(self.regressions)} regression flag(s):")
            lines.extend(f"  - {item}" for item in self.regressions)
        else:
            lines.append("")
            lines.append("no regressions flagged")
        return "\n".join(lines)


def _signed_percent(value: float) -> str:
    return f"{value * 100:+.1f}%"


def _signed_pp(value: float) -> str:
    return f"{value * 100:+.2f}"


def _index_manifests(
    directory: Union[str, Path],
) -> Dict[Tuple[str, str], Dict[str, Any]]:
    index: Dict[Tuple[str, str], Dict[str, Any]] = {}
    for manifest in load_manifests(directory):
        job = manifest.get("job", {})
        key = (str(job.get("variant", "?")), str(job.get("trace", "?")))
        index[key] = manifest
    return index


def diff_manifests(
    baseline: Union[str, Path],
    candidate: Union[str, Path],
    wall_tolerance: float = 0.25,
    accuracy_tolerance: float = 0.005,
) -> ManifestDiff:
    """Compare two manifest sets, matched by (variant, trace).

    Flags a **perf** regression when the candidate's wall time exceeds
    the baseline's by more than ``wall_tolerance`` (fractional), and an
    **accuracy** regression when accuracy or prediction rate drops by
    more than ``accuracy_tolerance`` (absolute).  A changed config hash
    is reported as an informational flag, not a regression — a deliberate
    config change legitimately moves both.
    """
    result = ManifestDiff(baseline=baseline, candidate=candidate)
    base_index = _index_manifests(baseline)
    cand_index = _index_manifests(candidate)
    result.only_baseline = [
        f"{variant}/{trace}"
        for (variant, trace) in sorted(set(base_index) - set(cand_index))
    ]
    result.only_candidate = [
        f"{variant}/{trace}"
        for (variant, trace) in sorted(set(cand_index) - set(base_index))
    ]
    for key in sorted(set(base_index) & set(cand_index)):
        variant, trace = key
        old, new = base_index[key], cand_index[key]
        old_run, new_run = old.get("run", {}), new.get("run", {})
        old_metrics = old.get("metrics") or {}
        new_metrics = new.get("metrics") or {}
        old_wall = float(old_run.get("wall_s", 0.0))
        new_wall = float(new_run.get("wall_s", 0.0))
        wall_ratio = new_wall / old_wall if old_wall > 0 else 1.0
        accuracy_delta = (
            float(new_metrics.get("accuracy", 0.0))
            - float(old_metrics.get("accuracy", 0.0))
        )
        rate_delta = (
            float(new_metrics.get("prediction_rate", 0.0))
            - float(old_metrics.get("prediction_rate", 0.0))
        )
        flags: List[str] = []
        if wall_ratio > 1.0 + wall_tolerance:
            flags.append("perf")
            result.regressions.append(
                f"{variant}/{trace}: wall {old_wall:.2f}s ->"
                f" {new_wall:.2f}s ({_signed_percent(wall_ratio - 1.0)})"
            )
        if accuracy_delta < -accuracy_tolerance:
            flags.append("accuracy")
            result.regressions.append(
                f"{variant}/{trace}: accuracy"
                f" {_signed_pp(accuracy_delta)}pp"
            )
        if rate_delta < -accuracy_tolerance:
            flags.append("rate")
            result.regressions.append(
                f"{variant}/{trace}: prediction rate"
                f" {_signed_pp(rate_delta)}pp"
            )
        if old.get("config_hash") != new.get("config_hash"):
            flags.append("config")
        result.rows.append({
            "variant": variant,
            "trace": trace,
            "wall_ratio": wall_ratio,
            "accuracy_delta": accuracy_delta,
            "rate_delta": rate_delta,
            "flags": flags,
        })
    return result


# ---------------------------------------------------------------------------
# fig5 wall-clock trajectory (BENCH_fig5.json)
# ---------------------------------------------------------------------------

BENCH_SCHEMA_ID = "repro.bench_fig5/v1"

_BENCH_BACKENDS = ("python", "numpy")
_BENCH_ENTRY_KEYS = ("label", "recorded_at", "wall_s", "backend", "jobs")


def check_bench_file(path: Union[str, Path]) -> List[str]:
    """Schema problems in a bench trajectory file; ``[]`` when clean.

    Checked invariants: the schema id, the per-entry required keys and
    value domains, and chronological ``recorded_at`` order — append-only
    history, so a rewritten or reordered file fails the bench CI job.
    """
    try:
        payload = _load_json(path)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path}: {exc}"]
    problems: List[str] = []
    if payload.get("schema") != BENCH_SCHEMA_ID:
        problems.append(
            f"schema is {payload.get('schema')!r}, expected {BENCH_SCHEMA_ID!r}"
        )
    entries = payload.get("entries")
    if not isinstance(entries, list) or not entries:
        return problems + ["entries must be a non-empty list"]
    previous_stamp = ""
    for index, entry in enumerate(entries):
        where = f"entries[{index}]"
        if not isinstance(entry, dict):
            problems.append(f"{where}: not an object")
            continue
        for key in _BENCH_ENTRY_KEYS:
            if key not in entry:
                problems.append(f"{where}: missing {key!r}")
        wall = entry.get("wall_s")
        if not isinstance(wall, (int, float)) or wall <= 0:
            problems.append(f"{where}: wall_s must be positive, got {wall!r}")
        if entry.get("backend") not in _BENCH_BACKENDS:
            problems.append(
                f"{where}: backend must be one of {_BENCH_BACKENDS},"
                f" got {entry.get('backend')!r}"
            )
        jobs = entry.get("jobs")
        if not isinstance(jobs, int) or jobs < 1:
            problems.append(f"{where}: jobs must be a positive int, got {jobs!r}")
        stamp = entry.get("recorded_at")
        if not isinstance(stamp, str) or not stamp:
            problems.append(f"{where}: recorded_at must be an ISO timestamp")
        else:
            # ISO-8601 strings with a fixed UTC suffix order lexically.
            if stamp < previous_stamp:
                problems.append(
                    f"{where}: recorded_at {stamp!r} precedes the previous"
                    f" entry ({previous_stamp!r}); history is append-only"
                )
            previous_stamp = stamp
    return problems


def render_bench_history(path: Union[str, Path]) -> str:
    """The trajectory as a table, with speedups against the seed entry."""
    payload = _load_json(path)
    entries = payload.get("entries", [])
    baseline = entries[0]["wall_s"] if entries else None
    rows = []
    for entry in entries:
        wall = entry["wall_s"]
        rows.append([
            entry["label"],
            entry["recorded_at"][:10],
            entry["backend"],
            entry["jobs"],
            f"{wall:.1f}",
            f"{baseline / wall:.2f}x" if baseline else "-",
            entry.get("note", ""),
        ])
    return format_table(
        ["label", "date", "backend", "jobs", "wall_s", "vs seed", "note"],
        rows,
        title=payload.get("benchmark", "fig5 wall-clock trajectory"),
    )


def bench_regression(
    path: Union[str, Path], tolerance: float = 0.15
) -> Optional[str]:
    """Gate message when the newest entry regressed; ``None`` when clean.

    The newest entry is compared against the *best* earlier run with the
    same backend and worker count — comparing across backends (or serial
    vs parallel) would gate apples against oranges.  ``tolerance`` is the
    allowed fractional slowdown (0.15 = 15%), absorbing host noise.
    """
    entries = _load_json(path).get("entries", [])
    if len(entries) < 2:
        return None
    newest = entries[-1]
    peers = [
        entry["wall_s"]
        for entry in entries[:-1]
        if entry["backend"] == newest["backend"]
        and entry["jobs"] == newest["jobs"]
    ]
    if not peers:
        return None
    best = min(peers)
    if newest["wall_s"] > best * (1.0 + tolerance):
        return (
            f"bench regression: {newest['label']}"
            f" ({newest['backend']}, {newest['jobs']} worker(s)) took"
            f" {newest['wall_s']:.1f}s vs best {best:.1f}s"
            f" (+{(newest['wall_s'] / best - 1.0) * 100:.0f}%,"
            f" tolerance {tolerance * 100:.0f}%)"
        )
    return None


# ---------------------------------------------------------------------------
# Serving SLO reports (benchmarks/loadgen.py output)
# ---------------------------------------------------------------------------

SLO_SCHEMA_ID = "repro.slo_report/v1"


def check_slo_report(path: Union[str, Path]) -> List[str]:
    """Schema problems in a loadgen SLO report; ``[]`` when clean."""
    try:
        payload = _load_json(path)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path}: {exc}"]
    return validate(payload, load_schema(SLO_SCHEMA_PATH))


def render_slo_report(path: Union[str, Path]) -> str:
    """An SLO report as a saturation-curve table plus headline lines."""
    payload = _load_json(path)
    server = payload["server"]
    workload = payload["workload"]
    totals = payload["totals"]
    slo = payload["slo"]
    rows = []
    for step in payload["steps"]:
        latency = step["latency_ms"]
        throughput = step["throughput_lps"]
        rows.append([
            step["concurrency"],
            step["sessions"],
            step["loads"],
            f"{throughput:.0f}" if throughput is not None else "-",
            _ms(latency["p50"]),
            _ms(latency.get("p90")),
            _ms(latency["p99"]),
            step["errors"],
        ])
    table = format_table(
        ["conc", "sessions", "loads", "loads/s", "p50ms", "p90ms",
         "p99ms", "errors"],
        rows,
        title=(
            "serving saturation curve — "
            + (
                f"trace:{workload['trace']}"
                if workload.get("trace")
                else workload["profile"]
            )
            + f"/{workload['mode']} @ {server['host']}:{server['port']}"
        ),
    )
    backends = ", ".join(
        f"{name}={count}"
        for name, count in sorted(totals.get("backends", {}).items())
    ) or "-"
    throughput_lps = slo["throughput_lps"]
    lines = [
        table,
        "",
        (
            f"SLO: p50={_ms(slo['p50_ms'])}ms p99={_ms(slo['p99_ms'])}ms"
            + (
                f" throughput={throughput_lps:.0f} loads/s"
                if throughput_lps is not None
                else " throughput=-"
            )
        ),
        (
            f"totals: sessions={totals['sessions']}"
            f" loads={totals['loads']} errors={totals['errors']}"
            f" dropped={totals['dropped_sessions']}"
            f" rejected={totals.get('rejected_feeds')}"
            f" timeouts={totals.get('timeouts')}"
            f" backends: {backends}"
        ),
    ]
    server_obs = payload.get("server_obs")
    if server_obs:
        wait = server_obs["queue_wait_ms"]
        occupancy = server_obs.get("batch_occupancy_mean")
        lines.append(
            f"server: queue-wait p50={_ms(wait.get('p50'))}ms"
            f" p95={_ms(wait.get('p95'))}ms p99={_ms(wait.get('p99'))}ms"
            f" (n={wait['count']})"
            + (
                f" batch-occupancy={occupancy:.1f}"
                if occupancy is not None else ""
            )
            + (
                f" spans={server_obs['spans_exported']}"
                if server_obs.get("spans_exported") is not None else ""
            )
        )
    return "\n".join(lines)
