#!/usr/bin/env python
"""Load generator and SLO reporter for ``python -m repro serve``.

Drives the prediction server with deterministic fuzz-profile workloads
(:func:`repro.verify.fuzz.generate_events` — the same generator the
differential harness replays, so served content is reproducible from the
seed alone), sweeps a concurrency ramp, and writes a schema-validated
JSON **SLO report**: per-step saturation curve (throughput, latency
p50/p99) plus run totals including the server's own dropped-session
counters.  Usage::

    python benchmarks/loadgen.py --spawn --output slo_report.json
    python benchmarks/loadgen.py --port 8377 --ramp 1,2,4,8 --mode open
    python benchmarks/loadgen.py --spawn --shards 2 --require-zero-drops

``--spawn`` starts a private server subprocess on an ephemeral port and
drains it with SIGTERM afterwards — the CI smoke job's one-liner.  The
report validates against ``repro/obs/slo_report.schema.json``
before it is written; ``python -m repro stats slo report.json`` renders
and re-validates it later.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
sys.path.insert(0, str(SRC))

from repro.serve import protocol  # noqa: E402
from repro.obs.manifest import perf_clock  # noqa: E402
from repro.obs.schema import (  # noqa: E402
    SLO_SCHEMA_PATH,
    load_schema,
    validate,
)
from repro.verify.fuzz import generate_events  # noqa: E402

READY_PREFIX = "repro-serve listening on "
ADMIN_READY_PREFIX = "repro-serve admin on "

#: Per-process memo of replayed trace streams (one .npz read per run).
_TRACE_EVENTS: Dict[str, List[tuple]] = {}


def trace_events(name: str, count: int) -> List[tuple]:
    """Predictor-visible events of a suite/registry trace, cycled to count.

    Replaying an ingested trace through the server uses the exact stream
    the offline evaluators consume (``suites.get_predictor_stream``), so
    served metrics are comparable with engine runs on the same trace.
    """
    base = _TRACE_EVENTS.get(name)
    if base is None:
        from repro.workloads import suites

        base = suites.get_predictor_stream(name).tuples()
        _TRACE_EVENTS[name] = base
    if not base:
        raise SystemExit(f"trace {name!r} has no predictor-visible events")
    events: List[tuple] = []
    while len(events) < count:
        events.extend(base[: count - len(events)])
    return events


def percentile(sorted_values: List[float], q: float) -> Optional[float]:
    """Nearest-rank percentile over an ascending list (None when empty)."""
    if not sorted_values:
        return None
    index = min(len(sorted_values) - 1, round(q * (len(sorted_values) - 1)))
    return sorted_values[int(index)]


def latency_summary(latencies_ms: List[float]) -> Dict[str, Optional[float]]:
    ordered = sorted(latencies_ms)
    return {
        "p50": percentile(ordered, 0.50),
        "p90": percentile(ordered, 0.90),
        "p99": percentile(ordered, 0.99),
        "mean": (sum(ordered) / len(ordered)) if ordered else None,
        "max": ordered[-1] if ordered else None,
    }


@dataclass
class SessionOutcome:
    """One client session's measurements."""

    latencies_ms: List[float] = field(default_factory=list)
    feeds: int = 0
    loads: int = 0
    errors: int = 0
    backend: str = ""
    finished: bool = False


class Client:
    """One connection = one session, strict request/response framing."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None
        self.frames = protocol.FrameReader()

    async def connect(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def rpc(self, frame: bytes) -> Dict[str, Any]:
        assert self.reader is not None and self.writer is not None
        self.writer.write(frame)
        await self.writer.drain()
        while True:
            data = await self.reader.read(65536)
            if not data:
                raise ConnectionError("server closed the connection")
            for _kind, payload in self.frames.push(data):
                return protocol.decode_json(payload)

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass


async def run_session(
    args: argparse.Namespace,
    port: int,
    session_index: int,
    rate_per_session: Optional[float],
) -> SessionOutcome:
    """Open → feed xN → finish, measuring per-feed round-trip latency.

    Closed loop awaits each response before the next feed; open loop
    sends on a fixed schedule, so queueing delay shows up as latency.
    """
    outcome = SessionOutcome()
    total_events = args.events_per_feed * args.feeds_per_session
    if args.trace:
        events = trace_events(args.trace, total_events)
    else:
        events = generate_events(
            args.profile, args.seed + session_index, total_events,
        )
    chunks = [
        events[i : i + args.events_per_feed]
        for i in range(0, len(events), args.events_per_feed)
    ]
    client = Client(args.host, port)
    try:
        await client.connect()
        opened = await client.rpc(protocol.encode_json({
            "type": "open",
            "factory": args.factory,
            "variant": f"loadgen-{session_index}",
            "trace": f"lg{args.seed}-{session_index}",
        }))
        if opened.get("type") != "opened":
            outcome.errors += 1
            return outcome
        started = perf_clock()
        for feed_index, chunk in enumerate(chunks):
            if rate_per_session:
                due = started + feed_index / rate_per_session
                delay = due - perf_clock()
                if delay > 0:
                    await asyncio.sleep(delay)
            sent = perf_clock()
            response = await client.rpc(protocol.encode_events(chunk))
            elapsed_ms = (perf_clock() - sent) * 1000.0
            if response.get("type") != "predictions":
                outcome.errors += 1
                continue
            outcome.latencies_ms.append(elapsed_ms)
            outcome.feeds += 1
            outcome.loads += int(response.get("count") or 0)
        finish = await client.rpc(protocol.encode_json({"type": "finish"}))
        if finish.get("type") == "metrics":
            outcome.finished = True
            outcome.backend = str(finish.get("backend") or "")
        else:
            outcome.errors += 1
    except (ConnectionError, OSError, protocol.ProtocolError):
        outcome.errors += 1
    finally:
        await client.close()
    return outcome


async def run_step(
    args: argparse.Namespace, port: int, concurrency: int
) -> Dict[str, Any]:
    """One ramp step: ``concurrency`` sessions in flight at once."""
    rate_per_session = (
        args.rate / concurrency if args.mode == "open" and args.rate else None
    )
    started = perf_clock()
    outcomes = await asyncio.gather(*(
        run_session(args, port, concurrency * 1000 + i, rate_per_session)
        for i in range(concurrency)
    ))
    duration_s = perf_clock() - started
    latencies = [ms for o in outcomes for ms in o.latencies_ms]
    loads = sum(o.loads for o in outcomes)
    feeds = sum(o.feeds for o in outcomes)
    return {
        "concurrency": concurrency,
        "sessions": sum(1 for o in outcomes if o.finished),
        "feeds": feeds,
        "loads": loads,
        "errors": sum(o.errors for o in outcomes),
        "duration_s": duration_s,
        "throughput_lps": loads / duration_s if duration_s > 0 else None,
        "throughput_feeds_per_s": (
            feeds / duration_s if duration_s > 0 else None
        ),
        "latency_ms": latency_summary(latencies),
        "_backends": [o.backend for o in outcomes if o.backend],
        "_latencies": latencies,
    }


async def fetch_server_stats(
    host: str, port: int
) -> Optional[Dict[str, Any]]:
    client = Client(host, port)
    try:
        await client.connect()
        stats = await client.rpc(protocol.encode_json({"type": "stats"}))
        return stats if stats.get("type") == "stats" else None
    except (ConnectionError, OSError):
        return None
    finally:
        await client.close()


async def run_ramp(args: argparse.Namespace, port: int) -> Dict[str, Any]:
    steps: List[Dict[str, Any]] = []
    for concurrency in args.ramp_steps:
        step = await run_step(args, port, concurrency)
        print(
            f"  step c={concurrency}: {step['loads']} loads in"
            f" {step['duration_s']:.2f}s"
            f" p50={_fmt_ms(step['latency_ms']['p50'])}"
            f" p99={_fmt_ms(step['latency_ms']['p99'])}"
            f" errors={step['errors']}",
            flush=True,
        )
        steps.append(step)
    server_stats = await fetch_server_stats(args.host, port)

    all_latencies = sorted(
        ms for step in steps for ms in step.pop("_latencies")
    )
    backends: Dict[str, int] = {}
    for step in steps:
        for backend in step.pop("_backends"):
            backends[backend] = backends.get(backend, 0) + 1
    total_loads = sum(step["loads"] for step in steps)
    total_duration = sum(step["duration_s"] for step in steps)
    report = {
        "schema": "repro.slo_report/v1",
        "server": {
            "host": args.host,
            "port": port,
            "spawned": bool(args.spawn),
            "shards": args.shards if args.spawn else None,
            "backend": args.backend,
        },
        "workload": {
            "profile": args.profile,
            "trace": args.trace,
            "seed": args.seed,
            "mode": args.mode,
            "events_per_feed": args.events_per_feed,
            "feeds_per_session": args.feeds_per_session,
            "rate_per_s": args.rate if args.mode == "open" else None,
            "factory": args.factory,
        },
        "steps": steps,
        "totals": {
            "sessions": sum(step["sessions"] for step in steps),
            "feeds": sum(step["feeds"] for step in steps),
            "loads": total_loads,
            "errors": sum(step["errors"] for step in steps),
            "dropped_sessions": (
                server_stats.get("sessions_dropped")
                if server_stats else None
            ),
            "rejected_feeds": (
                server_stats.get("rejected_feeds") if server_stats else None
            ),
            "timeouts": (
                server_stats.get("timeouts") if server_stats else None
            ),
            "kernel_feeds": (
                server_stats.get("kernel_feeds") if server_stats else None
            ),
            "backends": backends,
        },
        "slo": {
            "p50_ms": percentile(all_latencies, 0.50),
            "p99_ms": percentile(all_latencies, 0.99),
            "throughput_lps": (
                total_loads / total_duration if total_duration > 0 else None
            ),
        },
    }
    return report


def _fmt_ms(value: Optional[float]) -> str:
    return f"{value:.1f}ms" if value is not None else "n/a"


def spawn_server(
    args: argparse.Namespace,
) -> Tuple[subprocess.Popen, int, Optional[int]]:
    """Start a private server subprocess.

    Returns (process, data port, admin port) — the admin port is None
    unless ``--admin`` asked for the observability endpoint.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    command = [
        sys.executable, "-m", "repro", "serve",
        "--host", args.host, "--port", "0",
        "--shards", str(args.shards),
        "--queue-depth", str(args.queue_depth),
    ]
    if args.admin:
        command += ["--admin-port", "0"]
    if args.backend:
        command += ["--backend", args.backend]
    if args.telemetry_dir:
        command += ["--telemetry", "--telemetry-dir", args.telemetry_dir]
    if args.flight_dir:
        command += ["--flight-dir", args.flight_dir]
    process = subprocess.Popen(
        command, cwd=REPO_ROOT, env=env,
        stdout=subprocess.PIPE, text=True,
    )
    assert process.stdout is not None
    line = process.stdout.readline()
    if not line.startswith(READY_PREFIX):
        process.kill()
        raise RuntimeError(f"server did not come up (got {line!r})")
    port = int(line.rsplit(":", 1)[1])
    admin_port: Optional[int] = None
    if args.admin:
        line = process.stdout.readline()
        if not line.startswith(ADMIN_READY_PREFIX):
            process.kill()
            raise RuntimeError(f"no admin ready line (got {line!r})")
        admin_port = int(line.rsplit(":", 1)[1])
    return process, port, admin_port


def collect_server_obs(
    args: argparse.Namespace, admin_port: int
) -> Optional[Dict[str, Any]]:
    """Scrape the admin endpoint into the report's ``server_obs`` section.

    Joins the client-side percentiles with the server's own queue-wait
    histogram (how long feeds sat in the batching queue before running),
    and optionally exports the span buffer as a Chrome trace-event file
    whose ``trace`` args carry the loadgen-minted ``lg<seed>-<n>`` IDs.
    """
    from repro.obs.admin import fetch_admin
    from repro.obs.metrics import histogram_percentile
    from repro.obs.tracing import validate_trace_export

    try:
        answer = fetch_admin(args.host, admin_port, "metrics")
    except (ConnectionError, OSError, protocol.ProtocolError) as exc:
        print(f"admin scrape failed: {exc}", file=sys.stderr)
        return None
    snapshot = answer.get("metrics") or {}
    histograms = snapshot.get("histograms") or {}
    counters = snapshot.get("counters") or {}

    wait = histograms.get("serve.queue.wait_s")
    queue_wait_ms: Dict[str, Any] = {
        "count": 0, "mean": None, "p50": None, "p95": None, "p99": None,
    }
    if wait and wait.get("count"):
        count = int(wait["count"])
        queue_wait_ms = {
            "count": count,
            "mean": float(wait["sum"]) / count * 1000.0,
        }
        for name, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
            edge = histogram_percentile(wait, q)
            queue_wait_ms[name] = None if edge is None else edge * 1000.0

    occupancy = histograms.get("serve.batch.occupancy")
    occupancy_mean = None
    if occupancy and occupancy.get("count"):
        occupancy_mean = (
            float(occupancy["sum"]) / int(occupancy["count"])
        )

    errors = {
        name[len("serve.errors."):]: int(value)
        for name, value in counters.items()
        if name.startswith("serve.errors.")
    }

    spans_exported: Optional[int] = None
    if args.trace_export:
        try:
            spans = fetch_admin(args.host, admin_port, "spans")
        except (ConnectionError, OSError, protocol.ProtocolError) as exc:
            print(f"span export failed: {exc}", file=sys.stderr)
        else:
            document = {
                "displayTimeUnit": spans.get("displayTimeUnit") or "ms",
                "traceEvents": spans.get("traceEvents") or [],
            }
            problems = validate_trace_export(document)
            if problems:
                for problem in problems:
                    print(f"trace schema: {problem}", file=sys.stderr)
            else:
                Path(args.trace_export).write_text(
                    json.dumps(document, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8",
                )
                spans_exported = len(document["traceEvents"])
                print(f"wrote {args.trace_export}"
                      f" ({spans_exported} spans)")

    return {
        "admin_port": admin_port,
        "queue_wait_ms": queue_wait_ms,
        "batch_occupancy_mean": occupancy_mean,
        "sessions_dropped": int(
            counters.get("serve.sessions.dropped") or 0
        ),
        "errors": errors,
        "spans_exported": spans_exported,
    }


def drain_server(process: subprocess.Popen) -> str:
    """SIGTERM the spawned server and return its drain line."""
    process.send_signal(signal.SIGTERM)
    try:
        stdout, _ = process.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        process.kill()
        stdout, _ = process.communicate()
    return (stdout or "").strip()


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    target = parser.add_argument_group("target")
    target.add_argument("--host", default="127.0.0.1")
    target.add_argument("--port", type=int, default=8377,
                        help="server port (ignored with --spawn)")
    target.add_argument("--spawn", action="store_true",
                        help="start a private server subprocess on an"
                             " ephemeral port and drain it afterwards")
    target.add_argument("--shards", type=int, default=0,
                        help="shards for the spawned server")
    target.add_argument("--queue-depth", type=int, default=64,
                        help="queue depth for the spawned server")
    target.add_argument("--backend", choices=("python", "numpy"),
                        default=None,
                        help="backend for the spawned server")
    target.add_argument("--telemetry-dir", default=None, metavar="DIR",
                        help="enable serve manifests in the spawned server")
    target.add_argument("--admin", action="store_true",
                        help="give the spawned server an admin endpoint"
                             " and scrape it into the report")
    target.add_argument("--admin-port", type=int, default=None,
                        metavar="PORT",
                        help="admin endpoint of an already-running server"
                             " (implied by --spawn --admin)")
    target.add_argument("--flight-dir", default=None, metavar="DIR",
                        help="flight-recorder postmortem directory for the"
                             " spawned server")

    workload = parser.add_argument_group("workload")
    workload.add_argument("--profile", default="mixed",
                          help="fuzz workload profile (see repro.verify"
                               ".fuzz)")
    workload.add_argument("--trace", default=None, metavar="NAME",
                          help="replay a suite/registry trace's predictor"
                               " stream instead of fuzz-profile events")
    workload.add_argument("--seed", type=int, default=0)
    workload.add_argument("--factory", default="hybrid",
                          help="predictor factory served sessions use")
    workload.add_argument("--events-per-feed", type=int, default=500)
    workload.add_argument("--feeds-per-session", type=int, default=4)
    workload.add_argument("--mode", choices=("closed", "open"),
                          default="closed")
    workload.add_argument("--rate", type=float, default=50.0,
                          help="open-loop total feed rate per second")
    workload.add_argument("--ramp", default="1,2,4",
                          help="comma-separated concurrency steps")

    out = parser.add_argument_group("report")
    out.add_argument("--output", metavar="FILE", default=None,
                     help="write the SLO report JSON here")
    out.add_argument("--require-zero-drops", action="store_true",
                     help="exit 1 unless the server reports zero dropped"
                          " sessions and the run saw zero errors")
    out.add_argument("--trace-export", metavar="FILE", default=None,
                     help="write the server's span buffer here as Chrome"
                          " trace-event JSON (needs the admin endpoint)")
    out.add_argument("--require-server-obs", action="store_true",
                     help="exit 1 unless the admin scrape succeeded and"
                          " the server observed queue waits")
    args = parser.parse_args(argv)
    args.ramp_steps = [
        int(part) for part in str(args.ramp).split(",") if part.strip()
    ]
    if not args.ramp_steps or any(c < 1 for c in args.ramp_steps):
        parser.error(f"bad --ramp {args.ramp!r}")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    process: Optional[subprocess.Popen] = None
    port = args.port
    admin_port = args.admin_port
    if args.spawn:
        process, port, spawned_admin = spawn_server(args)
        if spawned_admin is not None:
            admin_port = spawned_admin
        print(f"spawned server pid={process.pid} port={port}"
              + (f" admin={admin_port}" if admin_port else ""),
              flush=True)
    try:
        report = asyncio.run(run_ramp(args, port))
        report["server_obs"] = (
            collect_server_obs(args, admin_port)
            if admin_port is not None else None
        )
    finally:
        if process is not None:
            drain_line = drain_server(process)
            if drain_line:
                print(drain_line.splitlines()[-1], flush=True)

    problems = validate(report, load_schema(SLO_SCHEMA_PATH))
    if problems:
        for problem in problems:
            print(f"schema: {problem}", file=sys.stderr)
        return 2

    slo = report["slo"]
    totals = report["totals"]
    print(
        f"SLO: p50={_fmt_ms(slo['p50_ms'])} p99={_fmt_ms(slo['p99_ms'])}"
        f" throughput={slo['throughput_lps'] and round(slo['throughput_lps'])}"
        f" loads/s | sessions={totals['sessions']}"
        f" errors={totals['errors']}"
        f" dropped={totals['dropped_sessions']}"
    )
    server_obs = report.get("server_obs")
    if server_obs:
        wait = server_obs["queue_wait_ms"]
        print(
            f"server: queue-wait p50={_fmt_ms(wait['p50'])}"
            f" p95={_fmt_ms(wait['p95'])} p99={_fmt_ms(wait['p99'])}"
            f" (n={wait['count']})"
            f" dropped={server_obs['sessions_dropped']}"
        )
    if args.output:
        Path(args.output).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {args.output}")
    if args.require_zero_drops:
        dropped = totals["dropped_sessions"]
        if dropped is None:
            print("server stats unavailable: cannot assert zero drops",
                  file=sys.stderr)
            return 1
        if dropped or totals["errors"]:
            print(
                f"SLO gate failed: dropped={dropped}"
                f" errors={totals['errors']}",
                file=sys.stderr,
            )
            return 1
    if args.require_server_obs:
        if not server_obs or not server_obs["queue_wait_ms"]["count"]:
            print("server obs gate failed: no admin scrape or empty"
                  " queue-wait histogram", file=sys.stderr)
            return 1
        if args.trace_export and not server_obs["spans_exported"]:
            print("server obs gate failed: empty or invalid trace export",
                  file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
