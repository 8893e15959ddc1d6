"""The ``serve-stream`` workload: a spawned ``python -m repro serve``.

Sessions open with the hybrid factory and each replays one quick-roster
trace's whole predictor stream in fixed-size feeds, one session per
connection, at most two connections at a time from this one process:

* **Closed loop**: two clients each send their next feed when the
  previous answer is back, serving every roster stream once per pass.
* **Open loop** over a ladder of fixed feed rates.  Feeds are due at
  even intervals from a seeded start phase and are written at their due
  time whether or not earlier answers are back (the protocol answers a
  connection's frames in order), so a stall delays every later feed.
  Each feed is timed from its due time.  The base rate runs first, on
  the fresh server; the higher rates run after the closed-loop passes,
  stopping at the first step whose p90 misses the latency limit or that
  ends with a growing backlog.

Every answered feed's records are compared with the records an
in-process :class:`repro.serve.session.PredictorSession` gives for the
same chunk of the same stream, and the offline records with the digests
recorded in ``digests.json``.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple

import proc
import stats

#: Per-trace instruction budget of the served streams.
INSTRUCTIONS = 25_000
#: Events per feed.  Small enough that a step of 100+ feeds (the fewest
#: that support a p90) fits in a couple of seconds at the ladder's rates.
FEED_EVENTS = 512
FACTORY = "hybrid"
CONNECTIONS = 2
#: p90 feed latency a ladder step must stay under.
LATENCY_LIMIT_MS = 50.0
#: Offered feed rates (feeds/s); the first is the base rate whose
#: feed latency percentiles are reported (``loadgen.feed_p50_ms``/``_p90_ms``).
LADDER_FPS = (40.0, 60.0, 90.0, 135.0, 200.0)
#: Feeds at the base rate, and per later ladder step (100 support a p90).
BASE_FEEDS = 200
STEP_FEEDS = 120
#: Run seconds per closed-loop pass.  The pass count is fixed by
#: ``--seconds`` alone (not by elapsed time), so every run serves the same
#: work before the server's peak RSS is read.
SECONDS_PER_PASS = 5.0
#: Seconds to wait for the answers of a step after its last send.
DRAIN_S = 30.0


@dataclass
class StreamRef:
    """One roster trace's stream, chunked and encoded, with offline truth."""

    name: str
    frames: List[bytes]
    #: Offline records digest per feed (the served ones must match).
    digests: List[str]
    #: In-process ``PredictorSession.feed`` time per feed, ms.
    feed_ms: List[float]
    encode_ms: List[float]


def load_streams(roster: List[str]) -> Tuple[Dict[str, StreamRef], float]:
    """Chunk, encode and replay every roster stream in-process.

    Returns the streams and the wall time of the replay.  The replay is
    the offline reference for the served records; under a
    :class:`layers.LayerClock` it is also the traced run of this workload.
    """
    from repro.serve import protocol
    from repro.serve.session import PredictorSession, SessionConfig
    from repro.workloads import suites

    streams: Dict[str, StreamRef] = {}
    started = time.perf_counter()
    for name in roster:
        events = suites.get_predictor_stream(name, INSTRUCTIONS).tuples()
        chunks = [events[i:i + FEED_EVENTS]
                  for i in range(0, len(events), FEED_EVENTS)]
        ref = StreamRef(name, [], [], [], [])
        session = PredictorSession(SessionConfig(factory=FACTORY, trace=name))
        for chunk in chunks:
            t0 = time.perf_counter()
            records = session.feed(chunk)
            t1 = time.perf_counter()
            ref.feed_ms.append((t1 - t0) * 1000.0)
            ref.digests.append(stats.records_digest(records))
            t2 = time.perf_counter()
            ref.frames.append(protocol.encode_events(chunk))
            ref.encode_ms.append((time.perf_counter() - t2) * 1000.0)
        session.finish()
        streams[name] = ref
    return streams, time.perf_counter() - started


# ---------------------------------------------------------------------------
# Client connections
# ---------------------------------------------------------------------------

Answer = Tuple[float, int, bytes]


class Connection:
    """One client connection; answers resolve futures in send order."""

    def __init__(self) -> None:
        from repro.serve import protocol

        self.protocol = protocol
        self.frames = protocol.FrameReader()
        self.pending: Deque["asyncio.Future[Answer]"] = deque()
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None
        self._task: Optional["asyncio.Task[None]"] = None

    async def connect(self, port: int) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", port
        )
        self._task = asyncio.ensure_future(self._read_loop())

    def send(self, frame: bytes) -> "asyncio.Future[Answer]":
        """Write one frame; the future gets (arrival time, kind, payload)."""
        assert self.writer is not None
        future: "asyncio.Future[Answer]" = (
            asyncio.get_running_loop().create_future()
        )
        self.pending.append(future)
        self.writer.write(frame)
        return future

    async def request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        _, _, payload = await self.send(self.protocol.encode_json(message))
        return self.protocol.decode_json(payload)

    async def _read_loop(self) -> None:
        assert self.reader is not None
        error: Exception = ConnectionError("server closed the connection")
        try:
            while True:
                data = await self.reader.read(1 << 16)
                if not data:
                    break
                now = time.perf_counter()
                for kind, payload in self.frames.push(data):
                    if not self.pending:
                        raise self.protocol.ProtocolError("unrequested answer")
                    future = self.pending.popleft()
                    if not future.done():
                        future.set_result((now, kind, payload))
        except (OSError, self.protocol.ProtocolError) as exc:
            error = exc
        while self.pending:
            future = self.pending.popleft()
            if not future.done():
                future.set_exception(error)

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        if self._task is not None:
            await self._task


@dataclass
class Feed:
    """One sent feed and its outcome."""

    stream: StreamRef
    index: int
    due: float
    sent: float = 0.0
    done: Optional[float] = None
    payload: bytes = b""
    ok: bool = False
    #: The session's trace id (the server's spans carry it too).
    trace: str = ""


class SessionCursor:
    """One client's session stream: a connection per session, as the
    protocol allows one session per connection.

    A session's ``open`` and ``finish`` are written without waiting, in
    line with its feeds; their answers are checked by :meth:`settle`.
    """

    def __init__(self, port: int, tag: str, assign: "Assigner") -> None:
        self.port = port
        self.tag = tag
        self.assign = assign
        self.conn: Optional[Connection] = None
        self.stream: Optional[StreamRef] = None
        self.trace = ""
        self.next = 0
        self.retired: List[Connection] = []
        self.controls: List["asyncio.Future[Answer]"] = []

    async def next_feed(self) -> Tuple[Connection, StreamRef, int]:
        """The next chunk to send, finishing/opening sessions as needed."""
        if self.stream is not None and self.next >= len(self.stream.frames):
            self.finish()
        if self.stream is None or self.conn is None:
            self.conn = Connection()
            await self.conn.connect(self.port)
            self.stream = self.assign.next_stream()
            self.trace = f"{self.tag}-{self.assign.opened}"
            self.next = 0
            self.controls.append(self.conn.send(self.conn.protocol.encode_json({
                "type": "open", "factory": FACTORY, "variant": "perfbench",
                "trace": self.trace,
            })))
        index = self.next
        self.next += 1
        return self.conn, self.stream, index

    def finish(self) -> None:
        if self.conn is not None and self.stream is not None:
            self.controls.append(self.conn.send(
                self.conn.protocol.encode_json({"type": "finish"})
            ))
            self.retired.append(self.conn)
        self.conn = None
        self.stream = None

    async def settle(self) -> int:
        """Await open/finish answers, close finished connections; returns
        the number of control messages that failed."""
        from repro.serve import protocol

        failed = 0
        for future in self.controls:
            try:
                _, _, payload = await asyncio.wait_for(future, DRAIN_S)
                answer = protocol.decode_json(payload)
            except (ConnectionError, OSError, asyncio.TimeoutError,
                    protocol.ProtocolError):
                failed += 1
                continue
            if answer.get("type") not in ("opened", "metrics"):
                failed += 1
        self.controls.clear()
        for conn in self.retired:
            await conn.close()
        self.retired.clear()
        return failed


class Assigner:
    """The seeded session-to-trace assignment (cycles a shuffled roster)."""

    def __init__(self, streams: Dict[str, StreamRef], rng: random.Random):
        self.order = list(streams.values())
        rng.shuffle(self.order)
        self.opened = 0

    def next_stream(self) -> StreamRef:
        stream = self.order[self.opened % len(self.order)]
        self.opened += 1
        return stream


# ---------------------------------------------------------------------------
# Phases
# ---------------------------------------------------------------------------

@dataclass
class Step:
    rate_fps: float
    feeds: List[Feed]
    backlog: int
    verdict: Optional[stats.StepVerdict] = None

    def latencies_ms(self) -> List[float]:
        return stats.due_latencies_ms(
            [f.due for f in self.feeds],
            [f.done if f.ok else None for f in self.feeds],
        )


async def open_loop_step(
    cursors: List[SessionCursor], rate: float, count: int, rng: random.Random,
) -> Step:
    """Send ``count`` feeds due every ``1/rate`` s from a seeded phase."""
    start = time.perf_counter() + 0.05 + rng.uniform(0.0, 1.0 / rate)
    feeds: List[Feed] = []
    futures: List["asyncio.Future[Answer]"] = []
    for i in range(count):
        due = start + i / rate
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        cursor = cursors[i % len(cursors)]
        conn, stream, index = await cursor.next_feed()
        feed = Feed(stream, index, due, sent=time.perf_counter(),
                    trace=cursor.trace)
        futures.append(conn.send(stream.frames[index]))
        feeds.append(feed)
    backlog = sum(1 for future in futures if not future.done())
    if futures:
        await asyncio.wait(futures, timeout=DRAIN_S)
    for feed, future in zip(feeds, futures):
        if future.done() and future.exception() is None:
            feed.done, _, feed.payload = future.result()
        else:
            future.cancel()
    return Step(rate, feeds, backlog)


async def closed_loop_pass(
    port: int, tag: str, streams: Dict[str, StreamRef], rng: random.Random,
) -> Tuple[float, List[Feed], int]:
    """Serve every roster stream once over ``CONNECTIONS`` clients that
    each wait for an answer before the next feed; returns (wall, feeds,
    failed control messages)."""
    queue = list(streams.values())
    rng.shuffle(queue)
    feeds: List[Feed] = []
    bad_controls = [0]

    async def client() -> None:
        while queue:
            stream = queue.pop()
            conn = Connection()
            await conn.connect(port)
            try:
                opened = await conn.request({
                    "type": "open", "factory": FACTORY, "variant": "perfbench",
                    "trace": f"{tag}-{stream.name}",
                })
                if opened.get("type") != "opened":
                    bad_controls[0] += 1
                for index, frame in enumerate(stream.frames):
                    feed = Feed(stream, index, time.perf_counter())
                    feed.sent = feed.due
                    try:
                        feed.done, _, feed.payload = await asyncio.wait_for(
                            conn.send(frame), DRAIN_S
                        )
                    except (ConnectionError, OSError, asyncio.TimeoutError):
                        pass
                    feeds.append(feed)
                finished = await conn.request({"type": "finish"})
                if finished.get("type") != "metrics":
                    bad_controls[0] += 1
            finally:
                await conn.close()

    started = time.perf_counter()
    await asyncio.gather(*(client() for _ in range(CONNECTIONS)))
    return time.perf_counter() - started, feeds, bad_controls[0]


def check_feeds(feeds: List[Feed]) -> Tuple[List[str], List[float], int, int]:
    """Decode answers and compare records with the offline digests.

    Returns (problems, decode ms per feed, answered loads, answer bytes).
    """
    from repro.serve import protocol

    problems: List[str] = []
    decode_ms: List[float] = []
    loads = size = 0
    for feed in feeds:
        if feed.done is None:
            problems.append(f"{feed.stream.name}#{feed.index}: no answer")
            continue
        t0 = time.perf_counter()
        try:
            answer = protocol.decode_json(feed.payload)
        except protocol.ProtocolError as error:
            problems.append(f"{feed.stream.name}#{feed.index}: {error}")
            continue
        decode_ms.append((time.perf_counter() - t0) * 1000.0)
        if answer.get("type") != "predictions":
            problems.append(
                f"{feed.stream.name}#{feed.index}: {answer.get('code')}"
                f" {answer.get('detail')}"
            )
            continue
        digest = stats.records_digest(answer["records"])
        if digest != feed.stream.digests[feed.index]:
            problems.append(
                f"{feed.stream.name}#{feed.index}: served records differ"
                f" from the offline session's"
            )
            continue
        feed.ok = True
        loads += len(answer["records"])
        size += len(feed.payload)
        feed.payload = b""
    return problems, decode_ms, loads, size


@dataclass
class ServeRun:
    """Everything the two phases measured."""

    steps: List[Step] = field(default_factory=list)
    passes: List[float] = field(default_factory=list)
    #: Server CPU seconds per closed-loop pass.
    pass_cpu: List[float] = field(default_factory=list)
    pass_loads: int = 0
    closed_feeds: List[Feed] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    decode_ms: List[float] = field(default_factory=list)
    answer_bytes: int = 0
    answer_loads: int = 0
    controls_failed: int = 0
    server_stats: Dict[str, Any] = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    #: Admin endpoint scrape at the end (traced runs).
    admin_end: Optional[Dict[str, Any]] = None

    @property
    def open_feeds(self) -> List[Feed]:
        return [feed for step in self.steps for feed in step.feeds]

    def rate_at_slo(self) -> float:
        return stats.rate_at_slo([s.verdict for s in self.steps if s.verdict])


async def drive(
    server: Any, streams: Dict[str, StreamRef], seed: int, seconds: float,
) -> ServeRun:
    """The base rate, closed-loop passes, then the rest of the ladder.

    The base step runs first, on the freshly started server.  The server's
    peak RSS is read before the ladder's higher rates, so it covers the
    same work on every run and not the overload step, whose queue depends
    on where the ladder stops.
    """
    rng = random.Random(seed)
    run = ServeRun()
    port = server.port
    assign = Assigner(streams, rng)
    step = await _open_loop(run, port, assign, seed, LADDER_FPS[0],
                            BASE_FEEDS, rng)
    run.steps.append(step)
    for _ in range(max(2, round(seconds / SECONDS_PER_PASS) - 1)):
        cpu_before = server.cpu_s()
        wall, feeds, bad_controls = await closed_loop_pass(
            port, f"pb{seed}-closed{len(run.passes)}", streams, rng
        )
        run.pass_cpu.append(server.cpu_s() - cpu_before)
        run.controls_failed += bad_controls
        problems, _, loads, _ = check_feeds(feeds)
        run.problems.extend(problems)
        run.passes.append(wall)
        run.pass_loads = loads
        run.closed_feeds.extend(feeds)
        if problems or bad_controls:
            break
    run.peak_rss_mb = server.high_water_mb()
    for rate in LADDER_FPS[1:]:
        if not run.steps[-1].verdict.passed:
            break
        run.steps.append(
            await _open_loop(run, port, assign, seed, rate, STEP_FEEDS, rng)
        )
    stats_conn = Connection()
    await stats_conn.connect(port)
    run.server_stats = await stats_conn.request({"type": "stats"})
    await stats_conn.close()
    if server.admin_port is not None:
        run.admin_end = _scrape(server.admin_port)
    return run


async def _open_loop(
    run: ServeRun, port: int, assign: Assigner, seed: int, rate: float,
    count: int, rng: random.Random,
) -> Step:
    """One open-loop stretch on fresh sessions, checked and accounted."""
    cursors = [SessionCursor(port, f"pb{seed}-c{i}", assign)
               for i in range(CONNECTIONS)]
    step = await open_loop_step(cursors, rate, count, rng)
    for cursor in cursors:
        cursor.finish()
        run.controls_failed += await cursor.settle()
    problems, decode_ms, loads, size = check_feeds(step.feeds)
    run.problems.extend(problems)
    run.decode_ms.extend(decode_ms)
    run.answer_loads += loads
    run.answer_bytes += size
    step.verdict = stats.judge_step(
        rate, step.latencies_ms(), step.backlog, LATENCY_LIMIT_MS, CONNECTIONS,
    )
    return step


def _scrape(admin_port: int) -> Dict[str, Any]:
    from repro.obs.admin import fetch_admin

    return {
        "metrics": fetch_admin("127.0.0.1", admin_port, "metrics")["metrics"],
        "spans": fetch_admin("127.0.0.1", admin_port, "spans"),
    }


# ---------------------------------------------------------------------------
# Workload entry points
# ---------------------------------------------------------------------------

def _setup(runner: Any, env: Dict[str, str], admin: bool, keep: bool):
    """Traces into an empty cache, then a server to its ready line."""
    gen_s, _ = runner.setup()
    server = proc.Server(env, admin=admin)
    if not keep:
        server.stop()
    return gen_s + server.ready_s, server


def _percentiles(values: List[float]) -> Tuple[stats.Percentile, stats.Percentile]:
    return stats.percentile(values, 0.50), stats.percentile(values, 0.90)


def _run_phases(server: Any, streams: Dict[str, StreamRef], seed: int,
                seconds: float) -> ServeRun:
    # A private loop rather than asyncio.run(): on this workload the
    # latter's teardown transiently reserved gigabytes of memory.
    loop = asyncio.new_event_loop()
    try:
        return loop.run_until_complete(drive(server, streams, seed, seconds))
    finally:
        loop.close()
        server.stop()


def _common(run: ServeRun, replay_problems: List[str]) -> Dict[str, Any]:
    """attempted/failed and the human-readable lines shared by both runs."""
    feeds = run.open_feeds + run.closed_feeds
    failed = sum(1 for feed in feeds if not feed.ok) + run.controls_failed
    problems = replay_problems + run.problems
    if run.controls_failed:
        problems.append(f"{run.controls_failed} open/finish messages failed")
    base = run.steps[0]
    p50, p90 = _percentiles(base.latencies_ms())
    lag = [(f.sent - f.due) * 1000.0 for f in run.open_feeds]
    lag50, lag90 = _percentiles(lag)
    served = run.pass_loads / stats.median(run.passes)
    lines = [p50.label(f"feed_p50_ms@{base.rate_fps:g}fps", "ms"),
             p90.label(f"feed_p90_ms@{base.rate_fps:g}fps", "ms")]
    for step in run.steps:
        verdict = step.verdict
        assert verdict is not None
        p = verdict.p90
        lines.append(
            f"ladder {step.rate_fps:g} fps: "
            + (p.label("p90", "ms") if p else "p90 n/a")
            + f" backlog={step.backlog} -> {verdict.reason}"
        )
    lines += [
        f"rate_at_slo_fps={run.rate_at_slo():g} feeds/s"
        f" (limit p90 <= {LATENCY_LIMIT_MS:g} ms)",
        lag50.label("loadgen.lag_p50", "ms"), lag90.label("loadgen.lag_p90", "ms"),
        f"closed-loop passes: {', '.join(f'{w:.3f}' for w in run.passes)} s"
        f" ({run.pass_loads} loads each); server CPU"
        f" {', '.join(f'{c:.2f}' for c in run.pass_cpu)} s",
        f"served_loads_per_s={served:.1f} loads/s",
        f"server stats: {json.dumps(run.server_stats, sort_keys=True)}",
    ]
    return {
        "attempted": len(feeds) + run.controls_failed,
        "failed": failed,
        "problems": problems,
        "lines": lines,
        "p50": p50, "p90": p90, "lag": (lag50, lag90),
    }


def feed_digests(feeds: Dict[str, List[str]]) -> Dict[str, str]:
    """Per-stream feed digest lists, keyed ``<trace>#<feed>``."""
    return {
        f"{name}#{i}": digest
        for name, digests in feeds.items()
        for i, digest in enumerate(digests)
    }


def _check_replay(streams: Dict[str, StreamRef], recorded: Dict[str, Any]) -> List[str]:
    """The offline records against the digests recorded for the workload."""
    return stats.digest_mismatches(
        feed_digests(recorded.get("feeds", {})),
        feed_digests({name: ref.digests for name, ref in streams.items()}),
    )


def measure(runner: Any, env: Dict[str, str], recorded: Dict[str, Any],
            roster: List[str], seed: int, seconds: float) -> Dict[str, Any]:
    """The untraced run: end-to-end metrics of ``serve-stream``."""
    import grids

    setups = []
    server = None
    for repeat in range(grids.SETUP_REPEATS):
        setup_s, server = _setup(runner, env, admin=False,
                                 keep=repeat == grids.SETUP_REPEATS - 1)
        setups.append(setup_s)
    assert server is not None
    try:
        streams, _ = load_streams(roster)
    except BaseException:
        server.stop()
        raise
    run = _run_phases(server, streams, seed, seconds)
    common = _common(run, _check_replay(streams, recorded))
    return {
        "metrics": {
            "grid_s": stats.median(run.passes),
            "setup_s": stats.median(setups),
            "peak_rss_mb": run.peak_rss_mb,
        },
        "attempted": common["attempted"],
        "failed": common["failed"],
        "problems": common["problems"],
        "lines": [f"setup: {', '.join(f'{s:.3f}' for s in setups)} s"
                  f" (median of {len(setups)})"] + common["lines"],
    }


def measure_layers(runner: Any, env: Dict[str, str], recorded: Dict[str, Any],
                   roster: List[str], seed: int, seconds: float) -> Dict[str, Any]:
    """The traced run: per-layer metrics of ``serve-stream``."""
    import grids
    from layers import LayerClock, dispatch_tallies
    from repro.obs.metrics import histogram_percentile
    from repro.obs.tracing import Tracer

    _, setup_sidecar = runner.setup(traced=True)
    gen_s = setup_sidecar.get("self_s", {}).get("trace.gen", 0.0)
    server = proc.Server(env, admin=True)
    try:
        streams, untraced_wall = load_streams(roster)
        tracer = Tracer(capacity=1 << 20)
        clock = LayerClock(tracer, f"serve-stream-{seed}-replay")
        clock.install_layers()
        try:
            _, traced_wall = load_streams(roster)
        finally:
            clock.restore()
    except BaseException:
        server.stop()
        raise
    run = _run_phases(server, streams, seed, seconds)
    common = _common(run, _check_replay(streams, recorded))
    assert run.admin_end is not None
    wait_hist = run.admin_end["metrics"]["histograms"]["serve.queue.wait_s"]

    def hist_ms(hist: Dict[str, Any], q: float) -> float:
        if stats.beyond(int(hist["count"]), q) < stats.MIN_BEYOND:
            raise stats.TooFewSamples(
                f"queue-wait p{q * 100:g} from {hist['count']} samples"
            )
        return float(histogram_percentile(hist, q) or 0.0) * 1000.0

    session_ms = stats.median([ms for ref in streams.values() for ms in ref.feed_ms])
    rtts = [(f.done - f.sent) * 1000.0 for f in run.closed_feeds if f.done is not None]
    dispatch = dispatch_tallies(run.admin_end["metrics"])
    layers = grids.layer_metrics(
        dict(clock.self_s), dict(clock.work), traced_wall, dispatch, gen_s
    )
    feeds = int(run.server_stats.get("feeds") or 0)
    layers.update({
        "serve.session_feed_ms": session_ms,
        "serve.queue_wait_p50_ms": hist_ms(wait_hist, 0.50),
        "serve.queue_wait_p90_ms": hist_ms(wait_hist, 0.90),
        "serve.encode_ms": stats.median(
            [ms for ref in streams.values() for ms in ref.encode_ms]),
        "serve.decode_ms": stats.median(run.decode_ms),
        "serve.response_bytes_per_load": run.answer_bytes / max(1, run.answer_loads),
        "serve.overhead_ms": stats.median(rtts) - session_ms - hist_ms(wait_hist, 0.50),
        "serve.kernel_feed_ratio": (
            int(run.server_stats.get("kernel_feeds") or 0) / feeds if feeds else 0.0
        ),
        "loadgen.feed_p50_ms": common["p50"].value,
        "loadgen.feed_p90_ms": common["p90"].value,
        "loadgen.lag_p50_ms": common["lag"][0].value,
        "loadgen.lag_p90_ms": common["lag"][1].value,
        "loadgen.rate_at_slo_fps": run.rate_at_slo(),
    })
    _record_client_spans(tracer, run)
    spans = tracer.events() + (run.admin_end["spans"].get("traceEvents") or [])
    return {
        "layers": layers,
        "overhead_s": traced_wall - untraced_wall,
        "spans": spans,
        "attempted": common["attempted"],
        "failed": common["failed"],
        "problems": common["problems"],
        "lines": common["lines"] + [
            f"offline replay: traced {traced_wall:.3f} s,"
            f" untraced {untraced_wall:.3f} s",
            f"server kernel dispatch: {dispatch}",
        ],
    }


def _record_client_spans(tracer: Any, run: ServeRun) -> None:
    """One ``loadgen.feed`` span per open-loop feed, due time to answer."""
    for feed in run.open_feeds:
        if feed.done is not None:
            tracer.record(
                "loadgen.feed",
                start_us=feed.due * 1e6,
                dur_us=(feed.done - feed.due) * 1e6,
                trace=feed.trace,
                args={"stream": feed.stream.name, "index": feed.index,
                      "parent": None},
            )
