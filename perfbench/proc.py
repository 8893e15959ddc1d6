"""Child processes of the benchmark: environment, wall clock and peak RSS.

Every program process the benchmark starts gets the same environment:
the checkout's ``src`` on ``PYTHONPATH``, one engine worker
(``REPRO_JOBS=1``), the numpy backend, and a trace cache inside the
benchmark's work directory.  Other ``REPRO_*`` settings of the calling
shell are dropped so they cannot change what is measured.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / ".work"

#: Engine workers and backend every workload runs with.
REPRO_JOBS = "1"
BACKEND = "numpy"


def program_env(cache_dir: Path, backend: str = BACKEND) -> Dict[str, str]:
    """Environment for a program process (see the module docstring)."""
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("REPRO_") and key != "PYTHONPATH"
    }
    env.update(
        PYTHONPATH=str(SRC),
        REPRO_JOBS=REPRO_JOBS,
        REPRO_BACKEND=backend,
        REPRO_TRACE_CACHE=str(cache_dir),
    )
    return env


@dataclass
class ChildRun:
    """One finished child process."""

    wall_s: float
    #: User + system CPU seconds of the process.
    cpu_s: float
    returncode: int
    stdout: str
    stderr: str


def _reap(process: subprocess.Popen) -> float:
    """Wait for ``process``; returns its CPU seconds.

    Its ``ru_maxrss`` is no measure of the child: Linux carries the
    spawning process's peak RSS across ``exec`` into it.  Children report
    their own peak with :func:`high_water_mb` instead.
    """
    _, status, usage = os.wait4(process.pid, 0)
    process.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_utime + usage.ru_stime


def high_water_mb(pid: str = "self") -> float:
    """Peak RSS (``VmHWM``) of a running process, MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def run_child(
    args: List[str], env: Dict[str, str], stderr_path: Path,
    timeout_s: float = 150.0,
) -> ChildRun:
    """Run ``python <args>`` to completion, timing it from outside."""
    with open(stderr_path, "w+", encoding="utf-8") as err:
        start = time.perf_counter()
        process = subprocess.Popen(
            [sys.executable, *args], cwd=ROOT, env=env,
            stdout=subprocess.PIPE, stderr=err, text=True,
        )
        try:
            stdout = _read_to_eof(process, timeout_s)
        finally:
            cpu = _reap(process)
        wall = time.perf_counter() - start
        err.seek(0)
        stderr = err.read()
    return ChildRun(wall, cpu, process.returncode, stdout, stderr)


def _read_to_eof(process: subprocess.Popen, timeout_s: float) -> str:
    """Read stdout to EOF without reaping (``wait4`` reaps afterwards).

    Kills the process and raises :class:`TimeoutError` when it keeps
    stdout open longer than ``timeout_s``.
    """
    assert process.stdout is not None
    stream = process.stdout
    chunks: List[str] = []
    reader = threading.Thread(
        target=lambda: chunks.append(stream.read()), daemon=True
    )
    reader.start()
    reader.join(timeout_s)
    if reader.is_alive():
        process.kill()
        reader.join(10.0)
        raise TimeoutError(f"child {process.args!r} exceeded {timeout_s}s")
    stream.close()
    return "".join(chunks)


class Server:
    """A spawned ``python -m repro serve`` on an ephemeral port."""

    READY = "repro-serve listening on "
    ADMIN_READY = "repro-serve admin on "

    def __init__(self, env: Dict[str, str], admin: bool = False) -> None:
        command = [
            sys.executable, "-m", "repro", "serve",
            "--host", "127.0.0.1", "--port", "0", "--shards", "0",
            "--backend", BACKEND,
        ]
        if admin:
            command += ["--admin-port", "0"]
        start = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        self.port = self._ready_port(self.READY)
        self.admin_port: Optional[int] = (
            self._ready_port(self.ADMIN_READY) if admin else None
        )
        #: Process start to ready line(s), seconds.
        self.ready_s = time.perf_counter() - start
        self._stopped = False

    def _ready_port(self, prefix: str) -> int:
        assert self.process.stdout is not None
        line = self.process.stdout.readline()
        if not line.startswith(prefix):
            self.process.kill()
            _reap(self.process)
            raise RuntimeError(f"server did not come up (got {line!r})")
        return int(line.rsplit(":", 1)[1])

    def high_water_mb(self) -> float:
        """The running server's peak RSS so far (``VmHWM``), MB."""
        return high_water_mb(str(self.process.pid))

    def cpu_s(self) -> float:
        """CPU seconds (user + system) the server has used so far."""
        with open(f"/proc/{self.process.pid}/stat", encoding="ascii") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        """Drain with SIGTERM and reap (idempotent)."""
        if not self._stopped:
            self._stopped = True
            self.process.send_signal(signal.SIGTERM)
            try:
                _read_to_eof(self.process, 30.0)
            finally:
                _reap(self.process)
