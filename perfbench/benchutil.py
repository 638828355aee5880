"""Shared pieces of the benchmark: statistics, host fingerprint, a keep-alive
HTTP client, Prometheus scraping and the ``repro serve`` daemon lifecycle.

Everything here is stdlib plus numpy; nothing imports :mod:`repro`, so a
checkout without ``src/`` fails in ``run.py`` before any result is printed.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import select
import signal
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Seconds any single HTTP request may take before it counts as failed.
REQUEST_TIMEOUT_S = 60.0
#: Seconds a daemon may take from spawn to answering ``/healthz``.
DAEMON_START_TIMEOUT_S = 60.0


# ------------------------------------------------------------ run plumbing
@dataclass
class Context:
    """What a workload gets from the runner."""

    seed: int
    seconds: int
    trace: bool
    run_dir: Path
    import_s: float = 0.0
    setup_started: float = 0.0

    def setup_s(self, first_op_at: float, daemon_starts) -> float:
        """Set-up time: the median fresh-interpreter import, plus everything
        the run did after importing until its first timed op, with the
        daemon start counted as the median of its starts."""
        daemon_starts = list(daemon_starts)
        body = first_op_at - self.setup_started - sum(daemon_starts)
        return self.import_s + body + statistics.median(daemon_starts)


@dataclass
class Outcome:
    """What a workload hands back: raw samples and checks, not metrics."""

    setup_s: float
    latencies_s: list
    stream_s: float
    attempted: int
    failed: int
    rss_mb: float
    quality: float
    problems: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)


# ----------------------------------------------------------------- statistics
def summarize_ms(samples_s) -> dict:
    """p50/p90/p99 in milliseconds plus the sample count."""
    values = np.asarray(samples_s, dtype=float) * 1000.0
    if not len(values):
        return {"p50": 0.0, "p90": 0.0, "p99": 0.0, "n": 0}
    p50, p90, p99 = np.percentile(values, [50, 90, 99])
    return {"p50": float(p50), "p90": float(p90), "p99": float(p99), "n": int(len(values))}


def mean(values) -> float:
    values = list(values)
    return float(sum(values) / len(values)) if values else 0.0


def pairwise_f1(predicted: set, truth: set) -> float:
    """F1 of a predicted set of pairs (or other hashables) against the truth."""
    true_positive = len(predicted & truth)
    if not true_positive:
        return 0.0
    precision = true_positive / len(predicted)
    recall = true_positive / len(truth)
    return 2.0 * precision * recall / (precision + recall)


# ----------------------------------------------------------------- host facts
def reference_kernel_ms() -> float:
    """Wall time of a fixed pure-Python plus numpy kernel.

    Timed before and after every run and printed, never gated: it lets the
    spread of any metric be traced back to the host's own speed drift.
    """
    rng = np.random.default_rng(0)
    matrix = rng.random((192, 192))
    vector = rng.random(200_000)
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i % 7
    for _ in range(10):
        matrix = np.tanh(matrix @ matrix / 192.0)
        np.sort(vector)
    elapsed = time.perf_counter() - start
    if total < 0 or not np.isfinite(matrix).all():  # keep the work observable
        raise RuntimeError("reference kernel misbehaved")
    return elapsed * 1000.0


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def _commit() -> str | None:
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return result.stdout.strip() or None if result.returncode == 0 else None


def fingerprint() -> dict:
    """The environment a run measured: cores, interpreter, numpy, code."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _commit(),
        "src_sha256": _source_digest(),
    }


def proc_status_mb(pid: int, key: str) -> float:
    """A ``/proc/<pid>/status`` memory field (``VmHWM``, ``VmRSS``) in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(key + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"{key} missing from /proc/{pid}/status")


def child_env(run_dir: Path) -> dict:
    """Environment for processes the benchmark starts: the checkout's
    ``src`` on the path, temp files inside the run dir, no preparation cache."""
    env = dict(os.environ)
    env.pop("REPRO_PREP_CACHE", None)
    env.pop("REPRO_TELEMETRY", None)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(run_dir)
    return env


def fresh_import_s(run_dir: Path) -> float:
    """Seconds a fresh interpreter spends in ``import repro``."""
    code = (
        "import time; start = time.perf_counter(); import repro; "
        "print(time.perf_counter() - start)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=child_env(run_dir),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(result.stdout.strip().splitlines()[-1])


# ------------------------------------------------------------------ HTTP client
class HttpError(Exception):
    """A request that got no complete HTTP response."""


class Connection:
    """One persistent HTTP/1.1 connection; each request goes out in one write.

    Closed-loop use only: :meth:`request` sends, then blocks for the reply.
    A request that fails closes the socket; the next one reconnects.
    """

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._sock: socket.socket | None = None
        self._reader = None

    def open(self) -> "Connection":
        """Connect now, so the first timed request does not pay for it."""
        self._sock = socket.create_connection(
            (self.host, self.port), timeout=REQUEST_TIMEOUT_S
        )
        self._reader = self._sock.makefile("rb")
        return self

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        if self._reader is not None:
            self._reader.close()
        if self._sock is not None:
            self._sock.close()
        self._sock = self._reader = None

    def request(self, method: str, path: str, payload: dict | bytes | None = None) -> tuple[int, bytes]:
        """Send one request and read its reply; ``payload`` may be pre-encoded
        JSON bytes, so a timed loop measures the exchange alone."""
        if isinstance(payload, bytes):
            body = payload
        else:
            body = b"" if payload is None else json.dumps(payload).encode("utf-8")
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        try:
            if self._sock is None:
                self.open()
            self._sock.sendall(head + body)
            status_line = self._reader.readline()
            if not status_line:
                raise HttpError("connection closed before a response")
            status = int(status_line.split()[1])
            length = 0
            while True:
                line = self._reader.readline()
                if not line:
                    raise HttpError("connection closed inside the headers")
                if line in (b"\r\n", b"\n"):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value.strip())
            data = self._reader.read(length) if length else b""
            if len(data) != length:
                raise HttpError("connection closed inside the body")
            return status, data
        except (OSError, ValueError, IndexError, HttpError):
            self.close()
            raise

    def json(self, method: str, path: str, payload: dict | None = None) -> dict:
        """A request that must answer 200 with a JSON object."""
        status, data = self.request(method, path, payload)
        if status != 200:
            raise HttpError(f"{method} {path} answered {status}: {data[:200]!r}")
        return json.loads(data)


def parse_prometheus(text: str) -> dict:
    """``{(name, labels_text): value}`` for every sample line."""
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        name, _, labels = key.partition("{")
        samples[(name, labels.rstrip("}"))] = float(value)
    return samples


def scrape(connection: Connection) -> dict:
    status, data = connection.request("GET", "/metrics")
    if status != 200:
        raise HttpError(f"GET /metrics answered {status}")
    return parse_prometheus(data.decode("utf-8"))


def histogram_mean_ms(samples: dict, name: str, labels: str = "", since: dict | None = None) -> float:
    """Mean of a histogram in ms, over the observations made after the
    ``since`` scrape when one is given."""
    since = since or {}
    keys = ((f"{name}_count", labels), (f"{name}_sum", labels))
    count, total = (samples.get(key, 0.0) - since.get(key, 0.0) for key in keys)
    return total / count * 1000.0 if count else 0.0


# ------------------------------------------------------------------ the daemon
def _die_with_parent() -> None:
    """In the child before exec: get SIGTERM when the benchmark dies, so a
    killed run cannot leave its daemon behind (Linux ``PR_SET_PDEATHSIG``)."""
    import ctypes

    ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGTERM)


class Daemon:
    """A ``python -m repro serve`` subprocess with the CLI defaults.

    Use as a context manager: the process is shut down and reaped on exit,
    also when the run fails.
    """

    def __init__(self, index_dir: Path, run_dir: Path) -> None:
        self.index_dir = index_dir
        self.run_dir = run_dir
        self.process: subprocess.Popen | None = None
        self.port: int | None = None
        self.start_s: float | None = None

    def __enter__(self) -> "Daemon":
        start = time.perf_counter()
        log = open(self.run_dir / "daemon.log", "ab")
        try:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--index", str(self.index_dir),
                 "--port", "0"],
                cwd=ROOT,
                env=child_env(self.run_dir),
                stdout=subprocess.PIPE,
                stderr=log,
                preexec_fn=_die_with_parent,
            )
        finally:
            log.close()
        try:
            self.port = self._read_port(start + DAEMON_START_TIMEOUT_S)
            probe = Connection("127.0.0.1", self.port)
            try:
                probe.json("GET", "/healthz")
            finally:
                probe.close()
        except BaseException:
            self.stop()
            raise
        self.start_s = time.perf_counter() - start
        return self

    def _read_port(self, deadline: float) -> int:
        line = b""
        while not line.endswith(b"\n"):
            remaining = deadline - time.perf_counter()
            ready, _, _ = select.select([self.process.stdout], [], [], max(remaining, 0))
            if not ready:
                raise RuntimeError("daemon did not report its address in time")
            chunk = os.read(self.process.stdout.fileno(), 4096)
            if not chunk:
                tail = (self.run_dir / "daemon.log").read_text(errors="replace")[-2000:]
                raise RuntimeError(f"daemon exited during start-up:\n{tail}")
            line += chunk
        address = line.split(b"http://", 1)[1].split()[0].decode()
        return int(address.rsplit(":", 1)[1])

    def connect(self) -> Connection:
        """A new, already open, persistent connection to the daemon."""
        return Connection("127.0.0.1", self.port).open()

    def stop(self) -> None:
        process = self.process
        if process is None or process.poll() is not None:
            self._close_pipe()
            return
        if self.port is not None:
            connection = Connection("127.0.0.1", self.port)
            try:
                connection.request("POST", "/admin/shutdown", {})
            except (OSError, HttpError, ValueError):
                pass  # the process is killed below if it does not exit
            finally:
                connection.close()
        try:
            process.wait(timeout=15)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=15)
        self._close_pipe()

    def _close_pipe(self) -> None:
        if self.process is not None and self.process.stdout is not None:
            self.process.stdout.close()

    def __exit__(self, *exc_info) -> None:
        self.stop()
