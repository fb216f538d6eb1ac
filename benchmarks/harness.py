"""The one load scaffold shared by the serving benches and the chaos tests.

* :func:`build_bundle` — export the seeded PECAN-D model a bench serves
  (the conv→pool→fc toy by default, or a registry architecture;
  :func:`bench_model` builds it without exporting);
* :func:`unfolded_bundle` — a model's traced program before export's graph
  passes, as an in-memory bundle (what bundles held before export folded
  batch norm);
* :func:`accelerator_hz` — the emulated accelerator clock that paces one
  sample to a chosen latency under the Section 4.3 cost model;
* :func:`pct` — the floor-index latency percentile every bench reports;
* :class:`ClosedLoop` / :func:`run_closed_loop` — N client threads, each
  calling back to back (optional think time) until a window, a per-client
  budget or :meth:`ClosedLoop.stop` ends it, recording latencies, errors and
  bitwise mismatches against per-request references into a
  :class:`LoadResult`;
* :func:`run_singles` — that loop sending single samples in turn;
* :func:`run_zipf_load` — that loop walking per-client
  :class:`~repro.serve.ZipfWorkload` streams (the cache bench and the crash
  chaos test);
* :func:`run_concurrent_load` — hundreds of keep-alive HTTP connections
  multiplexed through one :mod:`selectors` thread (a 512-thread client would
  perturb the very measurement it takes), with a ``disconnect_every`` chaos
  knob, and :class:`SlowlorisSwarm` (sockets that trickle a request head
  forever) — the connection-scale bench and the front-end chaos test.

Benches import it by name (pytest puts ``benchmarks/`` on ``sys.path``;
``pytest.ini`` does the same for ``tests/``).
"""

from __future__ import annotations

import errno
import json
import selectors
import socket
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cam.lut import build_model_luts
from repro.io import DeploymentBundle, export_deployment_bundle
from repro.io.deployment import trace_inference_graph
from repro.models import build_model
from repro.nn import Conv2d, Flatten, Linear, MaxPool2d, ReLU, Sequential
from repro.pecan.config import PQLayerConfig
from repro.pecan.convert import convert_to_pecan
from repro.serve import BundleEngine, ZipfWorkload
from repro.serve.server import _AcceleratorPacer

#: Recorded error strings per run; past it only ``error_overflow`` grows, so
#: the count stays exact while an error storm cannot fill memory.
MAX_RECORDED_ERRORS = 512


def build_bundle(tmp_path: Path, *, name: str = "bench", image: int = 12,
                 in_channels: int = 3, **model_args) -> Path:
    """Export :func:`bench_model` to ``tmp_path / f"{name}.npz"``."""
    model = bench_model(image=image, in_channels=in_channels, **model_args)
    return export_deployment_bundle(model, tmp_path / f"{name}.npz",
                                    input_shape=(in_channels, image, image))


def unfolded_bundle(model, input_shape: Sequence[int]) -> DeploymentBundle:
    """``model``'s traced graph and LUTs as they are before export's passes."""
    return DeploymentBundle(luts=build_model_luts(model),
                            graph=trace_inference_graph(model, input_shape),
                            input_shape=tuple(input_shape))


def bench_model(*, seed: int = 0, image: int = 12, in_channels: int = 3,
                prototypes: int = 8, hidden: Tuple[int, ...] = (16, 32),
                classes: int = 10, arch: Optional[str] = None,
                width: float = 1.0):
    """A seeded PECAN-D model for a bench.

    The default model is Conv(3×3, ``hidden[0]`` channels) → ReLU →
    MaxPool(2) → one Linear+ReLU per further ``hidden`` width → Linear to
    ``classes``, converted with ``prototypes`` distance-mode prototypes.
    ``arch`` builds a registry architecture instead (``width`` multiplier,
    ``prototypes`` as its prototype cap).  Every weight is drawn from
    ``default_rng(seed)``, so a bench's reference logits are fixed.
    """
    rng = np.random.default_rng(seed)
    if arch is not None:
        model = build_model(arch, width_multiplier=width,
                            prototype_cap=prototypes, rng=rng)
    else:
        channels, *widths = hidden
        spatial = (image - 2) // 2
        layers = [Conv2d(in_channels, channels, 3, rng=rng), ReLU(),
                  MaxPool2d(2), Flatten()]
        fan_in = channels * spatial * spatial
        for fan_out in widths:
            layers += [Linear(fan_in, fan_out, rng=rng), ReLU()]
            fan_in = fan_out
        layers.append(Linear(fan_in, classes, rng=rng))
        cfg = PQLayerConfig(num_prototypes=prototypes, mode="distance",
                            temperature=0.5)
        model = convert_to_pecan(Sequential(*layers), cfg, rng=rng)
    return model


def accelerator_hz(bundle: Path, seconds_per_sample: float) -> float:
    """The ``hardware_hz`` that paces one sample of ``bundle`` to
    ``seconds_per_sample``: the modeled cycles of one traced sample (the
    server's pacer formula) over the wanted latency."""
    engine = BundleEngine(bundle)
    engine.predict(np.zeros((1, *engine.input_shape)))
    hz = _AcceleratorPacer(engine, hz=1.0)._cycles() / seconds_per_sample
    assert hz > 0, "the bundle traced no accelerator operations"
    return hz


def pct(ordered: Sequence[float], q: float) -> float:
    """The ``q`` quantile of ascending ``ordered`` by floor index (3 d.p.)."""
    if not ordered:
        return 0.0
    return round(ordered[min(int(q * len(ordered)), len(ordered) - 1)], 3)


def _matches(outputs: Any, expected: Any) -> bool:
    if isinstance(expected, (bytes, bytearray)):
        return outputs == expected
    return np.array_equal(np.asarray(outputs, dtype=np.float64), expected)


@dataclass
class LoadResult:
    """Outcome of one load run (latencies in milliseconds)."""

    requests: int = 0
    errors: List[str] = field(default_factory=list)
    mismatches: int = 0
    latencies_ms: List[float] = field(default_factory=list)
    elapsed_s: float = 0.0
    #: Connection-plane counters (populated by :func:`run_concurrent_load`):
    #: sockets opened, connect-level failures, and requests deliberately
    #: abandoned mid-response by the ``disconnect_every`` chaos knob.
    connects: int = 0
    connect_errors: int = 0
    aborted: int = 0
    #: Errors past :data:`MAX_RECORDED_ERRORS` (not stored, still counted).
    error_overflow: int = 0

    def add_error(self, message: str) -> None:
        if len(self.errors) < MAX_RECORDED_ERRORS:
            self.errors.append(message)
        else:
            self.error_overflow += 1

    def percentile(self, q: float) -> float:
        return pct(sorted(self.latencies_ms), q)

    def summary(self, *keys: str) -> Dict[str, Any]:
        """The run's figures; ``keys`` picks a subset (default: requests,
        requests_per_s, p50/p95/p99_ms, errors, mismatches)."""
        figures = {
            "requests": self.requests,
            "window_s": round(self.elapsed_s, 3),
            "requests_per_s": round(self.requests / self.elapsed_s, 1)
            if self.elapsed_s else 0.0,
            "p50_ms": self.percentile(0.50),
            "p95_ms": self.percentile(0.95),
            "p99_ms": self.percentile(0.99),
            "errors": len(self.errors) + self.error_overflow,
            "mismatches": self.mismatches,
        }
        keys = keys or ("requests", "requests_per_s", "p50_ms", "p95_ms",
                        "p99_ms", "errors", "mismatches")
        return {key: figures[key] for key in keys}


class ClosedLoop:
    """``clients`` threads, each issuing ``call(client, n)`` back to back.

    ``n`` counts the client's own requests from 0.  A thread ends when
    ``window_s`` (timed from :meth:`start`) elapses, when it has issued
    ``requests_per_client`` requests, or at :meth:`stop`; ``think_s`` is
    slept after each request.  Latency is timed around ``call``.  With
    ``expect``, ``expect(client, n)`` is the reference for the response —
    canonical bytes (compared with ``==``) or logits (compared exactly) —
    and every difference counts in ``mismatches``.  A raising call is
    recorded; ``on_error="stop"`` also ends that client's thread.
    """

    def __init__(self, call: Callable[[int, int], Any], *, clients: int,
                 window_s: Optional[float] = None,
                 requests_per_client: Optional[int] = None,
                 think_s: float = 0.0, on_error: str = "record",
                 expect: Optional[Callable[[int, int], Any]] = None):
        if on_error not in ("record", "stop"):
            raise ValueError(f"unknown on_error mode {on_error!r}")
        self.call, self.expect = call, expect
        self.window_s, self.budget = window_s, requests_per_client
        self.think_s, self.on_error = think_s, on_error
        self.result = LoadResult()
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._threads = [threading.Thread(target=self._client, args=(i,),
                                          daemon=True)
                         for i in range(clients)]
        self._started = 0.0

    def _client(self, client: int) -> None:
        result, n = self.result, 0
        stop_at = (self._started + self.window_s
                   if self.window_s is not None else None)
        while (self.budget is None or n < self.budget) \
                and not self._stop.is_set():
            if stop_at is not None and time.monotonic() >= stop_at:
                return
            started = time.monotonic()
            try:
                outputs = self.call(client, n)
            except Exception as exc:  # noqa: BLE001 - recorded for the caller
                with self._lock:
                    result.add_error(repr(exc))
                if self.on_error == "stop":
                    return
            else:
                elapsed_ms = (time.monotonic() - started) * 1e3
                mismatch = (self.expect is not None
                            and not _matches(outputs, self.expect(client, n)))
                with self._lock:
                    result.requests += 1
                    result.latencies_ms.append(elapsed_ms)
                    result.mismatches += mismatch
            n += 1
            if self.think_s:
                time.sleep(self.think_s)

    def start(self) -> "ClosedLoop":
        self._started = time.monotonic()
        for thread in self._threads:
            thread.start()
        return self

    def completed(self) -> int:
        """Requests answered so far (safe while the run is live)."""
        with self._lock:
            return self.result.requests

    def join(self) -> LoadResult:
        """Wait for every client to finish; the result of the whole run."""
        for thread in self._threads:
            thread.join()
        self.result.elapsed_s = max(time.monotonic() - self._started, 1e-9)
        return self.result

    def stop(self) -> LoadResult:
        """End every client after its current request, then :meth:`join`."""
        self._stop.set()
        return self.join()


def run_closed_loop(call: Callable[[int, int], Any], *, clients: int,
                    window_s: Optional[float] = None,
                    requests_per_client: Optional[int] = None,
                    **options: Any) -> LoadResult:
    """Run a :class:`ClosedLoop` to its window or budget; its result."""
    if window_s is None and requests_per_client is None:
        raise ValueError("need window_s and/or requests_per_client")
    return ClosedLoop(call, clients=clients, window_s=window_s,
                      requests_per_client=requests_per_client,
                      **options).start().join()


def run_singles(predict: Callable[[int, np.ndarray], Any],
                images: np.ndarray, *, clients: int, window_s: float,
                expected: Optional[np.ndarray] = None) -> LoadResult:
    """Single-sample :func:`run_closed_loop` for ``window_s``.

    Client ``c`` sends ``predict(c, images[i:i + 1])`` for ``i`` = ``c``,
    ``c + clients``, ``c + 2 * clients``, … (wrapping) and stops at its
    first error; with ``expected``, each answer must equal
    ``expected[i:i + 1]`` exactly.
    """
    def at(client: int, n: int) -> slice:
        i = (client + n * clients) % len(images)
        return slice(i, i + 1)

    expect = None
    if expected is not None:
        expect = lambda client, n: expected[at(client, n)]  # noqa: E731
    return run_closed_loop(
        lambda client, n: predict(client, images[at(client, n)]),
        clients=clients, window_s=window_s, on_error="stop", expect=expect)


def run_zipf_load(predict: Callable[[Any, int], Any],
                  workload: ZipfWorkload, *, clients: int = 4,
                  references: Optional[Sequence[Any]] = None,
                  **options: Any) -> LoadResult:
    """:func:`run_closed_loop` of ``predict(item, client)`` over Zipf streams.

    Client ``c`` walks ``workload.indices(..., stream=c)``; ``references``
    holds per-item reference logits or canonical response bytes (the
    stale-response detector).  ``options`` are :func:`run_closed_loop`'s.
    """
    streams = [workload.indices(max(options.get("requests_per_client") or 0,
                                    1024), stream=client)
               for client in range(clients)]

    def index(client: int, n: int) -> int:
        if n >= len(streams[client]):
            # indices() is prefix-consistent: the longer draw continues the
            # stream instead of repeating it.
            streams[client] = workload.indices(2 * len(streams[client]),
                                               stream=client)
        return int(streams[client][n])

    expect = None
    if references is not None:
        expect = lambda client, n: references[index(client, n)]  # noqa: E731
    return run_closed_loop(
        lambda client, n: predict(workload.items[index(client, n)], client),
        clients=clients, expect=expect, **options)


# --------------------------------------------------------------------------- #
# Connection-scale keep-alive driver
# --------------------------------------------------------------------------- #
#: ``connect_ex`` results meaning "connecting" (0 = connected at once).
_CONNECT_PENDING = (0, errno.EINPROGRESS, errno.EWOULDBLOCK,
                    getattr(errno, "WSAEWOULDBLOCK", errno.EWOULDBLOCK))


class _LoadConnection:
    """One keep-alive socket's state inside :func:`run_concurrent_load`."""

    __slots__ = ("index", "sock", "state", "out", "buf", "inflight_body",
                 "sent_at", "connect_started", "issued", "completed", "done",
                 "abort_next")

    def __init__(self, index: int):
        self.index = index
        self.sock: Optional[socket.socket] = None
        self.state = "idle"            # idle | connecting | active
        self.out = b""
        self.buf = bytearray()
        self.inflight_body: Optional[int] = None   # body index awaiting reply
        self.sent_at = 0.0
        self.connect_started = 0.0
        self.issued = 0
        self.completed = 0
        self.done = False
        self.abort_next = False


def _find_content_length(header_text: str) -> Optional[int]:
    for line in header_text.split("\r\n")[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            try:
                return int(value.strip())
            except ValueError:
                return None
    return None


def run_concurrent_load(host: str, port: int, bodies: Sequence[bytes], *,
                        path: str = "/predict",
                        connections: int = 32,
                        window_s: Optional[float] = None,
                        requests_per_connection: Optional[int] = None,
                        headers: Optional[Dict[str, str]] = None,
                        references: Optional[Sequence[object]] = None,
                        disconnect_every: int = 0,
                        connect_timeout_s: float = 10.0,
                        request_timeout_s: float = 60.0) -> LoadResult:
    """Closed-loop load over ``connections`` concurrent keep-alive sockets.

    Every connection POSTs ``bodies[(index + issued) % len(bodies)]`` to
    ``path`` back-to-back over one persistent HTTP/1.1 connection, all
    multiplexed through a single :mod:`selectors` thread — the offered
    concurrency is the connection count itself, without a thread per client
    perturbing the measurement.  All sockets connect at once (a genuine
    connect storm: a front end with a five-slot listen backlog feels it).

    ``references[i]`` (optional) holds the expected ``outputs`` logits for
    ``bodies[i]``; every 200 response is parsed and compared exactly
    (``mismatches`` counts violations — the bitwise-parity contract).
    Non-200 responses and torn connections are recorded in ``errors``
    (capped; ``error_overflow`` keeps the count exact).

    ``disconnect_every=N`` is the chaos knob: every Nth response on a
    connection is abandoned as soon as its first bytes arrive — the socket
    is dropped mid-response and reconnected — modelling clients that give
    up; the server must absorb it without stalling other connections
    (``aborted`` counts them; they are not errors).
    """
    if window_s is None and requests_per_connection is None:
        raise ValueError("need window_s and/or requests_per_connection")
    if not bodies:
        raise ValueError("need at least one request body")
    result = LoadResult()
    record_error = result.add_error
    extra = "".join(f"{name}: {value}\r\n"
                    for name, value in (headers or {}).items())
    rendered = [
        (f"POST {path} HTTP/1.1\r\nHost: {host}:{port}\r\n"
         "Content-Type: application/json\r\n"
         f"Content-Length: {len(body)}\r\n{extra}\r\n").encode("latin-1")
        + bytes(body)
        for body in bodies
    ]
    selector = selectors.DefaultSelector()
    conns = [_LoadConnection(i) for i in range(connections)]
    started = time.monotonic()
    stop_at = (started + window_s) if window_s is not None else None

    def open_connection(conn: _LoadConnection, now: float) -> None:
        conn.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        conn.sock.setblocking(False)
        try:
            conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass
        conn.state = "connecting"
        conn.connect_started = now
        conn.buf.clear()
        conn.out = b""
        conn.inflight_body = None
        if conn.sock.connect_ex((host, port)) not in _CONNECT_PENDING:
            close_connection(conn)
            result.connect_errors += 1
            return
        selector.register(conn.sock, selectors.EVENT_WRITE, conn)

    def close_connection(conn: _LoadConnection) -> None:
        if conn.sock is not None:
            try:
                selector.unregister(conn.sock)
            except (KeyError, ValueError):
                pass
            try:
                conn.sock.close()
            except OSError:
                pass
        conn.sock = None
        conn.state = "idle"
        conn.inflight_body = None

    def finish(conn: _LoadConnection) -> None:
        conn.done = True
        close_connection(conn)

    def issue(conn: _LoadConnection, now: float) -> None:
        if stop_at is not None and now >= stop_at:
            finish(conn)
            return
        if (requests_per_connection is not None
                and conn.issued >= requests_per_connection):
            finish(conn)
            return
        body_index = (conn.index + conn.issued) % len(bodies)
        conn.issued += 1
        conn.inflight_body = body_index
        conn.out = rendered[body_index]
        conn.sent_at = now
        conn.abort_next = bool(
            disconnect_every
            and conn.issued % disconnect_every == 0)
        selector.modify(conn.sock,
                        selectors.EVENT_READ | selectors.EVENT_WRITE, conn)

    def complete(conn: _LoadConnection, status: int, payload: bytes,
                 closing: bool, now: float) -> None:
        latency_ms = (now - conn.sent_at) * 1e3
        body_index = conn.inflight_body
        conn.inflight_body = None
        conn.completed += 1
        if status == 200:
            mismatch = 0
            if references is not None:
                try:
                    outputs = json.loads(payload)["outputs"]
                except (ValueError, KeyError, TypeError):
                    mismatch = 1
                else:
                    if outputs != references[body_index]:
                        mismatch = 1
            result.requests += 1
            result.latencies_ms.append(latency_ms)
            result.mismatches += mismatch
        else:
            record_error(f"HTTP {status}: {payload[:120]!r}")
        if closing:
            close_connection(conn)
            open_connection(conn, now)
        else:
            issue(conn, now)

    def service(conn: _LoadConnection, events: int, now: float) -> None:
        if conn.state == "connecting":
            error = conn.sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
            if error:
                close_connection(conn)
                result.connect_errors += 1
                record_error(f"connect failed (errno {error})")
                open_connection(conn, now)       # keep offering load
                return
            conn.state = "active"
            result.connects += 1
            issue(conn, now)
            return
        if events & selectors.EVENT_WRITE and conn.out:
            try:
                sent = conn.sock.send(conn.out)
                conn.out = conn.out[sent:]
            except (BlockingIOError, InterruptedError):
                pass
            except OSError as exc:
                record_error(f"send failed: {exc!r}")
                close_connection(conn)
                open_connection(conn, now)
                return
            if not conn.out:
                selector.modify(conn.sock, selectors.EVENT_READ, conn)
        if events & selectors.EVENT_READ:
            try:
                data = conn.sock.recv(65536)
            except (BlockingIOError, InterruptedError):
                return
            except OSError as exc:
                record_error(f"recv failed: {exc!r}")
                close_connection(conn)
                open_connection(conn, now)
                return
            if not data:
                if conn.inflight_body is not None:
                    record_error("connection closed mid-exchange")
                close_connection(conn)
                if not conn.done:
                    open_connection(conn, now)
                return
            conn.buf += data
            if conn.abort_next and conn.inflight_body is not None:
                # Chaos: give up as soon as the response starts arriving.
                result.aborted += 1
                conn.abort_next = False
                close_connection(conn)
                open_connection(conn, now)
                return
            drain_responses(conn, now)

    def drain_responses(conn: _LoadConnection, now: float) -> None:
        while conn.inflight_body is not None:
            head_end = conn.buf.find(b"\r\n\r\n")
            if head_end < 0:
                return
            header_text = bytes(conn.buf[:head_end]).decode(
                "latin-1", "replace")
            length = _find_content_length(header_text) or 0
            total = head_end + 4 + length
            if len(conn.buf) < total:
                return
            status_parts = header_text.split("\r\n", 1)[0].split()
            try:
                status = int(status_parts[1])
            except (IndexError, ValueError):
                status = 0
            payload = bytes(conn.buf[head_end + 4:total])
            del conn.buf[:total]
            closing = "connection: close" in header_text.lower()
            complete(conn, status, payload, closing, now)

    for conn in conns:
        open_connection(conn, started)
    while True:
        now = time.monotonic()
        if all(conn.done for conn in conns):
            break
        if stop_at is not None and now >= stop_at:
            # Window over: anything still in flight is abandoned, not
            # counted — the measurement is what completed inside the window.
            for conn in conns:
                if not conn.done:
                    finish(conn)
            break
        timeout = 0.05
        if stop_at is not None:
            timeout = min(timeout, max(stop_at - now, 0.001))
        for key, events in selector.select(timeout):
            service(key.data, events, time.monotonic())
        now = time.monotonic()
        for conn in conns:
            if conn.done:
                continue
            if (conn.state == "connecting"
                    and now - conn.connect_started > connect_timeout_s):
                close_connection(conn)
                result.connect_errors += 1
                record_error("connect timed out")
                open_connection(conn, now)
            elif (conn.state == "active" and conn.inflight_body is not None
                    and now - conn.sent_at > request_timeout_s):
                record_error("request timed out")
                close_connection(conn)
                open_connection(conn, now)
    for conn in conns:
        close_connection(conn)
    selector.close()
    result.elapsed_s = max(time.monotonic() - started, 1e-9)
    return result


class SlowlorisSwarm:
    """Connections that trickle an unfinished request head forever.

    The classic slow-client attack: each socket sends a valid request line,
    then drips one filler header every ``interval_s`` and never sends the
    terminating blank line.  A thread-per-connection front end donates a
    thread to every such socket indefinitely; the event-loop front end's
    ``request_timeout_s`` guard answers 408 and drops them.  ``remaining()``
    reports how many sockets the server still tolerates — the chaos test
    asserts it reaches zero while healthy traffic keeps flowing.
    """

    def __init__(self, host: str, port: int, *, count: int = 4,
                 interval_s: float = 0.25, path: str = "/predict"):
        self.host = host
        self.port = port
        self.count = int(count)
        self.interval_s = float(interval_s)
        self.path = path
        self._sockets: List[socket.socket] = []
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()

    def start(self) -> "SlowlorisSwarm":
        for _ in range(self.count):
            sock = socket.create_connection((self.host, self.port),
                                            timeout=5.0)
            sock.setblocking(True)
            sock.sendall(f"POST {self.path} HTTP/1.1\r\n"
                         f"Host: {self.host}:{self.port}\r\n".encode())
            self._sockets.append(sock)
        self._thread = threading.Thread(target=self._drip,
                                        name="repro-slowloris", daemon=True)
        self._thread.start()
        return self

    def _drip(self) -> None:
        drips = 0
        while not self._stop.wait(self.interval_s):
            drips += 1
            with self._lock:
                sockets = list(self._sockets)
            for sock in sockets:
                try:
                    sock.sendall(f"X-Drip-{drips}: {drips}\r\n".encode())
                except OSError:
                    # The server hung up on this socket (408 / reset): it has
                    # been shed.  Stop counting it as pending.
                    with self._lock:
                        if sock in self._sockets:
                            self._sockets.remove(sock)
                    try:
                        sock.close()
                    except OSError:
                        pass

    def remaining(self) -> int:
        """Sockets the server has not yet shed."""
        with self._lock:
            return len(self._sockets)

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(2.0)
            self._thread = None
        with self._lock:
            sockets = list(self._sockets)
            self._sockets.clear()
        for sock in sockets:
            try:
                sock.close()
            except OSError:
                pass
