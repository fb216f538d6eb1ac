"""``repro.serve.netfront`` — the selectors-based event-loop HTTP front end.

A thread-per-connection server (``ThreadingHTTPServer``) spends one OS
thread per connection: hundreds of mostly-idle keep-alive clients burn a
thread apiece, and a connect storm overflows its five-slot listen backlog
long before the engine saturates.  This module serves instead from a single
event-loop thread multiplexing every connection through :mod:`selectors`:

* non-blocking accept/read/write with an **incremental HTTP/1.1 parser**
  (:class:`RequestParser`) that survives torn reads and parses pipelined
  requests back-to-back from one buffer;
* **keep-alive by default** (HTTP/1.1 semantics) with in-order responses
  for pipelined requests, even when the application finishes them out of
  order;
* a **bounded connection budget**: the ``max_connections+1``-th concurrent
  connection is answered with the QoS plane's shed wire shape
  (``503`` + ``Retry-After``, reason ``connection-budget``) and closed —
  overload degrades into polite backpressure instead of an accept stall;
* **idle and slowloris timeouts**: a connection holding a half-sent request
  longer than ``request_timeout_s`` is answered ``408`` and dropped, and a
  fully-idle keep-alive connection is reaped after ``idle_timeout_s`` —
  neither ties down anything but one small buffer while it lingers.

Parsed requests hand off to the existing blocking serving plane (batcher,
QoS admission, cache, tracing — all unchanged) over a small pool of daemon
application threads: the **completion-callback bridge**.  Each request
becomes an ordered slot on its connection; the application thread renders
the response bytes and posts the slot back to the loop through a socketpair
wakeup, so the loop thread remains the only writer to any socket.

This is the only network plane: :class:`~repro.serve.server.PECANServer`
and :class:`~repro.serve.pool.PoolServer` each hand it their
``handle_http`` application hook.
"""

from __future__ import annotations

import http.client
import json
import queue
import selectors
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Iterator, List, Optional, Tuple

from repro.serve.config import NetConfig
from repro.serve.qos import connection_budget_shed

__all__ = [
    "Headers",
    "HTTPParseError",
    "ParsedRequest",
    "RequestParser",
    "EventLoopFrontEnd",
    "render_response",
]

#: Response value of the application hook: ``(status, body_bytes, headers)``.
AppResponse = Tuple[int, bytes, Dict[str, str]]
#: The application hook each server hands the front end:
#: ``app(method, path, headers, body) -> (status, body, headers)``.
AppCallable = Callable[[str, str, "Headers", bytes], AppResponse]

_SERVER_NAME = "repro-serve/eventloop"
_RECV_CHUNK = 65536


class Headers:
    """Case-insensitive request-header mapping.

    Mirrors the ``.get()`` semantics of the stdlib handler's
    ``email.message.Message`` headers, which is the only surface the serving
    plane (``parse_qos``, ``parse_trace_context``, cache opt-out, body
    framing) relies on.
    """

    __slots__ = ("_data",)

    def __init__(self, pairs: Optional[List[Tuple[str, str]]] = None):
        self._data: Dict[str, str] = {}
        for name, value in pairs or []:
            self.add(name, value)

    def add(self, name: str, value: str) -> None:
        key = name.lower()
        if key in self._data:                  # RFC 9110 §5.2 list merge
            self._data[key] = f"{self._data[key]}, {value}"
        else:
            self._data[key] = value

    def get(self, name: str, default=None):
        return self._data.get(name.lower(), default)

    def __getitem__(self, name: str) -> str:
        return self._data[name.lower()]

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._data

    def __iter__(self) -> Iterator[str]:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def items(self):
        return self._data.items()

    def __repr__(self) -> str:
        return f"Headers({dict(self._data)!r})"


class HTTPParseError(Exception):
    """A request the parser refuses; ``status`` maps straight to the reply."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class ParsedRequest:
    """One fully-framed request off the wire."""

    method: str
    path: str
    version: str
    headers: Headers
    body: bytes = b""
    keep_alive: bool = True


@dataclass
class _PendingBody:
    """Header-complete request still waiting for ``length`` body bytes."""

    request: ParsedRequest
    length: int


class RequestParser:
    """Incremental HTTP/1.1 request parser (one instance per connection).

    ``feed(data)`` accepts arbitrarily torn byte chunks and returns every
    request completed so far, in arrival order — the pipelining contract.
    Framing violations raise :class:`HTTPParseError` with the status the
    connection must answer before closing: 400 for malformed request lines /
    headers / ``Content-Length``, 413 for bodies over ``max_body_bytes``,
    431 for header blocks over ``max_header_bytes``, 501 for chunked
    transfer coding (no stdlib client in this repo emits it).
    """

    def __init__(self, max_header_bytes: int = 32768,
                 max_body_bytes: int = 256 * 1024 * 1024):
        self.max_header_bytes = int(max_header_bytes)
        self.max_body_bytes = int(max_body_bytes)
        self._buffer = bytearray()
        self._pending: Optional[_PendingBody] = None

    @property
    def partial(self) -> bool:
        """True while a request is mid-flight (slowloris timeout signal)."""
        return bool(self._buffer) or self._pending is not None

    def feed(self, data: bytes) -> List[ParsedRequest]:
        self._buffer += data
        completed: List[ParsedRequest] = []
        while True:
            if self._pending is not None:
                pending = self._pending
                if len(self._buffer) < pending.length:
                    break
                pending.request.body = bytes(self._buffer[:pending.length])
                del self._buffer[:pending.length]
                self._pending = None
                completed.append(pending.request)
                continue
            head_end = self._buffer.find(b"\r\n\r\n")
            if head_end < 0:
                if len(self._buffer) > self.max_header_bytes:
                    raise HTTPParseError(431, "request header block too large")
                break
            head = bytes(self._buffer[:head_end])
            del self._buffer[:head_end + 4]
            if len(head) > self.max_header_bytes:
                raise HTTPParseError(431, "request header block too large")
            request, length = self._parse_head(head)
            if length == 0:
                completed.append(request)
            else:
                self._pending = _PendingBody(request, length)
        return completed

    def _parse_head(self, head: bytes) -> Tuple[ParsedRequest, int]:
        try:
            text = head.decode("latin-1")
        except UnicodeDecodeError as exc:      # pragma: no cover - latin-1 total
            raise HTTPParseError(400, "undecodable request head") from exc
        lines = text.split("\r\n")
        parts = lines[0].split(None, 2)
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise HTTPParseError(400, f"malformed request line {lines[0]!r}")
        method, path, version = parts
        headers = Headers()
        for line in lines[1:]:
            if not line:
                continue
            if line[0] in " \t":               # obs-fold: refuse, not unfold
                raise HTTPParseError(400, "obsolete header line folding")
            name, sep, value = line.partition(":")
            if not sep or not name or name != name.strip():
                raise HTTPParseError(400, f"malformed header line {line!r}")
            headers.add(name.strip(), value.strip())
        if "chunked" in (headers.get("Transfer-Encoding") or "").lower():
            raise HTTPParseError(501, "chunked transfer coding not supported")
        raw_length = headers.get("Content-Length", "0")
        try:
            length = int(raw_length)
        except (TypeError, ValueError):
            length = -1
        if length < 0:
            raise HTTPParseError(400, "bad Content-Length")
        if length > self.max_body_bytes:
            raise HTTPParseError(
                413, f"request body of {length} bytes exceeds the "
                     f"{self.max_body_bytes}-byte limit")
        connection = (headers.get("Connection") or "").lower()
        if version == "HTTP/1.1":
            keep_alive = "close" not in connection
        else:
            keep_alive = "keep-alive" in connection
        request = ParsedRequest(method=method, path=path, version=version,
                                headers=headers, keep_alive=keep_alive)
        return request, length


def render_response(status: int, body: bytes,
                    headers: Optional[Dict[str, str]] = None, *,
                    close: bool = False) -> bytes:
    """Serialize one HTTP/1.1 response: ``Content-Type: application/json``
    + ``Content-Length`` then any application headers (trace ids,
    ``Retry-After``)."""
    reason = http.client.responses.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Server: {_SERVER_NAME}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
    ]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    if close:
        lines.append("Connection: close")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def _error_body(status: int, message: str) -> bytes:
    return json.dumps({"error": message, "status": status}).encode("utf-8")


@dataclass
class _Slot:
    """One response slot in a connection's pipeline (strict request order)."""

    done: bool = False
    data: bytes = b""
    close: bool = False


@dataclass
class _Connection:
    sock: socket.socket
    parser: RequestParser
    last_activity: float
    request_started: Optional[float] = None
    out: bytearray = field(default_factory=bytearray)
    slots: Deque[_Slot] = field(default_factory=deque)
    reads_closed: bool = False      # no further requests accepted
    close_after_flush: bool = False
    closed: bool = False


class _AppThreadPool:
    """Daemon worker threads running blocking application calls.

    Deliberately not ``concurrent.futures``: daemon threads keep a request
    blocked deep in a 30-second batcher deadline from pinning interpreter
    exit, and there is no future plumbing to leak.
    """

    def __init__(self, size: int, name: str):
        self._queue: "queue.SimpleQueue[Optional[Callable[[], None]]]" = \
            queue.SimpleQueue()
        self._threads = [
            threading.Thread(target=self._run, name=f"{name}-{index}",
                             daemon=True)
            for index in range(max(1, int(size)))
        ]
        for thread in self._threads:
            thread.start()

    def submit(self, job: Callable[[], None]) -> None:
        self._queue.put(job)

    def _run(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                return
            try:
                job()
            except Exception:                  # noqa: BLE001 - jobs self-report
                pass

    def stop(self, join_timeout_s: float = 1.0) -> None:
        for _ in self._threads:
            self._queue.put(None)
        deadline = time.monotonic() + join_timeout_s
        for thread in self._threads:
            thread.join(max(deadline - time.monotonic(), 0.0))


class EventLoopFrontEnd:
    """Event-loop HTTP/1.1 server bridging sockets to a blocking app hook.

    Parameters
    ----------
    app:
        ``app(method, path, headers, body) -> (status, body_bytes, headers)``
        — the dispatch :class:`PECANServer` and :class:`PoolServer` expose
        as ``handle_http``.  Called on an
        application thread; may block (batcher waits, worker proxying).
    net:
        The :class:`~repro.serve.config.NetConfig` the front end runs:
        ``host``, the ``max_connections`` budget (overflow connections are
        answered with the QoS shed wire shape — 503, reason
        ``connection-budget``, ``Retry-After`` — and closed), the keep-alive
        ``idle_timeout_s``, the ``request_read_timeout_s`` slowloris guard
        (a partially-received request older than this is answered 408 and
        the connection dropped) and ``io_threads``, the application-thread
        pool size that caps concurrent blocking serving-plane calls.
    port:
        The port to bind; overrides ``net.port`` so a restarted server can
        rebind the port it bound before.
    """

    max_header_bytes = 32768
    max_body_bytes = 256 * 1024 * 1024
    #: Per-connection cap on queued pipelined requests; past it the
    #: connection's reads pause until responses drain (backpressure, not
    #: disconnect).
    max_pipeline = 32
    budget_retry_after_s = 1.0

    def __init__(self, app: AppCallable, net: NetConfig, port: int):
        if net.max_connections < 1:
            raise ValueError("max_connections must be >= 1")
        self.app = app
        self.host = net.host
        self.port = port
        self.max_connections = int(net.max_connections)
        self.idle_timeout_s = float(net.idle_timeout_s)
        self.request_timeout_s = float(net.request_read_timeout_s)
        self.io_threads = int(net.io_threads)
        shed = connection_budget_shed(self.max_connections,
                                      self.budget_retry_after_s)
        self._budget_reply = render_response(
            shed.status,
            json.dumps({"error": str(shed), "reason": shed.reason,
                        "retry_after_s": shed.retry_after_s}).encode("utf-8"),
            {"Retry-After": f"{shed.retry_after_s:.3f}"}, close=True)
        self._listener: Optional[socket.socket] = None
        self._selector: Optional[selectors.BaseSelector] = None
        self._wake_recv: Optional[socket.socket] = None
        self._wake_send: Optional[socket.socket] = None
        self._pool: Optional[_AppThreadPool] = None
        self._thread: Optional[threading.Thread] = None
        self._connections: Dict[socket.socket, _Connection] = {}
        self._completed: Deque[_Connection] = deque()
        self._lock = threading.Lock()
        self._stopping = threading.Event()
        #: Counters surfaced under ``/metrics`` → ``frontend`` (loop thread
        #: only, except ``requests_total`` which app threads never touch).
        self._stats: Dict[str, int] = {
            "accepted_total": 0,
            "rejected_over_budget": 0,
            "idle_closed": 0,
            "slowloris_closed": 0,
            "parse_errors": 0,
            "requests_total": 0,
        }

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "EventLoopFrontEnd":
        if self._thread is not None:
            return self
        self._stopping.clear()
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        # A deep accept backlog is half the point: a 512-client connect storm
        # must queue in the kernel, not bounce off a shallow listen backlog.
        listener.listen(min(max(self.max_connections, 128), 4096))
        listener.setblocking(False)
        self.port = listener.getsockname()[1]
        self._listener = listener
        self._wake_recv, self._wake_send = socket.socketpair()
        self._wake_recv.setblocking(False)
        self._wake_send.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(listener, selectors.EVENT_READ, "accept")
        self._selector.register(self._wake_recv, selectors.EVENT_READ, "wake")
        self._pool = _AppThreadPool(self.io_threads, "repro-serve-app")
        self._thread = threading.Thread(target=self._loop,
                                        name="repro-serve-eventloop",
                                        daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stopping.set()
        self._wake()
        self._thread.join(5.0)
        self._thread = None
        if self._pool is not None:
            self._pool.stop()
            self._pool = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def stats(self) -> Dict[str, object]:
        with self._lock:
            counters = dict(self._stats)
        return {
            "max_connections": self.max_connections,
            "open_connections": len(self._connections),
            "io_threads": self.io_threads,
            **counters,
        }

    # ------------------------------------------------------------------ #
    # Event loop (everything below runs on the loop thread, except where
    # noted)
    # ------------------------------------------------------------------ #
    def _wake(self) -> None:
        """Nudge the selector (any thread)."""
        try:
            if self._wake_send is not None:
                self._wake_send.send(b"\x00")
        except (BlockingIOError, OSError):
            pass                               # a pending byte already wakes it

    def _loop(self) -> None:
        try:
            while not self._stopping.is_set():
                timeout = self._sweep_timeout()
                events = self._selector.select(timeout)
                now = time.monotonic()
                for key, _ in events:
                    if key.data == "accept":
                        self._accept(now)
                    elif key.data == "wake":
                        self._drain_wakeups()
                    else:
                        self._service(key, now)
                self._flush_completed(now)
                self._sweep_timeouts(now)
        finally:
            self._teardown()

    def _sweep_timeout(self) -> float:
        """Selector timeout: fine enough to honour the shortest guard."""
        shortest = min(self.idle_timeout_s, self.request_timeout_s)
        return max(0.05, min(0.5, shortest / 4.0))

    def _teardown(self) -> None:
        for connection in list(self._connections.values()):
            self._close(connection)
        self._connections.clear()
        for sock in (self._listener, self._wake_recv, self._wake_send):
            if sock is not None:
                try:
                    sock.close()
                except OSError:
                    pass
        self._listener = None
        self._wake_recv = None
        self._wake_send = None
        if self._selector is not None:
            self._selector.close()
            self._selector = None

    def _drain_wakeups(self) -> None:
        try:
            while self._wake_recv.recv(4096):
                pass
        except (BlockingIOError, OSError):
            pass

    # -- accept ---------------------------------------------------------- #
    def _accept(self, now: float) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except (BlockingIOError, OSError):
                return
            if len(self._connections) >= self.max_connections:
                self._reject_over_budget(sock)
                continue
            sock.setblocking(False)
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:                    # pragma: no cover - AF-specific
                pass
            parser = RequestParser(max_header_bytes=self.max_header_bytes,
                                   max_body_bytes=self.max_body_bytes)
            connection = _Connection(sock=sock, parser=parser,
                                     last_activity=now)
            self._connections[sock] = connection
            self._selector.register(sock, selectors.EVENT_READ, connection)
            with self._lock:
                self._stats["accepted_total"] += 1

    def _reject_over_budget(self, sock: socket.socket) -> None:
        """Best-effort shed reply to the connection past the budget.

        The reply is one small pre-rendered buffer; if the peer's window
        cannot take it immediately the connection is closed anyway — the
        budget exists to protect the loop, not to guarantee delivery of the
        refusal.
        """
        # Count first: a client that has seen the close must read the count.
        with self._lock:
            self._stats["rejected_over_budget"] += 1
        try:
            sock.setblocking(False)
            sock.send(self._budget_reply)
        except OSError:
            pass
        try:
            sock.close()
        except OSError:
            pass

    # -- per-connection I/O ---------------------------------------------- #
    def _interest(self, connection: _Connection) -> int:
        events = 0
        if (not connection.reads_closed
                and len(connection.slots) < self.max_pipeline):
            events |= selectors.EVENT_READ
        if connection.out:
            events |= selectors.EVENT_WRITE
        return events

    def _update_interest(self, connection: _Connection) -> None:
        if connection.closed:
            return
        events = self._interest(connection)
        if events == 0:
            # Fully quiescent (reads paused, nothing to write): keep the
            # registration with no interest by waiting on nothing — selectors
            # require at least one event, so unregister until state changes.
            try:
                self._selector.unregister(connection.sock)
            except KeyError:
                pass
            return
        try:
            self._selector.modify(connection.sock, events, connection)
        except KeyError:
            self._selector.register(connection.sock, events, connection)

    def _service(self, key: selectors.SelectorKey, now: float) -> None:
        connection: _Connection = key.data
        if connection.closed:
            return
        if key.events & selectors.EVENT_READ:
            self._readable(connection, now)
        if not connection.closed and key.events & selectors.EVENT_WRITE:
            self._writable(connection)

    def _readable(self, connection: _Connection, now: float) -> None:
        try:
            data = connection.sock.recv(_RECV_CHUNK)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._close(connection)
            return
        if not data:
            # Peer hung up.  Anything still in flight is rendered to a dead
            # socket later and discarded on the send error — other
            # connections never notice.
            self._close(connection)
            return
        connection.last_activity = now
        try:
            requests = connection.parser.feed(data)
        except HTTPParseError as exc:
            self._fail_connection(connection, exc.status, exc.message)
            with self._lock:
                self._stats["parse_errors"] += 1
            return
        if connection.parser.partial:
            # Clock the *first* byte of the unfinished request — a slowloris
            # drip must not refresh it, or it never ages out.
            if connection.request_started is None:
                connection.request_started = now
        else:
            connection.request_started = None
        for request in requests:
            self._submit(connection, request)
        self._update_interest(connection)

    def _fail_connection(self, connection: _Connection, status: int,
                         message: str) -> None:
        """Protocol violation: answer (after any pipelined predecessors),
        then close.  The parser state is unrecoverable, so reads stop now."""
        slot = _Slot(done=True, close=True,
                     data=render_response(status, _error_body(status, message),
                                          close=True))
        connection.slots.append(slot)
        connection.reads_closed = True
        self._flush_connection(connection)

    def _submit(self, connection: _Connection, request: ParsedRequest) -> None:
        slot = _Slot(close=not request.keep_alive)
        connection.slots.append(slot)
        if not request.keep_alive:
            connection.reads_closed = True
        with self._lock:
            self._stats["requests_total"] += 1
        self._pool.submit(lambda: self._run_app(connection, slot, request))

    def _run_app(self, connection: _Connection, slot: _Slot,
                 request: ParsedRequest) -> None:
        """Application-thread half of the completion-callback bridge."""
        try:
            status, body, headers = self.app(request.method, request.path,
                                             request.headers, request.body)
        except Exception as exc:               # noqa: BLE001 - wire boundary
            status, headers = 500, {}
            body = _error_body(500, f"{type(exc).__name__}: {exc}")
        slot.data = render_response(int(status), bytes(body), headers,
                                    close=slot.close)
        slot.done = True
        with self._lock:
            self._completed.append(connection)
        self._wake()

    def _flush_completed(self, now: float) -> None:
        while True:
            with self._lock:
                if not self._completed:
                    return
                connection = self._completed.popleft()
            if not connection.closed:
                connection.last_activity = now
                self._flush_connection(connection)

    def _flush_connection(self, connection: _Connection) -> None:
        """Move completed head-of-line slots into the write buffer (order
        preserved for pipelined requests) and try an eager send."""
        progressed = False
        while connection.slots and connection.slots[0].done:
            slot = connection.slots.popleft()
            connection.out += slot.data
            slot.data = b""
            progressed = True
            if slot.close:
                connection.close_after_flush = True
        if progressed:
            self._writable(connection)

    def _writable(self, connection: _Connection) -> None:
        if connection.out:
            try:
                sent = connection.sock.send(connection.out)
                del connection.out[:sent]
            except (BlockingIOError, InterruptedError):
                pass
            except OSError:
                self._close(connection)
                return
        if (not connection.out and connection.close_after_flush
                and not connection.slots):
            self._close(connection)
            return
        self._update_interest(connection)

    def _close(self, connection: _Connection) -> None:
        if connection.closed:
            return
        connection.closed = True
        try:
            self._selector.unregister(connection.sock)
        except (KeyError, ValueError, OSError):
            pass
        try:
            connection.sock.close()
        except OSError:
            pass
        self._connections.pop(connection.sock, None)
        connection.slots.clear()
        connection.out = bytearray()

    # -- timeouts -------------------------------------------------------- #
    def _sweep_timeouts(self, now: float) -> None:
        for connection in list(self._connections.values()):
            if connection.closed:
                continue
            if (connection.request_started is not None
                    and not connection.reads_closed
                    and now - connection.request_started
                    > self.request_timeout_s):
                # Slowloris: a half-request trickling bytes keeps
                # last_activity fresh but never completes; age the *request*.
                # Counted before the 408 goes out, as every close below is.
                with self._lock:
                    self._stats["slowloris_closed"] += 1
                self._fail_connection(
                    connection, 408,
                    "request not received within "
                    f"{self.request_timeout_s:.1f}s")
            elif (not connection.slots and not connection.out
                    and not connection.parser.partial
                    and now - connection.last_activity > self.idle_timeout_s):
                with self._lock:
                    self._stats["idle_closed"] += 1
                self._close(connection)
