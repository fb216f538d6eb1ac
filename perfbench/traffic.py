"""Single-threaded HTTP/1.1 load generator over a few keep-alive connections.

One :mod:`selectors` loop drives every connection, so the generator never
competes with itself for the interpreter lock.  The load is a closed loop
(:func:`run_closed_loop`): each connection is one caller that sends a
request, waits for its reply and then sends the next.  Requests are
rendered ahead, while earlier ones are in flight, so a reply is answered by
an immediate send.  A request is due when its connection became free; the
gap to its actual send is recorded as the generator's lateness.

Replies are stored raw; parsing and checking happen after the timed run.
A connection the server drops fails the request it carried and is opened
again, so one reset shows as a failure instead of ending the run.
"""

from __future__ import annotations

import gc
import re
import selectors
import socket
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, List, Optional, Tuple

_LENGTH = re.compile(rb"\r\ncontent-length:\s*(\d+)", re.IGNORECASE)


@dataclass
class Exchange:
    """One request's timeline (monotonic seconds) and its raw reply."""

    index: int
    due: float
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    body: bytes = b""
    error: Optional[str] = None


@dataclass
class _Conn:
    sock: Optional[socket.socket]
    out: bytearray = field(default_factory=bytearray)
    buf: bytearray = field(default_factory=bytearray)
    inflight: Deque[Exchange] = field(default_factory=deque)


class _Loop:
    """The socket loop: connections, sends, and replies parsed off the wire."""

    def __init__(self, host: str, port: int, connections: int):
        self.selector = selectors.DefaultSelector()
        self.address = (host, port)
        self.conns = [self._connect(_Conn(None)) for _ in range(connections)]
        self.finished: List[Exchange] = []
        self.resets = 0

    def _connect(self, conn: _Conn) -> _Conn:
        sock = socket.create_connection(self.address, timeout=10.0)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setblocking(False)
        conn.sock = sock
        self.selector.register(sock, selectors.EVENT_READ, conn)
        return conn

    def _reset(self, conn: _Conn, reason: str) -> None:
        """The server dropped ``conn``: fail what it carried, reconnect."""
        self.resets += 1
        while conn.inflight:
            exchange = conn.inflight.popleft()
            exchange.error = reason
            self.finished.append(exchange)
        self.selector.unregister(conn.sock)
        conn.sock.close()
        conn.out.clear()
        conn.buf.clear()
        self._connect(conn)

    def close(self) -> None:
        for conn in self.conns:
            self.selector.unregister(conn.sock)
            conn.sock.close()
        self.selector.close()

    def send(self, conn: _Conn, exchange: Exchange, data: bytes) -> None:
        exchange.sent = time.monotonic()
        conn.inflight.append(exchange)
        pending = bool(conn.out)
        conn.out += data
        if not pending:
            self._flush(conn)

    def _flush(self, conn: _Conn) -> None:
        try:
            sent = conn.sock.send(conn.out)
        except (BlockingIOError, InterruptedError):
            sent = 0
        except OSError as exc:
            self._reset(conn, f"send failed: {exc!r}")
            return
        del conn.out[:sent]
        events = selectors.EVENT_READ
        if conn.out:
            events |= selectors.EVENT_WRITE
        self.selector.modify(conn.sock, events, conn)

    def poll(self, timeout: float, on_done: Callable[[_Conn, Exchange], None],
             on_reset: Callable[[_Conn], None] = lambda conn: None) -> None:
        for key, events in self.selector.select(timeout):
            conn = key.data
            resets = self.resets
            if events & selectors.EVENT_WRITE:
                self._flush(conn)
            if events & selectors.EVENT_READ and resets == self.resets:
                self._read(conn, on_done)
            if resets != self.resets:
                on_reset(conn)

    def _read(self, conn: _Conn, on_done) -> None:
        try:
            data = conn.sock.recv(1 << 18)
        except (BlockingIOError, InterruptedError):
            return
        except OSError as exc:
            self._reset(conn, f"recv failed: {exc!r}")
            return
        if not data:
            self._reset(conn, "server closed the connection")
            return
        conn.buf += data
        now = time.monotonic()
        while conn.inflight:
            head_end = conn.buf.find(b"\r\n\r\n")
            if head_end < 0:
                return
            match = _LENGTH.search(conn.buf, 0, head_end + 2)
            length = int(match.group(1)) if match else 0
            total = head_end + 4 + length
            if len(conn.buf) < total:
                return
            exchange = conn.inflight.popleft()
            exchange.status = int(conn.buf[9:12])
            exchange.body = bytes(conn.buf[head_end + 4:total])
            exchange.done = now
            del conn.buf[:total]
            self.finished.append(exchange)
            on_done(conn, exchange)

    def fail_inflight(self, reason: str) -> None:
        for conn in self.conns:
            while conn.inflight:
                exchange = conn.inflight.popleft()
                exchange.error = reason
                self.finished.append(exchange)

    @property
    def busy(self) -> bool:
        return any(conn.inflight for conn in self.conns)


def run_closed_loop(host: str, port: int, render: Callable[[int], bytes], *,
                    duration_s: float = float("inf"),
                    count: Optional[int] = None, connections: int = 2,
                    drain_s: float = 60.0,
                    tick: Callable[[float], None] = lambda now: None
                    ) -> List[Exchange]:
    """Keep one request in flight on each of ``connections`` connections.

    Sends until ``duration_s`` has passed or ``count`` requests went out.
    ``render(i)`` builds request ``i``; one request per connection is kept
    rendered ahead of its send.  ``tick(now)`` is called at least every
    50 ms while the loop runs.
    """
    loop = _Loop(host, port, connections)
    ready: Deque[Tuple[int, bytes]] = deque()
    rendered = 0

    def top_up() -> None:
        nonlocal rendered
        while len(ready) < connections and rendered != count:
            ready.append((rendered, render(rendered)))
            rendered += 1

    def issue(conn: _Conn, due: float) -> None:
        if due < stop_at and ready:
            index, data = ready.popleft()
            loop.send(conn, Exchange(index, due), data)

    top_up()
    start = time.monotonic()
    stop_at = start + duration_s
    deadline = (start if count else stop_at) + drain_s
    gc.disable()
    try:
        tick(start)
        for conn in loop.conns:
            issue(conn, start)
        while loop.busy:
            top_up()
            tick(time.monotonic())
            if time.monotonic() > deadline:
                loop.fail_inflight("no reply before the drain deadline")
                break
            loop.poll(0.05, lambda conn, exchange: issue(conn, exchange.done),
                      lambda conn: issue(conn, time.monotonic()))
    finally:
        gc.enable()
        loop.close()
    return sorted(loop.finished, key=lambda exchange: exchange.index)
