"""Minimal stdlib client for a running :class:`~repro.serve.server.PECANServer`.

Uses only ``http.client`` so scripts, notebooks and the test suite can talk
to a serving process with no extra dependencies::

    from repro.serve.client import ServeClient
    client = ServeClient("http://127.0.0.1:8080")
    logits = client.predict(images)          # (N, num_classes)
    print(client.metrics()["batching"]["histogram"])

Connections are **kept alive and reused**: each thread holds one persistent
``HTTPConnection`` for its idempotent traffic (every GET, and ``/predict`` —
a pure function of its input), which is what makes the event-loop front
end's keep-alive path the common case instead of a connect/teardown per
request.  A request that fails on a *reused* connection is replayed once on
a fresh socket without consuming the retry budget — a server-side idle reap
or a deploy-cycle restart between two requests is indistinguishable from a
stale keep-alive socket and must not surface to callers.  Non-idempotent
admin verbs always ride a fresh connection that is closed after the
exchange, so they can never hit the stale-socket ambiguity at all.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
import urllib.error
import urllib.parse
import weakref
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.serve.trace import ATTEMPT_HEADER, TRACE_HEADER, new_trace_id

#: Connection-level failures that mean "the socket died under us" — the
#: signature of a pool worker (or the router) being respawned — as opposed to
#: an HTTP-level error the server actually sent.  Shared with the servers'
#: own peer hops (:meth:`repro.serve.pipeline.FrontDoor.exchange`).
_TRANSIENT_ERRORS = (ConnectionResetError, BrokenPipeError, ConnectionAbortedError,
                     http.client.RemoteDisconnected, http.client.BadStatusLine)

#: HTTP statuses that mean "come back later" (queue full, brownout shed,
#: draining) — retryable for idempotent requests, honouring ``Retry-After``.
_BACKOFF_STATUSES = (429, 503)


def _close_registry(conns: Dict[int, http.client.HTTPConnection],
                    lock: threading.Lock) -> None:
    """Close and forget every registered connection (module-level so the
    client's ``weakref.finalize`` callback holds no reference to it)."""
    with lock:
        connections = list(conns.values())
        conns.clear()
    for connection in connections:
        try:
            connection.close()
        except OSError:
            pass


def _is_transient(exc: BaseException) -> bool:
    if isinstance(exc, _TRANSIENT_ERRORS):
        return True
    if isinstance(exc, urllib.error.URLError):
        return isinstance(getattr(exc, "reason", None), _TRANSIENT_ERRORS)
    return False


class ServeHTTPError(RuntimeError):
    """Non-2xx response from the serving endpoint.

    ``retry_after_s`` carries the server's ``Retry-After`` hint (seconds)
    when a 429/503 included one — the floor a well-behaved caller should
    back off before retrying.  Structured admin errors
    (:mod:`repro.serve.adminapi`) additionally carry ``code`` (a stable
    machine-readable category such as ``"not-found"``) and ``reason`` (the
    server-side exception class or validation rule) — branch on those
    instead of regex-matching the message.
    """

    def __init__(self, status: int, message: str,
                 retry_after_s: Optional[float] = None,
                 code: Optional[str] = None,
                 reason: Optional[str] = None):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.retry_after_s = retry_after_s
        self.code = code
        self.reason = reason


def _backoff_delay(attempt: int, retry_after_s: Optional[float],
                   base_s: float = 0.1, cap_s: float = 5.0) -> float:
    """Capped exponential backoff with jitter, floored by ``Retry-After``.

    The server's hint is the floor (it knows its own recovery horizon); the
    exponential term spreads retries from many blocked clients so recovery
    is not met by a thundering herd.
    """
    exp = min(base_s * (2.0 ** max(attempt, 0)), cap_s)
    jittered = random.uniform(exp * 0.5, exp)
    if retry_after_s is not None and retry_after_s > 0:
        return min(max(jittered, retry_after_s), cap_s)
    return jittered


class ServeClient:
    """JSON-over-HTTP client mirroring the server's endpoints.

    Idempotent requests (every GET, and ``/predict`` — bundle inference is a
    pure function of its input) are retried once when the connection is torn
    mid-exchange (``ConnectionResetError`` / ``BrokenPipeError`` /
    ``RemoteDisconnected``): that is what a request hitting a worker being
    respawned looks like from the client side, and the router-side retry only
    covers failures *between* router and worker.  Backpressure answers (HTTP
    429/503) on idempotent requests are retried up to ``backoff_retries``
    times with capped exponential backoff + jitter, honouring the server's
    ``Retry-After`` hint as the floor.  Non-idempotent admin operations
    (``deploy``) are never retried on either path — the first attempt may
    have been applied before the connection died.
    """

    def __init__(self, base_url: str, timeout_s: float = 60.0,
                 transient_retries: int = 1,
                 backoff_retries: int = 2,
                 backoff_cap_s: float = 5.0):
        self.base_url = base_url.rstrip("/")
        parsed = urllib.parse.urlsplit(self.base_url)
        if parsed.scheme not in ("http", ""):
            raise ValueError(f"unsupported scheme {parsed.scheme!r}")
        self._host = parsed.hostname or "127.0.0.1"
        self._port = parsed.port or 80
        self.timeout_s = timeout_s
        self.transient_retries = max(int(transient_retries), 0)
        self.backoff_retries = max(int(backoff_retries), 0)
        self.backoff_cap_s = float(backoff_cap_s)
        #: Trace id of the most recent ``/predict`` call (sent or generated).
        self.last_trace_id: Optional[str] = None
        #: Per-thread persistent keep-alive connections (idempotent traffic
        #: only).  Also tracked in one registry so :meth:`close` can release
        #: every thread's socket deterministically.
        self._local = threading.local()
        self._conns: Dict[int, http.client.HTTPConnection] = {}
        self._conns_lock = threading.Lock()
        # Safety net for clients that are dropped without close(): the
        # finalizer holds the registry (keeping the sockets alive until it
        # runs) and releases them before they could be GC'd unclosed.
        self._finalizer = weakref.finalize(
            self, _close_registry, self._conns, self._conns_lock)

    # ------------------------------------------------------------------ #
    # Connection management
    # ------------------------------------------------------------------ #
    def _new_connection(self) -> http.client.HTTPConnection:
        connection = http.client.HTTPConnection(self._host, self._port,
                                                timeout=self.timeout_s)
        connection._repro_used = False         # fresh-socket marker
        return connection

    def _pooled_connection(self) -> http.client.HTTPConnection:
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = self._new_connection()
            self._local.connection = connection
        with self._conns_lock:
            # (Re-)register every time: after close() a thread's cached
            # connection transparently reconnects, and it must land back in
            # the registry or the next close() would miss its socket.  A
            # different connection under this ident belongs to a dead
            # thread whose id was recycled — release it, nothing can reach
            # it anymore.
            ident = threading.get_ident()
            previous = self._conns.get(ident)
            if previous is not None and previous is not connection:
                try:
                    previous.close()
                except OSError:
                    pass
            self._conns[ident] = connection
        return connection

    def _drop_pooled_connection(self) -> None:
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            connection.close()
            self._local.connection = None
            with self._conns_lock:
                self._conns.pop(threading.get_ident(), None)

    def close(self) -> None:
        """Release every thread's cached keep-alive connection."""
        _close_registry(self._conns, self._conns_lock)
        self._local.connection = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    def _exchange(self, connection: http.client.HTTPConnection, method: str,
                  path: str, data: Optional[bytes],
                  request_headers: Dict[str, str]):
        """One request/response on ``connection``; returns
        ``(status, body, retry_after_s)``.  The body is always read in full —
        the keep-alive contract for reusing the socket afterwards."""
        connection.request(method, path, body=data, headers=request_headers)
        response = connection.getresponse()
        body = response.read()
        retry_after = None
        try:
            retry_after = float(response.headers.get("Retry-After"))
        except (TypeError, ValueError):
            pass
        connection._repro_used = True
        return response.status, body, retry_after

    def _request(self, path: str, payload: Optional[Dict] = None,
                 idempotent: Optional[bool] = None,
                 headers: Optional[Dict[str, str]] = None,
                 trace_id: Optional[str] = None) -> Dict:
        data = json.dumps(payload).encode("utf-8") if payload is not None else None
        method = "POST" if data is not None else "GET"
        if idempotent is None:
            idempotent = data is None          # GETs are always safe to retry
        transient_attempts = 1 + (self.transient_retries if idempotent else 0)
        backoff_attempts = 1 + (self.backoff_retries if idempotent else 0)
        transient = 0
        backoff = 0
        while True:
            request_headers = dict(headers or {})
            if trace_id:
                # Every retry reuses the SAME trace id with an incremented
                # attempt tag: server-side the attempts stitch into one
                # trace, and the runtime-verification plane can compare the
                # retried answer's argmax against the first one.
                request_headers[TRACE_HEADER] = trace_id
                request_headers[ATTEMPT_HEADER] = str(transient + backoff)
            if data:
                request_headers.setdefault("Content-Type", "application/json")
            if idempotent:
                connection = self._pooled_connection()
            else:
                # Admin verbs ride a one-shot connection: a stale keep-alive
                # failure is ambiguous ("did the deploy apply?"), so they
                # must never encounter one.
                connection = self._new_connection()
            reused = bool(getattr(connection, "_repro_used", False))
            try:
                status, body, retry_after = self._exchange(
                    connection, method, path, data, request_headers)
            except Exception as exc:          # noqa: BLE001 - filtered below
                if idempotent:
                    self._drop_pooled_connection()
                else:
                    connection.close()
                if reused and idempotent and _is_transient(exc):
                    # The server reaped this keep-alive socket between
                    # requests (idle timeout, deploy cycle) — that is what a
                    # dead socket under a pooled connection means.  Replaying
                    # on a fresh connection is free and does not consume the
                    # transient budget.  (Timeouts are not transient: they
                    # still surface immediately.)
                    continue
                if not (_is_transient(exc) and transient + 1 < transient_attempts):
                    raise
                transient += 1
                time.sleep(0.05)              # let the respawn win the race
                continue
            finally:
                if not idempotent:
                    connection.close()
            if 200 <= status < 300:
                return json.loads(body.decode("utf-8"))
            code = reason = None
            try:
                error = json.loads(body.decode("utf-8"))
                message = error.get("error", "")
                code = error.get("code")
                reason = error.get("reason")
                if retry_after is None and error.get("retry_after") is not None:
                    retry_after = float(error["retry_after"])
            except Exception:                 # noqa: BLE001 - body may be empty
                message = http.client.responses.get(status, str(status))
            if status in _BACKOFF_STATUSES and backoff + 1 < backoff_attempts:
                backoff += 1
                time.sleep(_backoff_delay(backoff - 1, retry_after,
                                          cap_s=self.backoff_cap_s))
                continue
            raise ServeHTTPError(status, message, retry_after_s=retry_after,
                                 code=code, reason=reason) from None

    # ------------------------------------------------------------------ #
    def predict_response(self, inputs: np.ndarray,
                         model: Optional[str] = None,
                         priority: Optional[str] = None,
                         tenant: Optional[str] = None,
                         deadline_ms: Optional[float] = None,
                         trace_id: Optional[str] = None,
                         no_cache: bool = False) -> Dict:
        """Full JSON response for one ``/predict`` call.

        ``priority`` (``interactive``/``standard``/``batch``), ``tenant`` and
        ``deadline_ms`` (remaining budget) ride in the request body and are
        honoured end to end — front end, router, batcher.  ``trace_id``
        pins the request's distributed-trace id (``X-Trace-Id``); when
        absent one is generated client-side, so the caller can always
        correlate this response with the server's ``/trace`` view.  The id
        used is exposed as :attr:`last_trace_id` and in the returned
        payload's ``trace_id`` field.  ``no_cache=True`` forces a fresh
        engine execution past the server's deterministic response cache
        (and past in-flight coalescing).
        """
        payload: Dict[str, object] = {"inputs": np.asarray(inputs).tolist()}
        if model is not None:
            payload["model"] = model
        if priority is not None:
            payload["priority"] = priority
        if tenant is not None:
            payload["tenant"] = tenant
        if deadline_ms is not None:
            payload["deadline_ms"] = float(deadline_ms)
        if no_cache:
            payload["no_cache"] = True
        trace_id = trace_id or new_trace_id()
        self.last_trace_id = trace_id
        response = self._request("/predict", payload, idempotent=True,
                                 trace_id=trace_id)
        response.setdefault("trace_id", trace_id)
        return response

    def predict(self, inputs: np.ndarray, model: Optional[str] = None,
                **qos) -> np.ndarray:
        """Logits array for one sample or a batch."""
        return np.asarray(self.predict_response(inputs, model=model,
                                                **qos)["outputs"])

    def predict_classes(self, inputs: np.ndarray,
                        model: Optional[str] = None, **qos) -> np.ndarray:
        return np.asarray(self.predict_response(inputs, model=model,
                                                **qos)["classes"])

    def metrics(self) -> Dict:
        return self._request("/metrics")

    def trace(self, trace_id: Optional[str] = None) -> Dict:
        """GET ``/trace`` (recent traces) or ``/trace?id=`` (one timeline)."""
        if trace_id:
            return self._request(f"/trace?id={trace_id}")
        return self._request("/trace")

    def models(self) -> Dict:
        return self._request("/models")

    def healthz(self) -> Dict:
        return self._request("/healthz")

    # ------------------------------------------------------------------ #
    # Lifecycle admin API
    # ------------------------------------------------------------------ #
    def deploy(self, name: str, path: str, version: Optional[int] = None,
               **options) -> Dict:
        """POST ``/admin/deploy``: hot-load a new version of base ``name``.

        ``path`` must be readable by the *serving host* (the admin API ships
        the path, not the bytes).  Extra keyword options (pool only):
        ``canary_fraction``, ``min_samples``, ``max_parity_violations``,
        ``max_latency_ratio``, ``auto``.  Not retried: a deploy is not
        idempotent."""
        from repro.serve.adminapi import DeployRequest

        payload: Dict[str, object] = {"name": name, "path": str(path), **options}
        if version is not None:
            payload["version"] = version
        # Round-trip through the shared wire schema: the client sends exactly
        # the bytes the servers validate, so the two cannot drift.
        request = DeployRequest.from_payload(payload)
        return self._request("/admin/deploy", request.to_payload(),
                             idempotent=False)

    def promote(self, name: str, version: Optional[int] = None) -> Dict:
        from repro.serve.adminapi import PromoteRequest

        request = PromoteRequest(name=name, version=version)
        # Promoting to an explicit-or-inferred version is idempotent on the
        # serving side, but inference happens there; stay conservative.
        return self._request("/admin/promote", request.to_payload(),
                             idempotent=False)

    def rollback(self, name: str) -> Dict:
        from repro.serve.adminapi import RollbackRequest

        return self._request("/admin/rollback",
                             RollbackRequest(name=name).to_payload(),
                             idempotent=False)

    def scale(self, workers: int, reason: str = "operator") -> Dict:
        """POST ``/admin/scale`` (pool only): pin the worker target.

        With the autoscaler enabled the pin is clamped into its
        ``[floor, ceiling]`` envelope and scaling resumes from there."""
        from repro.serve.adminapi import ScaleRequest

        request = ScaleRequest(workers=int(workers), reason=reason)
        return self._request("/admin/scale", request.to_payload(),
                             idempotent=False)

    def admin_status(self) -> Dict:
        return self._request("/admin/status")

    def wait_ready(self, timeout_s: float = 10.0) -> bool:
        """Poll ``/healthz`` until the server answers (or the timeout passes)."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            try:
                if self.healthz().get("status") == "ok":
                    return True
            except (ServeHTTPError, urllib.error.URLError,
                    http.client.HTTPException, OSError):
                time.sleep(0.05)
        return False


class BulkScorer:
    """Offline bulk scoring that soaks idle capacity but yields to online
    traffic.

    Splits a dataset into chunks of ``chunk_size`` samples and submits each
    at ``batch`` priority — the class the serving plane schedules last,
    budgets inside every micro-batch, and sheds first under overload.  Shed
    or rate-limited chunks (429/503) back off (honouring ``Retry-After``)
    and retry, so a long scoring run rides out brownouts instead of failing;
    persistent refusal past ``max_chunk_retries`` raises.

    The chunk size is the head-of-line-blocking knob: a chunk is one request,
    and one request is never split across micro-batches, so it should stay at
    or below the server's ``batch_class_samples`` budget (the CLI default of
    8 matches the default budget of ``max_batch_size=32 // 4``).
    """

    def __init__(self, client: ServeClient, model: Optional[str] = None,
                 tenant: str = "bulk", chunk_size: int = 8,
                 max_chunk_retries: int = 12,
                 on_chunk: Optional[Callable[[Dict], None]] = None):
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.client = client
        self.model = model
        self.tenant = tenant
        self.chunk_size = int(chunk_size)
        self.max_chunk_retries = int(max_chunk_retries)
        self.on_chunk = on_chunk
        self.chunks_total = 0
        self.retries_total = 0
        self.backoff_s_total = 0.0

    def _score_chunk(self, chunk: np.ndarray) -> List[List[float]]:
        for attempt in range(self.max_chunk_retries + 1):
            try:
                response = self.client.predict_response(
                    chunk, model=self.model, priority="batch",
                    tenant=self.tenant)
            except ServeHTTPError as exc:
                if exc.status not in _BACKOFF_STATUSES \
                        or attempt >= self.max_chunk_retries:
                    raise
                delay = _backoff_delay(attempt, exc.retry_after_s)
                self.retries_total += 1
                self.backoff_s_total += delay
                time.sleep(delay)
                continue
            self.chunks_total += 1
            if self.on_chunk is not None:
                self.on_chunk(response)
            return response["outputs"]
        raise RuntimeError("unreachable")      # the loop always returns/raises

    def score(self, inputs: np.ndarray) -> np.ndarray:
        """Score every sample; returns the stacked ``(N, num_classes)`` logits.

        Chunks are submitted sequentially (closed loop): bulk pressure on the
        server is one in-flight request per scorer, and overall bulk
        throughput scales with how much capacity the scheduler grants the
        ``batch`` class — which is exactly the intent.
        """
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim == 0 or inputs.shape[0] == 0:
            raise ValueError("score() needs at least one sample")
        outputs: List[List[float]] = []
        for start in range(0, inputs.shape[0], self.chunk_size):
            outputs.extend(self._score_chunk(inputs[start:start + self.chunk_size]))
        return np.asarray(outputs)
