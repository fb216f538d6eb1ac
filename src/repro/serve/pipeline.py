"""``repro.serve.pipeline`` — the one ``/predict`` request pipeline.

PECAN-D computes with table lookups and additions only, so its inference is
bitwise deterministic per ``(model@version, canonical input)``.  The exact
response cache, in-flight coalescing and the sampled output checks all rest
on that property, and every server runs a ``/predict`` request through the
same steps, held here once:

1. **decode** — the body becomes a :class:`PredictRequest` (payload, inputs,
   trace context, QoS, ``no_cache``) through :func:`decode_predict_body`;
   anything malformed is a 400;
2. **root span** — ``<prefix>.predict``, closed with a terminal status
   mapped from the reply's HTTP status;
3. **cache / coalesce** — a hit is answered from memory; otherwise the
   request leads (and always publishes its outcome) or follows an identical
   in-flight leader; a failed leader is re-elected up to 3 times before the
   request runs solo;
4. **dispatch** — the only server-specific step: the single server's
   brownout + local micro-batcher, or the pool's admission plane + worker
   proxy;
5. **verify** — sampled :class:`~repro.serve.invariants.InvariantMonitor`
   checks on every executed response;
6. **reply** — the ``trace_id`` field, the ``X-Trace-Id``/``X-Lamport``
   headers and the refusal bodies (shed, 429, 408, 404, 503, 500, with
   ``Retry-After`` where the client should back off).  Hits and coalesced
   followers are spliced from the canonical cached bytes, never re-encoded.

:class:`FrontDoor` is what both servers share on the wire (the
``GET``/``POST`` route table, the front end's lifecycle, the merged
``/trace``), and :func:`json_response` the one JSON reply helper.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple, Union
from urllib.parse import parse_qs, urlparse

import numpy as np

from repro.perf import ckernels
# The module (not its functions) is imported so ``canonical_input_hash`` is
# looked up at call time, where a profiling hook may have wrapped it.
from repro.serve import cache
from repro.serve.cache import (NO_CACHE_HEADER, CachePlane, ResultCache,
                               canonical_num_samples, canonical_response_bytes,
                               splice_json)
from repro.serve.client import _ConnectionPool
from repro.serve.invariants import InvariantMonitor
from repro.serve.metrics import ServerMetrics
from repro.serve.netfront import EventLoopFrontEnd
from repro.serve.qos import RequestQoS, ShedError, parse_qos
from repro.serve.scheduler import (QueueFullError, RequestTimeout,
                                   SchedulerStopped)
from repro.serve.trace import (LAMPORT_HEADER, TRACE_HEADER, TraceContext,
                               Tracer, causal_sort, parse_trace_context)

__all__ = ["FrontDoor", "PredictRequest", "Reply", "RequestPipeline",
           "decode_predict_body", "json_response"]

#: One app-level response: ``(status, body_bytes, headers)``.
HTTPReply = Tuple[int, bytes, Dict[str, str]]


def json_response(status: int, payload: Dict[str, Any],
                  headers: Optional[Dict[str, str]] = None) -> HTTPReply:
    """One app-level JSON response triple: ``(status, body_bytes, headers)``."""
    return (int(status), json.dumps(payload).encode("utf-8"),
            dict(headers or {}))


@dataclass
class PredictRequest:
    """One decoded ``/predict`` request as it moves through the pipeline."""

    inputs: Any
    model: str = ""                      # "" means the default model
    qos: RequestQoS = field(default_factory=RequestQoS)
    trace: TraceContext = field(default_factory=TraceContext)
    no_cache: bool = False
    timeout_s: Optional[float] = None
    #: The client's raw body: the pool forwards these bytes to a worker.
    body: bytes = b""
    # Set by the pipeline: the start time, the root span, the cache identity.
    started: float = 0.0
    root: Any = None
    plane: Optional[CachePlane] = None

    @property
    def root_id(self) -> Optional[str]:
        return self.root.span_id if self.root is not None else None


@dataclass
class Reply:
    """A ``/predict`` outcome before it is encoded.

    ``payload`` is a JSON-ready body; ``body`` is already encoded and is
    sent as is — a worker's reply, or canonical cached bytes with the
    per-request fields spliced on.  ``verdict`` is ``"cached"`` or
    ``"coalesced"`` when the request was answered without executing.
    """

    status: int = 200
    payload: Optional[Dict[str, Any]] = None
    body: Optional[bytes] = None
    headers: Dict[str, str] = field(default_factory=dict)
    verdict: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return self.payload if self.payload is not None else json.loads(self.body)


def decode_predict_body(body: bytes) -> Dict[str, Any]:
    """The JSON object of a ``/predict`` body, which must hold ``inputs``.

    With the compiled kernels on, the top-level ``inputs`` tensor is parsed
    in C with the GIL released (:mod:`repro.perf.ckernels`) into a
    C-contiguous float64 array, and ``json.loads`` parses the rest of the
    body with the tensor's span replaced by ``null``.  Whatever that parser
    declines (no kernel, a BOM, an escaped key, a repeated ``inputs``, an
    empty, ragged or deep array, a token that is not a finite in-range JSON
    number, ...) and any failure on the rest take the ``json.loads`` path
    below.  So the other fields are exactly ``json.loads``'s, the array is
    bitwise ``np.asarray(json.loads(body)["inputs"], np.float64)``, and every
    error is raised with the same message.
    """
    parsed = ckernels._json_inputs(body)
    if parsed is not None:
        inputs, start, end = parsed
        try:
            payload = json.loads((body[:start] + b"null" + body[end:]).decode("utf-8"))
        except (ValueError, RecursionError):
            pass                    # the path below raises it with its message
        else:
            payload["inputs"] = inputs
            return payload
    # JSON on the wire is UTF-8 (RFC 8259): the pool splices its hop fields
    # onto these very bytes.
    payload = json.loads(body.decode("utf-8-sig"))
    if not isinstance(payload, dict):
        raise ValueError("request body must be a JSON object")
    if "inputs" not in payload:
        raise ValueError("request body must contain 'inputs'")
    return payload


def _refusal(exc: Exception) -> Tuple[Reply, Dict[str, Any]]:
    """The reply for an exception raised while serving, plus the attributes
    the root span closes with."""
    if isinstance(exc, ShedError):
        return (Reply(exc.status, {"error": str(exc), "reason": exc.reason,
                                   "retry_after_s": exc.retry_after_s},
                      headers={"Retry-After":
                               f"{max(exc.retry_after_s, 0.0):.3f}"}),
                {"reason": exc.reason})
    if isinstance(exc, QueueFullError):
        return (Reply(429, {"error": str(exc)},
                      headers={"Retry-After": "1.000"}),
                {"reason": "queue-full"})
    if isinstance(exc, RequestTimeout):
        # The details say *where* the deadline died, e.g.
        # ``{"queue_ms": 12.3, "stage": "batch-queue"}``.
        return Reply(408, {"error": str(exc), **exc.details}), exc.details
    failed = {"error": type(exc).__name__}
    if isinstance(exc, SchedulerStopped):
        return Reply(503, {"error": str(exc)}), failed
    if isinstance(exc, KeyError):
        return Reply(404, {"error": str(exc)}), failed
    if isinstance(exc, (ValueError, TypeError)):
        return Reply(400, {"error": str(exc)}), failed
    return Reply(500, {"error": f"{type(exc).__name__}: {exc}"}), failed


def _span_status(status: int) -> str:
    if status < 400:
        return "ok"
    if status == 408:
        return "timeout"
    return "shed" if status in (429, 503) else "error"


class RequestPipeline:
    """Run ``/predict`` requests through the shared steps (module docstring).

    A server supplies what really differs: ``resolve(model)`` maps a model
    name to its versioned cache namespace and the model echo of a reply
    (``None``: uncacheable), and ``dispatch(request)`` executes a request,
    returning a :class:`Reply` or raising a typed exception.  ``on_hit`` is
    told about every cache hit (the pool samples hits for re-execution).
    ``prefix`` names the spans (``server.*`` / ``router.*``) and the
    ``source`` of output checks.
    """

    def __init__(self, prefix: str, *, tracer: Tracer, metrics: ServerMetrics,
                 monitor: InvariantMonitor, cache: Optional[ResultCache],
                 resolve: Callable[[str], Optional[Tuple[str, str]]],
                 dispatch: Callable[[PredictRequest], Reply],
                 follow_timeout_s: float,
                 on_hit: Optional[Callable[[PredictRequest, bytes], None]] = None):
        self.prefix = prefix
        self.tracer = tracer
        self.metrics = metrics
        self.monitor = monitor
        self.cache = cache
        self.resolve = resolve
        self.dispatch = dispatch
        self.follow_timeout_s = follow_timeout_s
        self.on_hit = on_hit

    # -- HTTP ---------------------------------------------------------------
    def handle(self, headers, body: bytes,
               run: Optional[Callable[[PredictRequest], Reply]] = None,
               ) -> HTTPReply:
        """Decode (:func:`decode_predict_body`: with the kernels on, the
        ``inputs`` tensor is parsed in compiled code outside the GIL, with
        the same results as ``json.loads``), run (``run`` defaults to
        :meth:`run`) and encode one ``/predict``; every failure leaves as a
        JSON error reply."""
        ctx = parse_trace_context(None, headers)
        try:
            body = body or b"{}"
            payload = decode_predict_body(body)
            ctx = parse_trace_context(payload, headers)
            request = PredictRequest(
                inputs=payload["inputs"], model=str(payload.get("model") or ""),
                qos=parse_qos(payload, headers), trace=ctx,
                no_cache=bool(payload.get("no_cache")) or bool(
                    headers is not None and headers.get(NO_CACHE_HEADER)),
                body=body)
            reply = (run or self.run)(request)
        except Exception as exc:                 # noqa: BLE001 - wire boundary
            reply = _refusal(exc)[0]
        return self.encode(reply, ctx)

    def encode(self, reply: Reply, ctx: TraceContext) -> HTTPReply:
        """The reply's wire triple, with the trace echo."""
        # The Lamport value lets an upstream router merge this process's
        # clock, keeping cross-process span order causal.
        headers = {**reply.headers, LAMPORT_HEADER: str(self.tracer.clock.value)}
        if ctx.trace_id:
            headers[TRACE_HEADER] = ctx.trace_id
        if reply.body is not None:
            return reply.status, reply.body, headers
        payload = reply.payload
        if ctx.trace_id and "trace_id" not in payload:
            payload = {**payload, "trace_id": ctx.trace_id}
        return json_response(reply.status, payload, headers)

    # -- one request --------------------------------------------------------
    def run(self, request: PredictRequest) -> Reply:
        """Serve one decoded request; refusals raise typed exceptions."""
        ctx, qos = request.trace, request.qos
        trace_id = ctx.ensure_trace_id()
        if ctx.lamport is not None:
            self.tracer.observe_remote(ctx.lamport)
        request.started = time.monotonic()
        request.root = root = self.tracer.start_span(
            f"{self.prefix}.predict", trace_id, parent_id=ctx.parent_span,
            attrs={"model": request.model or None, "priority": qos.priority,
                   "tenant": qos.tenant, "attempt": ctx.attempt})
        try:
            reply = self._cached_or_dispatched(request)
        except Exception as exc:
            failed, attrs = _refusal(exc)
            if "reason" in attrs:
                self.metrics.record_shed(qos.priority, attrs["reason"])
            elif failed.status == 500:
                self.metrics.record_error()
            self.tracer.finish_span(root, status=_span_status(failed.status),
                                    **attrs)
            raise
        attrs: Dict[str, Any] = {"http_status": reply.status}
        if reply.verdict is not None:
            attrs["cache"] = reply.verdict
        elif reply.payload is not None and "queue_ms" in reply.payload:
            attrs["queue_ms"] = reply.payload["queue_ms"]
        self.tracer.finish_span(root, status=_span_status(reply.status), **attrs)
        if reply.verdict is None and reply.status == 200:
            self.verify(ctx, reply.payload if reply.payload is not None
                        else reply.body, source=self.prefix,
                        input_key=(request.plane.invariant_key
                                   if request.plane is not None else None))
        if reply.payload is not None:
            reply.payload["trace_id"] = trace_id
        return reply

    def _plane(self, request: PredictRequest) -> Optional[CachePlane]:
        """The request's cache identity, or ``None`` (uncacheable).

        The epoch is captured before any engine work, so a lifecycle flip
        racing the call invalidates the eventual fill.
        """
        if self.cache is None or request.no_cache:
            return None
        resolved = self.resolve(request.model)
        if resolved is None:
            return None
        try:
            request.inputs = cache.canonical_input_array(request.inputs)
            input_hash = cache.canonical_input_hash(request.inputs)
        except (TypeError, ValueError):
            return None                  # non-numeric: dispatch answers the 400
        namespace, echo = resolved
        return CachePlane(namespace=namespace, input_hash=input_hash,
                          epoch=self.cache.epoch(), echo=echo)

    def _cached_or_dispatched(self, request: PredictRequest) -> Reply:
        """The cache/coalesce loop around :attr:`dispatch`."""
        plane = request.plane = self._plane(request)
        if plane is None:
            return self.dispatch(request)
        for _ in range(3):
            verdict, token = self.cache.begin(plane.namespace, plane.input_hash)
            if verdict == "lead":
                canonical = None
                try:
                    reply = self.dispatch(request)
                    if reply.status == 200:
                        canonical = canonical_response_bytes(
                            reply.payload if reply.payload is not None
                            else reply.body)
                    if canonical is not None:
                        self.cache.insert(plane.namespace, plane.input_hash,
                                          canonical, epoch=plane.epoch)
                    return reply
                finally:
                    # Publish success *or* failure: a leader that dies without
                    # publishing would strand its followers until timeout.
                    self.cache.finish_leader(token, canonical)
            span = self.tracer.start_span(
                f"{self.prefix}.cache", request.trace.trace_id,
                parent_id=request.root_id, attrs={"namespace": plane.namespace})
            if verdict == "hit":
                self.tracer.finish_span(span, verdict="hit")
                if self.on_hit is not None:
                    self.on_hit(request, token)
                return self._replay(request, token, "cached")
            remaining = request.qos.remaining_ms()
            timeout = (remaining / 1e3 if remaining is not None
                       else self.follow_timeout_s)
            if timeout <= 0 or not token.wait(timeout):
                self.tracer.finish_span(span, status="timeout",
                                        verdict="coalesce-timeout")
                self.metrics.record_timeout(request.qos.priority)
                raise RequestTimeout(
                    "deadline expired while coalesced behind an identical "
                    "in-flight request", stage="coalesce-wait")
            if token.ok:
                self.cache.record_follower_served()
                self.tracer.finish_span(span, verdict="coalesced")
                return self._replay(request, token.value, "coalesced")
            # The leader failed: loop back, begin() elects a new leader.
            self.cache.record_reelection()
            self.tracer.finish_span(span, status="error", verdict="leader-failed")
        return self.dispatch(request)

    def _replay(self, request: PredictRequest, canonical: bytes,
                verdict: str) -> Reply:
        """A hit or coalesced follower: the canonical bytes with this
        request's fields spliced on.  Nothing is re-serialized, so the
        outputs are bitwise those of the engine call that filled the entry.
        """
        qos = request.qos
        elapsed = time.monotonic() - request.started
        # Replays skip dispatch, so its request accounting happens here.
        self.metrics.record_submitted(canonical_num_samples(canonical))
        self.metrics.record_completed(elapsed, 0.0, qos.priority, qos.tenant)
        self.metrics.record_stages(qos.priority, cache=elapsed)
        return Reply(body=splice_json(canonical, {
            "model": request.plane.echo, "queue_ms": 0.0,
            "priority": qos.priority, "tenant": qos.tenant, verdict: True,
            "trace_id": request.trace.trace_id}), verdict=verdict)

    def verify(self, ctx: TraceContext, response: Union[bytes, Dict[str, Any]],
               *, source: str, model: str = "",
               input_key: Optional[str] = None) -> None:
        """Sampled output invariants on one executed 200 response (a dict or
        its JSON bytes): finite logits, a stable shape, and a stable argmax
        across client retries (``X-Attempt > 0``, always checked) and — when
        ``input_key`` names the canonical ``namespace:input-hash`` — across
        any two executions of the same input against the same version."""
        if not self.monitor.enabled or not (ctx.attempt > 0
                                            or self.monitor.sample()):
            return
        try:
            if isinstance(response, (bytes, bytearray)):
                response = json.loads(response)
            outputs = response["outputs"]
        except (ValueError, KeyError, TypeError):
            return
        self.monitor.check_outputs(
            model or str(response.get("model") or ""), np.asarray(outputs),
            trace_id=ctx.trace_id, attempt=ctx.attempt, source=source,
            input_key=input_key)


def _trace_query(path: str) -> Optional[str]:
    """``"/trace?id=abc"`` → ``"abc"``; ``"/trace"`` → ``""``; else ``None``."""
    parsed = urlparse(path)
    if parsed.path != "/trace":
        return None
    values = parse_qs(parsed.query).get("id", [])
    return values[0] if values else ""


class FrontDoor:
    """What every server's HTTP surface shares: the ``GET``/``POST`` route
    table, the event-loop front end's lifecycle, the merged ``/trace`` and
    the kept-alive connections to peers.

    A subclass calls ``super().__init__()`` and provides the views
    (``health_snapshot``, ``metrics_snapshot``, ``models_snapshot``,
    ``lifecycle_snapshot``), the two POST handlers
    ``predict_http(headers, body)`` and ``admin_http(path, body, headers)``,
    and the attributes ``config``, ``host``, ``port`` and ``tracer``.  A
    server that fronts other processes (pool workers) lists them in
    :meth:`peers` and reaches them with :meth:`exchange`, over one idle pool
    per server keyed by ``(host, port)`` — the connection layer
    ``ServeClient`` uses too.  Connections are parked only while the server
    is bound.
    """

    _frontend: Optional[EventLoopFrontEnd] = None

    def __init__(self) -> None:
        self._connections = _ConnectionPool(parking=False)

    def handle_http(self, method: str, path: str, headers,
                    body: bytes) -> HTTPReply:
        """Answer one parsed request: ``(status, body_bytes, headers)``.

        The application hook behind the event-loop front end.  ``headers``
        is any case-insensitive ``.get()`` mapping (typically
        :class:`~repro.serve.netfront.Headers`).
        """
        if method == "GET":
            if path == "/healthz":
                return json_response(200, self.health_snapshot())
            if path == "/metrics":
                return json_response(200, self.metrics_snapshot())
            if path == "/models":
                return json_response(200, self.models_snapshot())
            if path == "/admin/status":
                return json_response(200, self.lifecycle_snapshot())
            trace_id = _trace_query(path)
            if trace_id is not None:
                return json_response(200, self.trace_snapshot(trace_id or None))
            return json_response(404, {"error": f"unknown path {path}"})
        if method != "POST":
            return json_response(501, {"error": f"unsupported method {method}"})
        if path.startswith("/admin/"):
            return self.admin_http(path, body, headers)
        if path == "/predict":
            return self.predict_http(headers, body)
        return json_response(404, {"error": f"unknown path {path}"})

    # -- the network plane ----------------------------------------------------
    def _bind(self) -> None:
        """Start the event-loop front end on ``config.net`` and expose the
        bound port (``port=0`` asks for a free one), so tests, pools and
        clients can address the server without racing its startup."""
        self._frontend = EventLoopFrontEnd(
            self.handle_http, self.config.net, self.port).start()
        self.port = self._frontend.port
        self._connections.parking = True

    def _unbind(self) -> None:
        if self._frontend is not None:
            self._frontend.stop()
            self._frontend = None
        # Never park past a stop: an in-flight hop now closes its socket.
        self._connections.parking = False
        self.close_idle()

    def frontend_snapshot(self) -> Dict[str, object]:
        """Network-plane counters for ``/metrics``."""
        return self._frontend.stats() if self._frontend is not None else {}

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- peers ------------------------------------------------------------------
    def close_idle(self, port: Optional[int] = None) -> None:
        """Close the kept-alive peer connections to ``port`` (all if None):
        a respawned worker listens on a new port, so its predecessor's
        sockets would otherwise outlive it."""
        self._connections.close(port)

    def exchange(self, host: str, port: int, method: str, path: str,
                 body: Optional[bytes] = None,
                 headers: Optional[Dict[str, str]] = None,
                 timeout_s: Optional[float] = None,
                 ) -> Tuple[int, bytes, Dict[str, str]]:
        """One HTTP exchange with a peer server over this server's kept-alive
        connections, so a hop costs no TCP connect (the reuse and replay
        rule is ``repro.serve.client._ConnectionPool``'s, shared with
        ``ServeClient``).  Carries this process's Lamport clock out and folds
        the peer's back in, so events after the hop order causally after the
        peer's.  Returns ``(status, body, headers)`` with the reply headers a
        front relays (trace id, ``Retry-After``, Lamport).
        """
        send = {"Content-Type": "application/json"} if body is not None else {}
        send.update(headers or {})
        send[LAMPORT_HEADER] = str(self.tracer.clock.tick())
        status, data, reply_headers = self._connections.exchange(
            host, port, method, path, body, send, timeout_s)
        remote = reply_headers.get(LAMPORT_HEADER)
        if remote is not None:
            try:
                self.tracer.observe_remote(int(remote))
            except ValueError:
                pass
        relayed = {name: value for name, value in reply_headers.items()
                   if name.lower() in ("x-trace-id", "retry-after", "x-lamport")}
        return status, data, relayed

    def peers(self) -> Dict[str, Callable[[str], Tuple[int, bytes]]]:
        """``{name: get}`` of the processes this server fronts, where
        ``get(path)`` answers ``(status, body)``; none by default."""
        return {}

    def fetch_peers(self, path: str) -> Dict[str, Dict[str, object]]:
        """GET ``path`` from every peer concurrently: a single wedged peer
        costs one timeout, not one timeout per peer in front of it."""
        payloads: Dict[str, Dict[str, object]] = {}
        lock = threading.Lock()

        def fetch(name: str, get: Callable[[str], Tuple[int, bytes]]) -> None:
            try:
                status, body = get(path)
                payload = (json.loads(body) if status == 200
                           else {"error": f"HTTP {status}"})
            except (OSError, http.client.HTTPException, ValueError) as exc:
                payload = {"error": f"{type(exc).__name__}: {exc}"}
            with lock:
                payloads[name] = payload

        threads = [threading.Thread(target=fetch, args=peer, daemon=True)
                   for peer in self.peers().items()]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10.0)
        return payloads

    def trace_snapshot(self, trace_id: Optional[str] = None,
                       limit: int = 20) -> Dict[str, object]:
        """The ``/trace`` payload: a recent listing, or one trace's spans —
        this process's merged with every peer's into one causally sorted
        (Lamport) timeline, the cross-process view a slow or failed request
        is debugged with."""
        if not trace_id:
            return {"recent": self.tracer.recent_traces(limit),
                    "trace": self.tracer.snapshot()}
        spans = list(self.tracer.find(trace_id))
        for payload in self.fetch_peers(f"/trace?id={trace_id}").values():
            found = payload.get("spans")
            if isinstance(found, list):
                spans.extend(found)
        return {"trace_id": trace_id, "spans": causal_sort(spans)}
