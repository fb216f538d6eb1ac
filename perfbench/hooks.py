"""Ledger spans for a traced server process.

:func:`install` wraps the public entry points of each serving layer with a
timer before any server or engine exists.  Every call becomes one row::

    (name, trace_id, start, duration, self_time, samples, extra)

``start`` is ``time.monotonic()``, the same clock as the benchmark process,
so rows can be cut to the measured window.  ``self_time`` is the duration
minus the time spent in wrapped calls made from inside it on the same
thread.  ``trace_id`` is the request's ``X-Trace-Id`` header: the wrapped
``handle_http`` publishes it for every call beneath it on its thread.
Rows stay in memory and are written once, when the server exits.

Only the process that runs this module is wrapped; pool workers are spawned
fresh and report through ``/metrics`` instead.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Callable, List, Optional

TRACE_HEADER = "X-Trace-Id"


def _trace_id(headers) -> Optional[str]:
    return headers.get(TRACE_HEADER) if headers else None


class SpanRecorder:
    """In-memory span rows plus the per-thread nesting they need."""

    def __init__(self):
        self.rows: List[tuple] = []
        self._local = threading.local()

    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, name: str, fn: Callable, *,
              key_of: Optional[Callable] = None,
              samples_of: Optional[Callable] = None,
              extra_of: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped to record one row per call.

        ``key_of(args)`` names the request and, when given, publishes it to
        nested calls on this thread; otherwise the published key is used.
        """
        recorder = self
        local = self._local

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = recorder._stack()
            previous = getattr(local, "key", None)
            key = key_of(args) if key_of is not None else previous
            local.key = key
            stack.append(0.0)
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.monotonic() - start
                children = stack.pop()
                if stack:
                    stack[-1] += duration
                local.key = previous
            recorder.rows.append((
                name, key, start, duration, duration - children,
                samples_of(args) if samples_of is not None else 0,
                extra_of(args, result) if extra_of is not None else None))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def timed_feed(self, fn: Callable) -> Callable:
        """``RequestParser.feed``: a chunk's parse time goes to the requests
        it completes, split evenly; chunks completing none carry over."""
        recorder = self
        carried = {}

        def feed(parser, data):
            start = time.monotonic()
            completed = fn(parser, data)
            end = time.monotonic()
            spent = carried.pop(id(parser), 0.0) + end - start
            if not completed:
                carried[id(parser)] = spent
                return completed
            share = spent / len(completed)
            for request in completed:
                recorder.rows.append(("netfront.parse",
                                      _trace_id(request.headers), start,
                                      share, share, 0, None))
            return completed

        feed.__wrapped__ = fn
        return feed

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"rows": self.rows}, handle, separators=(",", ":"))


def _predict_key(args) -> Optional[str]:
    # handle_http(self, method, path, headers, body): only /predict is a
    # request of the workload; /metrics scrapes stay unkeyed.
    if args[1] == "POST" and args[2] == "/predict":
        return _trace_id(args[3])
    return None


def _verdict(args, result) -> str:
    status, body = result[0], result[1]
    if status == 200 and (b'"cached": true' in body[-256:]
                          or b'"coalesced": true' in body[-256:]):
        return "hit"
    return "miss"


def install() -> SpanRecorder:
    """Wrap every layer's entry point; returns the recorder to dump."""
    from repro.cam import runtime
    from repro.ir import executor, ops
    from repro.serve import cache, engine, netfront, pool, qos, scheduler, \
        server

    recorder = SpanRecorder()
    timed = recorder.timed

    netfront.RequestParser.feed = recorder.timed_feed(
        netfront.RequestParser.feed)
    netfront.render_response = timed(
        "netfront.render", netfront.render_response,
        key_of=lambda args: _trace_id(args[2] if len(args) > 2 else None))

    server.PECANServer.handle_http = timed(
        "server.http", server.PECANServer.handle_http, key_of=_predict_key)
    server.PECANServer.predict = timed("server.predict",
                                       server.PECANServer.predict)
    hashed = timed("cache.hash", cache.canonical_input_hash)
    for module in (cache, server, pool):
        module.canonical_input_hash = hashed
    scheduler.InferenceRequest.result = timed(
        "scheduler.result", scheduler.InferenceRequest.result,
        extra_of=lambda args, result: (args[0].queue_seconds,
                                       args[0].infer_seconds))

    engine.BundleEngine.predict = timed(
        "engine.predict", engine.BundleEngine.predict,
        samples_of=lambda args: len(args[1]))
    executor.GraphExecutor.run = timed(
        "ir.run", executor.GraphExecutor.run,
        samples_of=lambda args: len(args[1]))
    runtime.LUTLayerRuntime.__call__ = timed(
        "ir.pecan", runtime.LUTLayerRuntime.__call__)
    ops.batch_norm = timed("ir.batchnorm", ops.batch_norm)
    for op in ("max_pool2d", "avg_pool2d", "global_avg_pool2d"):
        setattr(ops, op, timed("ir.pool", getattr(ops, op)))

    pool.PoolServer.handle_http = timed(
        "pool.http", pool.PoolServer.handle_http, key_of=_predict_key)
    pool.PoolServer.handle_predict = timed(
        "pool.predict", pool.PoolServer.handle_predict, extra_of=_verdict)
    qos.FairScheduler.acquire = timed(
        "qos.admission", qos.FairScheduler.acquire,
        extra_of=lambda args, waited: waited)
    return recorder
