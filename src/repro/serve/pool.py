"""Data-parallel serving: a router in front of a pool of worker processes.

One Python process cannot scale NumPy/CAM inference across cores — the GIL
serializes the HTTP threads and the batcher, and a single engine is one
compute stream.  Following the router-over-replicated-engines architecture of
vLLM's production stack, :class:`PoolServer` runs **N worker processes**, each
hosting a full single-process serving plane (:class:`~repro.serve.server.PECANServer`:
bundle engine + dynamic micro-batcher + sampled parity audits) over **memory-mapped
bundle arrays**, fronted by an HTTP router that speaks the exact same
``/predict`` protocol:

* **mmap sharing** — workers load bundles with
  ``load_deployment_bundle(path, mmap_mode="r")``; every process maps the
  same extracted ``.npy`` files, so the OS keeps one resident copy of the
  LUT/prototype pages for the whole pool instead of one per worker.
* **Pluggable routing** — ``round_robin`` (cheap, uniform),
  ``least_outstanding`` (load-aware: the worker with the fewest in-flight
  proxied requests), ``model_affinity`` (a stable hash of the request's model
  name pins each model to a worker so per-model LRU caches stay hot),
  ``cache_affinity`` (a stable hash of the request's *canonical input* pins
  repeat traffic to the worker that already executed it).
* **Deterministic response cache + coalescing** — with ``cache_mb`` set, the
  shared request pipeline (:mod:`repro.serve.pipeline`) answers repeat
  requests from the router's exact cache, namespaced per ``model@version``
  and invalidated atomically by the lifecycle plane, and coalesces identical
  concurrent requests into one leader call.  One hit in
  ``cache_check_every`` is re-executed on a worker from the invariant
  monitor's one bounded checker queue and compared bitwise (``cache_parity``).
* **Self-healing** — each worker reports heartbeats (with light request
  counters) over its control pipe; the monitor thread detects a dead process
  (exit code) or a hung one (heartbeat silence), removes it from rotation,
  and respawns a replacement without dropping the service.  Requests that hit
  a dying worker are transparently retried on a healthy one.
* **Graceful drain** — ``stop(drain=True)`` (and ``SIGTERM`` under
  :meth:`PoolServer.serve_forever`) stops admitting new requests, lets every
  in-flight request finish, then shuts the workers down cleanly.
* **Aggregated observability** — ``/metrics`` merges the router's own
  end-to-end latency/throughput counters with every worker's full metrics
  payload plus a summed cross-worker aggregate; ``/models`` and ``/healthz``
  likewise report per-worker and pool-level state.
* **Distributed tracing + runtime verification** — every request carries a
  trace id (``X-Trace-Id``) through router admission, dispatch (including
  failover retries and canary mirrors), the worker's batcher and the engine;
  spans carry per-process Lamport clocks merged across each hop, so
  ``/trace?id=`` reconstructs a causally-ordered cross-process timeline.  An
  :class:`~repro.serve.invariants.InvariantMonitor` at the router samples
  responses for finite logits, stable shapes and retry-stable argmaxes,
  judges canary and cache parity, and its violations spend the rollout
  gate's budget (a corrupted canary rolls back automatically).

The router adds no numeric work: it forwards the client's bytes plus spliced
QoS/``no_cache`` fields over a kept-alive connection and returns the worker's
response verbatim, so pooled responses are byte-identical to single-process
ones (bitwise logits on the PECAN-D path, which
``benchmarks/test_bench_pool_serving.py`` asserts).
"""

from __future__ import annotations

import http.client
import itertools
import json
import multiprocessing
import os
import signal
import socket
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.serve import adminapi, cache
from repro.serve.autoscale import Autoscaler, ScaleSignals
from repro.serve.cache import (ResultCache, canonical_response_bytes,
                               splice_json, stable_route_hash)
from repro.serve.client import ServeHTTPError
from repro.serve.config import CacheConfig, NetConfig, ServeConfig
from repro.serve.lifecycle import (PROMOTED, ROLLED_BACK, CanaryPolicy,
                                   LifecycleError, Rollout, RolloutGate,
                                   format_versioned, split_versioned)
from repro.serve.invariants import InvariantMonitor, Violation
from repro.serve.metrics import ServerMetrics, aggregate_counter_trees
from repro.serve.pipeline import (FrontDoor, HTTPReply, PredictRequest, Reply,
                                  RequestPipeline, json_response)
from repro.serve.qos import QoSConfig, RequestQoS, ShedError, qos_wire_fields
from repro.serve.scheduler import QueueFullError, RequestTimeout
from repro.serve.trace import (ATTEMPT_HEADER, PARENT_SPAN_HEADER,
                               TRACE_HEADER, TraceContext, Tracer)

PathLike = Union[str, Path]


# --------------------------------------------------------------------------- #
# Worker process
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class WorkerConfig:
    """Everything a worker process needs to stand up its serving plane.

    Picklable: the config crosses the process boundary at spawn time.
    ``serve`` is the router's own :class:`ServeConfig`; the worker derives
    its server's config from it (:func:`worker_serve_config`).  Bundles
    travel as ``(name, path)`` pairs — each worker loads (and memory-maps)
    its own engines from disk.
    """

    serve: ServeConfig
    bundles: Tuple[Tuple[str, str], ...]
    #: ``(base, version)`` pairs applied after bundle registration, so a
    #: worker respawned mid-lifecycle (after a deploy/promote/rollback) comes
    #: up with the same alias state as the survivors.
    active_versions: Tuple[Tuple[str, int], ...] = ()


def worker_serve_config(router: ServeConfig) -> ServeConfig:
    """The :class:`PECANServer` config of one pool worker.

    A worker keeps the router's engine, trace and lifecycle settings and its
    bind host, with four exceptions:

    * it binds an ephemeral loopback port of its own;
    * its response cache is off: the router's cache is the single source of
      cached bytes, which keeps the sampled cache-parity probes honest (a
      probe re-executes on a worker — a worker-side cache would just echo
      its own entry back);
    * its network front end runs the default budgets;
    * of the QoS plane it enforces only the bulk-class sample budget of its
      batcher — admission and fairness live at the router.
    """
    return replace(
        router, net=NetConfig(host=router.net.host, port=0),
        qos=QoSConfig(batch_class_samples=router.qos.batch_class_samples),
        cache=CacheConfig(enabled=False))


def _worker_admin(server, message: Dict[str, object]) -> Dict[str, object]:
    """Apply one lifecycle command to a worker's in-process server.

    Runs on a background thread inside the worker: a bundle load can take
    seconds, and the control loop must keep heartbeating (and the HTTP
    threads keep serving) the whole time — that is what makes a deploy
    zero-downtime from the pool's point of view.
    """
    op = message.get("op")
    try:
        if op == "deploy":
            deployed = server.deploy_bundle(str(message["path"]),
                                            name=str(message["name"]),
                                            version=message.get("version"),
                                            preload=True)
            return {"ok": True, "deployed": deployed}
        if op == "promote":
            info = server.promote(str(message["name"]),
                                  version=message.get("version"))
            return {"ok": True, **info}
        if op == "rollback":
            return {"ok": True, **server.rollback(str(message["name"]))}
        if op == "undeploy":
            return {"ok": True,
                    "undeployed": server.undeploy(str(message["name"]))}
        return {"ok": False, "error": f"unknown admin op {op!r}"}
    except Exception as exc:                       # noqa: BLE001 - reported to parent
        return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}


def _worker_main(config: WorkerConfig, conn) -> None:
    """Entry point of one pool worker (runs in the child process).

    Builds a :class:`PECANServer` on an ephemeral loopback port, reports
    ``("ready", {port, pid})`` on the control pipe, then loops: answer
    control commands (``stop``, lifecycle ``admin`` ops, plus the
    ``crash``/``hang`` fault injections the chaos tests use) and emit a
    heartbeat with light request counters every ``heartbeat_interval_s``.
    Admin commands run on background threads (bundle loads must not silence
    the heartbeat); their results are queued and shipped from the control
    loop, the pipe's only writer.  Exits when told to stop, when the pipe
    breaks, or when the parent process disappears (no orphan servers).
    """
    # Imported here (not module top level) so the parent's import of this
    # module stays cheap and the child builds everything fresh.
    import queue as queue_module

    from repro.serve.server import PECANServer

    serve_config = worker_serve_config(config.serve)
    try:
        server = PECANServer(config=serve_config, trace_service="worker")
        for name, path in config.bundles:
            server.add_bundle(path, name=name,
                              preload=serve_config.lifecycle.preload)
        # A worker spawned mid-lifecycle replays the pool's promote history
        # so its aliases match the surviving workers'.
        for base, version in config.active_versions:
            if server.registry.active_version(base) != version:
                server.promote(base, version=version)
        server.start()
    except Exception as exc:                       # noqa: BLE001 - reported to parent
        try:
            conn.send(("failed", {"error": f"{type(exc).__name__}: {exc}"}))
        except (BrokenPipeError, OSError):
            pass
        return

    try:
        conn.send(("ready", {"port": server.port, "pid": os.getpid()}))
    except (BrokenPipeError, OSError):
        server.stop()
        return

    admin_results: "queue_module.Queue[Tuple[int, Dict[str, object]]]" = \
        queue_module.Queue()

    def run_admin(message: Dict[str, object]) -> None:
        admin_results.put((int(message.get("req", 0)),
                           _worker_admin(server, message)))

    parent = multiprocessing.parent_process()
    try:
        while True:
            metrics = server.metrics
            conn.send(("heartbeat", {
                "requests_total": metrics.requests_total,
                "responses_total": metrics.responses_total,
                "errors_total": metrics.errors_total,
                "rejected_total": metrics.rejected_total,
                # Live pressure signals for the autoscaler: batcher backlog
                # across this worker's models, and its recent p99.
                "queue_depth": server._overload_signal()[0],
                "p99_ms": metrics.recent_p99_ms(),
            }))
            while not admin_results.empty():
                req, payload = admin_results.get_nowait()
                conn.send(("admin", {"req": req, **payload}))
            if conn.poll(serve_config.pool.heartbeat_interval_s):
                try:
                    message = conn.recv()
                except EOFError:
                    break
                command = message.get("cmd") if isinstance(message, dict) else message
                if command == "stop":
                    break
                if command == "admin":             # lifecycle op (async)
                    threading.Thread(target=run_admin, args=(message,),
                                     name="repro-worker-admin",
                                     daemon=True).start()
                    continue
                if command == "crash":             # fault injection (tests)
                    os._exit(int(message.get("code", 13)))
                if command == "hang":              # fault injection (tests):
                    # stop heartbeating/answering control traffic; the HTTP
                    # threads stay up, emulating a wedged control plane.
                    time.sleep(float(message.get("seconds", 3600.0)))
                    continue
                if command == "slow":              # fault injection (chaos):
                    # stretch every dispatched batch by the given latency —
                    # overload/brownout behaviour without real saturation.
                    # seconds=0 clears the fault.
                    server.injected_latency_s = float(
                        message.get("seconds", 0.05))
                    continue
                if command == "corrupt":           # fault injection (chaos):
                    # poison every response's first logit with NaN after the
                    # engine ran — the runtime-verification plane must catch
                    # it.  seconds=0 clears the fault.
                    server.corrupt_logits = bool(
                        float(message.get("seconds", 1.0)))
                    continue
            if parent is not None and not parent.is_alive():
                break
    except (BrokenPipeError, OSError):
        pass
    finally:
        server.stop()
        try:
            conn.send(("bye", {}))
        except (BrokenPipeError, OSError):
            pass


# --------------------------------------------------------------------------- #
# Worker handles (parent side)
# --------------------------------------------------------------------------- #
class WorkerHandle:
    """Parent-side view of one worker process."""

    def __init__(self, worker_id: int, process, conn):
        self.id = worker_id
        self.process = process
        self.conn = conn
        self.port: Optional[int] = None
        #: starting | probing | ready | retiring | failed | dead | stopped.
        #: ``probing``: up, awaiting the router's /healthz readiness probe
        #: (autoscaler on).  ``retiring``: out of the rotation, draining its
        #: outstanding requests toward a clean stop (never respawned).
        self.state = "starting"
        self.error: Optional[str] = None
        self.retiring = False         # scale-down victim (exit ≠ crash)
        self.stop_sent = False        # retirement stop command delivered
        self.outstanding = 0          # in-flight proxied requests (pool lock)
        self.dispatched_total = 0
        self.proxy_failures = 0
        self.spawned_at = time.monotonic()
        self.last_heartbeat = time.monotonic()
        self.heartbeat: Dict[str, int] = {}
        #: Lifecycle-command acks keyed by request id; written by the monitor
        #: thread (the pipe's only reader), popped by the admin broadcaster.
        self.admin_results: Dict[int, Dict[str, object]] = {}

    @property
    def alive(self) -> bool:
        return self.process.exitcode is None

    def describe(self) -> Dict[str, object]:
        return {
            "id": self.id,
            "pid": self.process.pid,
            "port": self.port,
            "state": self.state,
            "outstanding": self.outstanding,
            "dispatched": self.dispatched_total,
            "proxy_failures": self.proxy_failures,
            "uptime_s": round(time.monotonic() - self.spawned_at, 3),
            "heartbeat_age_s": round(time.monotonic() - self.last_heartbeat, 3),
            "counters": dict(self.heartbeat),
            "error": self.error,
        }


# --------------------------------------------------------------------------- #
# Routing policies
# --------------------------------------------------------------------------- #
class RoutingPolicy:
    """Choose a ready worker for one request.

    ``choose`` receives the current ready workers (never empty) in ascending
    worker-id order and, when :attr:`needs_model` is set, the request's model
    name (``""`` for the default model).  Policies with :attr:`needs_key`
    additionally receive ``key`` — the request's canonical input hash
    (:func:`~repro.serve.cache.canonical_input_hash`), ``""`` when the body
    had no hashable inputs.
    """

    name = "abstract"
    needs_model = False
    needs_key = False

    def choose(self, workers: Sequence[WorkerHandle],
               model: str = "", key: str = "") -> WorkerHandle:
        raise NotImplementedError


class RoundRobinPolicy(RoutingPolicy):
    """Uniform rotation across ready workers."""

    name = "round_robin"

    def __init__(self):
        self._ticket = itertools.count()

    def choose(self, workers: Sequence[WorkerHandle], model: str = "") -> WorkerHandle:
        return workers[next(self._ticket) % len(workers)]


class LeastOutstandingPolicy(RoutingPolicy):
    """The worker with the fewest in-flight requests (ties rotate)."""

    name = "least_outstanding"

    def __init__(self):
        self._ticket = itertools.count()

    def choose(self, workers: Sequence[WorkerHandle], model: str = "") -> WorkerHandle:
        rotation = next(self._ticket) % len(workers)
        rotated = list(workers[rotation:]) + list(workers[:rotation])
        return min(rotated, key=lambda worker: worker.outstanding)


class ModelAffinityPolicy(RoutingPolicy):
    """Pin each model name to a worker via a stable hash.

    Keeps one model's traffic on one worker so that worker's registry LRU
    (and its warm engine state) stays hot even when the pool serves more
    models than fit one process's ``--max_total_values`` budget.  The hash is
    taken over the current ready set, so a dead worker's models remap
    deterministically to the survivors and remap back when it returns.
    """

    name = "model_affinity"
    needs_model = True

    def choose(self, workers: Sequence[WorkerHandle], model: str = "") -> WorkerHandle:
        return workers[stable_route_hash(model) % len(workers)]


class CacheAffinityPolicy(RoutingPolicy):
    """Pin each *request* (canonical input hash) to a worker.

    Repeat traffic for one input keeps landing on the same worker, so its
    batcher/engine state is warm and — with the router cache filling from
    that worker — the pool behaves like a consistent-hash cache tier.
    Requests without hashable inputs fall back to the model pin, so the
    policy degrades to ``model_affinity`` rather than randomizing.
    """

    name = "cache_affinity"
    needs_model = True
    needs_key = True

    def choose(self, workers: Sequence[WorkerHandle], model: str = "",
               key: str = "") -> WorkerHandle:
        return workers[stable_route_hash(key or model) % len(workers)]


POLICIES = {
    policy.name: policy
    for policy in (RoundRobinPolicy, LeastOutstandingPolicy,
                   ModelAffinityPolicy, CacheAffinityPolicy)
}


def make_policy(policy: Union[str, RoutingPolicy]) -> RoutingPolicy:
    if isinstance(policy, RoutingPolicy):
        return policy
    try:
        return POLICIES[policy]()
    except KeyError:
        raise ValueError(f"unknown routing policy {policy!r}; "
                         f"available: {sorted(POLICIES)}") from None


# --------------------------------------------------------------------------- #
# The pool
# --------------------------------------------------------------------------- #
class PoolServer(FrontDoor):
    """Route ``/predict`` traffic over a self-healing pool of worker processes.

    Constructed from a :class:`~repro.serve.config.ServeConfig` (``None``
    means the defaults).  The router reads:

    ``net``
        Router bind address (``port=0`` picks a free port, exposed as
        :attr:`port` after :meth:`start`) and event-loop budgets.  Workers
        always bind ephemeral loopback ports of their own.
    ``pool``
        ``workers`` (data-parallel worker processes), ``policy``
        (:data:`POLICIES`), the heartbeat cadence and the silence after
        which a *ready* worker is declared hung, killed and respawned,
        ``start_timeout_s`` (spawn + imports + bundle load before a worker
        counts as hung), ``proxy_retries`` (*additional* workers a request
        is retried on after a connection-level failure; timeouts are never
        retried — the work may still be running), ``proxy_timeout_s`` and
        ``start_method`` (the default ``"spawn"`` gives every worker a
        pristine interpreter).
    ``cache``
        The router-level deterministic response cache and the sampling
        stride of its cache-parity probes (every Nth hit is re-executed on
        a worker and compared bitwise; 0 disables probes).
    ``qos`` / ``autoscale``
        Admission, fairness and brownout at the router; the ``autoscale``
        section turns the fixed worker count into an elastic envelope (see
        :mod:`repro.serve.autoscale`).

    ``engine``, ``trace`` and ``lifecycle`` configure every worker's
    :class:`~repro.serve.server.PECANServer` (see
    :func:`worker_serve_config`); ``engine.mmap`` (on by default) lets the
    workers share bundle pages.
    """

    def __init__(self, *, config: Optional[ServeConfig] = None):
        super().__init__()
        config = config if config is not None else ServeConfig()
        if config.pool.workers < 1:
            raise ValueError("a pool needs at least one worker")
        self.config = config
        self.host = config.net.host
        self.port = config.net.port
        self.num_workers = int(config.pool.workers)
        self.policy = make_policy(config.pool.policy)
        #: The QoS plane: weighted-fair dispatch slots, per-tenant token
        #: buckets and the overload brownout controller, all living at the
        #: router (workers run their own per-process brownout too).
        self.qos_config = config.qos
        self.fair_scheduler = self.qos_config.make_fair_scheduler(self.num_workers)
        self.rate_limits = self.qos_config.make_buckets()
        self.brownout = self.qos_config.make_brownout(self._overload_signal)
        self.heartbeat_interval_s = config.pool.heartbeat_interval_s
        self.heartbeat_timeout_s = config.pool.heartbeat_timeout_s
        self.start_timeout_s = config.pool.start_timeout_s
        self.proxy_retries = config.pool.proxy_retries
        self.proxy_timeout_s = config.pool.proxy_timeout_s
        self.start_method = config.pool.start_method
        self.mmap_mode = config.engine.mmap_mode
        trace_dir = config.trace.trace_dir
        #: Elastic worker-target policy; ``None`` for a fixed-size pool.
        #: The autoscaler owns the *target*, the monitor loop owns the
        #: mechanics (spawn / probe / retire), the crash-loop breaker stays
        #: authoritative over every spawn.
        self.autoscale_config = config.autoscale
        self.autoscaler: Optional[Autoscaler] = (
            Autoscaler(config.autoscale, start_workers=self.num_workers)
            if config.autoscale.enabled else None)
        self.metrics = ServerMetrics()           # router-side (end-to-end view)
        #: Router-side tracing + runtime verification.  The router's monitor
        #: samples proxied responses; violations against a base with an
        #: in-canary rollout spend that rollout's gate budget (see
        #: ``_on_violation``).
        self.tracer = Tracer("router", ring_size=config.trace.trace_ring,
                             trace_dir=(str(trace_dir) if trace_dir else None),
                             enabled=config.trace.enabled)
        self.monitor = InvariantMonitor(config.trace.invariant_every,
                                        tracer=self.tracer,
                                        on_violation=self._on_violation)
        #: Deterministic response cache + in-flight coalescing (``cache_mb``
        #: MiB of canonical response bytes; 0 disables).  Exactness is free:
        #: PECAN-D inference is bitwise-deterministic per
        #: ``(model@version, canonical input)``, and the lifecycle plane
        #: invalidates a version's namespace the moment it stops being
        #: active.  One hit in ``cache_check_every`` is additionally
        #: re-executed on a worker and compared bitwise by the invariant
        #: monitor (``cache_parity``); 0 disables the probes.
        cache_mb = config.cache.effective_mb
        self.cache: Optional[ResultCache] = (
            ResultCache(int(cache_mb * 1024 * 1024)) if cache_mb > 0 else None)
        self.cache_check_every = config.cache.cache_check_every
        self.pipeline = RequestPipeline(
            "router", tracer=self.tracer, metrics=self.metrics,
            monitor=self.monitor, cache=self.cache,
            resolve=self._cache_namespace, dispatch=self._dispatch,
            follow_timeout_s=self.proxy_timeout_s,
            on_hit=self._maybe_verify_hit)
        #: Proxied-response status families (router lock): a worker-side
        #: failure storm (429s, 5xxs) must be visible at the router even
        #: though each response is returned to the caller successfully.
        self.proxied_status: Dict[str, int] = {"2xx": 0, "3xx": 0, "4xx": 0, "5xx": 0}
        self.restarts_total = 0
        self._bundles: List[Tuple[str, str]] = []
        #: Lifecycle state (all guarded by the pool lock unless noted):
        #: per-base active/previous alias versions, a never-reused version
        #: counter, in-flight/terminal rollouts and a bounded history.
        self._active_versions: Dict[str, int] = {}
        self._previous_versions: Dict[str, int] = {}
        self._version_counter: Dict[str, int] = {}
        self._rollouts: Dict[str, Rollout] = {}
        self._rollout_history: List[Dict[str, object]] = []
        self._admin_ids = itertools.count(1)
        #: Serializes deploy/promote/rollback end to end (broadcast + state
        #: flip); reentrant because rollback-after-promote is a promote.
        self._admin_lock = threading.RLock()
        self._workers: List[WorkerHandle] = []
        #: Admitted-but-unfinished /predict calls.  Incremented atomically
        #: with the draining check (same lock), so stop(drain=True) cannot
        #: miss a request that passed admission but has not yet reached a
        #: worker (per-worker ``outstanding`` only covers the proxy call).
        self._inflight = 0
        self._lock = threading.RLock()
        self._worker_ids = itertools.count()
        self._consecutive_failures = 0
        self._running = False
        self._draining = False
        self._started_at: Optional[float] = None
        self._ctx = None
        self._stop_requested = threading.Event()
        self._monitor_stop = threading.Event()
        self._monitor_thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------ #
    # Configuration (before start)
    # ------------------------------------------------------------------ #
    def add_bundle(self, path: PathLike, name: Optional[str] = None) -> str:
        """Register a bundle for every worker (before :meth:`start` only)."""
        if self._running:
            raise RuntimeError("bundles must be registered before the pool starts")
        path = Path(path)
        if not path.exists():
            raise FileNotFoundError(f"deployment bundle not found: {path}")
        name = name or path.stem
        if any(existing == name for existing, _ in self._bundles):
            raise ValueError(f"model {name!r} is already registered")
        base, version = split_versioned(name)
        self._materialize_cache(path)
        self._bundles.append((name, str(path)))
        version = 1 if version is None else version
        self._version_counter[base] = max(self._version_counter.get(base, 0),
                                          version)
        self._active_versions.setdefault(base, version)
        return name

    def _materialize_cache(self, path: Path) -> None:
        if self.mmap_mode is not None:
            # Warm the sidecar .npy cache once in the parent so N workers
            # open (and share) the extracted arrays instead of all racing
            # to decompress the .npz.
            from repro.io.deployment import materialize_bundle_cache

            materialize_bundle_cache(path)

    def _worker_config(self) -> WorkerConfig:
        with self._lock:
            bundles = tuple(self._bundles)
            active = tuple(sorted(self._active_versions.items()))
        return WorkerConfig(serve=self.config, bundles=bundles,
                            active_versions=active)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "PoolServer":
        if self._running:
            return self
        if not self._bundles:
            raise ValueError("no bundles registered; call add_bundle() first")
        self._running = True
        self._draining = False
        self._started_at = time.monotonic()
        self._ctx = multiprocessing.get_context(self.start_method)
        with self._lock:
            for _ in range(self.num_workers):
                self._workers.append(self._spawn_worker())
        self._monitor_stop.clear()
        self._monitor_thread = threading.Thread(
            target=self._monitor_loop, name="repro-pool-monitor", daemon=True)
        self._monitor_thread.start()
        self._bind()
        return self

    def _spawn_worker(self) -> WorkerHandle:
        worker_id = next(self._worker_ids)
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main, args=(self._worker_config(), child_conn),
            name=f"repro-pool-worker-{worker_id}", daemon=True)
        process.start()
        child_conn.close()
        return WorkerHandle(worker_id, process, parent_conn)

    def wait_ready(self, timeout_s: float = 60.0,
                   min_workers: Optional[int] = None) -> bool:
        """Block until ``min_workers`` (default: all) workers are ready."""
        need = self.num_workers if min_workers is None else min_workers
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            with self._lock:
                ready = sum(1 for worker in self._workers if worker.state == "ready")
                live = len(self._workers)
            if ready >= need:
                return True
            # Dead workers are removed and respawned atomically, so a shrunken
            # pool means permanent losses (startup failures / crash-loop cap).
            if live < need:
                return False
            if self._stop_requested.is_set():
                return False
            time.sleep(0.02)
        return False

    def stop(self, drain: bool = True, timeout_s: float = 15.0) -> None:
        """Shut the pool down; with ``drain`` every in-flight request finishes.

        Draining closes admission first (new ``/predict`` calls get 503),
        waits for the outstanding proxied-request count to reach zero, then
        stops the workers (each drains its own batchers) and the router.
        """
        if not self._running and self._frontend is None:
            return
        with self._lock:
            self._draining = True
        deadline = time.monotonic() + timeout_s
        if drain:
            while time.monotonic() < deadline and self.inflight_total() > 0:
                time.sleep(0.01)
        self._running = False
        self.monitor.close(timeout=1.0)
        self._monitor_stop.set()
        if self._monitor_thread is not None:
            self._monitor_thread.join(timeout_s)
            self._monitor_thread = None
        with self._lock:
            workers = list(self._workers)
            for worker in workers:
                try:
                    worker.conn.send({"cmd": "stop"})
                except (BrokenPipeError, OSError):
                    pass
        for worker in workers:
            worker.process.join(max(deadline - time.monotonic(), 0.1))
            if worker.process.exitcode is None:
                worker.process.terminate()
                worker.process.join(1.0)
            if worker.process.exitcode is None:
                worker.process.kill()
                worker.process.join(1.0)
            worker.state = "stopped"
            worker.conn.close()
        with self._lock:
            self._workers.clear()
        self._unbind()
        self.tracer.close()
        # The stop request is consumed only here — never by start() — so a
        # SIGTERM that lands before/while start() runs (the CLI installs its
        # handler ahead of bundle registration) still drains, while a fully
        # stopped pool can be started again.
        self._stop_requested.clear()

    def request_stop(self) -> None:
        """Ask :meth:`serve_forever` to drain and shut down (signal-safe)."""
        self._stop_requested.set()

    def serve_forever(self, install_signal_handler: bool = True) -> None:
        """Blocking variant for the CLI; SIGTERM/SIGINT drain gracefully.

        A caller that needs SIGTERM coverage over its *own* startup window
        (e.g. the CLI, whose bundle registration and readiness wait run
        before this method) can install ``signal.signal(SIGTERM,
        lambda *_: pool.request_stop())`` early and pass
        ``install_signal_handler=False``.
        """
        self.start()
        previous = None
        if install_signal_handler:
            try:
                previous = signal.signal(
                    signal.SIGTERM, lambda signum, frame: self.request_stop())
            except ValueError:
                pass                           # not the main thread
        try:
            while not self._stop_requested.is_set():
                self._stop_requested.wait(0.5)
        except KeyboardInterrupt:
            pass
        finally:
            if previous is not None:
                signal.signal(signal.SIGTERM, previous)
            self.stop(drain=True)

    # ------------------------------------------------------------------ #
    # Monitoring / self-healing
    # ------------------------------------------------------------------ #
    def _respawn_allowed(self) -> bool:
        # Crash-loop breaker: a worker dying repeatedly before ever serving
        # (bad bundle, broken interpreter) must not respawn forever.
        return self._consecutive_failures < max(8, 3 * self.num_workers)

    def _drain_messages(self, worker: WorkerHandle) -> None:
        while True:
            try:
                if not worker.conn.poll(0):
                    return
                kind, payload = worker.conn.recv()
            except (EOFError, BrokenPipeError, OSError):
                if worker.state in ("starting", "probing", "ready", "retiring"):
                    worker.state = "dead"
                return
            if kind == "ready":
                worker.port = payload["port"]
                # With the autoscaler on, a worker that reports ready still
                # has to answer a real /healthz over HTTP before it joins the
                # rotation — the control pipe proves the process came up, the
                # probe proves the serving plane does.
                worker.state = ("probing" if self.autoscaler is not None
                                else "ready")
                worker.last_heartbeat = time.monotonic()
                self._consecutive_failures = 0
            elif kind == "heartbeat":
                worker.last_heartbeat = time.monotonic()
                worker.heartbeat = payload
            elif kind == "admin":
                worker.admin_results[int(payload.pop("req", 0))] = payload
            elif kind == "failed":
                worker.state = "failed"
                worker.error = payload.get("error")
            elif kind == "bye":
                if worker.state != "failed":
                    worker.state = "stopped"

    def _monitor_loop(self) -> None:
        poll_s = max(min(self.heartbeat_interval_s / 2.0, 0.1), 0.01)
        while not self._monitor_stop.wait(poll_s):
            with self._lock:
                workers = list(self._workers)
            now = time.monotonic()
            replacements: List[Tuple[WorkerHandle, str]] = []
            for worker in workers:
                self._drain_messages(worker)
                if worker.state == "probing":
                    self._probe_worker(worker)
                if worker.state == "retiring":
                    self._advance_retirement(worker)
                if worker.state in ("starting", "probing", "ready", "retiring"):
                    if worker.process.exitcode is not None:
                        worker.state = "dead"
                        worker.error = f"exited with code {worker.process.exitcode}"
                    else:
                        silence = now - worker.last_heartbeat
                        budget = (self.start_timeout_s
                                  if worker.state == "starting"
                                  else self.heartbeat_timeout_s)
                        if silence > budget:
                            worker.state = "dead"
                            worker.error = (f"no heartbeat for {silence:.1f}s "
                                            f"(budget {budget:.1f}s); killed")
                            worker.process.terminate()
                if worker.state in ("dead", "failed") or (
                        worker.state == "stopped" and worker.retiring):
                    replacements.append((worker, worker.state))
            for worker, cause in replacements:
                if worker.process.exitcode is None:
                    worker.process.join(0.5)
                    if worker.process.exitcode is None:
                        worker.process.kill()
                        worker.process.join(1.0)
                worker.conn.close()
                if worker.port is not None:
                    self.close_idle(worker.port)
                with self._lock:
                    if worker in self._workers:
                        self._workers.remove(worker)
                    if (self._running and not self._draining
                            and cause == "dead" and not worker.retiring
                            and self._respawn_allowed()):
                        # A clean startup failure ("failed") is deterministic
                        # and not respawned; a crash/hang is.  A retiring
                        # worker's exit is the *point* — never respawned.
                        self._consecutive_failures += 1
                        self.restarts_total += 1
                        self._workers.append(self._spawn_worker())
            if (self.autoscaler is not None and self._running
                    and not self._draining):
                decision = self.autoscaler.observe(self._scale_signals())
                if decision is not None:
                    self._apply_scale_target(decision.target, decision.reason)

    def _probe_worker(self, worker: WorkerHandle) -> None:
        """Health-probe a worker that reported ready; pass → rotation."""
        try:
            status, _, _ = self.exchange(
                "127.0.0.1", worker.port, "GET", "/healthz",
                timeout_s=self.autoscale_config.probe_timeout_s)
        except (http.client.HTTPException, OSError):
            # Not answering yet: the heartbeat budget decides when a
            # perpetually unprobeable worker is declared dead.
            return
        if status == 200:
            worker.state = "ready"
            self._consecutive_failures = 0
        else:
            worker.state = "failed"
            worker.error = f"readiness probe answered {status}"

    def _advance_retirement(self, worker: WorkerHandle) -> None:
        """Drain-then-stop one retiring worker (PR4 drain path, per worker).

        A retiring worker is already out of the rotation (only ``ready``
        workers are routable); once its outstanding proxied requests hit
        zero it gets a clean ``stop`` — the worker drains its batchers and
        exits, and the monitor reaps it without respawning.
        """
        with self._lock:
            busy = worker.outstanding > 0
        if busy or worker.stop_sent:
            return
        try:
            worker.conn.send({"cmd": "stop"})
            worker.stop_sent = True
        except (BrokenPipeError, OSError):
            worker.state = "dead"

    def _scale_signals(self) -> ScaleSignals:
        """One autoscaler observation from the live signal planes."""
        worker_queue = 0.0
        with self._lock:
            states = [worker.state for worker in self._workers]
            inflight = self._inflight
            for worker in self._workers:
                worker_queue += float(worker.heartbeat.get("queue_depth", 0))
        return ScaleSignals(
            ready=states.count("ready"),
            starting=states.count("starting") + states.count("probing"),
            retiring=states.count("retiring"),
            queue_depth=self.fair_scheduler.snapshot()["waiting"] + worker_queue,
            inflight=inflight,
            p99_ms=self.metrics.recent_p99_ms(),
            p99_slo_ms=self.qos_config.p99_slo_ms)

    def _apply_scale_target(self, target: int, reason: str) -> Dict[str, object]:
        """Reconcile the live worker set toward ``target`` (spawn / retire).

        Growing spawns immediately (new workers still walk the
        starting → probing → ready ladder before taking traffic); shrinking
        flips the youngest idle-most ``ready`` workers to ``retiring``, which
        removes them from the rotation now and stops them once drained.
        """
        spawned = 0
        retired = 0
        with self._lock:
            live = [worker for worker in self._workers
                    if worker.state in ("starting", "probing", "ready")]
            delta = int(target) - len(live)
            if delta > 0:
                for _ in range(delta):
                    if not self._respawn_allowed():
                        break
                    self._workers.append(self._spawn_worker())
                    spawned += 1
            elif delta < 0:
                ready = sorted(
                    [worker for worker in live if worker.state == "ready"],
                    key=lambda worker: (worker.outstanding, -worker.id))
                for worker in ready[:-delta]:
                    worker.state = "retiring"
                    worker.retiring = True
                    retired += 1
            self.num_workers = int(target)
        # Fairness slots follow capacity so admission pressure is measured
        # against what the pool can actually dispatch.
        self.fair_scheduler.resize(
            self.qos_config.slots_per_worker * max(1, int(target)))
        if spawned or retired:
            self.tracer.event("pool.scale", attrs={
                "reason": reason, "target": int(target),
                "spawned": spawned, "retired": retired})
        return {"workers": int(target), "spawned": spawned,
                "retired": retired, "reason": reason}

    def scale_to(self, workers: int, reason: str = "operator") -> Dict[str, object]:
        """Pin the worker target (``/admin/scale``); autoscale-envelope aware.

        With the autoscaler on, the pin lands inside its
        ``[floor, ceiling]`` envelope and the control loop keeps adjusting
        from there; without it, this is a plain one-shot resize.
        """
        if not self._running:
            raise LifecycleError("pool is not running")
        if self.autoscaler is not None:
            decision = self.autoscaler.pin(int(workers), reason=reason)
            return self._apply_scale_target(decision.target, reason)
        if int(workers) < 1:
            raise ValueError("a pool needs at least one worker")
        return self._apply_scale_target(int(workers), reason)

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    def ready_workers(self) -> List[WorkerHandle]:
        with self._lock:
            ready = [worker for worker in self._workers if worker.state == "ready"]
        return sorted(ready, key=lambda worker: worker.id)

    def outstanding_total(self) -> int:
        with self._lock:
            return sum(worker.outstanding for worker in self._workers)

    def _overload_signal(self):
        """(router queue depth, recent end-to-end p99 ms) for the brownout
        controller: requests waiting for a dispatch slot are the backlog."""
        waiting = self.fair_scheduler.snapshot()["waiting"]
        return waiting, self.metrics.recent_p99_ms()

    def inflight_total(self) -> int:
        """Admitted ``/predict`` calls that have not finished (drain gate)."""
        with self._lock:
            return self._inflight

    def predict_http(self, headers, body: bytes) -> HTTPReply:
        return self.handle_predict(body, headers=headers)

    def admin_http(self, path: str, body: bytes, headers) -> HTTPReply:
        return adminapi.dispatch_admin(path, body, {
            "deploy": lambda r: self.deploy(
                r.name, r.path, version=r.version,
                canary_fraction=r.canary_fraction,
                min_samples=r.min_samples,
                max_parity_violations=r.max_parity_violations,
                max_latency_ratio=r.max_latency_ratio,
                auto=r.auto),
            "promote": lambda r: self.promote(r.name, version=r.version),
            "rollback": lambda r: self.rollback(r.name),
            "scale": lambda r: self.scale_to(r.workers, reason=r.reason),
        })

    def handle_predict(self, body: bytes, headers=None) -> HTTPReply:
        """Route one raw ``/predict`` body: ``(status, body_bytes, headers)``.

        The request runs the shared pipeline (:mod:`repro.serve.pipeline`)
        with :meth:`_dispatch` as its dispatch step.  The worker's response
        is returned verbatim: the protocol — including logits bit patterns
        — is exactly the single-process :class:`PECANServer`'s.
        """
        with self._lock:
            if self._draining or not self._running:
                # Refused before any dispatch, so a client may safely retry
                # it elsewhere (``reason`` tells it so).
                return json_response(503, {"error": "pool is draining",
                                           "reason": "draining"})
            self._inflight += 1
        try:
            return self.pipeline.handle(headers, body)
        finally:
            with self._lock:
                self._inflight -= 1

    def _dispatch(self, request: PredictRequest) -> Reply:
        """The pool's dispatch step: brownout → per-tenant rate limit →
        weighted-fair dispatch slot → a worker (with connection-failure
        retries) or a canary exchange.

        The client's body is forwarded with the QoS fields spliced on — the
        *remaining* deadline budget among them, so the worker's batcher
        honours the deadline the router admitted; the inputs are never
        re-encoded.  Inference timeouts are not retried (HTTP 504).
        """
        qos, ctx, model = request.qos, request.trace, request.model
        self.metrics.record_submitted(0)
        admission = self.tracer.start_span("router.admission", ctx.trace_id,
                                           parent_id=request.root_id)
        try:
            # 1. Brownout: under overload, shed the lowest class first with a
            #    Retry-After hint instead of degrading everyone's p99.
            self.brownout.admit(qos.priority)
            # 2. Per-tenant token bucket (opt-in): one tenant's flood is
            #    bounded at admission, not discovered in everyone's latency.
            granted, retry_after = self.rate_limits.admit(qos.tenant)
            if not granted:
                raise ShedError(f"tenant {qos.tenant!r} is over its rate limit",
                                status=429, retry_after_s=max(retry_after, 0.001),
                                reason="rate-limit")
            # 3. Weighted-fair dispatch slot: strict priority order, fair
            #    across tenants within a class; a request whose deadline
            #    expires while waiting is shed *here* — before any engine
            #    work — with its queue-time diagnostics on the 408.
            try:
                waited = self.fair_scheduler.acquire(qos)
            except QueueFullError as exc:
                self.metrics.record_rejected(priority=qos.priority)
                raise ShedError(str(exc), status=429, retry_after_s=1.0,
                                reason="router-queue-full") from None
        except ShedError as exc:
            self.tracer.finish_span(admission, status="shed", verdict=exc.reason)
            raise
        except RequestTimeout:
            self.metrics.record_timeout(priority=qos.priority)
            self.tracer.finish_span(admission, status="timeout",
                                    verdict="router-queue-timeout")
            raise
        self.metrics.record_stages(qos.priority, queue=waited)
        self.tracer.finish_span(admission, verdict="admitted",
                                queue_ms=waited * 1e3)
        try:
            fields = qos_wire_fields(qos)
            if request.no_cache:
                fields["no_cache"] = True     # forward the bypass to the worker
            body = splice_json(request.body, fields)
            routing_key = self._routing_key(request)
            rollout = self._canary_rollout_for(model)
            if rollout is not None and rollout.policy.sample():
                return self._canary_exchange(
                    body, model, rollout, qos=qos, ctx=ctx,
                    parent_id=request.root_id, routing_key=routing_key)
            return self._dispatch_with_retries(
                body, model, qos=qos, ctx=ctx, parent_id=request.root_id,
                routing_key=routing_key)
        finally:
            self.fair_scheduler.release()

    def _routing_key(self, request: PredictRequest) -> str:
        """The canonical input hash for ``cache_affinity`` (``""`` when the
        policy does not need one or the inputs do not hash)."""
        if request.plane is not None:
            return request.plane.input_hash
        if not getattr(self.policy, "needs_key", False):
            return ""
        try:
            return cache.canonical_input_hash(request.inputs)
        except (TypeError, ValueError):
            return ""              # non-numeric inputs; the worker 400s them

    def _dispatch_headers(self, ctx: Optional[TraceContext],
                          span) -> Optional[Dict[str, str]]:
        """Trace propagation headers for one worker hop (None when untraced).

        Carries the trace id, the client-level attempt tag and the dispatch
        span as the worker's parent (the hop itself carries the Lamport
        clock, see :meth:`FrontDoor.exchange`).
        """
        if ctx is None or not ctx.trace_id:
            return None
        forwarded = {TRACE_HEADER: ctx.trace_id,
                     ATTEMPT_HEADER: str(ctx.attempt)}
        if span is not None:
            forwarded[PARENT_SPAN_HEADER] = span.span_id
        return forwarded

    # ------------------------------------------------------------------ #
    # Response cache + in-flight coalescing
    # ------------------------------------------------------------------ #
    def _cache_namespace(self, model: str) -> Optional[Tuple[str, str]]:
        """``(namespace, model-echo)`` for a cacheable request, else ``None``.

        The namespace is the *fully versioned* id the request resolves to
        right now: a bare base name follows the active alias (so a promote
        moves traffic to a fresh namespace), an explicit ``m@vN`` pins that
        deployed version, and the empty model follows the default base.
        ``echo`` is the model name a worker would echo in its response —
        needed to splice cached bytes into a faithful reply.  Canary traffic
        is never cached: the rollout gate judges fresh candidate executions.
        """
        if self._canary_rollout_for(model) is not None:
            return None
        with self._lock:
            try:
                base, version = self._requested_base(model)
            except LifecycleError:
                return None
            if version is not None:
                deployed = any(name == model for name, _ in self._bundles)
                return (model, model) if deployed else None
            active = self._active_versions.get(base)
            if active is None:
                return None
            return format_versioned(base, active), (model or base)

    def _requested_base(self, model: str) -> Tuple[Optional[str], Optional[int]]:
        """``(base, pinned version)`` a request names (call with the pool
        lock held).  An empty model follows the default (first-registered)
        base, exactly like the workers' registries resolve it."""
        if model:
            return split_versioned(model)
        if not self._bundles:
            return None, None
        return split_versioned(self._bundles[0][0])[0], None

    def _maybe_verify_hit(self, request: PredictRequest,
                          canonical: bytes) -> None:
        """One hit in ``cache_check_every``: queue a re-execution on a worker
        whose bytes must equal the cached ones (the cache really is exact).
        A verdict raced by a lifecycle flip is withdrawn: the probe's fresh
        bytes would be the *new* version's."""
        if not self.monitor.sample("cache_parity", self.cache_check_every):
            return
        plane = request.plane

        def rerun() -> Optional[bytes]:
            # Encoded on the checker thread: a dropped job costs nothing.
            probe: Dict[str, object] = {"inputs": request.inputs.tolist(),
                                        "no_cache": True}
            if request.model:
                probe["model"] = request.model
            reply = self._dispatch_with_retries(
                json.dumps(probe).encode("utf-8"), request.model, record=False)
            fresh = (canonical_response_bytes(reply.body)
                     if reply.status == 200 else None)
            if fresh is None:
                raise RuntimeError(f"cache re-execution failed with HTTP "
                                   f"{reply.status}")
            return fresh if self.cache.epoch() == plane.epoch else None

        self.monitor.submit("cache_parity", rerun, canonical,
                            model=plane.namespace,
                            trace_id=request.trace.trace_id)

    def _cold_start_wait(self, started: float) -> None:
        """Block one request while an empty pool spins a worker back up."""
        decision = self.autoscaler.wake()
        if decision is not None:
            self._apply_scale_target(decision.target, decision.reason)
        deadline = started + self.autoscale_config.cold_start_timeout_s
        while (self._running and not self._draining
               and time.monotonic() < deadline):
            if self.ready_workers():
                return
            time.sleep(0.02)

    def _dispatch_with_retries(self, body: bytes, model: str,
                               record: bool = True,
                               qos: Optional[RequestQoS] = None,
                               ctx: Optional[TraceContext] = None,
                               parent_id: Optional[str] = None,
                               routing_key: Optional[str] = None) -> Reply:
        """One ``/predict`` through the retry loop; ``record=False`` keeps
        mirrored canary traffic out of the router's client-facing metrics."""
        started = time.monotonic()
        tried = set()
        last_error = "no ready workers"
        trace_id = ctx.trace_id if ctx is not None else None
        if self.autoscaler is not None and not self.ready_workers():
            # Scale-to-zero cold start: wake the autoscaler (spawning is an
            # mmap-backed bundle open, not a decompress) and wait for the
            # first worker to pass its probe instead of failing the request.
            self._cold_start_wait(started)
        for hop in range(max(1, self.proxy_retries + 1)):
            candidates = [worker for worker in self.ready_workers()
                          if worker.id not in tried]
            if not candidates:
                break
            if getattr(self.policy, "needs_key", False):
                worker = self.policy.choose(candidates, model=model,
                                            key=routing_key or "")
            else:
                worker = self.policy.choose(candidates, model=model)
            tried.add(worker.id)
            with self._lock:
                worker.outstanding += 1
                worker.dispatched_total += 1
            span = self.tracer.start_span(
                "router.dispatch", trace_id, parent_id=parent_id,
                attrs={"worker": worker.id, "hop": hop}) if trace_id else None
            try:
                status, response, _ = self.exchange(
                    "127.0.0.1", worker.port, "POST", "/predict", body,
                    headers=self._dispatch_headers(ctx, span),
                    timeout_s=self.proxy_timeout_s)
            except socket.timeout:
                worker.proxy_failures += 1
                self.tracer.finish_span(span, status="timeout",
                                        reason="worker-timeout")
                if record:
                    self.metrics.record_timeout()
                return Reply(504, {"error": "worker timed out; not retried"})
            except (http.client.HTTPException, OSError) as exc:
                worker.proxy_failures += 1
                # A torn connection usually means the process died; let the
                # monitor reap/respawn it the moment the exit code confirms.
                if worker.process.exitcode is not None:
                    worker.state = "dead"
                last_error = f"{type(exc).__name__}: {exc}"
                # A failover hop: the span ends in error and the retry opens
                # a fresh one, so the trace shows every worker touched.
                self.tracer.finish_span(span, status="failover",
                                        error=last_error)
                continue
            finally:
                with self._lock:
                    worker.outstanding -= 1
            self.tracer.finish_span(
                span, status="ok" if status < 400 else "error",
                http_status=status)
            if record:
                family = f"{min(max(status // 100, 2), 5)}xx"
                with self._lock:
                    self.proxied_status[family] += 1
                # Only successful proxied responses count as completions (and
                # into the latency window); worker-side rejections/failures
                # must not read as healthy router throughput.
                if status < 400:
                    self.metrics.record_completed(
                        time.monotonic() - started, 0.0,
                        priority=qos.priority if qos else None,
                        tenant=qos.tenant if qos else None)
                elif status >= 500:
                    self.metrics.record_error()
                elif status == 408:
                    self.metrics.record_timeout()
            return Reply(status, body=response)
        if record:
            self.metrics.record_error()
        if not tried:
            return Reply(503, {"error": "no ready workers"})
        return Reply(502, {"error": f"request failed on {len(tried)} worker(s): "
                                    f"{last_error}"})

    # ------------------------------------------------------------------ #
    # Canary routing + rollout gate
    # ------------------------------------------------------------------ #
    def _canary_rollout_for(self, model: str) -> Optional[Rollout]:
        """The in-canary rollout this request participates in, if any.

        Explicitly versioned requests (``m@vN``) pin a version and are never
        rerouted.
        """
        with self._lock:
            if not self._rollouts:
                return None
            base, version = self._requested_base(model)
            rollout = self._rollouts.get(base) if version is None else None
            return rollout if rollout is not None and rollout.in_canary else None

    def _canary_exchange(self, body: bytes, model: str, rollout: Rollout,
                         qos: Optional[RequestQoS] = None,
                         ctx: Optional[TraceContext] = None,
                         parent_id: Optional[str] = None,
                         routing_key: Optional[str] = None) -> Reply:
        """Serve one canary-sampled request through **both** versions.

        The active version answers the client (a divergent candidate must
        never leak bits to a caller — the gate, not the traffic split, is
        what grants the candidate real traffic); the candidate runs the same
        input in shadow.  The gate records output parity (bitwise: PECAN-D
        inference is deterministic and JSON round-trips float64 exactly) and
        both latencies, and its verdict may auto-promote or auto-roll-back.
        The mirror hop shares the request's trace id under a
        ``router.canary_mirror`` span, and its outputs run through the
        invariant monitor — a candidate emitting NaNs is caught (and the
        gate tripped) even on requests whose bitwise comparison never runs.
        """
        started = time.monotonic()
        active = self._dispatch_with_retries(
            body, model, qos=qos, ctx=ctx, parent_id=parent_id,
            routing_key=routing_key)
        active_seconds = time.monotonic() - started
        mirror_body = splice_json(body, {"model": rollout.candidate})
        trace_id = ctx.trace_id if ctx is not None else None
        mirror_span = self.tracer.start_span(
            "router.canary_mirror", trace_id, parent_id=parent_id,
            attrs={"candidate": rollout.candidate}) if trace_id else None
        started = time.monotonic()
        mirror = self._dispatch_with_retries(
            mirror_body, rollout.candidate, record=False, ctx=ctx,
            parent_id=mirror_span.span_id if mirror_span is not None else None,
            routing_key=routing_key)
        canary_seconds = time.monotonic() - started
        self.tracer.finish_span(
            mirror_span, status="ok" if mirror.status == 200 else "error",
            http_status=mirror.status)
        if mirror.status == 200 and ctx is not None:
            self.pipeline.verify(ctx, mirror.body, source="canary",
                                 model=rollout.candidate)
        if active.status == 200:
            # An active-side failure (backpressure, timeout) yields nothing
            # comparable; the gate only judges real output pairs.
            if mirror.status != 200:
                rollout.gate.record_candidate_error()
                rollout.log("candidate_error", status=mirror.status)
            else:
                try:
                    match = (json.loads(active.body)["outputs"]
                             == json.loads(mirror.body)["outputs"])
                except (ValueError, KeyError, UnicodeDecodeError):
                    match = False
                rollout.gate.record(match, active_seconds, canary_seconds)
                self.monitor.verdict("canary_parity", match,
                                     model=rollout.candidate,
                                     trace_id=trace_id)
                if not match:
                    rollout.log("parity_violation",
                                samples=rollout.gate.samples)
            self._maybe_autofinish(rollout)
        return active

    def _on_violation(self, violation: Violation) -> None:
        """Runtime-verification hook: a violation against an in-canary
        candidate spends the rollout gate's parity budget.

        ``canary_parity`` verdicts are skipped — the rollout comparator
        already charged the gate for those via :meth:`RolloutGate.record`.
        """
        if violation.invariant == "canary_parity":
            return
        model = violation.model
        if not model:
            return
        try:
            base, _ = split_versioned(model)
        except LifecycleError:
            return
        with self._lock:
            rollout = self._rollouts.get(base)
        if rollout is None or not rollout.in_canary:
            return
        rollout.gate.record_invariant_violation()
        rollout.log("invariant_violation", invariant=violation.invariant,
                    detail=violation.get("detail"))
        self._maybe_autofinish(rollout)

    def _maybe_autofinish(self, rollout: Rollout) -> None:
        if not rollout.auto:
            return
        verdict = rollout.gate.verdict()
        if verdict == "pending" or not rollout.claim_transition():
            return
        # The transition broadcasts over the control pipes (a pipe round
        # trip per worker): run it off the request path.
        threading.Thread(target=self._finish_rollout,
                         args=(rollout.base, verdict == "promote",
                               rollout.gate.reason()),
                         name="repro-pool-rollout", daemon=True).start()

    def _finish_rollout(self, base: str, promote: bool, reason: str) -> None:
        try:
            if promote:
                self.promote(base, reason=f"auto: {reason}")
            else:
                self.rollback(base, reason=f"auto: {reason}")
        except Exception as exc:                   # noqa: BLE001 - logged on the rollout
            with self._lock:
                rollout = self._rollouts.get(base)
            if rollout is not None:
                rollout.log("transition_failed",
                            error=f"{type(exc).__name__}: {exc}")

    def predict(self, inputs, model: Optional[str] = None,
                timeout_s: Optional[float] = None,
                priority: Optional[str] = None,
                tenant: Optional[str] = None,
                deadline_ms: Optional[float] = None,
                no_cache: bool = False) -> Dict[str, object]:
        """In-process convenience mirroring :meth:`PECANServer.predict`."""
        payload: Dict[str, object] = {"inputs": np.asarray(inputs).tolist()}
        if model is not None:
            payload["model"] = model
        if priority is not None:
            payload["priority"] = priority
        if tenant is not None:
            payload["tenant"] = tenant
        if deadline_ms is not None:
            payload["deadline_ms"] = deadline_ms
        if no_cache:
            payload["no_cache"] = True
        status, body, headers = self.handle_predict(
            json.dumps(payload).encode("utf-8"))
        response = json.loads(body.decode("utf-8"))
        if status != 200:
            retry_after = headers.get("Retry-After")
            raise ServeHTTPError(status, response.get("error", ""),
                                 retry_after_s=(float(retry_after)
                                                if retry_after else None))
        return response

    # ------------------------------------------------------------------ #
    # Lifecycle admin plane (deploy / promote / rollback)
    # ------------------------------------------------------------------ #
    def _admin_broadcast(self, op: str, payload: Dict[str, object],
                         timeout_s: float = 120.0) -> Dict[int, Dict[str, object]]:
        """Send one lifecycle command to every ready worker; gather acks.

        Replies travel back over the heartbeat loop, so ack latency is
        bounded by the load time plus one heartbeat interval.  A worker that
        dies mid-command or times out yields an ``ok=False`` entry instead of
        wedging the broadcast; a pool that starts draining aborts the wait.
        """
        with self._lock:
            workers = [worker for worker in self._workers
                       if worker.state == "ready"]
            request_id = next(self._admin_ids)
            message = {"cmd": "admin", "op": op, "req": request_id, **payload}
            results: Dict[int, Dict[str, object]] = {}
            for worker in workers:
                try:
                    worker.conn.send(message)
                except (BrokenPipeError, OSError) as exc:
                    results[worker.id] = {"ok": False,
                                          "error": f"control pipe: {exc}"}
        if not workers:
            raise LifecycleError("no ready workers to apply the command to")
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            pending = False
            for worker in workers:
                if worker.id in results:
                    continue
                reply = worker.admin_results.pop(request_id, None)
                if reply is not None:
                    results[worker.id] = reply
                elif worker.state != "ready" or not worker.alive:
                    results[worker.id] = {
                        "ok": False,
                        "error": f"worker {worker.id} left the pool mid-command"}
                else:
                    pending = True
            if not pending:
                return results
            if self._draining or not self._running:
                break
            time.sleep(0.02)
        for worker in workers:
            results.setdefault(worker.id, {
                "ok": False,
                "error": ("pool is draining" if self._draining
                          else f"no ack within {timeout_s:.0f}s")})
        return results

    @staticmethod
    def _first_error(results: Dict[int, Dict[str, object]]) -> Optional[str]:
        failed = {wid: reply for wid, reply in results.items()
                  if not reply.get("ok")}
        if not failed:
            return None
        wid = min(failed)
        return (f"failed on worker(s) {sorted(failed)}: "
                f"{failed[wid].get('error', 'unknown error')}")

    def _require_admin_ready(self) -> None:
        if not self._running or self._draining:
            raise LifecycleError("pool is not accepting lifecycle commands "
                                 "(stopped or draining)")

    def deploy(self, name: str, path: PathLike, version: Optional[int] = None, *,
               canary_fraction: float = 0.25,
               min_samples: int = 20,
               max_parity_violations: int = 0,
               max_latency_ratio: Optional[float] = 3.0,
               auto: bool = True,
               timeout_s: float = 120.0) -> Dict[str, object]:
        """Hot-load a new version of base ``name`` across the whole pool.

        Every worker loads the bundle on a background thread while serving;
        once all ack, a :class:`~repro.serve.lifecycle.Rollout` begins:
        ``canary_fraction`` of the base's traffic is mirrored through the
        candidate and a :class:`RolloutGate` (``min_samples`` /
        ``max_parity_violations`` / ``max_latency_ratio``) judges promotion.
        With ``auto`` the verdict is acted on automatically; otherwise the
        gate only reports and :meth:`promote` / :meth:`rollback` are manual.
        A failed deploy is rolled back on the workers that had loaded it.
        """
        with self._admin_lock:
            self._require_admin_ready()
            path = Path(path)
            if not path.exists():
                raise FileNotFoundError(f"deployment bundle not found: {path}")
            base, parsed = split_versioned(name)
            if parsed is not None:
                if version is not None and version != parsed:
                    raise LifecycleError(f"conflicting versions: name {name!r} "
                                         f"vs version={version}")
                version = parsed
            with self._lock:
                if base not in self._active_versions:
                    raise KeyError(f"model {base!r} is not served by this pool "
                                   f"(known: {sorted(self._active_versions)})")
                rollout = self._rollouts.get(base)
                if rollout is not None and rollout.in_canary:
                    raise LifecycleError(
                        f"a rollout of {base!r} is already in flight "
                        f"(candidate {rollout.candidate})")
                if version is None:
                    version = self._version_counter.get(base, 1) + 1
                elif version <= self._version_counter.get(base, 0):
                    raise LifecycleError(
                        f"version {version} of {base!r} was already used; "
                        f"next free version is "
                        f"{self._version_counter.get(base, 0) + 1}")
                active_version = self._active_versions[base]
            candidate = format_versioned(base, version)
            self._materialize_cache(path)
            with self._lock:
                # Publish the candidate (and burn its version number) *before*
                # the broadcast: a worker respawned mid-deploy builds from
                # this list, so it must come up with the candidate too — a
                # ready worker without it would 404 mirrored canary traffic
                # and trip the gate on a healthy rollout.  A failed deploy
                # removes the entry but never reuses the number.
                self._bundles.append((candidate, str(path)))
                self._version_counter[base] = version
            results = self._admin_broadcast(
                "deploy", {"name": base, "path": str(path), "version": version},
                timeout_s=timeout_s)
            error = self._first_error(results)
            if error is not None:
                with self._lock:
                    self._bundles = [entry for entry in self._bundles
                                     if entry[0] != candidate]
                if self.cache is not None:
                    # Some workers may have served the candidate (explicit
                    # m@vN requests) before the deploy failed; none hold it
                    # after the cleanup, so cached bytes must go too.
                    self.cache.invalidate_namespace(candidate)
                # Converge the workers that did load it; strictly best
                # effort — the cleanup must never mask the deploy error.
                try:
                    self._admin_broadcast("undeploy", {"name": candidate},
                                          timeout_s=min(timeout_s, 30.0))
                except LifecycleError:
                    pass
                raise LifecycleError(f"deploy of {candidate} {error}")
            rollout = Rollout(
                base=base, candidate=candidate, candidate_version=version,
                active_version=active_version,
                policy=CanaryPolicy(canary_fraction),
                gate=RolloutGate(min_samples=min_samples,
                                 max_parity_violations=max_parity_violations,
                                 max_latency_ratio=max_latency_ratio),
                auto=auto, on_finish=self._on_rollout_finish)
            rollout.log("deployed", workers=sorted(results))
            with self._lock:
                previous = self._rollouts.get(base)
                if previous is not None:
                    self._archive_rollout(previous)
                self._rollouts[base] = rollout
            return {"deployed": candidate, "model": base, "version": version,
                    "workers": {str(wid): reply for wid, reply in results.items()},
                    "rollout": rollout.snapshot()}

    def promote(self, name: str, version: Optional[int] = None, *,
                reason: str = "operator promote",
                timeout_s: float = 120.0) -> Dict[str, object]:
        """Flip the base alias to ``version`` on every worker.

        Defaults to the in-flight rollout's candidate (ending its canary
        phase) or, with no rollout, the newest deployed version.  Promote is
        idempotent per worker, so a partially failed broadcast can simply be
        retried."""
        with self._admin_lock:
            self._require_admin_ready()
            base, parsed = split_versioned(name)
            if parsed is not None:
                version = parsed
            with self._lock:
                if base not in self._active_versions:
                    raise KeyError(f"model {base!r} is not served by this pool")
                rollout = self._rollouts.get(base)
                deployed = self._deployed_versions_locked(base)
                if version is None:
                    if rollout is not None and rollout.in_canary:
                        version = rollout.candidate_version
                    else:
                        # Newest version the workers actually hold — the raw
                        # counter also remembers rolled-back (undeployed)
                        # versions, which no worker could activate.
                        version = max(deployed, default=None)
                if version not in deployed:
                    raise LifecycleError(
                        f"model {base!r} has no deployed version {version} "
                        f"(deployed: {sorted(deployed)})")
                previous = self._active_versions[base]
            if rollout is not None and rollout.in_canary:
                rollout.claim_transition()     # stop the gate's auto path
            results = self._admin_broadcast(
                "promote", {"name": base, "version": version},
                timeout_s=timeout_s)
            error = self._first_error(results)
            if error is not None:
                raise LifecycleError(f"promote of {base}@v{version} {error} "
                                     f"(safe to retry: promote is idempotent)")
            with self._lock:
                if previous != version:
                    self._previous_versions[base] = previous
                self._active_versions[base] = version
            if self.cache is not None and previous != version:
                # Atomically retire the outgoing version's namespace.  The
                # broadcast above only succeeds once *every* worker flipped,
                # so from here on no dispatch can return v_prev bytes for the
                # base alias — and the epoch bump inside the invalidation
                # refuses any in-flight fill that started before the flip.
                self.cache.invalidate_namespace(format_versioned(base, previous))
            if rollout is not None and rollout.in_canary:
                if rollout.candidate_version == version:
                    rollout.finish(PROMOTED, reason)
                else:
                    # Promoting past the candidate implicitly rejects it; the
                    # rollout must close or it would mirror canary traffic
                    # (and block future deploys) forever.
                    rollout.finish(ROLLED_BACK,
                                   f"superseded by promote to v{version}")
            return {"model": base, "active_version": version,
                    "previous_version": previous,
                    "workers": {str(wid): reply for wid, reply in results.items()}}

    def _deployed_versions_locked(self, base: str) -> set:
        """Versions of ``base`` the workers hold (pool lock held)."""
        deployed = set()
        for bundle_name, _ in self._bundles:
            bundle_base, bundle_version = split_versioned(bundle_name)
            if bundle_base == base:
                deployed.add(1 if bundle_version is None else bundle_version)
        return deployed

    def rollback(self, name: str, *, reason: str = "operator rollback",
                 timeout_s: float = 120.0) -> Dict[str, object]:
        """Abort an in-flight canary, or restore the previously active version.

        During a canary the candidate was never activated: the rollback
        simply unloads it everywhere and closes the rollout.  After a
        promotion the alias flips back to the remembered previous version on
        every worker."""
        with self._admin_lock:
            self._require_admin_ready()
            base, _ = split_versioned(name)
            with self._lock:
                if base not in self._active_versions:
                    raise KeyError(f"model {base!r} is not served by this pool")
                rollout = self._rollouts.get(base)
                in_canary = rollout is not None and rollout.in_canary
            if in_canary:
                rollout.claim_transition()     # stop the gate's auto path
                results = self._admin_broadcast(
                    "undeploy", {"name": rollout.candidate}, timeout_s=timeout_s)
                with self._lock:
                    self._bundles = [(bundle_name, bundle_path)
                                     for bundle_name, bundle_path in self._bundles
                                     if bundle_name != rollout.candidate]
                rollout.finish(ROLLED_BACK, reason)
                with self._lock:
                    active_version = self._active_versions[base]
                return {"model": base, "aborted_canary": rollout.candidate,
                        "active_version": active_version,
                        "workers": {str(wid): reply
                                    for wid, reply in results.items()}}
            with self._lock:
                previous = self._previous_versions.get(base)
            if previous is None:
                raise LifecycleError(f"model {base!r} has no previous active "
                                     f"version to roll back to")
            info = self.promote(base, previous, reason=reason,
                                timeout_s=timeout_s)
            info["rolled_back"] = True
            return info

    def _on_rollout_finish(self, rollout: Rollout, state: str) -> None:
        """Lifecycle hook: a rolled-back candidate's cache namespace dies
        with the rollout, whichever path retired it (manual rollback, gate
        auto-rollback, supersession by a promote past it).  The promoted
        direction is covered in :meth:`promote`, which invalidates the
        *outgoing* version's namespace after the alias flip."""
        if self.cache is not None and state == ROLLED_BACK:
            self.cache.invalidate_namespace(rollout.candidate)

    def _archive_rollout(self, rollout: Rollout) -> None:
        """Move a terminal rollout into the bounded history (lock held)."""
        self._rollout_history.append(rollout.snapshot())
        del self._rollout_history[:-20]

    def lifecycle_snapshot(self) -> Dict[str, object]:
        """The pool ``/admin/status`` payload."""
        with self._lock:
            versions: Dict[str, Dict[str, object]] = {}
            for bundle_name, bundle_path in self._bundles:
                base, version = split_versioned(bundle_name)
                entry = versions.setdefault(base, {"versions": []})
                entry["versions"].append(
                    {"version": 1 if version is None else version,
                     "name": bundle_name, "path": bundle_path})
            for base, entry in versions.items():
                entry["versions"].sort(key=lambda item: item["version"])
                entry["active_version"] = self._active_versions.get(base)
                entry["previous_version"] = self._previous_versions.get(base)
            rollouts = {base: rollout.snapshot()
                        for base, rollout in self._rollouts.items()}
            history = list(self._rollout_history)
        return {"models": versions, "rollouts": rollouts, "history": history,
                "pool": self.describe_pool()}

    # ------------------------------------------------------------------ #
    # Aggregated observability
    # ------------------------------------------------------------------ #
    def describe_pool(self) -> Dict[str, object]:
        with self._lock:
            workers = [worker.describe() for worker in self._workers]
            proxied = dict(self.proxied_status)
            inflight = self._inflight
        return {
            "target_workers": self.num_workers,
            "inflight": inflight,
            "ready_workers": sum(1 for info in workers if info["state"] == "ready"),
            "policy": self.policy.name,
            "mmap_mode": self.mmap_mode,
            "proxied_status": proxied,
            "restarts": self.restarts_total,
            "draining": self._draining,
            "uptime_s": (time.monotonic() - self._started_at
                         if self._started_at else 0.0),
            "workers": workers,
        }

    def peers(self) -> Dict[str, Callable[[str], Tuple[int, bytes]]]:
        """Every ready worker, for the merged ``/metrics``/``/models``/``/trace``."""
        return {str(worker.id): (lambda path, _port=worker.port: self.exchange(
                    "127.0.0.1", _port, "GET", path, timeout_s=5.0)[:2])
                for worker in self.ready_workers()}

    def metrics_snapshot(self) -> Dict[str, object]:
        """The aggregated ``/metrics`` payload.

        ``router`` is the authoritative end-to-end view (latency measured
        around the proxy call); ``workers`` carries each worker's full
        single-process payload; ``aggregate`` sums the workers' additive
        counters (requests, samples, batches, CAM searches, energy) and takes
        the worst worker for non-additive ones (latency percentiles).
        """
        per_worker = self.fetch_peers("/metrics")
        healthy = [payload for payload in per_worker.values()
                   if "error" not in payload]
        with self._lock:
            lifecycle = {
                "rollouts": {base: rollout.snapshot()
                             for base, rollout in self._rollouts.items()},
                "history": list(self._rollout_history),
                "active_versions": dict(self._active_versions),
            }
        self.tracer.flush()
        return {
            "router": self.metrics.snapshot(queue_depth=self.outstanding_total()),
            # brownout.snapshot() also refreshes the detector, so a pool whose
            # traffic stopped entirely still recovers toward `healthy` while
            # being scraped.
            "qos": {
                "brownout": self.brownout.snapshot(),
                "fair_queue": self.fair_scheduler.snapshot(),
                "rate_limits": self.rate_limits.snapshot(),
            },
            "trace": self.tracer.snapshot(),
            "runtime_verification": self.monitor.snapshot(),
            "cache": (self.cache.snapshot() if self.cache is not None
                      else {"enabled": False}),
            "frontend": self.frontend_snapshot(),
            "autoscale": (self.autoscaler.snapshot()
                          if self.autoscaler is not None
                          else {"enabled": False}),
            "pool": self.describe_pool(),
            "lifecycle": lifecycle,
            "workers": per_worker,
            "aggregate": aggregate_counter_trees(healthy) if healthy else {},
        }

    def models_snapshot(self) -> Dict[str, object]:
        per_worker = self.fetch_peers("/models")
        merged: Dict[str, object] = {"pool": self.describe_pool(),
                                     "workers": per_worker}
        for payload in per_worker.values():
            if "models" in payload:
                merged["models"] = payload["models"]
                break
        return merged

    def health_snapshot(self) -> Dict[str, object]:
        pool = self.describe_pool()
        ready = pool["ready_workers"]
        if self._draining:
            status = "draining"
        elif ready >= self.num_workers:
            status = "ok"
        elif ready > 0:
            status = "degraded"
        else:
            status = "unavailable"
        return {"status": status, "pool": pool,
                "models": [name for name, _ in self._bundles]}

    # ------------------------------------------------------------------ #
    # Fault injection (chaos tests)
    # ------------------------------------------------------------------ #
    def inject_fault(self, worker_id: int, kind: str = "crash",
                     seconds: Optional[float] = None) -> None:
        """Ask worker ``worker_id`` to ``crash`` (exit hard), ``hang``
        (silence its control loop), run ``slow`` (inject ``seconds`` of
        latency into every dispatched batch; ``seconds=0`` clears it) or
        ``corrupt`` (poison a logit column with NaN after the engine runs;
        ``seconds=0`` clears it) — the failure modes the self-healing,
        brownout and runtime-verification chaos tests exercise."""
        if kind not in ("crash", "hang", "slow", "corrupt"):
            raise ValueError(f"unknown fault {kind!r}")
        message: Dict[str, object] = {"cmd": kind}
        if seconds is not None:
            message["seconds"] = float(seconds)
        with self._lock:
            for worker in self._workers:
                if worker.id == worker_id:
                    worker.conn.send(message)
                    return
        raise KeyError(f"no worker with id {worker_id}")
