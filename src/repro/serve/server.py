"""Stdlib HTTP front end for bundle-backed CAM inference.

Zero new dependencies: a small JSON protocol in front of the registry +
scheduler stack.  The network plane is
:class:`~repro.serve.netfront.EventLoopFrontEnd`: every connection is
multiplexed through one :mod:`selectors` thread (keep-alive, pipelining, a
bounded connection budget, idle/slowloris timeouts) and each parsed request
is answered by :meth:`PECANServer.handle_http`, the route table shared with
the pool (:class:`~repro.serve.pipeline.FrontDoor`).  ``/predict`` runs the
shared request pipeline (:mod:`repro.serve.pipeline`); this module supplies
its dispatch step: brownout, then the model's dynamic micro-batcher.

Endpoints
---------
``POST /predict``
    Body ``{"inputs": [...], "model": "name"?}``.  ``inputs`` is one sample
    (shape ``input_shape``) or a batch (leading batch axis).  Requests are
    dynamically micro-batched with concurrent callers; the response carries
    the logits, argmax classes and observed latency.
``GET /models``
    Registry listing (resident engines, footprints, kernels, evictions).
``GET /metrics``
    Scheduler/latency/batching counters, per-layer CAM search + energy
    statistics from the engines, and ``runtime_verification`` (parity audits).
``GET /healthz``
    Liveness probe.

Errors map to conventional codes: 400 malformed input, 404 unknown model,
408 request timed out, 429 queue full (backpressure), 500 engine failure.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from repro.serve import adminapi
from repro.serve.cache import ResultCache
from repro.serve.config import ServeConfig
from repro.serve.engine import BundleEngine
from repro.serve.invariants import InvariantMonitor
from repro.serve.lifecycle import (LifecycleError, format_versioned,
                                   split_versioned)
from repro.serve.metrics import ServerMetrics
from repro.serve.pipeline import (FrontDoor, HTTPReply, PredictRequest, Reply,
                                  RequestPipeline)
from repro.serve.qos import RequestQoS
from repro.serve.registry import EngineLease, ModelRegistry, PathLike
from repro.serve.scheduler import DynamicBatcher, SchedulerStopped
from repro.serve.trace import TraceContext, Tracer


class _AcceleratorPacer:
    """Pace batch inference to an emulated CAM accelerator's wall clock.

    Wraps an engine's ``predict``: after computing a batch, sleeps off the
    difference between the host's elapsed time and the latency a CAM
    accelerator clocked at ``hz`` would have needed for the batch's traced
    operations.  Cycle costs extend the paper's Section 4.3 constants (VIA
    Nano 2000: 4 cycles per multiplication, 2 per addition — mirrored from
    :data:`repro.hardware.cost_model.VIA_NANO`, not imported, because that
    module sits on the training import graph) with one cycle per CAM
    comparison and per LUT lookup.

    While the pacer sleeps, the GIL and the CPU are free — exactly the
    behaviour of a host thread blocked on real accelerator hardware — which
    is what makes data-parallel worker pools scale on hosts with fewer cores
    than workers (see ``benchmarks/test_bench_pool_serving.py``).
    """

    MULTIPLY_CYCLES = 4.0
    ADD_CYCLES = 2.0
    COMPARE_CYCLES = 1.0
    LOOKUP_CYCLES = 1.0

    def __init__(self, engine: BundleEngine, hz: float,
                 batch_chunk: Optional[int] = None):
        if hz <= 0:
            raise ValueError("accelerator clock must be positive")
        self.engine = engine
        self.hz = float(hz)
        self.batch_chunk = batch_chunk
        self.slept_s = 0.0

    def _cycles(self) -> float:
        ops = self.engine.op_counter.summary()
        return (self.MULTIPLY_CYCLES * ops["multiplications"]
                + self.ADD_CYCLES * ops["additions"]
                + self.COMPARE_CYCLES * ops["comparisons"]
                + self.LOOKUP_CYCLES * ops["lookups"])

    def __call__(self, inputs: np.ndarray) -> np.ndarray:
        started = time.monotonic()
        before = self._cycles()
        outputs = self.engine.predict(inputs, batch_chunk=self.batch_chunk)
        modeled = (self._cycles() - before) / self.hz
        remaining = modeled - (time.monotonic() - started)
        if remaining > 0:
            self.slept_s += remaining
            time.sleep(remaining)
        return outputs


@dataclass
class ServedModel:
    """One resident model version wired into the serving plane.

    ``lease`` pins the engine in the registry for as long as the record
    serves; retirement (eviction, promote, undeploy) drains the batcher and
    releases the lease, which is what finally lets the registry drop the
    engine — never mid-request.  ``reference`` is the engine parity audits
    re-run sampled batches through, dropped on retirement too.
    """

    name: str                    # registry record id (e.g. "resnet" / "resnet@v2")
    engine: BundleEngine
    batcher: DynamicBatcher
    reference: Optional[BundleEngine] = None
    pacer: Optional[_AcceleratorPacer] = None
    lease: Optional[EngineLease] = None


class PECANServer(FrontDoor):
    """Serve deployment bundles over HTTP with dynamic micro-batching.

    Parameters
    ----------
    registry:
        Optional pre-populated :class:`ModelRegistry`.  By default one is
        built from ``config.engine`` (``max_total_values``, ``optimize``,
        ``mmap``) and bundles are added via :meth:`add_bundle`.
    config:
        Every serving knob (:class:`~repro.serve.config.ServeConfig`;
        ``None`` means the defaults).  The server reads ``net`` (bind
        address, ``port=0`` picks a free port — see :attr:`port` after
        :meth:`start` — and the event-loop budgets), ``engine`` (batching,
        admission, ``batch_chunk``, ``audit_every`` parity sampling,
        ``hardware_hz`` accelerator pacing via :class:`_AcceleratorPacer`),
        ``qos``, ``cache`` (the deterministic response cache, see
        :mod:`repro.serve.cache`) and ``trace`` (spans and the sampled
        invariant checks, see :mod:`repro.serve.trace`).
    trace_service:
        The service name this process's spans carry (``"worker"`` inside a
        pool).
    """

    def __init__(self, registry: Optional[ModelRegistry] = None, *,
                 config: Optional[ServeConfig] = None,
                 trace_service: str = "server"):
        super().__init__()
        config = config if config is not None else ServeConfig()
        self.config = config
        if registry is None:
            engine = config.engine
            mmap_mode, optimize = engine.mmap_mode, engine.optimize
            registry = ModelRegistry(
                max_total_values=engine.max_total_values, mmap_mode=mmap_mode,
                engine_factory=lambda path: BundleEngine(
                    path, mmap_mode=mmap_mode, optimize=optimize))
        self.registry = registry
        self.host = config.net.host
        self.port = config.net.port
        self.max_batch_size = config.engine.max_batch_size
        self.max_queue_depth = config.engine.max_queue_depth
        self.request_timeout_s = config.engine.request_timeout_s
        self.batch_chunk = config.engine.batch_chunk
        self.audit_every = config.engine.audit_every
        self.hardware_hz = config.engine.hardware_hz
        self.qos_config = config.qos
        self.metrics = ServerMetrics()
        #: Per-process injected inference latency (seconds); the pool's
        #: ``slow`` fault sets this so overload paths are chaos-testable
        #: without real saturation.
        self.injected_latency_s = 0.0
        #: The `corrupt` chaos fault: when set, every prediction's first
        #: logit is overwritten with NaN *after* the engine ran — exercising
        #: the runtime-verification plane (finite-logits invariant, canary
        #: parity) without touching the engine.
        self.corrupt_logits = False
        #: Tracing + runtime verification.
        self.tracer = Tracer(trace_service, ring_size=config.trace.trace_ring,
                             trace_dir=config.trace.trace_dir,
                             enabled=config.trace.enabled)
        self.monitor = InvariantMonitor(config.trace.invariant_every,
                                        tracer=self.tracer)
        #: Deterministic response cache + in-flight coalescing (see class
        #: docstring); ``None`` when disabled.
        cache_mb = config.cache.cache_mb
        self.cache: Optional[ResultCache] = (
            ResultCache(int(cache_mb * 1024 * 1024)) if cache_mb > 0 else None)
        #: Overload brownout: queue depth across all batchers + recent p99.
        self.brownout = self.qos_config.make_brownout(self._overload_signal)
        self.pipeline = RequestPipeline(
            "server", tracer=self.tracer, metrics=self.metrics,
            monitor=self.monitor, cache=self.cache,
            resolve=self.registry.cache_namespace, dispatch=self._dispatch,
            follow_timeout_s=self.request_timeout_s)
        self._served: Dict[str, ServedModel] = {}
        self._lock = threading.RLock()

    def _overload_signal(self):
        """(queue depth, recent p99 ms) — the brownout controller's inputs."""
        with self._lock:
            records = list(self._served.values())
        depth = sum(record.batcher.queue_depth for record in records)
        return depth, self.metrics.recent_p99_ms()

    # ------------------------------------------------------------------ #
    # Model management
    # ------------------------------------------------------------------ #
    def add_bundle(self, path: PathLike, name: Optional[str] = None,
                   preload: bool = False) -> str:
        """Register a bundle file under ``name`` (default: the file stem)."""
        path = Path(path)
        name = name or path.stem
        self.registry.register(name, path, preload=False)
        if preload:
            self._get_served(name)
        return name

    @staticmethod
    def _retire(record: ServedModel) -> None:
        """Drain and unwire one served record (call with no locks held)."""
        record.batcher.stop(drain=True)
        record.reference = None
        if record.lease is not None:
            record.lease.release()

    def _retire_served(self, record_id: str) -> None:
        with self._lock:
            record = self._served.pop(record_id, None)
        if record is not None:
            self._retire(record)

    def _get_served(self, name: str) -> ServedModel:
        """The wired-up (engine + batcher) record, building lazily.

        The engine checkout (which may *load* a bundle) happens before the
        server lock is taken, so a slow deploy never stalls other models'
        predictions.  The returned record holds an :class:`EngineLease`;
        registry evictions are honoured here: a ``ServedModel`` whose record
        the registry marked for eviction is retired (its batcher drained, its
        reference engine dropped, its lease released) so eviction actually
        releases the memory.  Retirement happens *outside* the server lock:
        draining a busy batcher can take seconds and must not stall other
        models' predictions or ``/metrics``.
        """
        lease = self.registry.acquire(name)       # may load; no server lock held
        retired = []
        adopted = False
        try:
            with self._lock:
                record_id = lease.name            # alias-resolved registry id
                served = self._served.get(record_id)
                if served is not None and served.engine is not lease.engine:
                    retired.append(self._served.pop(record_id))  # evicted + reloaded
                    served = None
                # Drop wired-up records for versions the registry evicted or
                # marked for deferred drop, or their engines (and reference
                # engines) stay resident and the --max_total_values budget
                # is fiction.
                loaded = set(self.registry.loaded_names())
                for other in list(self._served):
                    if other != record_id and other not in loaded:
                        retired.append(self._served.pop(other))
                if served is not None:
                    return served
                engine = lease.engine
                reference = on_batch = None
                if self.audit_every:
                    # Mirror the served engine's configuration (including any
                    # optimization passes) so the audit compares fused vs.
                    # reference kernels on the *same* program.
                    reference = engine.reference_engine()
                    on_batch = functools.partial(self._audit_batch, record_id,
                                                 reference)
                engine.tracer = self.tracer
                pacer = None
                if self.hardware_hz:
                    pacer = _AcceleratorPacer(engine, self.hardware_hz,
                                              batch_chunk=self.batch_chunk)
                    base_fn = pacer
                else:
                    base_fn = (lambda x, _engine=engine:
                               _engine.predict(x, batch_chunk=self.batch_chunk))

                def predict_fn(x, _base=base_fn):
                    # The `slow` chaos fault: stretch every dispatch by the
                    # injected latency so queue depth and p99 rise the same
                    # way they would under real saturation.
                    delay = self.injected_latency_s
                    if delay > 0:
                        time.sleep(delay)
                    outputs = _base(x)
                    if self.corrupt_logits:
                        # The `corrupt` chaos fault: poison the response after
                        # the engine ran, so the runtime-verification plane —
                        # not the engine — is what must catch it.
                        outputs = np.array(outputs, copy=True)
                        outputs[..., 0] = np.nan
                    return outputs

                batcher = DynamicBatcher(
                    predict_fn,
                    max_batch_size=self.max_batch_size,
                    max_queue_depth=self.max_queue_depth,
                    request_timeout_s=self.request_timeout_s,
                    metrics=self.metrics, on_batch=on_batch,
                    batch_class_samples=self.qos_config.batch_class_samples,
                    tracer=self.tracer).start()
                served = ServedModel(name=record_id, engine=engine, batcher=batcher,
                                     reference=reference, pacer=pacer,
                                     lease=lease)
                self._served[record_id] = served
                adopted = True
                return served
        finally:
            if not adopted:
                lease.release()           # existing record already holds one
            for record in retired:
                self._retire(record)

    def _audit_batch(self, model: str, reference: BundleEngine,
                     inputs: np.ndarray, outputs: np.ndarray) -> None:
        """Batch hook: queue one batch in ``audit_every`` for a re-run
        through the reference engine (bitwise for multiplier-free bundles)."""
        if not self.monitor.sample(f"parity_audit:{model}", self.audit_every):
            return
        # Copy: the scheduler may hand us views into buffers it reuses.
        inputs = np.array(inputs, copy=True)
        self.monitor.submit(
            "parity_audit", lambda: reference.predict(inputs),
            np.array(outputs, copy=True), model=model,
            exact=reference.bundle.is_multiplier_free())

    # ------------------------------------------------------------------ #
    # Model lifecycle (hot reload)
    # ------------------------------------------------------------------ #
    def deploy_bundle(self, path: PathLike, name: str,
                      version: Optional[int] = None,
                      preload: bool = True) -> str:
        """Register (and warm) a **new version** of base ``name`` while the
        server keeps answering from the active version.  Returns the new
        versioned record id (``name@vN``); traffic only reaches it by that
        explicit name until :meth:`promote`."""
        record = self.registry.deploy(name, path, version=version)
        if preload:
            try:
                self._get_served(record.name)
            except Exception:
                self.registry.undeploy(record.name)
                raise
        return record.name

    def promote(self, name: str, version: Optional[int] = None) -> Dict[str, object]:
        """Atomically point base ``name`` at ``version`` (default: latest).

        Zero-downtime order: the candidate is warmed first (engine loaded,
        batcher running), then the alias flips — new requests route to the
        new version — and only then is the outgoing version's serving record
        drained and released.  In-flight requests on the old version finish
        on its engine."""
        base, parsed = split_versioned(name)
        if parsed is not None:
            if version is not None and version != parsed:
                raise LifecycleError(f"conflicting versions: name {name!r} "
                                     f"vs version={version}")
            version = parsed
        version = self.registry.check_version(base, version)
        previous_version = self.registry.active_version(base)
        previous_id = self.registry.resolve_id(base)
        candidate_id = self.registry.versions_of(base)[version]
        if candidate_id != previous_id:
            # Warm by canonical versioned name: the record id of a
            # bare-registered v1 is the base name itself, which the resolver
            # would route through the *active* alias — warming the wrong
            # (outgoing) version on a rollback.
            self._get_served(format_versioned(base, version))
            self.registry.set_active(base, version)
            self._retire_served(previous_id)
            if self.cache is not None and previous_version is not None:
                # Retire the outgoing version's response namespace with the
                # flip; the epoch bump also refuses any in-flight fill that
                # captured its epoch before this promote.
                self.cache.invalidate_namespace(
                    format_versioned(base, previous_version))
        return {"model": base, "active_version": version,
                "active": candidate_id, "previous_version": previous_version}

    def rollback(self, name: str) -> Dict[str, object]:
        """Flip base ``name`` back to its previously active version."""
        base, _ = split_versioned(name)
        info = self.promote(base, self.registry.rollback_target(base))
        info["rolled_back"] = True
        return info

    def undeploy(self, name: str) -> str:
        """Remove a non-active version and retire its serving record."""
        record_id = self.registry.resolve_id(name)
        self.registry.undeploy(record_id)     # validates (active stays put)
        self._retire_served(record_id)
        if self.cache is not None:
            base, version = split_versioned(record_id)
            # A bare record id is the registration grammar's version 1.
            self.cache.invalidate_namespace(
                record_id if version is not None else format_versioned(base, 1))
        return record_id

    def lifecycle_snapshot(self) -> Dict[str, object]:
        """The single-process ``/admin/status`` payload."""
        with self._lock:
            serving = sorted(self._served)
        registry = self.registry.describe()
        return {
            "registry": registry,
            "active": registry["active"],
            "serving": serving,
        }

    # ------------------------------------------------------------------ #
    # In-process serving API (the HTTP path runs through it too)
    # ------------------------------------------------------------------ #
    def predict(self, inputs: np.ndarray, model: Optional[str] = None,
                timeout_s: Optional[float] = None,
                qos: Optional[RequestQoS] = None,
                trace: Optional[TraceContext] = None,
                no_cache: bool = False, *,
                reply: bool = False) -> Union[Dict[str, object], Reply]:
        """Micro-batched prediction; returns a JSON-ready response dict.

        ``qos`` carries the request's priority class, tenant and absolute
        deadline (default: ``standard`` / ``default`` / none — the pre-QoS
        behaviour).  The brownout controller may refuse admission with
        :class:`~repro.serve.qos.ShedError` before any engine work.

        ``trace`` carries the propagated trace context (id, parent span,
        attempt, remote Lamport clock); when absent a fresh trace id is
        generated here — every request is traced, whoever fronted it.  The
        id rides on the response as ``trace_id`` and every failure path
        finishes the root span with a terminal status.

        ``no_cache=True`` forces an engine execution past the response cache
        and past in-flight coalescing (the HTTP equivalent is the
        ``no_cache`` payload key or the ``X-No-Cache`` header).

        ``reply=True`` returns the pipeline's :class:`~repro.serve.pipeline.
        Reply` instead of a dict: the HTTP path encodes that, so cache hits
        stay spliced bytes.  Every step but dispatch is
        :class:`~repro.serve.pipeline.RequestPipeline`'s.
        """
        result = self.pipeline.run(PredictRequest(
            inputs=inputs, model=model or "", timeout_s=timeout_s,
            qos=qos if qos is not None else RequestQoS(),
            trace=trace if trace is not None else TraceContext(),
            no_cache=no_cache))
        return result if reply else result.to_dict()

    def _dispatch(self, request: PredictRequest) -> Reply:
        """The single server's dispatch step: brownout, then the batcher."""
        qos = request.qos
        self.brownout.admit(qos.priority)
        name = request.model or self.registry.default_name()
        if name is None:
            raise KeyError("no models registered")
        served = self._get_served(name)
        try:
            inputs = np.asarray(request.inputs, dtype=np.float64)
        except TypeError as exc:
            raise ValueError(f"inputs must be numeric: {exc}") from None
        expected = served.engine.input_shape
        if expected is not None and tuple(inputs.shape) == tuple(expected):
            inputs = inputs[None]                     # single sample → batch of 1
        if inputs.ndim == 0 or inputs.shape[0] == 0:
            raise ValueError("inputs must contain at least one sample")
        # Validate per-sample shape at admission: a bad request must be
        # rejected here (HTTP 400), never coalesced into a batch where its
        # shape would fail the whole dispatch.
        if expected is not None and tuple(inputs.shape[1:]) != tuple(expected):
            raise ValueError(f"expected per-sample input shape {tuple(expected)}, "
                             f"got {tuple(inputs.shape[1:])}")
        submit_kwargs = dict(timeout_s=request.timeout_s, priority=qos.priority,
                             tenant=qos.tenant, deadline=qos.deadline,
                             trace_id=request.trace.trace_id,
                             parent_span=request.root_id)
        try:
            submitted = served.batcher.submit(inputs, **submit_kwargs)
        except SchedulerStopped:
            # We raced an LRU retirement: the model is still registered, so
            # re-resolve (reloading the engine) instead of failing the caller.
            served = self._get_served(name)
            submitted = served.batcher.submit(inputs, **submit_kwargs)
        wait = None
        if submitted.deadline is not None:
            wait = max(submitted.deadline - time.monotonic(), 0.0) + 1.0
        outputs = submitted.result(timeout=wait)
        # Per-stage component breakdown (derived from the same timings the
        # spans record): batcher queue wait, engine time inside the batch,
        # and everything else end-to-end ("respond").
        total_seconds = time.monotonic() - request.started
        self.metrics.record_stages(
            qos.priority,
            batch_wait=submitted.queue_seconds,
            infer=submitted.infer_seconds,
            respond=max(0.0, total_seconds - submitted.queue_seconds
                        - submitted.infer_seconds))
        return Reply(payload={
            "model": name,
            "outputs": outputs.tolist(),
            "classes": outputs.argmax(axis=1).tolist(),
            "num_samples": int(inputs.shape[0]),
            "queue_ms": submitted.queue_seconds * 1e3,
            "priority": qos.priority,
            "tenant": qos.tenant,
        })

    def metrics_snapshot(self) -> Dict[str, object]:
        """The ``/metrics`` payload."""
        with self._lock:
            served = dict(self._served)
        queue_depth = sum(record.batcher.queue_depth for record in served.values())
        payload: Dict[str, object] = {
            "server": self.metrics.snapshot(queue_depth=queue_depth),
            # snapshot() also refreshes the detector, so a server whose
            # traffic stopped entirely still recovers toward `healthy` while
            # being scraped.
            "brownout": self.brownout.snapshot(),
            "registry": self.registry.describe(),
            "trace": self.tracer.snapshot(),
            "runtime_verification": self.monitor.snapshot(),
            "cache": (self.cache.snapshot() if self.cache is not None
                      else {"enabled": False}),
            "frontend": self.frontend_snapshot(),
            "models": {},
        }
        # Keep the JSONL export readable by scrapers: a /metrics poll is the
        # natural heartbeat to push buffered spans to disk.
        self.tracer.flush()
        for name, record in served.items():
            entry: Dict[str, object] = {
                "engine": record.engine.stats_snapshot(),
                "queue_depth": record.batcher.queue_depth,
                "batching": {
                    "max_batch_size": record.batcher.max_batch_size,
                    "batch_class_samples": record.batcher.batch_class_samples,
                },
            }
            if record.pacer is not None:
                entry["hardware_emulation"] = {
                    "hz": record.pacer.hz,
                    "slept_s": record.pacer.slept_s,
                }
            payload["models"][name] = entry
        return payload

    def models_snapshot(self) -> Dict[str, object]:
        return self.registry.describe()

    def health_snapshot(self) -> Dict[str, object]:
        with self._lock:
            serving = sorted(self._served)
        return {
            "status": "ok",
            "models": self.registry.names(),
            "serving": serving,
        }

    # ------------------------------------------------------------------ #
    # HTTP (the route table is FrontDoor's)
    # ------------------------------------------------------------------ #
    def predict_http(self, headers, body: bytes) -> HTTPReply:
        return self.pipeline.handle(headers, body, run=lambda request: self.predict(
            request.inputs, model=request.model, qos=request.qos,
            trace=request.trace, no_cache=request.no_cache, reply=True))

    def admin_http(self, path: str, body: bytes, headers) -> HTTPReply:
        """``/admin/*`` POSTs through the shared typed schemas.

        The single server ignores the canary-gate fields of
        :class:`~repro.serve.adminapi.DeployRequest` (there is no traffic
        splitter here) and does not implement ``scale`` — the pool does.
        """
        return adminapi.dispatch_admin(path, body, {
            "deploy": lambda r: {"deployed": self.deploy_bundle(
                r.path, name=r.name, version=r.version, preload=r.preload)},
            "promote": lambda r: self.promote(r.name, version=r.version),
            "rollback": lambda r: self.rollback(r.name),
        })

    # ------------------------------------------------------------------ #
    # HTTP lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "PECANServer":
        """Bind and serve on a background thread (idempotent)."""
        if self._frontend is None:
            self._bind()
        return self

    def stop(self) -> None:
        self._unbind()
        with self._lock:
            records = list(self._served.values())
            self._served.clear()
        for record in records:        # drain outside the lock
            self._retire(record)
        self.monitor.close()
        self.tracer.close()

    def serve_forever(self) -> None:
        """Blocking variant for the CLI: start and run until interrupted."""
        self.start()
        try:
            while self._frontend is not None:
                time.sleep(0.5)
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

