"""``repro.serve`` — production-style serving for exported PECAN bundles.

The deployment half of the paper made runnable as a service.  A trained PECAN
model exports to a ``.npz`` deployment bundle (prototypes + LUTs + a recorded
inference program); this package turns that file back into a serving process:

* :mod:`repro.serve.engine` — :class:`BundleEngine`, the bundle-backed engine
  (no model object, no autograd): a thin executor over the inference graph IR
  of :mod:`repro.ir`, sharing the fused Algorithm-1 kernels of
  :mod:`repro.cam.runtime` and the unified op registry of
  :mod:`repro.ir.ops`;
* :mod:`repro.serve.scheduler` — :class:`DynamicBatcher`, dynamic
  micro-batching with a bounded queue, deadlines and backpressure;
* :mod:`repro.serve.registry` — :class:`ModelRegistry`, named bundles with
  LRU eviction by CAM memory footprint;
* :mod:`repro.serve.metrics` — :class:`ServerMetrics`, latency percentiles,
  batch-size histogram, throughput;
* :mod:`repro.serve.server` — :class:`PECANServer`, the JSON serving
  process (``/predict``, ``/models``, ``/metrics``, ``/healthz``) behind the
  event-loop network front end;
* :mod:`repro.serve.pipeline` — the one ``/predict`` request pipeline
  (decode, root span, cache/coalesce, verify, reply) both servers run, and
  the route table every front door answers with;
* :mod:`repro.serve.pool` — :class:`PoolServer`, a data-parallel router over
  N worker processes (each a full ``PECANServer`` over memory-mapped bundle
  arrays) with pluggable routing policies, heartbeat-driven respawn of
  dead/hung workers, and graceful drain;
* :mod:`repro.serve.lifecycle` — versioned deployments made a routed
  operation: :class:`CanaryPolicy` (deterministic traffic splits),
  :class:`RolloutGate` (bitwise output parity + latency judging) and
  :class:`Rollout` state behind the ``/admin/deploy | promote | rollback``
  API and ``repro-pecan deploy/promote/rollback``;
* :mod:`repro.serve.client` — :class:`ServeClient`, a stdlib HTTP client
  (with one transparent retry of idempotent requests over worker respawns,
  and ``Retry-After``-honouring backoff on 429/503) plus :class:`BulkScorer`,
  chunked offline scoring at ``batch`` priority, and the admin API verbs;
* :mod:`repro.serve.qos` — the QoS plane: :data:`PRIORITY_CLASSES`
  (``interactive``/``standard``/``batch``), per-request deadlines and tenants
  (:class:`RequestQoS`), weighted-fair priority-ordered dispatch slots
  (:class:`FairScheduler`), per-tenant token buckets
  (:class:`TokenBucketTable`) and the EWMA overload
  :class:`BrownoutController` (``healthy → shed-batch → shed-standard →
  emergency``), configured through :class:`QoSConfig`;
* :mod:`repro.serve.trace` — distributed tracing: per-request trace ids
  (``X-Trace-Id``), per-hop spans with per-process Lamport clocks merged at
  every boundary (:class:`Tracer`, :class:`TraceContext`), bounded in-memory
  rings, otel-style JSONL export and offline analysis helpers
  (:func:`read_trace_dir`, :func:`causal_sort`, :func:`summarize_spans`);
* :mod:`repro.serve.invariants` — :class:`InvariantMonitor`, the one
  sampled re-execution checker (finite logits, stable shapes, retry-stable
  argmax, parity audits, canary and cache parity, causal span order) whose
  violations trip the rollout gate;
* :mod:`repro.serve.cache` — the deterministic response cache:
  :func:`canonical_input_hash` (the shared request-identity hash),
  :class:`ResultCache` (byte-budgeted LRU of canonical response bytes,
  namespaced per ``model@version``, epoch-guarded lifecycle invalidation)
  and in-flight request coalescing (:class:`InFlightCall`) — exact and
  provably lossless because PECAN-D inference is bitwise deterministic;
* :mod:`repro.serve.loadgen` — :class:`ZipfWorkload`, seeded
  Zipf-distributed request streams over a pool of unique inputs (the load
  drivers that replay them live in ``benchmarks/harness.py``);
* :mod:`repro.serve.netfront` — :class:`EventLoopFrontEnd`, the
  ``selectors``-based HTTP/1.1 network front end shared by
  :class:`PECANServer` and :class:`PoolServer`:
  non-blocking accept/read/write on one loop thread, incremental parsing
  (:class:`RequestParser`),
  keep-alive with in-order pipelining, a bounded connection budget
  (503 + ``Retry-After`` past it), and slowloris/idle timeouts — handing
  parsed requests to the blocking serving plane over a bounded completion
  bridge;
* :mod:`repro.serve.config` — :class:`ServeConfig`, the layered configuration
  tree that is the ONE constructor argument for :class:`PECANServer` and
  :class:`PoolServer`; every ``repro-pecan serve``
  flag, its ``--help`` text and the README reference table are generated
  from its field metadata, with argv ⇄ config ⇄ JSON round trips;
* :mod:`repro.serve.adminapi` — the typed ``/admin/*`` wire contract shared
  by every server and the client: request schemas per verb, structured
  errors (``code`` / ``reason`` / ``retry_after``) and the common dispatch;
* :mod:`repro.serve.autoscale` — :class:`Autoscaler`, the elastic
  worker-pool policy: sustained queue/latency pressure doubles the worker
  target, idle dwell steps it down (optionally to zero with mmap-backed
  cold starts), all inside the crash-loop breaker's authority.

Importing this package never loads the training substrate (autograd,
optimizers, the model zoo) — the serving path stays lean, which
``tests/test_serve.py`` asserts by inspecting ``sys.modules`` in a fresh
interpreter.
"""

from repro.serve.adminapi import (ADMIN_VERBS, ERROR_CODES, AdminError,
                                  DeployRequest, PromoteRequest,
                                  RollbackRequest, ScaleRequest,
                                  dispatch_admin, parse_admin_request)
from repro.serve.autoscale import Autoscaler, ScaleDecision, ScaleSignals
from repro.serve.cache import (NO_CACHE_HEADER, CachePlane, InFlightCall,
                               ResultCache, canonical_input_array,
                               canonical_input_hash, canonical_response_bytes,
                               splice_json, stable_route_hash)
from repro.serve.client import BulkScorer, ServeClient, ServeHTTPError
from repro.serve.config import (AutoscaleConfig, CacheConfig, EngineConfig,
                                LifecycleConfig, NetConfig, PoolConfig,
                                ServeConfig, TraceConfig,
                                add_serve_arguments, config_reference_table,
                                serve_config_from_args, serve_config_to_args)
from repro.serve.engine import BundleEngine
from repro.serve.loadgen import ZipfWorkload
from repro.serve.netfront import (EventLoopFrontEnd, Headers, HTTPParseError,
                                  ParsedRequest, RequestParser,
                                  render_response)
from repro.serve.invariants import InvariantMonitor, Violation, check_causal_order
from repro.serve.lifecycle import (CanaryPolicy, LifecycleError, Rollout,
                                   RolloutGate, format_versioned,
                                   split_versioned)
from repro.serve.metrics import ServerMetrics, aggregate_counter_trees
from repro.serve.pool import (POLICIES, CacheAffinityPolicy,
                              LeastOutstandingPolicy, ModelAffinityPolicy,
                              PoolServer, RoundRobinPolicy, RoutingPolicy,
                              WorkerConfig, make_policy)
from repro.serve.qos import (BROWNOUT_STATES, PRIORITY_CLASSES,
                             BrownoutController, FairScheduler, QoSConfig,
                             RequestQoS, ShedError, TokenBucket,
                             TokenBucketTable, parse_qos)
from repro.serve.registry import EngineLease, ModelRegistry, RegisteredModel
from repro.serve.scheduler import (DynamicBatcher, InferenceRequest, QueueFullError,
                                   RequestTimeout, SchedulerError, SchedulerStopped)
from repro.serve.server import PECANServer, ServedModel
from repro.serve.trace import (LamportClock, Span, TraceContext, Tracer,
                               causal_sort, group_by_trace, new_trace_id,
                               parse_trace_context, read_trace_dir,
                               slowest_traces, summarize_spans)

__all__ = [
    "ADMIN_VERBS",
    "ERROR_CODES",
    "AdminError",
    "DeployRequest",
    "PromoteRequest",
    "RollbackRequest",
    "ScaleRequest",
    "dispatch_admin",
    "parse_admin_request",
    "Autoscaler",
    "ScaleDecision",
    "ScaleSignals",
    "AutoscaleConfig",
    "CacheConfig",
    "EngineConfig",
    "LifecycleConfig",
    "NetConfig",
    "PoolConfig",
    "ServeConfig",
    "TraceConfig",
    "add_serve_arguments",
    "config_reference_table",
    "serve_config_from_args",
    "serve_config_to_args",
    "BROWNOUT_STATES",
    "PRIORITY_CLASSES",
    "BrownoutController",
    "BulkScorer",
    "FairScheduler",
    "QoSConfig",
    "RequestQoS",
    "ShedError",
    "TokenBucket",
    "TokenBucketTable",
    "parse_qos",
    "BundleEngine",
    "CanaryPolicy",
    "EngineLease",
    "LifecycleError",
    "Rollout",
    "RolloutGate",
    "format_versioned",
    "split_versioned",
    "PoolServer",
    "WorkerConfig",
    "RoutingPolicy",
    "RoundRobinPolicy",
    "LeastOutstandingPolicy",
    "ModelAffinityPolicy",
    "CacheAffinityPolicy",
    "POLICIES",
    "make_policy",
    "NO_CACHE_HEADER",
    "CachePlane",
    "InFlightCall",
    "ResultCache",
    "canonical_input_array",
    "canonical_input_hash",
    "canonical_response_bytes",
    "splice_json",
    "stable_route_hash",
    "ZipfWorkload",
    "EventLoopFrontEnd",
    "Headers",
    "HTTPParseError",
    "ParsedRequest",
    "RequestParser",
    "render_response",
    "aggregate_counter_trees",
    "DynamicBatcher",
    "InferenceRequest",
    "QueueFullError",
    "RequestTimeout",
    "SchedulerError",
    "SchedulerStopped",
    "ModelRegistry",
    "RegisteredModel",
    "ServerMetrics",
    "PECANServer",
    "ServedModel",
    "ServeClient",
    "ServeHTTPError",
    "Tracer",
    "TraceContext",
    "Span",
    "LamportClock",
    "new_trace_id",
    "parse_trace_context",
    "read_trace_dir",
    "group_by_trace",
    "causal_sort",
    "summarize_spans",
    "slowest_traces",
    "InvariantMonitor",
    "Violation",
    "check_causal_order",
]
