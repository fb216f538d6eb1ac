"""The QoS plane: priority classes, tenancy, deadlines, fairness, brownout.

Until now every request through :mod:`repro.serve` was equal: one queue, one
class of traffic, and overload was a blunt 429 at a fixed queue bound.  One
misbehaving tenant — or a perfectly well-behaved bulk scoring job — could blow
the p99 of every interactive client.  This module is the shared vocabulary
and machinery that makes the serving plane safe to oversubscribe:

* **Priority classes** (:data:`PRIORITY_CLASSES`): ``interactive`` >
  ``standard`` > ``batch``.  Requests carry their class end to end (HTTP
  front end → router → batcher) and every scheduling decision is
  priority-ordered.
* **Deadlines**: an absolute per-request deadline, parsed once at the front
  end and *propagated* — the router forwards the remaining budget, so a
  request doomed to time out is shed before it wastes engine time, with
  queue-time diagnostics on the 408.
* **Per-tenant fairness** (:class:`FairScheduler`): a bounded set of dispatch
  slots fronted by weighted-fair per-tenant queues with strict
  priority-ordered grant, so one tenant's burst cannot starve the others.
* **Rate limits** (:class:`TokenBucket` / :class:`TokenBucketTable`):
  optional per-tenant token buckets, refused work gets a ``Retry-After``
  hint.
* **Brownout** (:class:`BrownoutController`): an EWMA detector over queue
  depth and p99 latency that degrades through explicit, observable states —
  ``healthy → shed-batch → shed-standard → emergency`` — shedding the lowest
  class first and publishing its state, load score and per-class shed
  counters in ``/metrics``.

The design follows the overload detector and QoE-centric router of vLLM's
production stack, scaled to this repo; making the shed decisions explicit
states (rather than emergent queue behaviour) is what lets the tests assert
runtime-verification style invariants like *"no interactive request was
dropped while batch work was admitted"*.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.serve.scheduler import (DEFAULT_PRIORITY, DEFAULT_TENANT,
                                   PRIORITY_CLASSES, QueueFullError,
                                   RequestTimeout, priority_rank)


class ShedError(RuntimeError):
    """The request was refused by the QoS plane (not by the engine).

    Carries the HTTP status the front end should answer with and a
    ``Retry-After`` hint in seconds so well-behaved clients back off instead
    of hammering an overloaded server.
    """

    def __init__(self, message: str, *, status: int = 503,
                 retry_after_s: float = 1.0, reason: str = "shed"):
        super().__init__(message)
        self.status = status
        self.retry_after_s = retry_after_s
        self.reason = reason


def connection_budget_shed(limit: int,
                           retry_after_s: float = 1.0) -> ShedError:
    """The refusal for a connection past the front end's budget.

    Connection-level overload rides the same wire shape as a brownout shed
    (``{error, reason, retry_after_s}`` body + ``Retry-After`` header), so
    one client-side backoff path — :class:`~repro.serve.client.ServeClient`
    honouring 503 + ``Retry-After`` — handles both.  The reason string
    distinguishes the layers in metrics and logs.
    """
    return ShedError(
        f"connection budget exhausted ({limit} open connections)",
        status=503, retry_after_s=retry_after_s, reason="connection-budget")


# --------------------------------------------------------------------------- #
# Request QoS descriptor + parsing
# --------------------------------------------------------------------------- #
@dataclass
class RequestQoS:
    """Everything the scheduling layers need to know about one request.

    ``deadline`` is absolute ``time.monotonic()`` seconds (or ``None``) so it
    survives propagation across queues without clock re-anchoring inside one
    process; across the router→worker HTTP hop it travels as the *remaining*
    budget in milliseconds (:meth:`remaining_ms`).
    """

    priority: str = DEFAULT_PRIORITY
    tenant: str = DEFAULT_TENANT
    deadline: Optional[float] = None

    @property
    def rank(self) -> int:
        return priority_rank(self.priority)

    def remaining_ms(self, now: Optional[float] = None) -> Optional[float]:
        if self.deadline is None:
            return None
        now = time.monotonic() if now is None else now
        return (self.deadline - now) * 1e3

    def expired(self, now: Optional[float] = None) -> bool:
        if self.deadline is None:
            return False
        return (time.monotonic() if now is None else now) > self.deadline


#: HTTP request headers the front ends accept (body fields win on conflict
#: so a router that merged headers into the body stays authoritative).
HEADER_PRIORITY = "X-Priority"
HEADER_TENANT = "X-Tenant"
HEADER_DEADLINE_MS = "X-Deadline-Ms"


def parse_qos(payload: Optional[Mapping[str, object]] = None,
              headers: Optional[Mapping[str, str]] = None,
              now: Optional[float] = None) -> RequestQoS:
    """Build a :class:`RequestQoS` from a JSON body and/or HTTP headers.

    Accepted body fields: ``priority`` (class name), ``tenant`` (string),
    ``deadline_ms`` (relative budget from *now*).  Header equivalents:
    ``X-Priority``, ``X-Tenant``, ``X-Deadline-Ms``.  Malformed values raise
    ``ValueError`` — the front ends map that to HTTP 400 (a typo'd priority
    must not silently demote or promote a request).
    """
    now = time.monotonic() if now is None else now
    priority: object = DEFAULT_PRIORITY
    tenant: object = DEFAULT_TENANT
    deadline_ms: object = None
    if headers:
        if headers.get(HEADER_PRIORITY) is not None:
            priority = headers[HEADER_PRIORITY]
        if headers.get(HEADER_TENANT) is not None:
            tenant = headers[HEADER_TENANT]
        if headers.get(HEADER_DEADLINE_MS) is not None:
            deadline_ms = headers[HEADER_DEADLINE_MS]
    if payload:
        if payload.get("priority") is not None:
            priority = payload["priority"]
        if payload.get("tenant") is not None:
            tenant = payload["tenant"]
        if payload.get("deadline_ms") is not None:
            deadline_ms = payload["deadline_ms"]
    priority = str(priority).strip().lower()
    priority_rank(priority)                       # validates
    tenant = str(tenant).strip() or DEFAULT_TENANT
    deadline: Optional[float] = None
    if deadline_ms is not None:
        try:
            budget_ms = float(deadline_ms)
        except (TypeError, ValueError):
            raise ValueError(f"deadline_ms must be a number, got {deadline_ms!r}") \
                from None
        if budget_ms <= 0:
            raise ValueError(f"deadline_ms must be positive, got {budget_ms!r}")
        deadline = now + budget_ms / 1e3
    return RequestQoS(priority=priority, tenant=tenant, deadline=deadline)


def qos_wire_fields(qos: RequestQoS,
                    now: Optional[float] = None) -> Dict[str, object]:
    """The body fields that carry ``qos`` over the router→worker hop.

    The deadline is the *remaining* budget, so the worker's batcher honours
    (approximately) the same absolute deadline the front end admitted — that
    is the propagation half of "shed doomed work before it reaches the
    engine".  Spliced onto the client's body, they override its values.
    """
    fields: Dict[str, object] = {"priority": qos.priority, "tenant": qos.tenant}
    remaining = qos.remaining_ms(now)
    if remaining is not None:
        fields["deadline_ms"] = max(remaining, 0.001)
    return fields


# --------------------------------------------------------------------------- #
# Per-tenant token buckets
# --------------------------------------------------------------------------- #
class TokenBucket:
    """Classic token bucket: ``rate`` tokens/s, capacity ``burst``."""

    def __init__(self, rate: float, burst: float):
        if rate <= 0:
            raise ValueError("token bucket rate must be positive")
        self.rate = float(rate)
        self.burst = max(float(burst), 1.0)
        self.tokens = self.burst
        self._updated = time.monotonic()
        self._lock = threading.Lock()

    def try_take(self, n: float = 1.0,
                 now: Optional[float] = None) -> Tuple[bool, float]:
        """Take ``n`` tokens if available.

        Returns ``(granted, retry_after_s)``; ``retry_after_s`` is how long
        until ``n`` tokens will have accrued (0 when granted).
        """
        now = time.monotonic() if now is None else now
        with self._lock:
            self.tokens = min(self.burst,
                              self.tokens + (now - self._updated) * self.rate)
            self._updated = now
            if self.tokens >= n:
                self.tokens -= n
                return True, 0.0
            return False, (n - self.tokens) / self.rate

    def snapshot(self) -> Dict[str, float]:
        with self._lock:
            return {"rate_per_s": self.rate, "burst": self.burst,
                    "tokens": round(self.tokens, 3)}


class TokenBucketTable:
    """Per-tenant token buckets with a default rate and per-tenant overrides.

    ``default_rate=None`` disables rate limiting for tenants without an
    explicit override (the zero-configuration behaviour).  The table is
    bounded: beyond ``max_tenants`` tracked tenants, *new* tenants share one
    overflow bucket so a tenant-id cardinality attack cannot grow memory.
    """

    def __init__(self, default_rate: Optional[float] = None,
                 default_burst: float = 8.0,
                 overrides: Optional[Mapping[str, float]] = None,
                 max_tenants: int = 256):
        self.default_rate = default_rate
        self.default_burst = default_burst
        self.overrides = dict(overrides or {})
        self.max_tenants = max_tenants
        self._buckets: Dict[str, TokenBucket] = {}
        self._overflow: Optional[TokenBucket] = None
        self._lock = threading.Lock()

    def _bucket_for(self, tenant: str) -> Optional[TokenBucket]:
        rate = self.overrides.get(tenant, self.default_rate)
        if rate is None:
            return None
        with self._lock:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                if len(self._buckets) >= self.max_tenants and \
                        tenant not in self.overrides:
                    if self._overflow is None:
                        self._overflow = TokenBucket(rate, self.default_burst)
                    return self._overflow
                bucket = TokenBucket(rate, self.default_burst)
                self._buckets[tenant] = bucket
            return bucket

    def admit(self, tenant: str) -> Tuple[bool, float]:
        bucket = self._bucket_for(tenant)
        if bucket is None:
            return True, 0.0
        return bucket.try_take(1.0)

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            buckets = dict(self._buckets)
        return {
            "default_rate_per_s": self.default_rate,
            "tenants": {tenant: bucket.snapshot()
                        for tenant, bucket in sorted(buckets.items())},
        }


# --------------------------------------------------------------------------- #
# Weighted-fair, priority-ordered dispatch slots (the router queue)
# --------------------------------------------------------------------------- #
class _Waiter:
    __slots__ = ("qos", "enqueued_at", "event", "granted", "shed")

    def __init__(self, qos: RequestQoS):
        self.qos = qos
        self.enqueued_at = time.monotonic()
        self.event = threading.Event()
        self.granted = False
        self.shed: Optional[RequestTimeout] = None


class FairScheduler:
    """Admit requests to a bounded set of dispatch slots, fairly.

    The router's analogue of the batcher's queue: ``slots`` concurrent
    dispatches are allowed through; beyond that, callers wait in per-class ×
    per-tenant FIFO queues.  When a slot frees, the grant order is:

    1. **strict priority** — any waiting ``interactive`` request beats any
       ``standard`` one, which beats any ``batch`` one;
    2. **weighted fair across tenants** within a class — the tenant with the
       smallest weighted virtual time is served next, so a tenant flooding
       the queue gets (weight-proportionally) the same grant rate as a
       polite one, not more.

    Waiters whose deadline passes while queued are shed *in the queue* with a
    :class:`~repro.serve.scheduler.RequestTimeout` carrying queue-time
    diagnostics — they never consume a dispatch slot, which is the contract
    the deadline-propagation tests pin down.
    """

    def __init__(self, slots: int, max_waiting: int = 256,
                 tenant_weights: Optional[Mapping[str, float]] = None,
                 batch_waiting_fraction: float = 0.5):
        if slots < 1:
            raise ValueError("FairScheduler needs at least one dispatch slot")
        self.slots = int(slots)
        self.max_waiting = int(max_waiting)
        self.tenant_weights = dict(tenant_weights or {})
        #: ``batch``-class waiters are capped at this fraction of the waiting
        #: room, so a deep bulk backlog can never consume the admission
        #: capacity interactive traffic needs.
        self.batch_waiting_cap = max(1, int(max_waiting * batch_waiting_fraction))
        self._cond = threading.Condition()
        self._active = 0
        self._waiting = 0
        self._batch_waiting = 0
        #: class index -> tenant -> deque of waiters.
        self._queues: List[Dict[str, deque]] = [dict() for _ in PRIORITY_CLASSES]
        #: tenant -> weighted virtual time (grant accounting).
        self._vtime: Dict[str, float] = {}
        self.granted_total = 0
        self.shed_deadline_total = 0
        self.rejected_total = 0

    # -- internals (condition held) ------------------------------------- #
    def _weight(self, tenant: str) -> float:
        return max(float(self.tenant_weights.get(tenant, 1.0)), 1e-6)

    def _enqueue(self, waiter: _Waiter) -> None:
        rank = waiter.qos.rank
        queues = self._queues[rank]
        tenant = waiter.qos.tenant
        if tenant not in queues or not queues[tenant]:
            # A tenant (re)joining the queue must not replay virtual time it
            # never spent: fast-forward to the floor of currently queued
            # tenants so it competes from "now", not from t=0.
            floor = min((self._vtime.get(other, 0.0)
                         for cls in self._queues for other in cls if cls[other]),
                        default=0.0)
            self._vtime[tenant] = max(self._vtime.get(tenant, 0.0), floor)
        queues.setdefault(tenant, deque()).append(waiter)
        self._waiting += 1
        if rank == priority_rank("batch"):
            self._batch_waiting += 1

    def _remove(self, waiter: _Waiter) -> bool:
        queues = self._queues[waiter.qos.rank]
        tenant_queue = queues.get(waiter.qos.tenant)
        if tenant_queue is None:
            return False
        try:
            tenant_queue.remove(waiter)
        except ValueError:
            return False
        self._waiting -= 1
        if waiter.qos.rank == priority_rank("batch"):
            self._batch_waiting -= 1
        return True

    def _pop_next(self) -> Optional[_Waiter]:
        for rank in range(len(PRIORITY_CLASSES)):
            queues = self._queues[rank]
            candidates = [tenant for tenant, q in queues.items() if q]
            if not candidates:
                continue
            tenant = min(candidates, key=lambda t: (self._vtime.get(t, 0.0), t))
            waiter = queues[tenant].popleft()
            self._waiting -= 1
            if rank == priority_rank("batch"):
                self._batch_waiting -= 1
            self._vtime[tenant] = self._vtime.get(tenant, 0.0) + 1.0 / self._weight(tenant)
            return waiter
        return None

    def _grant_slots(self) -> None:
        now = time.monotonic()
        while self._active < self.slots:
            waiter = self._pop_next()
            if waiter is None:
                return
            if waiter.qos.expired(now):
                # Shed in the queue: the slot is NOT consumed and the waiter
                # carries its queue-time diagnostics out.
                queue_ms = (now - waiter.enqueued_at) * 1e3
                self.shed_deadline_total += 1
                waiter.shed = RequestTimeout(
                    f"deadline expired after {queue_ms:.1f} ms in the router "
                    f"queue (shed before dispatch)",
                    queue_ms=queue_ms, stage="router-queue")
                waiter.event.set()
                continue
            waiter.granted = True
            self.granted_total += 1
            self._active += 1
            waiter.event.set()

    # -- public API ------------------------------------------------------ #
    def acquire(self, qos: RequestQoS) -> float:
        """Wait for a dispatch slot; returns the queue wait in seconds.

        Raises :class:`QueueFullError` when the waiting room (or the batch
        share of it) is full, and :class:`RequestTimeout` (with queue-time
        diagnostics) when the deadline expires before a slot frees.
        """
        with self._cond:
            if self._active < self.slots and self._waiting == 0:
                self._active += 1
                self.granted_total += 1
                return 0.0
            if self._waiting >= self.max_waiting:
                self.rejected_total += 1
                raise QueueFullError(
                    f"router queue is full ({self.max_waiting} waiting)")
            if (qos.rank == priority_rank("batch")
                    and self._batch_waiting >= self.batch_waiting_cap):
                self.rejected_total += 1
                raise QueueFullError(
                    f"batch-class waiting room is full "
                    f"({self.batch_waiting_cap} waiting)")
            waiter = _Waiter(qos)
            self._enqueue(waiter)
            self._grant_slots()                  # a slot may already be free
        while True:
            timeout = None
            if qos.deadline is not None:
                timeout = max(qos.deadline - time.monotonic(), 0.0) + 0.005
            if waiter.event.wait(timeout):
                if waiter.shed is not None:
                    raise waiter.shed
                return time.monotonic() - waiter.enqueued_at
            with self._cond:
                if waiter.event.is_set():
                    continue                     # granted in the race window
                self._remove(waiter)
                queue_ms = (time.monotonic() - waiter.enqueued_at) * 1e3
                self.shed_deadline_total += 1
            raise RequestTimeout(
                f"deadline expired after {queue_ms:.1f} ms in the router "
                f"queue (shed before dispatch)",
                queue_ms=queue_ms, stage="router-queue")

    def release(self) -> None:
        with self._cond:
            self._active -= 1
            self._grant_slots()

    def resize(self, slots: int) -> int:
        """Change the dispatch-slot count in place (elastic pools).

        Growing grants queued waiters immediately; shrinking never cancels
        in-flight work — ``_active`` drains below the new bound naturally as
        requests release.  Returns the new slot count.
        """
        with self._cond:
            self.slots = max(1, int(slots))
            self._grant_slots()
            return self.slots

    def snapshot(self) -> Dict[str, object]:
        with self._cond:
            per_class = {
                PRIORITY_CLASSES[rank]: sum(len(q) for q in queues.values())
                for rank, queues in enumerate(self._queues)
            }
            return {
                "slots": self.slots,
                "active": self._active,
                "waiting": self._waiting,
                "waiting_by_class": per_class,
                "granted": self.granted_total,
                "shed_deadline": self.shed_deadline_total,
                "rejected": self.rejected_total,
                "tenant_weights": dict(self.tenant_weights),
            }


# --------------------------------------------------------------------------- #
# Brownout controller
# --------------------------------------------------------------------------- #
#: Brownout states, mildest first.  Each state sheds every class at or below
#: its :data:`_SHED_FLOOR` rank (``None`` = shed nothing).
BROWNOUT_STATES: Tuple[str, ...] = ("healthy", "shed-batch", "shed-standard",
                                    "emergency")

#: state -> lowest priority rank still admitted (requests with rank >= the
#: floor are shed).  ``emergency`` sheds everything — the breaker of last
#: resort; the controller should recover out of it before interactive traffic
#: is affected for long.
_SHED_FLOOR = {
    "healthy": None,
    "shed-batch": priority_rank("batch"),
    "shed-standard": priority_rank("standard"),
    "emergency": 0,
}

#: Default Retry-After hints per state (seconds).
_RETRY_AFTER = {"shed-batch": 1.0, "shed-standard": 2.0, "emergency": 5.0}

#: Flap damping: growth factor and cap (× ``min_dwell_s``) for the adaptive
#: recovery dwell, and the post-recovery window (× ``min_dwell_s``) inside
#: which a re-escalation counts as a flap.
_FLAP_BACKOFF = 2.0
_MAX_RECOVER_DWELL_FACTOR = 8.0
_FLAP_WINDOW_FACTOR = 2.0


class BrownoutController:
    """EWMA overload detector with explicit, hysteretic degradation states.

    ``signal_fn`` returns the two raw overload signals — current queue depth
    and recent p99 latency in ms (``None`` disables the latency signal).  On
    every :meth:`admit` (rate-limited to ``observe_interval_s``) the
    controller folds them into EWMAs and a unitless **load score**::

        load = max(queue_ewma / queue_high, p99_ewma / p99_slo_ms)

    State machine (evaluated against the load score, with a minimum dwell
    time per state so one noisy sample cannot flap the server):

    * ``load >= 1.0``  → at least ``shed-batch``
    * ``load >= shed_standard_at`` → at least ``shed-standard``
    * ``load >= emergency_at`` → ``emergency``
    * ``load <  recover_at`` → step one state back toward ``healthy``

    Escalation is immediate (overload will not wait); recovery is one state
    per dwell so a recovering server ramps traffic back gradually.  Every
    transition is logged (bounded) and visible in ``/metrics``, which is what
    makes shedding *checkable*: the tests assert the controller's decisions,
    not emergent queue behaviour.

    **Flap damping.**  The load score only sees *admitted* work, so under a
    sustained burst shedding hides the demand: the queue drains, the score
    collapses, the controller recovers — and the burst floods straight back
    in.  To keep that oscillation bounded the recovery dwell is adaptive:
    re-escalating within ``2 × min_dwell_s`` of a recovery doubles the dwell
    the *next* recovery must wait out (capped at ``8 × min_dwell_s``), and a
    calm escalation — long after the last recovery — resets it.  Sustained
    overload therefore settles into slow probe-and-back-off cycles instead
    of flapping at the observation rate, while recovery is always retried
    eventually (no livelock when demand finally subsides).
    """

    def __init__(self, signal_fn: Callable[[], Tuple[float, Optional[float]]], *,
                 queue_high: float = 32.0,
                 p99_slo_ms: Optional[float] = None,
                 alpha: float = 0.3,
                 observe_interval_s: float = 0.05,
                 shed_standard_at: float = 1.6,
                 emergency_at: float = 3.0,
                 recover_at: float = 0.7,
                 min_dwell_s: float = 0.5,
                 retry_after: Optional[Mapping[str, float]] = None):
        if queue_high <= 0:
            raise ValueError("queue_high must be positive")
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.signal_fn = signal_fn
        self.queue_high = float(queue_high)
        self.p99_slo_ms = p99_slo_ms
        self.alpha = float(alpha)
        self.observe_interval_s = float(observe_interval_s)
        self.shed_standard_at = float(shed_standard_at)
        self.emergency_at = float(emergency_at)
        self.recover_at = float(recover_at)
        self.min_dwell_s = float(min_dwell_s)
        self.retry_after = dict(_RETRY_AFTER)
        if retry_after:
            self.retry_after.update(retry_after)
        self._lock = threading.Lock()
        self._state = "healthy"
        self._state_since = time.monotonic()
        self._last_observed = 0.0
        self._queue_ewma = 0.0
        self._p99_ewma = 0.0
        self._load = 0.0
        #: Adaptive recovery dwell (flap damping) and the time of the last
        #: recovery transition it keys off.
        self._recover_dwell_s = self.min_dwell_s
        self._recovered_at: Optional[float] = None
        self.shed_by_class: Dict[str, int] = {cls: 0 for cls in PRIORITY_CLASSES}
        self._transitions: deque = deque(maxlen=32)

    # -- state machine (lock held) --------------------------------------- #
    def _target_state(self) -> str:
        if self._load >= self.emergency_at:
            return "emergency"
        if self._load >= self.shed_standard_at:
            return "shed-standard"
        if self._load >= 1.0:
            return "shed-batch"
        return "healthy"

    def _transition(self, new_state: str, now: float) -> None:
        self._transitions.append({
            "from": self._state, "to": new_state,
            "load": round(self._load, 3),
            "after_s": round(now - self._state_since, 3),
        })
        self._state = new_state
        self._state_since = now

    def _refresh(self, now: float) -> None:
        if now - self._last_observed < self.observe_interval_s:
            return
        self._last_observed = now
        try:
            queue_depth, p99_ms = self.signal_fn()
        except Exception:                          # noqa: BLE001 - stay safe
            return
        self._queue_ewma += self.alpha * (float(queue_depth) - self._queue_ewma)
        load = self._queue_ewma / self.queue_high
        if self.p99_slo_ms and p99_ms is not None:
            self._p99_ewma += self.alpha * (float(p99_ms) - self._p99_ewma)
            load = max(load, self._p99_ewma / self.p99_slo_ms)
        self._load = load
        target = self._target_state()
        current_rank = BROWNOUT_STATES.index(self._state)
        target_rank = BROWNOUT_STATES.index(target)
        if target_rank > current_rank:
            # Escalate immediately — but first adapt the recovery dwell:
            # re-escalating right after a recovery means the recovery probe
            # failed (shed demand flooded back in), so the next one waits
            # longer; a calm escalation resets the backoff.
            if (self._recovered_at is not None and
                    now - self._recovered_at
                    < _FLAP_WINDOW_FACTOR * self.min_dwell_s):
                self._recover_dwell_s = min(
                    self._recover_dwell_s * _FLAP_BACKOFF,
                    _MAX_RECOVER_DWELL_FACTOR * self.min_dwell_s)
            else:
                self._recover_dwell_s = self.min_dwell_s
            self._transition(target, now)
        elif (self._load < self.recover_at and current_rank > 0
                and now - self._state_since >= self._recover_dwell_s):
            # Recover one state per dwell: ramp traffic back gradually.
            self._transition(BROWNOUT_STATES[current_rank - 1], now)
            self._recovered_at = now

    # -- public API ------------------------------------------------------ #
    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def admit(self, priority: str, now: Optional[float] = None) -> None:
        """Refresh the detector and shed ``priority`` if the state says so.

        Raises :class:`ShedError` (HTTP 503 + ``Retry-After``) on shed;
        returns normally on admit.
        """
        now = time.monotonic() if now is None else now
        rank = priority_rank(priority)
        with self._lock:
            self._refresh(now)
            floor = _SHED_FLOOR[self._state]
            if floor is None or rank < floor:
                return
            self.shed_by_class[priority] += 1
            state = self._state
            retry = self.retry_after.get(state, 1.0)
        raise ShedError(
            f"overload brownout ({state}): shedding {priority!r} traffic; "
            f"retry after {retry:.1f}s",
            status=503, retry_after_s=retry, reason=f"brownout:{state}")

    def force_state(self, state: str) -> None:
        """Pin the controller to ``state`` (tests / operator override)."""
        if state not in BROWNOUT_STATES:
            raise ValueError(f"unknown brownout state {state!r}")
        with self._lock:
            if state != self._state:
                self._transition(state, time.monotonic())

    def snapshot(self) -> Dict[str, object]:
        now = time.monotonic()
        with self._lock:
            self._refresh(now)
            return {
                "state": self._state,
                "state_age_s": round(now - self._state_since, 3),
                "recover_dwell_s": round(self._recover_dwell_s, 3),
                "load": round(self._load, 4),
                "queue_ewma": round(self._queue_ewma, 3),
                "p99_ewma_ms": round(self._p99_ewma, 3),
                "queue_high": self.queue_high,
                "p99_slo_ms": self.p99_slo_ms,
                "shed_by_class": dict(self.shed_by_class),
                "transitions": list(self._transitions),
            }


# --------------------------------------------------------------------------- #
# Configuration bundle
# --------------------------------------------------------------------------- #
def _knob(default, **serve):
    """A dataclass field carrying the serve-flag metadata convention.

    The ``"serve"`` metadata key is read by :mod:`repro.serve.config`, which
    reuses :class:`QoSConfig` verbatim as the ``qos`` section of
    :class:`~repro.serve.config.ServeConfig` and generates the CLI flags,
    ``--help`` text and reference-table rows from it — one source of truth,
    so a QoS knob and its flag can never drift.
    """
    if callable(default):
        return field(default_factory=default, metadata={"serve": serve})
    return field(default=default, metadata={"serve": serve})


@dataclass
class QoSConfig:
    """Every QoS knob in one picklable bag (crosses the pool spawn boundary).

    The defaults are deliberately permissive — no rate limits, generous
    waiting room — so a deployment that never mentions QoS behaves exactly
    like the pre-QoS stack until it overloads, at which point the brownout
    controller (always on) sheds lowest-class-first instead of 429-ing
    everyone equally.
    """

    #: Concurrent proxied dispatches per ready worker (router slots =
    #: ``slots_per_worker × workers``).
    slots_per_worker: int = _knob(
        4, parse=int,
        help="concurrent dispatch slots per worker in the weighted-fair "
             "scheduler (pool mode)")
    #: Bound on requests waiting for a dispatch slot.
    max_waiting: int = _knob(
        256, parse=int,
        help="router waiting-room size; overflow sheds lowest-priority "
             "first with 429")
    #: Fraction of the waiting room batch-class requests may occupy.
    batch_waiting_fraction: float = _knob(
        0.5, parse=float,
        help="fraction of the waiting room batch-class requests may occupy")
    #: Default per-tenant token rate (requests/s); ``None`` = unlimited.
    tenant_rate: Optional[float] = _knob(
        None, parse=float,
        help="per-tenant request rate limit (requests/s; token bucket); "
             "unset disables rate limiting")
    tenant_burst: float = _knob(
        8.0, parse=float, help="token-bucket burst per tenant")
    #: Per-tenant rate overrides, e.g. ``{"free-tier": 5.0}``.
    tenant_rates: Mapping[str, float] = _knob(
        dict, flag=None,
        help="per-tenant rate overrides, e.g. {\"free-tier\": 5.0}")
    #: Weighted-fair shares, e.g. ``{"gold": 4.0}``; default weight 1.
    tenant_weights: Mapping[str, float] = _knob(
        dict, flag=None,
        help="weighted-fair tenant shares, e.g. {\"gold\": 4.0}; "
             "default weight 1")
    #: Brownout: queue depth that maps to load 1.0.
    queue_high: float = _knob(
        32.0, parse=float,
        help="queue depth the brownout controller treats as load 1.0")
    #: Brownout: p99 SLO in ms (``None`` disables the latency signal).
    p99_slo_ms: Optional[float] = _knob(
        None, parse=float,
        help="p99 latency SLO; sustained breaches drive the brownout "
             "controller through shed-batch / shed-standard / emergency")
    alpha: float = _knob(
        0.3, flag="--brownout_alpha", parse=float,
        help="EWMA smoothing factor for the brownout load signals")
    shed_standard_at: float = _knob(
        1.6, parse=float,
        help="brownout load score at which standard-class traffic sheds")
    emergency_at: float = _knob(
        3.0, parse=float,
        help="brownout load score at which all traffic sheds (breaker of "
             "last resort)")
    recover_at: float = _knob(
        0.7, parse=float,
        help="brownout load score below which the controller steps back "
             "toward healthy")
    min_dwell_s: float = _knob(
        0.5, flag="--brownout_min_dwell_s", parse=float,
        help="minimum dwell per brownout state (flap damping)")
    #: Batcher: bulk-class sample budget per dispatched micro-batch
    #: (``None`` → ``max(1, max_batch_size // 4)``); what keeps an
    #: interactive arrival from waiting behind a full batch of bulk work.
    batch_class_samples: Optional[int] = _knob(
        None, parse=int,
        help="per-micro-batch sample budget for batch-class work "
             "(default max_batch_size // 4)")

    def make_brownout(self, signal_fn) -> BrownoutController:
        return BrownoutController(
            signal_fn, queue_high=self.queue_high, p99_slo_ms=self.p99_slo_ms,
            alpha=self.alpha, shed_standard_at=self.shed_standard_at,
            emergency_at=self.emergency_at, recover_at=self.recover_at,
            min_dwell_s=self.min_dwell_s)

    def make_buckets(self) -> TokenBucketTable:
        return TokenBucketTable(default_rate=self.tenant_rate,
                                default_burst=self.tenant_burst,
                                overrides=self.tenant_rates)

    def make_fair_scheduler(self, workers: int) -> FairScheduler:
        return FairScheduler(
            slots=max(1, self.slots_per_worker * max(workers, 1)),
            max_waiting=self.max_waiting,
            tenant_weights=self.tenant_weights,
            batch_waiting_fraction=self.batch_waiting_fraction)
