"""Multi-pool federation: a consistent-hash front router over PoolServers.

The single-host stepping stone to multi-node serving: a :class:`FrontRouter`
owns no workers and no engines — it shards *model namespaces* across member
pools (each a :class:`~repro.serve.pool.PoolServer` or a single
:class:`~repro.serve.server.PECANServer`, addressed by base URL) and proxies
the existing wire protocol byte-compatibly over the PR 9 event-loop front
end.  Nothing about the protocol changes for clients: the same
``/predict``/``/metrics``/``/trace``/``/admin/*`` endpoints, the same JSON
shapes, the same trace headers.

Sharding
--------
:class:`HashRing` hashes every member onto ``ring_replicas`` virtual points
with the same process-stable :func:`~repro.serve.cache.stable_route_hash`
the PR 8 cache/affinity planes key on.  A request's namespace is its model's
*base* name (``"m@v2"`` and ``"m"`` land on the same member — clients
address both spellings of one model, and the owning pool's lifecycle plane
is the thing that must see every verb for it).  Admin verbs route exactly
like predict traffic, so a ``deploy``/``promote``/``rollback`` lands on the
pool that serves the model it names.

Failover
--------
A member that refuses connections is marked down and its arc of the ring
flows to the survivors (consistent hashing makes the remap minimal — only
the dead member's namespaces move).  A request that hits a connection-level
failure, or a member's ``503`` with ``"reason": "draining"`` (a stopping pool
refuses before it dispatches anything), retries on the next surviving member
(``failover_retries`` hops); timeouts and every other reply — brownout sheds
included — are never retried: the work may still be running.  A background
prober re-admits a member the moment its ``/healthz`` answers again.

Merged observability
--------------------
``/metrics`` returns the front's own counters plus every member's full
payload; ``/trace?id=`` fetches the trace's spans from every member and
returns one :func:`~repro.serve.trace.causal_sort`-merged timeline — member
Lamport clocks are folded into the front's on every proxied response, so the
merged order is causal, not wall-clock guesswork.
"""

from __future__ import annotations

import bisect
import http.client
import json
import socket
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.serve import adminapi
from repro.serve.cache import consistent_ring_points
from repro.serve.config import ServeConfig
from repro.serve.lifecycle import split_versioned
from repro.serve.metrics import ServerMetrics
from repro.serve.pipeline import FrontDoor, HTTPReply, json_response
from repro.serve.trace import Tracer, parse_trace_context

__all__ = ["FrontRouter", "HashRing", "MemberPool"]


def _is_draining_reply(status: int, payload: bytes) -> bool:
    """True for a member's ``503`` refusal made before any dispatch."""
    if status != 503:
        return False
    try:
        reply = json.loads(payload)
    except ValueError:
        return False
    return isinstance(reply, dict) and reply.get("reason") == "draining"


class HashRing:
    """Consistent hashing of namespace strings onto member URLs."""

    def __init__(self, members: Sequence[str], replicas: int = 64):
        if not members:
            raise ValueError("a hash ring needs at least one member")
        if len(set(members)) != len(members):
            raise ValueError("duplicate federation members")
        self.members = tuple(members)
        self.replicas = max(1, int(replicas))
        points: List[Tuple[int, str]] = []
        for member in self.members:
            points.extend((point, member)
                          for point in consistent_ring_points(member,
                                                              self.replicas))
        # Ties (two members hashing onto one point) resolve lexically so
        # every process builds the identical ring.
        points.sort()
        self._points = [point for point, _ in points]
        self._owners = [member for _, member in points]

    def lookup(self, namespace: str,
               exclude: Sequence[str] = ()) -> Optional[str]:
        """The member owning ``namespace`` (clockwise walk, skip excluded).

        Returns ``None`` only when every member is excluded.
        """
        from repro.serve.cache import stable_route_hash

        excluded = set(exclude)
        if len(excluded) >= len(self.members):
            return None
        start = bisect.bisect_left(self._points, stable_route_hash(namespace))
        for step in range(len(self._points)):
            owner = self._owners[(start + step) % len(self._points)]
            if owner not in excluded:
                return owner
        return None

    def preference(self, namespace: str) -> List[str]:
        """Every member in failover order for ``namespace`` (deduplicated)."""
        order: List[str] = []
        for member in (self.lookup(namespace, exclude=order)
                       for _ in range(len(self.members))):
            if member is None:
                break
            order.append(member)
        return order


class MemberPool:
    """Front-side view of one member pool."""

    def __init__(self, url: str):
        self.url = url.rstrip("/")
        if "://" in self.url:
            self.url = self.url.split("://", 1)[1]
        if "/" in self.url:
            raise ValueError(f"federation member must be host:port, got {url!r}")
        host, _, port = self.url.rpartition(":")
        if not host or not port.isdigit():
            raise ValueError(f"federation member must be host:port, got {url!r}")
        self.host = host
        self.port = int(port)
        self.up = True
        self.failures = 0
        self.proxied = 0
        self.last_probe_at = 0.0
        self.last_error: Optional[str] = None

    def describe(self) -> Dict[str, object]:
        return {"url": self.url, "up": self.up, "failures": self.failures,
                "proxied": self.proxied, "last_error": self.last_error}


class FrontRouter(FrontDoor):
    """Shard the serving namespace across member pools (see module docstring).

    Constructed from a :class:`~repro.serve.config.ServeConfig`.
    ``config.federation.members`` lists the member base addresses
    (``host:port``); ``config.net`` configures the front's own listener.
    """

    def __init__(self, config: ServeConfig):
        if not config.federation.members:
            raise ValueError("federation needs at least one member "
                             "(config.federation.members)")
        self.config = config
        self.host = config.net.host
        self.port = config.net.port
        self.members: Dict[str, MemberPool] = {}
        for url in config.federation.members:
            member = MemberPool(url)
            self.members[member.url] = member
        self.ring = HashRing(tuple(self.members),
                             replicas=config.federation.ring_replicas)
        self.failover_retries = max(0, int(config.federation.failover_retries))
        self.timeout_s = float(config.federation.front_timeout_s)
        self.probe_interval_s = float(config.federation.probe_interval_s)
        self.metrics = ServerMetrics()
        self.tracer = Tracer("front", ring_size=config.trace.trace_ring,
                             trace_dir=(str(config.trace.trace_dir)
                                        if config.trace.trace_dir else None),
                             enabled=config.trace.enabled)
        self.failovers_total = 0
        self._lock = threading.RLock()
        self._running = False
        self._probe_stop = threading.Event()
        self._probe_thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "FrontRouter":
        if self._running:
            return self
        self._running = True
        self._probe_stop.clear()
        self._probe_thread = threading.Thread(
            target=self._probe_loop, name="repro-front-probe", daemon=True)
        self._probe_thread.start()
        self._bind()
        return self

    def stop(self) -> None:
        self._running = False
        self._probe_stop.set()
        if self._probe_thread is not None:
            self._probe_thread.join(5.0)
            self._probe_thread = None
        self._unbind()
        self.tracer.close()

    def serve_forever(self) -> None:
        """Blocking variant for the CLI."""
        self.start()
        try:
            while self._running:
                time.sleep(0.5)
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    # ------------------------------------------------------------------ #
    # Member health
    # ------------------------------------------------------------------ #
    def _probe_loop(self) -> None:
        while not self._probe_stop.wait(self.probe_interval_s):
            for member in list(self.members.values()):
                self._probe_member(member)

    def _probe_member(self, member: MemberPool) -> None:
        member.last_probe_at = time.monotonic()
        try:
            status, _, _ = self.exchange(member.host, member.port, "GET",
                                         "/healthz",
                                         timeout_s=min(self.timeout_s, 2.0))
            member.up = status == 200
            if member.up:
                member.last_error = None
        except (ConnectionError, socket.timeout,
                http.client.HTTPException, OSError) as exc:
            member.up = False
            member.last_error = f"{type(exc).__name__}: {exc}"

    def _down_members(self) -> List[str]:
        return [url for url, member in self.members.items() if not member.up]

    # ------------------------------------------------------------------ #
    # Proxying
    # ------------------------------------------------------------------ #
    @staticmethod
    def _forwarded_headers(headers) -> Dict[str, str]:
        """The request headers worth forwarding through the front."""
        if headers is None:
            return {}
        forwarded = {}
        for name in ("X-Trace-Id", "X-Attempt", "X-Parent-Span", "X-Lamport",
                     "X-No-Cache", "X-Priority", "X-Tenant", "X-Deadline-Ms",
                     "Content-Type"):
            value = headers.get(name)
            if value:
                forwarded[name] = value
        return forwarded

    def _namespace(self, model: str) -> str:
        base, _ = split_versioned(model) if model else ("", None)
        return base or "@default"

    def route_for(self, model: str) -> List[MemberPool]:
        """Failover-ordered live members for ``model`` (down ones last)."""
        namespace = self._namespace(model)
        down = set(self._down_members())
        order = self.ring.preference(namespace)
        live = [self.members[url] for url in order if url not in down]
        dead = [self.members[url] for url in order if url in down]
        # Down members stay as last resorts: the prober may be stale, and a
        # connection refusal is cheap compared with failing the request.
        return live + dead

    def _proxy(self, method: str, path: str, model: str, body: Optional[bytes],
               headers) -> Tuple[int, bytes, Dict[str, str]]:
        """Route one request by namespace, failing over on a connection
        failure or a draining member's refusal."""
        candidates = self.route_for(model)
        attempts = min(len(candidates), 1 + self.failover_retries)
        last_error = "no federation members"
        forwarded = self._forwarded_headers(headers)
        for hop, member in enumerate(candidates[:attempts]):
            span = self.tracer.start_span(
                "front.proxy", parse_trace_context(None, headers).trace_id or None,
                attrs={"member": member.url, "hop": hop, "model": model or None})
            try:
                status, payload, reply_headers = self.exchange(
                    member.host, member.port, method, path, body=body,
                    headers=forwarded, timeout_s=self.timeout_s)
            except socket.timeout:
                member.failures += 1
                self.tracer.finish_span(span, status="timeout")
                self.metrics.record_timeout()
                # The member may still be computing: never re-dispatch.
                return json_response(
                    504, {"error": f"member {member.url} timed out; not retried",
                          "member": member.url})
            except (ConnectionError, http.client.HTTPException, OSError) as exc:
                error = f"{type(exc).__name__}: {exc}"
            else:
                if not _is_draining_reply(status, payload):
                    member.up = True
                    member.proxied += 1
                    self.tracer.finish_span(
                        span, status="ok" if status < 400 else "error",
                        http_status=status)
                    return status, payload, reply_headers
                error = "member is draining"
            member.failures += 1
            member.up = False
            member.last_error = last_error = error
            with self._lock:
                self.failovers_total += 1
            self.tracer.finish_span(span, status="failover", error=error)
        self.metrics.record_error()
        return json_response(
            503, {"error": f"no live member for model {model!r}: {last_error}",
                  "tried": [member.url for member in candidates[:attempts]]})

    # ------------------------------------------------------------------ #
    # HTTP surface (the route table is FrontDoor's)
    # ------------------------------------------------------------------ #
    def predict_http(self, headers, body: bytes) -> HTTPReply:
        started = time.monotonic()
        self.metrics.record_submitted(0)
        try:
            payload = json.loads(body or b"{}")
            model = str(payload.get("model") or "") \
                if isinstance(payload, dict) else ""
        except ValueError:
            model = ""                 # member answers the 400 byte-compatibly
        status, response, reply_headers = self._proxy(
            "POST", "/predict", model, body, headers)
        if status < 400:
            self.metrics.record_completed(time.monotonic() - started, 0.0)
        return status, response, reply_headers

    def admin_http(self, path: str, body: bytes, headers) -> HTTPReply:
        """Admin verbs route by the model they name — except ``scale``,
        which has no model and broadcasts to every member."""
        try:
            request = adminapi.parse_admin_request(path, body)
        except adminapi.AdminError as exc:
            return adminapi.error_response(exc)
        if isinstance(request, adminapi.ScaleRequest):
            results = {}
            for url, member in self.members.items():
                try:
                    status, payload, _ = self.exchange(
                        member.host, member.port, "POST", path, body=body,
                        timeout_s=self.timeout_s)
                    results[url] = json.loads(payload.decode("utf-8"))
                    results[url]["status"] = status
                except (ConnectionError, socket.timeout, ValueError,
                        http.client.HTTPException, OSError) as exc:
                    results[url] = {"error": f"{type(exc).__name__}: {exc}"}
            return json_response(200, {"members": results})
        return self._proxy("POST", path, request.name, body, headers)

    # ------------------------------------------------------------------ #
    # Merged observability
    # ------------------------------------------------------------------ #
    def peers(self) -> Dict[str, Callable[[str], Tuple[int, bytes]]]:
        """Every member, for the merged ``/metrics``/``/models``/``/trace``."""
        return {url: (lambda path, _member=member: self.exchange(
                    _member.host, _member.port, "GET", path, timeout_s=5.0)[:2])
                for url, member in self.members.items()}

    def describe_federation(self) -> Dict[str, object]:
        with self._lock:
            failovers = self.failovers_total
        return {
            "members": {url: member.describe()
                        for url, member in self.members.items()},
            "ring_replicas": self.ring.replicas,
            "failovers": failovers,
        }

    def health_snapshot(self) -> Dict[str, object]:
        members = {url: member.up for url, member in self.members.items()}
        return {"status": "ok" if any(members.values()) else "degraded",
                "members": members}

    def metrics_snapshot(self) -> Dict[str, object]:
        self.tracer.flush()
        return {
            "front": self.metrics.snapshot(),
            "federation": self.describe_federation(),
            "trace": self.tracer.snapshot(),
            "members": self.fetch_peers("/metrics"),
        }

    def models_snapshot(self) -> Dict[str, object]:
        per_member = self.fetch_peers("/models")
        merged: Dict[str, object] = {"federation": self.describe_federation(),
                                     "members": per_member}
        models: Dict[str, object] = {}
        for payload in per_member.values():
            listed = payload.get("models")
            if isinstance(listed, dict):
                models.update(listed)
            elif isinstance(listed, list):
                # Both server types list models as dicts keyed by "name".
                for entry in listed:
                    if isinstance(entry, dict) and "name" in entry:
                        models[str(entry["name"])] = entry
        merged["models"] = models
        return merged

    def lifecycle_snapshot(self) -> Dict[str, object]:
        return {"federation": self.describe_federation(),
                "members": self.fetch_peers("/admin/status")}
