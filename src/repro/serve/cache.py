"""``repro.serve.cache`` — deterministic response cache + request coalescing.

PECAN-D inference is bitwise-deterministic per ``(model@version, canonical
input)``: the engine replays a recorded integer/LUT program with no RNG, no
reordered float reductions, no wall-clock dependence.  That turns an exact
content-addressed result cache from an approximation into a *provably
correct* optimization — two requests with byte-identical canonical inputs
against the same model version MUST produce byte-identical logits, so
serving the second from memory is indistinguishable from re-executing it.

Three cooperating pieces live here:

* **Canonical input hashing** — :func:`canonical_input_hash` canonicalizes
  ``inputs`` exactly the way the serving path does (``float64`` ndarray,
  C-contiguous) and hashes dtype/shape/bytes with blake2b.  The same helper
  keys the cache, the ``cache_affinity`` routing policy, and the invariant
  monitor's cross-request argmax checks, so all three planes agree on what
  "the same request" means.  :func:`stable_route_hash` is the shared
  string→bucket hash used by the affinity policies (crc32: stable across
  processes and Python versions, unlike ``hash()``).

* **:class:`ResultCache`** — a byte-budgeted LRU mapping
  ``(model@version namespace, input hash) → canonical response bytes``.
  Namespaces are invalidated atomically by the lifecycle plane on
  promote/rollback/undeploy; every invalidation also bumps an *epoch* so
  in-flight fills that started under the old version can never install
  stale bytes (:meth:`ResultCache.insert` is epoch-conditional).

* **In-flight coalescing** — :meth:`ResultCache.begin` atomically resolves a
  key to ``hit`` / ``lead`` / ``follow``.  Concurrent identical requests
  join a single leader engine call; followers block on the leader's
  :class:`InFlightCall` (honoring their own deadlines) and receive the
  leader's bytes.  A failed leader wakes its followers empty-handed and the
  next one through :meth:`begin` is elected leader.

Cached values are the *canonical response bytes*: the deterministic JSON
serialization of the result fields (``outputs``/``classes``/``num_samples``).
``json.dumps(float)`` uses ``repr``, which round-trips float64 exactly, so
replaying these bytes is bitwise-faithful to the original engine call.
Per-request fields (model echo, queue time, QoS, trace id) are grafted on by
:func:`splice_json` without re-serializing the payload numbers.
"""

from __future__ import annotations

import hashlib
import json
import threading
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

__all__ = [
    "NO_CACHE_HEADER",
    "CachePlane",
    "InFlightCall",
    "ResultCache",
    "canonical_input_array",
    "canonical_input_hash",
    "canonical_num_samples",
    "canonical_response_bytes",
    "splice_json",
    "stable_route_hash",
]

#: Request header that forces a request past the cache (and past coalescing)
#: straight to an engine execution.  The JSON payload key ``no_cache`` is the
#: body-level equivalent.
NO_CACHE_HEADER = "X-No-Cache"

#: Response fields that are a pure function of ``(model@version, inputs)``
#: and therefore cacheable.  Everything else (model echo, queue_ms, qos,
#: trace id) is per-request and spliced on at serve time.
_CANONICAL_FIELDS = ("outputs", "classes", "num_samples")


def canonical_input_array(inputs: Any) -> np.ndarray:
    """``inputs`` as the serving path sees it: float64, C-contiguous.

    A decoded ``/predict`` body carries either a float64 ndarray (the
    compiled JSON tensor parser) or the nested lists of ``json.loads`` (its
    fallback), and the in-process APIs take ndarrays; both front ends coerce
    all of them with ``np.asarray(..., float64)`` before touching the
    engine.  Hashing this canonical form therefore gives a list payload, a
    parsed one and an equivalent ndarray one the same cache entry.
    Raises ``TypeError``/``ValueError`` for non-numeric payloads — callers
    treat that as "not cacheable" and let the normal 400 path reject it.
    """
    array = np.asarray(inputs, dtype=np.float64)
    if not array.flags["C_CONTIGUOUS"]:
        array = np.ascontiguousarray(array)
    return array


def canonical_input_hash(inputs: Any) -> str:
    """Hex digest identifying ``inputs`` up to serving-path canonicalization.

    blake2b over shape + raw bytes of the canonical float64 array.  dtype is
    fixed by canonicalization; shape must be hashed explicitly because
    distinct shapes can share a byte string (e.g. ``(1, 4)`` vs ``(4, 1)``).
    """
    array = canonical_input_array(inputs)
    digest = hashlib.blake2b(digest_size=16)
    digest.update(str(array.shape).encode("ascii"))
    digest.update(array.tobytes())
    return digest.hexdigest()


def stable_route_hash(key: str) -> int:
    """Process-stable string hash for affinity bucketing (crc32)."""
    return zlib.crc32(key.encode("utf-8"))


def canonical_response_bytes(response: Union[bytes, Dict[str, Any], None],
                             ) -> Optional[bytes]:
    """Extract the cacheable fields of a predict response as canonical JSON.

    Accepts the raw response bytes a worker returned or an already-parsed
    dict.  Returns ``None`` when the response is not a cacheable success
    shape (missing fields, unparseable) — callers simply skip the fill.
    """
    if response is None:
        return None
    if isinstance(response, (bytes, bytearray)):
        try:
            parsed = json.loads(response)
        except (ValueError, UnicodeDecodeError):
            return None
    else:
        parsed = response
    if not isinstance(parsed, dict):
        return None
    if any(field not in parsed for field in _CANONICAL_FIELDS):
        return None
    canonical = {field: parsed[field] for field in _CANONICAL_FIELDS}
    try:
        return json.dumps(canonical).encode("utf-8")
    except (TypeError, ValueError):
        return None


def canonical_num_samples(canonical: bytes) -> int:
    """The ``num_samples`` of canonical response bytes, read without parsing:
    it is the last field :func:`canonical_response_bytes` writes."""
    return int(canonical[canonical.rindex(b":") + 1:-1])


def splice_json(body: bytes, fields: Dict[str, Any]) -> bytes:
    """Graft ``fields`` onto the UTF-8 bytes of a JSON object.

    The bytes before the closing brace are kept, so no number is
    re-serialized: a cached reply stays bitwise that of its engine call and
    a forwarded request keeps the client's inputs.  A field already in the
    body is written again after it; JSON keeps the last duplicate key.
    """
    if not fields:
        return body
    head = body.rstrip()[:-1].rstrip()
    extra = json.dumps(fields).encode("utf-8")
    # b'{"outputs": ...}' + b'{"model": ...}'  ->  b'{"outputs": ..., "model": ...}'
    return head + (b"" if head.endswith(b"{") else b", ") + extra[1:]


@dataclass
class CachePlane:
    """One request's resolved cache identity (see :mod:`repro.serve.pipeline`).

    ``epoch`` is captured before the lookup, so a lifecycle invalidation
    racing the engine call invalidates the eventual fill.
    """

    namespace: str            # fully versioned model id ("m@v3")
    input_hash: str           # canonical_input_hash of the request inputs
    epoch: int
    echo: str                 # model name the serving path would echo back

    @property
    def invariant_key(self) -> str:
        """The cross-plane request identity the invariant monitor keys on."""
        return f"{self.namespace}:{self.input_hash}"


class InFlightCall:
    """One leader engine call that any number of followers may join."""

    __slots__ = ("key", "event", "value", "ok", "followers")

    def __init__(self, key: Tuple[str, str]):
        self.key = key
        self.event = threading.Event()
        self.value: Optional[bytes] = None
        self.ok = False
        self.followers = 0

    def wait(self, timeout: Optional[float]) -> bool:
        """Block until the leader publishes; True unless the wait timed out."""
        return self.event.wait(timeout)


class ResultCache:
    """Byte-budgeted LRU of canonical response bytes + the coalescing table.

    Keys are ``(namespace, input_hash)`` where a namespace is a fully
    versioned model id (``base@vN``).  :meth:`invalidate_namespace` drops a
    namespace's entries and bumps the epoch in one locked step, so lifecycle
    flips atomically retire the outgoing version: entries are gone, and any
    in-flight fill that began under the old epoch is refused by
    :meth:`insert`.

    All methods are thread-safe; the leader's engine call itself happens
    outside the lock.
    """

    def __init__(self, max_bytes: int):
        self.max_bytes = max(int(max_bytes), 0)
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple[str, str], bytes]" = OrderedDict()
        self._inflight: Dict[Tuple[str, str], InFlightCall] = {}
        self._bytes = 0
        self._epoch = 0
        # counters (all under _lock)
        self._hits = 0
        self._misses = 0
        self._insertions = 0
        self._evictions = 0
        self._invalidations = 0
        self._stale_fills_skipped = 0
        self._skipped_oversize = 0
        self._leaders = 0
        self._followers = 0
        self._followers_served = 0
        self._reelections = 0
        self._max_fan_in = 0

    # -- lookups / coalescing -------------------------------------------------

    def epoch(self) -> int:
        with self._lock:
            return self._epoch

    def begin(self, namespace: str, input_hash: str,
              ) -> Tuple[str, Union[bytes, InFlightCall]]:
        """Atomically resolve a request to ``hit`` / ``lead`` / ``follow``.

        * ``("hit", bytes)`` — canonical bytes are cached; serve them.
        * ``("lead", call)`` — caller is the leader: execute the engine call,
          then :meth:`finish_leader` (always — also on failure).
        * ``("follow", call)`` — an identical call is in flight: ``wait`` on
          it (with the request's own deadline) and read ``call.ok/value``.
        """
        key = (namespace, input_hash)
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                return "hit", value
            call = self._inflight.get(key)
            if call is not None:
                call.followers += 1
                self._followers += 1
                self._max_fan_in = max(self._max_fan_in, call.followers + 1)
                return "follow", call
            call = InFlightCall(key)
            self._inflight[key] = call
            self._leaders += 1
            self._misses += 1
            return "lead", call

    def finish_leader(self, call: InFlightCall,
                      value: Optional[bytes]) -> None:
        """Publish the leader's outcome and wake followers.

        ``value=None`` marks failure: followers observe ``ok=False`` and the
        next request through :meth:`begin` is elected the new leader.
        """
        with self._lock:
            if self._inflight.get(call.key) is call:
                del self._inflight[call.key]
            call.value = value
            call.ok = value is not None
        call.event.set()

    def record_follower_served(self) -> None:
        with self._lock:
            self._followers_served += 1

    def record_reelection(self) -> None:
        with self._lock:
            self._reelections += 1

    # -- fills / invalidation -------------------------------------------------

    def insert(self, namespace: str, input_hash: str, value: bytes, *,
               epoch: Optional[int] = None) -> bool:
        """Install canonical bytes; refused when ``epoch`` is stale.

        Callers capture the epoch *before* dispatching the engine call and
        pass it here; a lifecycle invalidation in between bumps the epoch
        and the fill is dropped — the one race that could cache a retired
        version's bytes.
        """
        if self.max_bytes <= 0:
            return False
        size = len(value)
        key = (namespace, input_hash)
        with self._lock:
            if epoch is not None and epoch != self._epoch:
                self._stale_fills_skipped += 1
                return False
            if size > self.max_bytes:
                self._skipped_oversize += 1
                return False
            previous = self._entries.pop(key, None)
            if previous is not None:
                self._bytes -= len(previous)
            self._entries[key] = value
            self._bytes += size
            self._insertions += 1
            while self._bytes > self.max_bytes and self._entries:
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= len(evicted)
                self._evictions += 1
            return True

    def invalidate_namespace(self, namespace: str) -> int:
        """Atomically retire ``namespace``: drop its entries + bump the epoch.

        The epoch bump is global (conservative): every in-flight fill loses,
        which also defuses A→B→A flip sequences where a per-namespace guard
        would re-admit a fill started two flips ago.
        """
        with self._lock:
            self._epoch += 1
            self._invalidations += 1
            doomed = [key for key in self._entries if key[0] == namespace]
            for key in doomed:
                self._bytes -= len(self._entries.pop(key))
            return len(doomed)

    def clear(self) -> None:
        with self._lock:
            self._epoch += 1
            self._entries.clear()
            self._bytes = 0

    # -- introspection --------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            lookups = self._hits + self._misses
            return {
                "enabled": True,
                "max_bytes": self.max_bytes,
                "bytes": self._bytes,
                "entries": len(self._entries),
                "epoch": self._epoch,
                "hits": self._hits,
                "misses": self._misses,
                "hit_rate": round(self._hits / lookups, 4) if lookups else 0.0,
                "insertions": self._insertions,
                "evictions": self._evictions,
                "invalidations": self._invalidations,
                "stale_fills_skipped": self._stale_fills_skipped,
                "skipped_oversize": self._skipped_oversize,
                "coalesce": {
                    "leaders": self._leaders,
                    "followers": self._followers,
                    "followers_served": self._followers_served,
                    "reelections": self._reelections,
                    "max_fan_in": self._max_fan_in,
                    "inflight": len(self._inflight),
                },
            }
