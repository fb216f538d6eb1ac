"""Online runtime verification: the serving plane's one sampled checker.

PECAN-D inference is lookups and additions only, so it is bitwise
deterministic: any reply can be re-run and compared exactly.  In the spirit
of RvLLM's single runtime monitor with pluggable domain checks (PAPERS.md),
the :class:`InvariantMonitor` is the one place that samples live traffic,
re-executes it and judges it —

- ``logits_finite``       every returned logit is finite (no NaN/Inf);
- ``shape_stable``        output shape/dtype per model never drifts;
- ``argmax_stable``       router retries of the same trace id agree on
                          the argmax (PECAN-D is deterministic, so any
                          disagreement is a real fault);
- ``parity_audit``        a sampled batch re-run through the per-group
                          reference engine (Algorithm 1 as written)
                          disagrees with the fused kernels' output;
- ``canary_parity``       canary mirror disagreements (fed by the pool's
                          rollout comparator);
- ``cache_parity``        a sampled response-cache hit re-executed on a
                          worker produced different bytes (the cache is
                          provably exact, so any divergence is a real fault);
- ``causal_order``        a child span never "happens before" its parent
                          on the Lamport clock.

Every check is sampled by one rule (:meth:`InvariantMonitor.sample`: one
event in N per stream, the first included); every re-run is a job on one
bounded queue served by one daemon thread (:meth:`InvariantMonitor.submit`);
every re-run verdict goes through :meth:`InvariantMonitor.verdict`.

Violations are counted per invariant, kept in a bounded recent list,
emitted as zero-duration ``invariant.violation`` spans into the tracer
(so they land in the JSONL export), and optionally forwarded through an
``on_violation`` callback — the pool uses that hook to feed the
``RolloutGate`` so a canary with corrupted outputs rolls back.
"""

from __future__ import annotations

import functools
import queue
import threading
from collections import OrderedDict, deque
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from .trace import Tracer, _lamport_start

__all__ = ["InvariantMonitor", "Violation", "check_causal_order"]

INVARIANTS = (
    "logits_finite",
    "shape_stable",
    "argmax_stable",
    "parity_audit",
    "canary_parity",
    "cache_parity",
    "causal_order",
)


class Violation(dict):
    """A single invariant violation (a dict with attribute sugar)."""

    @property
    def invariant(self) -> str:
        return str(self.get("invariant"))

    @property
    def model(self) -> Optional[str]:
        value = self.get("model")
        return None if value is None else str(value)


def check_causal_order(spans: Sequence[Mapping[str, Any]]) -> List[Dict[str, Any]]:
    """Return causal-order anomalies within one trace's spans.

    For every span whose parent is present, the child's ``lamport.start``
    must be strictly greater than the parent's — a child ticking at or
    before its parent means the clocks were not merged across a hop and
    the "order" shown to operators would be fabricated.
    """

    by_id = {str(span.get("span_id")): span for span in spans}
    anomalies: List[Dict[str, Any]] = []
    for span in spans:
        parent_id = span.get("parent_id")
        if not parent_id:
            continue
        parent = by_id.get(str(parent_id))
        if parent is None:
            continue  # parent buffered in another process / evicted
        if _lamport_start(span) <= _lamport_start(parent):
            anomalies.append(
                {
                    "span": span.get("name"),
                    "parent": parent.get("name"),
                    "lamport": _lamport_start(span),
                    "parent_lamport": _lamport_start(parent),
                }
            )
    return anomalies


class InvariantMonitor:
    """Sampled online constraint checking over live responses.

    ``every=N`` checks roughly one response in N (``every=1`` checks all,
    ``every=0`` disables output sampling); retried requests are always
    checked so the retry-stability invariant has both sides.  The output
    checks are O(batch) NumPy reductions — cheap enough to sit on the hot
    path at the default sampling rate.  Re-executions never do: they run on
    the monitor's one checker thread, at most :attr:`MAX_PENDING` queued.
    """

    #: Bound on queued re-executions; a full queue drops (and counts) jobs.
    MAX_PENDING = 8
    #: Tolerance of a non-``exact`` comparison (PECAN-A's GEMMs reassociate).
    ATOL = 1e-8

    def __init__(
        self,
        every: int = 16,
        *,
        tracer: Optional[Tracer] = None,
        on_violation: Optional[Callable[[Violation], None]] = None,
        history: int = 32,
        max_fingerprints: int = 512,
    ) -> None:
        self.every = max(0, int(every))
        self.tracer = tracer
        self.on_violation = on_violation
        self._lock = threading.Lock()
        self._seen: Dict[str, int] = {}
        self._checks = 0
        self._violations = 0
        self._by_invariant: Dict[str, int] = {name: 0 for name in INVARIANTS}
        self._recent: deque = deque(maxlen=max(1, int(history)))
        self._shapes: Dict[str, Dict[str, Any]] = {}
        self._fingerprints: "OrderedDict[str, List[int]]" = OrderedDict()
        self._max_fingerprints = max(8, int(max_fingerprints))
        self._jobs: "queue.Queue[Optional[Callable[[], None]]]" = \
            queue.Queue(maxsize=self.MAX_PENDING)
        self._pending = 0                      # queued + running jobs
        self._idle = threading.Condition(self._lock)
        self._thread: Optional[threading.Thread] = None
        self._dropped = 0
        self._errors = 0

    @property
    def enabled(self) -> bool:
        return self.every > 0

    def sample(self, stream: str = "outputs", every: Optional[int] = None) -> bool:
        """Count one event on ``stream``; True for its 1st, (N+1)th, ... event.

        ``every`` is N for this stream (default: the monitor's own output
        rate); 0 disables the stream.  Each stream counts on its own.
        """

        every = self.every if every is None else max(0, int(every))
        if not every:
            return False
        with self._lock:
            seen = self._seen[stream] = self._seen.get(stream, 0) + 1
        return (seen - 1) % every == 0

    # -- re-execution queue ------------------------------------------------

    def submit(
        self,
        invariant: str,
        rerun: Callable[[], Any],
        expected: Any,
        *,
        exact: bool = True,
        model: Optional[str] = None,
        trace_id: Optional[str] = None,
    ) -> bool:
        """Queue one re-execution check; False when it was dropped.

        The checker thread calls ``rerun()`` and hands :meth:`verdict` its
        comparison with ``expected``: bitwise when ``exact``, else within
        :attr:`ATOL`.  A ``rerun`` that raises counts under ``errors`` and
        gives no verdict; one that returns ``None`` withdraws its check (a
        lifecycle flip raced it).  Submitting never blocks.
        """

        job = functools.partial(self._recheck, invariant, rerun, expected,
                                exact, model, trace_id)
        with self._lock:
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._run_jobs, name="repro-invariant-checker",
                    daemon=True)
                self._thread.start()
            try:
                self._jobs.put_nowait(job)
            except queue.Full:
                self._dropped += 1
                return False
            self._pending += 1
        return True

    def drain(self, timeout: float = 5.0) -> bool:
        """Block until every queued *and running* re-execution finished."""

        with self._idle:
            return self._idle.wait_for(lambda: not self._pending, timeout)

    def close(self, timeout: float = 5.0) -> None:
        """Stop the checker thread after its running job; the jobs still
        queued are dropped (and counted): shutdown never waits on them."""

        with self._idle:
            thread, self._thread = self._thread, None
            if thread is None:
                return
            while True:                 # the checker may take one meanwhile
                try:
                    self._jobs.get_nowait()
                except queue.Empty:
                    break
                self._pending -= 1
                self._dropped += 1
            self._jobs.put_nowait(None)  # fits: emptied, and submit needs the lock
            self._idle.notify_all()
        thread.join(timeout)

    def _run_jobs(self) -> None:
        for job in iter(self._jobs.get, None):
            try:
                job()
            finally:
                with self._idle:
                    self._pending -= 1
                    self._idle.notify_all()

    def _recheck(self, invariant, rerun, expected, exact, model,
                 trace_id) -> None:
        try:
            actual = rerun()
        except Exception:  # noqa: BLE001 — a failed re-run is not a mismatch
            with self._lock:
                self._errors += 1
            return
        if actual is None:
            return
        attrs: Dict[str, Any] = {}
        if isinstance(expected, np.ndarray):
            actual = np.asarray(actual)
            same_shape = actual.shape == expected.shape
            match = (np.array_equal(actual, expected) if exact else same_shape
                     and bool(np.allclose(actual, expected, atol=self.ATOL)))
            if not match and same_shape:
                attrs = {"max_abs_error": float(np.abs(actual - expected).max()),
                         "num_samples": int(expected.shape[0])}
        else:
            match = actual == expected
        self.verdict(invariant, match, model=model, trace_id=trace_id, **attrs)

    # -- violation bookkeeping --------------------------------------------

    def record_violation(
        self,
        invariant: str,
        detail: str,
        *,
        model: Optional[str] = None,
        trace_id: Optional[str] = None,
        **attrs: Any,
    ) -> Violation:
        violation = Violation(
            invariant=invariant,
            detail=detail,
            model=model,
            trace_id=trace_id,
        )
        violation.update(attrs)
        with self._lock:
            self._violations += 1
            self._by_invariant[invariant] = self._by_invariant.get(invariant, 0) + 1
            self._recent.append(dict(violation))
        if self.tracer is not None:
            self.tracer.event(
                "invariant.violation",
                trace_id,
                status="violation",
                attrs={"invariant": invariant, "detail": detail, "model": model},
            )
        if self.on_violation is not None:
            try:
                self.on_violation(violation)
            except Exception:  # noqa: BLE001 — verification must not fail traffic
                pass
        return violation

    # -- output-domain checks ---------------------------------------------

    def check_outputs(
        self,
        model: str,
        outputs: Any,
        *,
        trace_id: Optional[str] = None,
        attempt: int = 0,
        source: str = "server",
        input_key: Optional[str] = None,
    ) -> List[Violation]:
        """Run the output-domain invariants on one response's logits.

        ``input_key`` is the shared canonical request identity (namespace +
        :func:`~repro.serve.cache.canonical_input_hash`): when given, the
        argmax-stability fingerprint is keyed on *what was asked* rather
        than the trace id, so any two executions of the same input against
        the same model version must agree — not just retries of one trace.
        """

        violations: List[Violation] = []
        try:
            array = np.asarray(outputs, dtype=np.float64)
        except (TypeError, ValueError):
            violations.append(
                self.record_violation(
                    "shape_stable",
                    "outputs are not a numeric array",
                    model=model,
                    trace_id=trace_id,
                    source=source,
                )
            )
            return violations
        with self._lock:
            self._checks += 1

        if array.size and not bool(np.isfinite(array).all()):
            bad = int(array.size - np.count_nonzero(np.isfinite(array)))
            violations.append(
                self.record_violation(
                    "logits_finite",
                    f"{bad}/{array.size} non-finite logits",
                    model=model,
                    trace_id=trace_id,
                    source=source,
                )
            )

        signature = {"ndim": array.ndim, "classes": int(array.shape[-1]) if array.ndim else 0}
        with self._lock:
            known = self._shapes.get(model)
            if known is None:
                self._shapes[model] = signature
                known = signature
        if known != signature:
            violations.append(
                self.record_violation(
                    "shape_stable",
                    f"output signature drifted from {known} to {signature}",
                    model=model,
                    trace_id=trace_id,
                    source=source,
                )
            )

        key = input_key or trace_id
        if key and array.ndim >= 1 and array.size:
            fingerprint = [int(v) for v in np.argmax(np.atleast_2d(array), axis=-1)]
            with self._lock:
                previous = self._fingerprints.get(key)
                if previous is None:
                    self._fingerprints[key] = fingerprint
                    while len(self._fingerprints) > self._max_fingerprints:
                        self._fingerprints.popitem(last=False)
            # Trace-id keys only compare across retries of one request;
            # input keys name a deterministic (model@version, input) pair,
            # so *any* two executions must agree.
            if (previous is not None
                    and (attempt > 0 or input_key is not None)
                    and previous != fingerprint):
                violations.append(
                    self.record_violation(
                        "argmax_stable",
                        f"argmax changed across executions of the same input"
                        f" (attempt {attempt})"
                        if input_key is not None else
                        f"argmax changed across retry (attempt {attempt})",
                        model=model,
                        trace_id=trace_id,
                        source=source,
                    )
                )
        return violations

    def verdict(
        self,
        invariant: str,
        match: bool,
        *,
        model: Optional[str] = None,
        trace_id: Optional[str] = None,
        **attrs: Any,
    ) -> Optional[Violation]:
        """Count one re-run-and-compare check (``parity_audit``,
        ``canary_parity``, ``cache_parity``); a mismatch is a violation."""

        with self._lock:
            self._checks += 1
        if match:
            return None
        return self.record_violation(
            invariant, "re-execution disagreed with the served result",
            model=model, trace_id=trace_id, **attrs)

    def check_trace(
        self, spans: Sequence[Mapping[str, Any]], *, trace_id: Optional[str] = None
    ) -> List[Violation]:
        """Run the causal-order invariant over one trace's spans."""

        with self._lock:
            self._checks += 1
        violations = []
        for anomaly in check_causal_order(spans):
            violations.append(
                self.record_violation(
                    "causal_order",
                    f"span {anomaly['span']!r} does not happen after parent "
                    f"{anomaly['parent']!r}",
                    trace_id=trace_id,
                    **anomaly,
                )
            )
        return violations

    # -- introspection -----------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "enabled": self.enabled,
                "every": self.every,
                "sampled": self._seen.get("outputs", 0),
                "checks": self._checks,
                "violations": self._violations,
                "by_invariant": dict(self._by_invariant),
                "recent": list(self._recent),
                "dropped": self._dropped,
                "errors": self._errors,
            }
