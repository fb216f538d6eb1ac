"""Online parity auditing: runtime verification of the fused serving path.

RvLLM-style online checking (PAPERS.md) applied to this system: in production
the server answers from the fused kernels (compiled C / batched BLAS), while
the per-group reference loop — the implementation the paper's Algorithm 1
literally describes — is retained inside every
:class:`~repro.cam.runtime.LUTLayerRuntime`.  The :class:`ParityAuditor`
re-runs a sample of live traffic (every ``1/every`` batches) through a
dedicated reference engine on a background thread and counts mismatches, so a
kernel regression, a miscompiled ``-march=native`` build or a corrupted LUT
shows up in ``/metrics`` as ``parity_audit.mismatches > 0`` instead of as
silently wrong predictions.

Auditing is strictly best-effort: the audit queue is bounded and sampled work
is *dropped* (and counted) when the auditor falls behind — it must never add
latency to the serving path.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Dict, Optional

import numpy as np

from repro.serve.engine import BundleEngine
from repro.serve.metrics import ServerMetrics


class ParityAuditor:
    """Sampled fused-vs-reference output checking for one served bundle.

    Parameters
    ----------
    reference_engine:
        An engine for the *same* bundle with ``use_fused=False`` (its own
        instance — runtimes are not thread-safe across the serving engine
        and the auditor).
    every:
        Sample rate: audit one of every ``every`` dispatched batches
        (1 audits everything; 0 or ``None`` disables).
    max_pending:
        Bound on queued audit jobs; overflow increments the dropped counter.
    exact:
        Require bitwise equality (PECAN-D lookup path) instead of
        ``np.allclose`` (PECAN-A's fused GEMMs reassociate BLAS sums).
        Defaults to the bundle's multiplier-free flag.
    """

    def __init__(self, reference_engine: BundleEngine, every: int = 64,
                 max_pending: int = 8, exact: Optional[bool] = None,
                 metrics: Optional[ServerMetrics] = None,
                 atol: float = 1e-8,
                 monitor=None, model: Optional[str] = None):
        self.reference_engine = reference_engine
        self.every = int(every) if every else 0
        self.exact = (reference_engine.bundle.is_multiplier_free()
                      if exact is None else bool(exact))
        self.atol = atol
        self.metrics = metrics if metrics is not None else ServerMetrics()
        #: Optional :class:`~repro.serve.invariants.InvariantMonitor`; parity
        #: mismatches are reported to it so the fused-vs-reference alarm also
        #: lands in the ``runtime_verification`` tree and the lifecycle gate.
        self.monitor = monitor
        self.model = model
        self._pending: "queue.Queue[Tuple[np.ndarray, np.ndarray]]" = \
            queue.Queue(maxsize=max_pending)
        self._inflight = 0
        self._seen = 0
        self._lock = threading.Lock()
        self._running = False
        self._thread: Optional[threading.Thread] = None
        self.last_mismatch: Optional[Dict[str, float]] = None

    # ------------------------------------------------------------------ #
    @property
    def enabled(self) -> bool:
        return self.every > 0

    def start(self) -> "ParityAuditor":
        if self.enabled and (self._thread is None or not self._thread.is_alive()):
            self._running = True
            self._thread = threading.Thread(target=self._worker,
                                            name="repro-serve-auditor", daemon=True)
            self._thread.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        self._running = False
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    def observe(self, inputs: np.ndarray, outputs: np.ndarray) -> None:
        """Batch hook: sample every Nth batch into the audit queue."""
        if not self.enabled:
            return
        with self._lock:
            self._seen += 1
            take = self._seen % self.every == 1 or self.every == 1
        if not take:
            return
        try:
            # Copy: the scheduler may hand us views into buffers it reuses.
            self._pending.put_nowait((np.array(inputs, copy=True),
                                      np.array(outputs, copy=True)))
        except queue.Full:
            self.metrics.record_audit_dropped()

    def drain(self, timeout: float = 5.0) -> None:
        """Block until every queued *and in-flight* audit ran."""
        deadline = time.monotonic() + timeout
        while ((not self._pending.empty() or self._inflight)
               and time.monotonic() < deadline):
            time.sleep(0.005)

    # ------------------------------------------------------------------ #
    def _check(self, inputs: np.ndarray, outputs: np.ndarray) -> None:
        expected = self.reference_engine.predict(inputs)
        if self.exact:
            mismatch = not np.array_equal(expected, outputs)
        else:
            mismatch = not np.allclose(expected, outputs, atol=self.atol)
        self.metrics.record_audit(mismatch)
        if mismatch:
            delta = np.abs(np.asarray(expected) - np.asarray(outputs))
            self.last_mismatch = {
                "max_abs_error": float(delta.max()),
                "num_samples": int(inputs.shape[0]),
            }
            if self.monitor is not None:
                self.monitor.record_violation(
                    "parity_audit",
                    "sampled parity audit: fused output disagrees with "
                    "reference engine",
                    model=self.model,
                    max_abs_error=self.last_mismatch["max_abs_error"],
                    source="parity_audit")

    def _worker(self) -> None:
        while self._running:
            try:
                with self._lock:
                    # Claimed-but-unfinished work must keep drain() blocked,
                    # so the in-flight mark is taken atomically with the pop.
                    inputs, outputs = self._pending.get_nowait()
                    self._inflight += 1
            except queue.Empty:
                time.sleep(0.005)
                continue
            try:
                self._check(inputs, outputs)
            except Exception:                 # noqa: BLE001 - audit is best-effort
                # An auditor failure is not a parity mismatch: count it
                # separately so mismatches stay a pure kernel-regression alarm.
                self.metrics.record_audit_error()
            finally:
                with self._lock:
                    self._inflight -= 1
