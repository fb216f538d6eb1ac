"""Model lifecycle: versioned deployments, canary traffic splits, rollout gates.

The serving plane (engine → registry → server → pool) freezes its model set
at startup; this module adds the pieces that turn shipping a retrained or
re-exported bundle into a *routed operation* instead of a pool restart:

* **Versioned names** — every registered bundle is a version of a base model
  (``resnet@v3``); the bare base name is an alias for the *active* version.
  :func:`split_versioned` / :func:`format_versioned` define the one grammar
  every layer (registry, worker, router, CLI) speaks.
* **:class:`CanaryPolicy`** — a deterministic traffic splitter: exactly the
  configured fraction of a model's requests (counter-based, not random) is
  marked for the candidate version during a rollout.
* **:class:`RolloutGate`** — the promotion judge.  Each canary request is
  served by the candidate *and* mirrored to the active version; the gate
  compares the two outputs (bitwise — PECAN-D inference is deterministic, so
  any divergence is a real regression, in the spirit of RvLLM-style online
  runtime verification) and tracks both versions' latency windows.  After
  enough clean samples it rules ``promote``; a parity violation or a blown
  latency ratio rules ``rollback``.
* **:class:`Rollout`** — one in-flight deployment: candidate id, policy,
  gate, state machine (``canary → promoted | rolled_back``) and an event log
  that ``/admin/status`` and ``/metrics`` expose.

Clients are never exposed to a bad candidate: during the canary phase the
router always answers with the *active* version's output, so the split is a
shadow evaluation under real traffic — promotion is what starts routing the
candidate's (by then provably identical) outputs.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.serve.metrics import Window

#: Separator between a base model name and its version: ``resnet@v3``.
VERSION_SEP = "@v"


class LifecycleError(ValueError):
    """Invalid lifecycle operation (bad name, wrong state, unknown version)."""


def split_versioned(name: str) -> Tuple[str, Optional[int]]:
    """``"m@v2"`` → ``("m", 2)``; a bare ``"m"`` → ``("m", None)``.

    Raises :class:`LifecycleError` for a malformed version suffix (empty
    base, non-integer or non-positive version).
    """
    base, sep, suffix = name.rpartition(VERSION_SEP)
    if not sep:
        return name, None
    try:
        version = int(suffix)
    except ValueError:
        raise LifecycleError(f"malformed versioned name {name!r}: version "
                             f"suffix {suffix!r} is not an integer") from None
    if not base or version < 1:
        raise LifecycleError(f"malformed versioned name {name!r}: expected "
                             f"'<base>{VERSION_SEP}<positive int>'")
    return base, version


def format_versioned(base: str, version: int) -> str:
    """``("m", 2)`` → ``"m@v2"``."""
    return f"{base}{VERSION_SEP}{int(version)}"


# --------------------------------------------------------------------------- #
# Canary traffic splitting
# --------------------------------------------------------------------------- #
class CanaryPolicy:
    """Deterministic counter-based traffic splitter.

    ``sample()`` returns ``True`` for exactly ``floor(n * fraction)`` of the
    first ``n`` calls — the canary stream is an evenly spaced, reproducible
    subsequence of live traffic rather than a random coin flip, so short
    rollouts (and tests) see the configured fraction exactly instead of in
    expectation.
    """

    def __init__(self, fraction: float):
        if not 0.0 <= fraction <= 1.0:
            raise LifecycleError(f"canary fraction must be in [0, 1], "
                                 f"got {fraction}")
        self.fraction = float(fraction)
        self._count = 0
        self._lock = threading.Lock()

    def sample(self) -> bool:
        """Mark this request for the candidate?  (Exactly-fractional.)"""
        if self.fraction <= 0.0:
            return False
        with self._lock:
            self._count += 1
            return (int(self._count * self.fraction)
                    > int((self._count - 1) * self.fraction))

    @property
    def seen(self) -> int:
        with self._lock:
            return self._count

    def describe(self) -> Dict[str, object]:
        return {"fraction": self.fraction, "seen": self.seen}


# --------------------------------------------------------------------------- #
# The promotion judge
# --------------------------------------------------------------------------- #
class RolloutGate:
    """Accumulate canary-vs-active comparisons and rule on promotion.

    Parameters
    ----------
    min_samples:
        Clean output comparisons required before ``promote`` is ruled.
    max_parity_violations:
        Output mismatches tolerated before ``rollback`` (default 0: PECAN-D
        inference is bitwise deterministic, so a single divergent logit is a
        real regression).
    max_latency_ratio:
        Upper bound on ``canary_p95 / active_p95`` at decision time; above it
        the verdict is ``rollback`` even with clean parity.  ``None``
        disables the latency gate.
    exact:
        Recorded for observability: whether comparisons were bitwise
        (PECAN-D) or tolerance-based.
    """

    def __init__(self, min_samples: int = 20,
                 max_parity_violations: int = 0,
                 max_latency_ratio: Optional[float] = 3.0,
                 exact: bool = True,
                 window: int = 1024):
        if min_samples < 1:
            raise LifecycleError("min_samples must be >= 1")
        if max_parity_violations < 0:
            raise LifecycleError("max_parity_violations must be >= 0")
        if max_latency_ratio is not None and max_latency_ratio <= 0:
            raise LifecycleError("max_latency_ratio must be positive")
        self.min_samples = int(min_samples)
        self.max_parity_violations = int(max_parity_violations)
        self.max_latency_ratio = max_latency_ratio
        self.exact = bool(exact)
        self.samples = 0
        self.matches = 0
        self.parity_violations = 0
        self.candidate_errors = 0
        self.invariant_violations = 0
        self._active_latency = Window(window)
        self._canary_latency = Window(window)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    def record(self, match: bool, active_seconds: float,
               canary_seconds: float) -> None:
        """One mirrored comparison: outputs agreed?, per-version latency."""
        with self._lock:
            self.samples += 1
            if match:
                self.matches += 1
            else:
                self.parity_violations += 1
            self._active_latency.add(active_seconds)
            self._canary_latency.add(canary_seconds)

    def record_candidate_error(self) -> None:
        """The candidate failed to answer (non-200/transport error): counts
        against promotion exactly like a parity violation — a candidate that
        cannot serve must never be promoted."""
        with self._lock:
            self.samples += 1
            self.parity_violations += 1
            self.candidate_errors += 1

    def record_invariant_violation(self) -> None:
        """A runtime-verification verdict against the candidate (non-finite
        logits, shape drift, retry instability — see
        :class:`~repro.serve.invariants.InvariantMonitor`): spends the same
        violation budget as a parity mismatch, so an always-on monitor can
        trip the gate even between mirrored comparisons."""
        with self._lock:
            self.samples += 1
            self.parity_violations += 1
            self.invariant_violations += 1

    # ------------------------------------------------------------------ #
    def latency_ratio(self) -> Optional[float]:
        """``canary_p95 / active_p95`` over the observation windows."""
        active = self._active_latency.snapshot_ms()
        canary = self._canary_latency.snapshot_ms()
        if not active["count"] or not canary["count"] or active["p95_ms"] <= 0:
            return None
        return canary["p95_ms"] / active["p95_ms"]

    def verdict(self) -> str:
        """``"rollback"`` | ``"promote"`` | ``"pending"``.

        Violations rule immediately; promotion needs ``min_samples`` clean
        comparisons *and* a latency ratio within bounds.
        """
        with self._lock:
            violations = self.parity_violations
            samples = self.samples
        if violations > self.max_parity_violations:
            return "rollback"
        if samples < self.min_samples:
            return "pending"
        ratio = self.latency_ratio()
        if (self.max_latency_ratio is not None and ratio is not None
                and ratio > self.max_latency_ratio):
            return "rollback"
        return "promote"

    def reason(self) -> str:
        """Human-readable explanation of the current verdict."""
        verdict = self.verdict()
        if verdict == "promote":
            return (f"{self.matches} clean comparisons "
                    f"(bitwise={self.exact}), latency ratio "
                    f"{self.latency_ratio() or 1.0:.2f} within bounds")
        if verdict == "pending":
            return f"{self.samples}/{self.min_samples} comparisons observed"
        if self.parity_violations > self.max_parity_violations:
            return (f"{self.parity_violations} parity violation(s) "
                    f"({self.candidate_errors} candidate errors, "
                    f"{self.invariant_violations} invariant violations) "
                    f"exceed budget {self.max_parity_violations}")
        return (f"canary/active p95 latency ratio {self.latency_ratio():.2f} "
                f"exceeds {self.max_latency_ratio}")

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            payload: Dict[str, object] = {
                "samples": self.samples,
                "matches": self.matches,
                "parity_violations": self.parity_violations,
                "candidate_errors": self.candidate_errors,
                "invariant_violations": self.invariant_violations,
                "min_samples": self.min_samples,
                "max_parity_violations": self.max_parity_violations,
                "max_latency_ratio": self.max_latency_ratio,
                "exact": self.exact,
                "active_latency": self._active_latency.snapshot_ms(),
                "canary_latency": self._canary_latency.snapshot_ms(),
            }
        payload["latency_ratio"] = self.latency_ratio()
        payload["verdict"] = self.verdict()
        return payload


# --------------------------------------------------------------------------- #
# One in-flight rollout
# --------------------------------------------------------------------------- #
#: Rollout states.  ``canary`` is the only state that routes candidate
#: traffic; both terminal states keep the record around for /admin/status.
CANARY, PROMOTED, ROLLED_BACK = "canary", "promoted", "rolled_back"


@dataclass
class Rollout:
    """State of one versioned deployment moving through the gate."""

    base: str                      # model base name ("resnet")
    candidate: str                 # candidate versioned id ("resnet@v2")
    candidate_version: int
    active_version: int            # active version when the rollout began
    policy: CanaryPolicy
    gate: RolloutGate
    auto: bool = True              # act on the gate's verdict automatically
    state: str = CANARY
    reason: str = ""
    started_at: float = field(default_factory=time.monotonic)
    events: List[Dict[str, object]] = field(default_factory=list)
    #: Invoked (rollout, terminal state) exactly when the rollout reaches a
    #: terminal state, whichever path got it there (manual promote/rollback,
    #: gate auto-action, supersession).  The pool hangs response-cache
    #: invalidation off this hook so a retired candidate's namespace dies
    #: with the rollout.  Exceptions are swallowed: observers must not be
    #: able to wedge a lifecycle transition.
    on_finish: Optional[Callable[["Rollout", str], None]] = field(
        default=None, repr=False)
    _transition_claimed: bool = field(default=False, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def log(self, event: str, **details: object) -> None:
        with self._lock:
            self.events.append({"event": event,
                                "t_s": round(time.monotonic() - self.started_at, 3),
                                **details})

    def claim_transition(self) -> bool:
        """First caller wins the right to promote/rollback (idempotence)."""
        with self._lock:
            if self._transition_claimed or self.state != CANARY:
                return False
            self._transition_claimed = True
            return True

    def finish(self, state: str, reason: str) -> None:
        with self._lock:
            self.state = state
            self.reason = reason
        self.log(state, reason=reason)
        if self.on_finish is not None:
            try:
                self.on_finish(self, state)
            except Exception:  # noqa: BLE001 — observers must not wedge a flip
                pass

    @property
    def in_canary(self) -> bool:
        return self.state == CANARY

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            state, reason = self.state, self.reason
            events = list(self.events)
        return {
            "base": self.base,
            "candidate": self.candidate,
            "candidate_version": self.candidate_version,
            "active_version_at_start": self.active_version,
            "state": state,
            "reason": reason,
            "auto": self.auto,
            "age_s": round(time.monotonic() - self.started_at, 3),
            "canary": self.policy.describe(),
            "gate": self.gate.snapshot(),
            "events": events,
        }
