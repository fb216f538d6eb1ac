"""Typed request/response schemas for the ``/admin/*`` API.

Three subsystems speak the admin protocol — :class:`~repro.serve.server.
PECANServer`, :class:`~repro.serve.pool.PoolServer` and
:class:`~repro.serve.client.ServeClient` — and until this module each kept
its own ad-hoc payload parsing, so a field added on one side silently
vanished on another.  This module is the single wire contract:

* **Request schemas** — one dataclass per verb (:class:`DeployRequest`,
  :class:`PromoteRequest`, :class:`RollbackRequest`, :class:`ScaleRequest`)
  with ``from_payload`` validation and ``to_payload`` serialization, used by
  the servers to parse and by the client to build the same bytes.
* **Structured errors** — every admin failure carries ``code`` (a stable
  machine-readable category), ``reason`` (the exception class that caused
  it) and ``retry_after`` (seconds, or ``None``) *in addition to* the legacy
  ``error`` message key, so existing clients keep working while new ones can
  branch on ``code`` instead of regex-matching messages.
* **Shared dispatch** — :func:`dispatch_admin` owns path routing, body
  parsing and the exception→status mapping for every server, so the admin
  plane literally cannot drift between the single server and the pool.

Error codes (``ERROR_CODES``): ``bad-request`` (400 — validation,
lifecycle-rule or file errors), ``not-found`` (404 — unknown model/version/
path), ``unavailable`` (503 — the serving plane cannot take admin work right
now; carries ``retry_after``), ``internal`` (500 — anything else, reported
with the exception type).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.serve.lifecycle import LifecycleError
from repro.serve.pipeline import json_response

__all__ = [
    "ADMIN_VERBS",
    "ERROR_CODES",
    "AdminError",
    "DeployRequest",
    "PromoteRequest",
    "RollbackRequest",
    "ScaleRequest",
    "dispatch_admin",
    "error_payload",
    "error_response",
    "parse_admin_request",
]

#: Stable machine-readable error categories (the ``code`` payload field).
ERROR_CODES: Tuple[str, ...] = ("bad-request", "not-found", "unavailable",
                                "internal")


class AdminError(Exception):
    """An admin-plane failure with its full structured wire shape.

    Server-side code may raise this directly for precise control; every
    other exception crossing :func:`dispatch_admin` is classified into one
    (see :func:`classify_error`).
    """

    def __init__(self, message: str, *, status: int = 400,
                 code: str = "bad-request", reason: Optional[str] = None,
                 retry_after_s: Optional[float] = None):
        super().__init__(message)
        if code not in ERROR_CODES:
            raise ValueError(f"unknown admin error code {code!r}")
        self.status = int(status)
        self.code = code
        self.reason = reason or code
        self.retry_after_s = retry_after_s


def classify_error(exc: Exception) -> AdminError:
    """Map an arbitrary handler exception to its structured admin error.

    The mapping preserves the historical status codes exactly:
    lifecycle/validation/file errors → 400, unknown names → 404 (with the
    KeyError quoting stripped), everything else → 500 with the exception
    type named.
    """
    if isinstance(exc, AdminError):
        return exc
    if isinstance(exc, (LifecycleError, ValueError, FileNotFoundError)):
        return AdminError(str(exc), status=400, code="bad-request",
                          reason=type(exc).__name__)
    if isinstance(exc, KeyError):
        return AdminError(str(exc).strip("'\""), status=404, code="not-found",
                          reason="KeyError")
    return AdminError(f"{type(exc).__name__}: {exc}", status=500,
                      code="internal", reason=type(exc).__name__)


def error_payload(error: AdminError) -> Dict[str, Any]:
    """The structured error body (legacy ``error`` key + typed fields)."""
    return {
        "error": str(error),
        "code": error.code,
        "reason": error.reason,
        "retry_after": error.retry_after_s,
    }


def error_response(error: AdminError) -> Tuple[int, bytes, Dict[str, str]]:
    headers: Dict[str, str] = {}
    if error.retry_after_s is not None:
        headers["Retry-After"] = f"{max(error.retry_after_s, 0.0):.3f}"
    return json_response(error.status, error_payload(error), headers)


# --------------------------------------------------------------------------- #
# Request schemas
# --------------------------------------------------------------------------- #
def _require(payload: Mapping[str, Any], verb: str, *names: str) -> None:
    missing = [name for name in names if name not in payload]
    if missing:
        wanted = " and ".join(f"'{name}'" for name in names)
        raise AdminError(f"{verb} needs {wanted}", status=400,
                         code="bad-request", reason="missing-field")


def _optional_int(payload: Mapping[str, Any], name: str) -> Optional[int]:
    value = payload.get(name)
    if value is None:
        return None
    try:
        return int(value)
    except (TypeError, ValueError):
        raise AdminError(f"{name} must be an integer, got {value!r}",
                         reason="bad-field") from None


@dataclass
class DeployRequest:
    """``POST /admin/deploy`` — register (and canary) a new bundle version.

    The canary-gate knobs (``canary_fraction`` …) only apply on pools; the
    single-process server ignores them, which is the historical behaviour.
    """

    name: str
    path: str
    version: Optional[int] = None
    preload: bool = True
    canary_fraction: float = 0.25
    min_samples: int = 20
    max_parity_violations: int = 0
    #: ``3.0`` when absent; an explicit JSON ``null`` disables the latency
    #: gate — the tri-state the wire protocol has always had.
    max_latency_ratio: Optional[float] = 3.0
    auto: bool = True

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "DeployRequest":
        _require(payload, "deploy", "name", "path")
        return cls(
            name=str(payload["name"]),
            path=str(payload["path"]),
            version=_optional_int(payload, "version"),
            preload=bool(payload.get("preload", True)),
            canary_fraction=float(payload.get("canary_fraction", 0.25)),
            min_samples=int(payload.get("min_samples", 20)),
            max_parity_violations=int(payload.get("max_parity_violations", 0)),
            max_latency_ratio=(
                (None if payload["max_latency_ratio"] is None
                 else float(payload["max_latency_ratio"]))
                if "max_latency_ratio" in payload else 3.0),
            auto=bool(payload.get("auto", True)),
        )

    def to_payload(self) -> Dict[str, Any]:
        return {"name": self.name, "path": self.path, "version": self.version,
                "preload": self.preload,
                "canary_fraction": self.canary_fraction,
                "min_samples": self.min_samples,
                "max_parity_violations": self.max_parity_violations,
                "max_latency_ratio": self.max_latency_ratio,
                "auto": self.auto}


@dataclass
class PromoteRequest:
    """``POST /admin/promote`` — flip the active alias to ``version``."""

    name: str
    version: Optional[int] = None

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "PromoteRequest":
        _require(payload, "promote", "name")
        return cls(name=str(payload["name"]),
                   version=_optional_int(payload, "version"))

    def to_payload(self) -> Dict[str, Any]:
        return {"name": self.name, "version": self.version}


@dataclass
class RollbackRequest:
    """``POST /admin/rollback`` — abort a canary / restore the previous
    active version."""

    name: str

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "RollbackRequest":
        _require(payload, "rollback", "name")
        return cls(name=str(payload["name"]))

    def to_payload(self) -> Dict[str, Any]:
        return {"name": self.name}


@dataclass
class ScaleRequest:
    """``POST /admin/scale`` — set the pool's worker target (autoscale-aware).

    ``workers`` pins the target; the autoscaler (when enabled) keeps
    adjusting from there within its envelope.
    """

    workers: int
    reason: str = "operator"

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "ScaleRequest":
        _require(payload, "scale", "workers")
        workers = _optional_int(payload, "workers")
        if workers is None or workers < 0:
            raise AdminError(f"workers must be a non-negative integer, got "
                             f"{payload.get('workers')!r}", reason="bad-field")
        return cls(workers=workers,
                   reason=str(payload.get("reason", "operator")))

    def to_payload(self) -> Dict[str, Any]:
        return {"workers": self.workers, "reason": self.reason}


#: verb -> request schema.  ``status`` is a GET with no body, listed for
#: completeness (the servers answer it from their lifecycle snapshots).
ADMIN_VERBS: Dict[str, Any] = {
    "deploy": DeployRequest,
    "promote": PromoteRequest,
    "rollback": RollbackRequest,
    "scale": ScaleRequest,
    "status": None,
}


def parse_admin_request(path: str, body: bytes) -> Any:
    """Parse ``POST /admin/<verb>`` into its typed request.

    Raises :class:`AdminError` on an unknown verb, malformed JSON or a
    schema violation — the caller answers with :func:`error_response`.
    """
    if not path.startswith("/admin/"):
        raise AdminError(f"unknown admin path {path}", status=404,
                         code="not-found", reason="unknown-path")
    verb = path[len("/admin/"):]
    schema = ADMIN_VERBS.get(verb)
    if schema is None:
        raise AdminError(f"unknown admin path {path}", status=404,
                         code="not-found", reason="unknown-path")
    try:
        payload = json.loads(body or b"{}")
        if not isinstance(payload, dict):
            raise ValueError("admin body must be a JSON object")
    except (ValueError, json.JSONDecodeError) as exc:
        raise AdminError(str(exc), status=400, code="bad-request",
                         reason="bad-json") from None
    return schema.from_payload(payload)


def dispatch_admin(path: str, body: bytes,
                   handlers: Mapping[str, Callable[[Any], Mapping[str, Any]]],
                   ) -> Tuple[int, bytes, Dict[str, str]]:
    """Route one ``POST /admin/*`` request through typed schemas.

    ``handlers`` maps verb names (``"deploy"`` …) to callables taking the
    parsed request dataclass and returning a JSON-ready dict.  Verbs without
    a handler 404 (so the single server can simply not implement ``scale``),
    and every failure — parse-time or handler-time — leaves as a structured
    error response.
    """
    try:
        request = parse_admin_request(path, body)
    except AdminError as exc:
        return error_response(exc)
    verb = path[len("/admin/"):]
    handler = handlers.get(verb)
    if handler is None:
        return error_response(AdminError(
            f"unknown admin path {path}", status=404, code="not-found",
            reason="unknown-path"))
    try:
        return json_response(200, handler(request))
    except Exception as exc:                     # noqa: BLE001 - boundary
        return error_response(classify_error(exc))
