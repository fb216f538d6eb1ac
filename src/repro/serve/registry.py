"""Versioned bundle registry with refcounted engines and LRU eviction.

A serving process may host several exported models (e.g. the PECAN-A and
PECAN-D variants of one network, or per-tenant finetunes), each in several
**versions**: every registered bundle is a :class:`RegisteredModel` with a
base name and a version (``resnet@v3``), and the bare base name is an alias
for the *active* version — the one unqualified ``/predict`` traffic resolves
to.  Deploying a new version (:meth:`ModelRegistry.deploy`) never touches the
alias; :meth:`set_active` / :meth:`rollback_active` flip it atomically, which
is what makes hot reload and canary rollout (:mod:`repro.serve.lifecycle`)
races-free at the naming layer.

Engines load lazily and are **refcounted**: :meth:`acquire` hands out an
:class:`EngineLease`, and an engine with live leases is never dropped —
eviction and :meth:`unload` defer (``pending``) until the last lease is
released, so an in-flight request can never lose its engine mid-batch.
Engine construction happens *outside* the registry lock (a multi-second
bundle load must not stall other models' lookups), with a loading flag so
concurrent callers of the same record share one load.

The total resident footprint — measured in stored scalar values via
:meth:`DeploymentBundle.total_values`, the paper's Section 3 memory metric —
stays under ``max_total_values`` by evicting least-recently-used engines
(deferred for leased ones).  Evicted models stay registered: the next
request reloads from disk.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from repro.serve.engine import BundleEngine
from repro.serve.lifecycle import (LifecycleError, format_versioned,
                                   split_versioned)

PathLike = Union[str, Path]


@dataclass
class RegisteredModel:
    """One versioned bundle and, when resident, its engine."""

    name: str                    # record id: what register()/deploy() was given
    base: str                    # model family ("resnet")
    version: int                 # 1-based version within the family
    path: Path
    engine: Optional[BundleEngine] = None
    total_values: int = 0
    last_used: float = 0.0
    loads: int = 0
    refs: int = 0                # live EngineLease count
    pending: Optional[str] = None      # deferred drop: "unload" | "evict"
    loading: bool = field(default=False, repr=False)

    @property
    def loaded(self) -> bool:
        return self.engine is not None

    @property
    def versioned_id(self) -> str:
        return format_versioned(self.base, self.version)

    def describe(self, active: bool = False) -> Dict[str, object]:
        info: Dict[str, object] = {
            "name": self.name,
            "base": self.base,
            "version": self.version,
            "active": active,
            "path": str(self.path),
            "loaded": self.loaded,
            "loads": self.loads,
            "refs": self.refs,
            "pending": self.pending,
        }
        if self.engine is not None:
            info.update({
                "total_values": self.total_values,
                "layers": self.engine.bundle.layer_names,
                "input_shape": list(self.engine.input_shape or ()),
                "multiplier_free": self.engine.is_multiplier_free(),
                "kernels": self.engine.kernel_names(),
            })
        return info


class EngineLease:
    """A refcounted checkout of one resident engine.

    While a lease is live the registry will not drop the engine (eviction and
    unload defer until release).  Use as a context manager or call
    :meth:`release` explicitly; releasing twice is a no-op.
    """

    def __init__(self, registry: "ModelRegistry", record: RegisteredModel,
                 engine: BundleEngine):
        self._registry = registry
        self._record = record
        self.engine = engine
        self._released = False

    @property
    def name(self) -> str:
        """The record id this lease pins (``_served`` key in the server)."""
        return self._record.name

    @property
    def base(self) -> str:
        return self._record.base

    @property
    def version(self) -> int:
        return self._record.version

    def release(self) -> None:
        if not self._released:
            self._released = True
            self._registry._release(self._record)

    def __enter__(self) -> "EngineLease":
        return self

    def __exit__(self, *exc) -> None:
        self.release()


class ModelRegistry:
    """Load/evict named, versioned deployment bundles under a memory budget.

    Parameters
    ----------
    max_total_values:
        Budget on the summed ``total_values()`` of resident engines; ``None``
        disables eviction.  The budget is a soft floor of one: the most
        recently requested engine is never evicted, even if it alone exceeds
        the budget, and engines pinned by live leases are only marked for
        deferred eviction.
    engine_factory:
        ``(path) -> BundleEngine`` — override to customize engine options
        (chunk policy, fused/reference) or for testing.
    mmap_mode:
        Forwarded to the default engine factory: ``"r"`` loads bundle arrays
        as read-only memory maps (see
        :func:`repro.io.deployment.load_deployment_bundle`), which is what
        data-parallel worker pools use to share LUT pages across processes.
        Ignored when a custom ``engine_factory`` is given.
    """

    def __init__(self, max_total_values: Optional[int] = None,
                 engine_factory: Optional[Callable[[Path], BundleEngine]] = None,
                 mmap_mode: Optional[str] = None):
        self.max_total_values = max_total_values
        self.mmap_mode = mmap_mode
        self._engine_factory = engine_factory or (
            lambda path: BundleEngine(path, mmap_mode=mmap_mode))
        self._records: Dict[str, RegisteredModel] = {}     # record id → record
        self._canonical: Dict[str, str] = {}               # "base@vN" → record id
        self._versions: Dict[str, Dict[int, str]] = {}     # base → {version: id}
        self._active: Dict[str, int] = {}                  # base → active version
        self._previous: Dict[str, int] = {}                # base → last active
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self.evictions_total = 0

    # ------------------------------------------------------------------ #
    # Registration / versioning
    # ------------------------------------------------------------------ #
    def _add_record(self, name: str, base: str, version: int,
                    path: Path) -> RegisteredModel:
        """Insert one validated record (lock held by callers)."""
        record = RegisteredModel(name=name, base=base, version=version, path=path)
        self._records[name] = record
        self._canonical[record.versioned_id] = name
        self._versions.setdefault(base, {})[version] = name
        # The first version of a base activates it; later deploys only
        # change the alias through set_active()/rollback_active().
        self._active.setdefault(base, version)
        return record

    def register(self, name: str, path: PathLike,
                 preload: bool = False) -> RegisteredModel:
        """Add a named bundle; with ``preload`` the engine loads immediately.

        A bare ``name`` registers version 1 of a new base (re-registering an
        existing base raises — use :meth:`deploy` for subsequent versions);
        ``name@vN`` registers that exact version.
        """
        path = Path(path)
        if not path.exists():
            raise FileNotFoundError(f"deployment bundle not found: {path}")
        base, version = split_versioned(name)
        with self._lock:
            if name in self._records:
                raise ValueError(f"model {name!r} is already registered")
            if version is None:
                if base in self._versions:
                    raise ValueError(f"model {name!r} is already registered "
                                     f"(deploy() adds new versions)")
                version = 1
            elif version in self._versions.get(base, {}):
                raise ValueError(f"version {version} of model {base!r} is "
                                 f"already registered")
            record = self._add_record(name, base, version, path)
        if preload:
            self.get_engine(name)
        return record

    def deploy(self, name: str, path: PathLike, version: Optional[int] = None,
               preload: bool = False) -> RegisteredModel:
        """Register a **new version** of base ``name`` without activating it.

        ``version`` defaults to one past the highest registered version.  The
        record id is the canonical ``base@vN`` form; traffic only reaches it
        by explicit versioned name until :meth:`set_active` flips the alias.
        """
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
            known = self._versions.get(base, {})
            if version is None:
                version = max(known, default=0) + 1
            if version in known:
                raise ValueError(f"version {version} of model {base!r} is "
                                 f"already registered")
            record = self._add_record(format_versioned(base, version),
                                      base, version, path)
        if preload:
            self.get_engine(record.name)
        return record

    def undeploy(self, name: str) -> None:
        """Remove a version entirely (record, alias bookkeeping, engine).

        The active version can only be undeployed when it is the base's last
        version (removing the whole base); otherwise flip the alias first.
        A leased engine survives with its lease holders — only the registry's
        references go away.
        """
        with self._lock:
            record = self._resolve_record(name)
            versions = self._versions[record.base]
            if (self._active.get(record.base) == record.version
                    and len(versions) > 1):
                raise LifecycleError(
                    f"cannot undeploy the active version {record.versioned_id}; "
                    f"promote or roll back first")
            del self._records[record.name]
            del self._canonical[record.versioned_id]
            del versions[record.version]
            if not versions:
                del self._versions[record.base]
                self._active.pop(record.base, None)
                self._previous.pop(record.base, None)
            elif self._previous.get(record.base) == record.version:
                del self._previous[record.base]
            record.engine = None
            record.pending = None

    def set_active(self, base: str, version: int) -> str:
        """Point the base alias at ``version`` (the promote primitive).

        Returns the newly active record id.  The outgoing version is
        remembered for :meth:`rollback_active`.
        """
        with self._lock:
            known = self._versions.get(base)
            if not known:
                raise KeyError(f"model {base!r} is not registered "
                               f"(known: {sorted(self._versions)})")
            if version not in known:
                raise LifecycleError(f"model {base!r} has no version {version} "
                                     f"(known: {sorted(known)})")
            current = self._active[base]
            if current != version:
                self._previous[base] = current
                self._active[base] = version
            return known[version]

    def rollback_active(self, base: str) -> str:
        """Flip the base alias back to the previously active version."""
        with self._lock:
            if base not in self._versions:
                raise KeyError(f"model {base!r} is not registered")
            previous = self._previous.get(base)
            if previous is None or previous not in self._versions[base]:
                raise LifecycleError(f"model {base!r} has no previous active "
                                     f"version to roll back to")
            return self.set_active(base, previous)

    # ------------------------------------------------------------------ #
    # Resolution / listing
    # ------------------------------------------------------------------ #
    def _resolve_record(self, name: str) -> RegisteredModel:
        """Record for ``name`` — base alias (→ active version), canonical
        ``base@vN``, or exact record id.  Lock held by callers.

        The alias check comes first: a bare-registered base ("m") doubles as
        its version-1 record id, and after ``set_active`` the alias — not the
        historical id — must win, or promotion would never redirect traffic.
        """
        if name in self._active:
            base_versions = self._versions[name]
            return self._records[base_versions[self._active[name]]]
        if name in self._records:
            return self._records[name]
        if name in self._canonical:
            return self._records[self._canonical[name]]
        raise KeyError(f"model {name!r} is not registered "
                       f"(known: {sorted(self._records)})")

    def resolve_id(self, name: str) -> str:
        """Canonical record id ``name`` routes to (alias-aware)."""
        with self._lock:
            return self._resolve_record(name).name

    def names(self) -> List[str]:
        with self._lock:
            return list(self._records)

    def versions_of(self, base: str) -> Dict[int, str]:
        with self._lock:
            return dict(self._versions.get(base, {}))

    def active_version(self, base: str) -> Optional[int]:
        with self._lock:
            return self._active.get(base)

    def latest_version(self, base: str) -> Optional[int]:
        with self._lock:
            known = self._versions.get(base)
            return max(known) if known else None

    def previous_version(self, base: str) -> Optional[int]:
        """The version :meth:`rollback_active` would restore (if any)."""
        with self._lock:
            previous = self._previous.get(base)
            if previous is not None and previous in self._versions.get(base, {}):
                return previous
            return None

    def __contains__(self, name: str) -> bool:
        with self._lock:
            try:
                self._resolve_record(name)
                return True
            except KeyError:
                return False

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def default_name(self) -> Optional[str]:
        """The first registered base (what ``/predict`` uses when unnamed)."""
        with self._lock:
            return next(iter(self._versions), None)

    def loaded_names(self) -> List[str]:
        """Record ids whose engines are resident *and staying* — records
        marked for deferred unload/eviction are excluded so the serving layer
        retires them (releasing the leases that pin them)."""
        with self._lock:
            return [name for name, record in self._records.items()
                    if record.loaded and record.pending is None]

    # ------------------------------------------------------------------ #
    # Engine checkout
    # ------------------------------------------------------------------ #
    def get_engine(self, name: str) -> BundleEngine:
        """Resident engine for ``name``, loading (and possibly evicting) as
        needed.  Unleased: prefer :meth:`acquire` when the engine will be
        held across requests."""
        _, engine = self._checkout(name, add_ref=False)
        return engine

    def acquire(self, name: str) -> EngineLease:
        """Checkout with a refcount: the engine cannot be dropped until the
        returned lease is released."""
        record, engine = self._checkout(name, add_ref=True)
        return EngineLease(self, record, engine)

    def _checkout(self, name: str, add_ref: bool):
        """Resolve → (load if needed, outside the lock) → bump LRU/refs.

        Engine construction can take seconds for a real bundle; holding the
        registry lock for it would stall every other model's resolution (and
        the whole serving plane behind it).  A ``loading`` flag plus a
        condition makes concurrent checkouts of the same record share one
        load instead.
        """
        with self._cond:
            while True:
                record = self._resolve_record(name)   # re-resolve: undeploy races
                if record.engine is not None:
                    return self._checkout_resident(record, add_ref)
                if not record.loading:
                    record.loading = True
                    break
                self._cond.wait(0.05)
        engine = None
        try:
            engine = self._engine_factory(record.path)
        finally:
            with self._cond:
                record.loading = False
                if engine is not None:
                    record.engine = engine
                    record.total_values = engine.bundle.total_values()
                    record.loads += 1
                    self._checkout_resident(record, add_ref)
                self._cond.notify_all()
        return record, engine

    def _checkout_resident(self, record: RegisteredModel, add_ref: bool):
        """LRU/refcount bookkeeping for a resident engine (lock held)."""
        record.last_used = time.monotonic()
        record.pending = None          # re-use cancels any deferred drop
        if add_ref:
            record.refs += 1
        self._evict_over_budget(keep=record)
        return record, record.engine

    def _release(self, record: RegisteredModel) -> None:
        with self._lock:
            record.refs = max(record.refs - 1, 0)
            if record.refs == 0 and record.pending is not None:
                if record.engine is not None and record.pending == "evict":
                    self.evictions_total += 1
                record.engine = None
                record.pending = None

    def unload(self, name: str) -> bool:
        """Drop the resident engine for ``name`` (stays registered).

        With live leases the drop is deferred until the last release; returns
        ``True`` when an engine was (or will be) dropped."""
        with self._lock:
            try:
                record = self._resolve_record(name)
            except KeyError:
                return False
            if record.engine is None:
                return False
            if record.refs > 0:
                record.pending = "unload"
            else:
                record.engine = None
                record.pending = None
            return True

    def resident_values(self) -> int:
        with self._lock:
            return sum(record.total_values for record in self._records.values()
                       if record.loaded)

    def _evict_over_budget(self, keep: RegisteredModel) -> None:
        """LRU-evict resident engines past the budget (lock held).

        Leased engines cannot be dropped mid-request: they are marked
        ``pending="evict"`` (counted as freed here, dropped at last release —
        the serving layer notices via :meth:`loaded_names` and retires them).
        """
        if self.max_total_values is None:
            return
        resident = [record for record in self._records.values()
                    if record.loaded and record is not keep
                    and record.pending is None]
        resident.sort(key=lambda record: record.last_used)
        total = sum(record.total_values for record in resident)
        total += keep.total_values
        total += sum(record.total_values for record in self._records.values()
                     if record.loaded and record.pending is not None)
        for record in resident:
            if total <= self.max_total_values:
                break
            if record.refs > 0:
                record.pending = "evict"
            else:
                record.engine = None
                self.evictions_total += 1
            total -= record.total_values
        # Deferred drops keep their pages until release, so the budget can
        # transiently overshoot by the leased engines' footprint — the price
        # of never yanking an engine from under an in-flight batch.

    # ------------------------------------------------------------------ #
    def describe(self) -> Dict[str, object]:
        """JSON-ready listing for the ``/models`` endpoint."""
        with self._lock:
            return {
                "models": [record.describe(
                               active=self._active.get(record.base) == record.version)
                           for record in self._records.values()],
                "active": {base: format_versioned(base, version)
                           for base, version in self._active.items()},
                "resident_values": self.resident_values(),
                "max_total_values": self.max_total_values,
                "evictions": self.evictions_total,
            }
