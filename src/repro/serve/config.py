"""Layered serving configuration — one typed tree for every serving knob.

Ten PRs of serving features each grew the ``PECANServer`` / ``PoolServer``
constructors and the ``repro-pecan serve`` flag list by hand, and the three
copies (constructor kwargs, CLI flags, worker-process plumbing) had started
to drift.  This module replaces all of that with a single layered dataclass
tree:

* :class:`ServeConfig` — the ONE constructor argument for
  :class:`~repro.serve.server.PECANServer`,
  and :class:`~repro.serve.pool.PoolServer`.  Sections:
  ``net`` / ``engine`` / ``pool`` / ``qos`` / ``cache`` / ``trace`` /
  ``lifecycle`` / ``autoscale``.
* **Flag generation** — every ``repro-pecan serve`` flag is generated from
  the field metadata (:func:`add_serve_arguments`), so a flag and its config
  field can never drift: adding a field adds the flag, its ``--help`` text
  and its row in the generated reference table (:func:`config_reference_table`)
  in one place.
* **Round trips** — ``argv`` ⇄ config (:func:`serve_config_from_args` /
  :func:`serve_config_to_args`) and JSON ⇄ config (:func:`to_json_dict` /
  :func:`from_json_dict`), plus ``--config serve.json`` support with
  *defaults < config file < explicit flags* precedence.

Field metadata convention (shared with :class:`~repro.serve.qos.QoSConfig`,
which lives in :mod:`repro.serve.qos` and is reused as the ``qos`` section
verbatim): each dataclass field carries ``metadata={"serve": {...}}`` with

``flag``
    the CLI option string (``"--max_queue"``), or ``None`` for a field only
    settable through a config file / programmatically (e.g. per-tenant maps);
``parse``
    the argparse ``type`` callable (``int`` / ``float`` / ``str``) — omitted
    for boolean switches;
``help``
    the ``--help`` text (doubles as the reference-table description);
``choices`` / ``metavar`` / ``repeatable`` / ``invert``
    optional: value choices, display metavar, ``action="append"`` flags
    (tuple-valued fields), and negated switches (``--no_mmap`` stores *False*
    into a field whose default is *True*).

Fields without ``"serve"`` metadata are a hard error at import of the flag
table — that is the no-drift guarantee the tests pin down.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import (Any, Dict, Iterator, List, Mapping, Optional, Sequence,
                    Tuple)

from repro.serve.qos import QoSConfig

__all__ = [
    "AutoscaleConfig",
    "CacheConfig",
    "EngineConfig",
    "FlagSpec",
    "LifecycleConfig",
    "NetConfig",
    "PoolConfig",
    "ServeConfig",
    "TraceConfig",
    "add_serve_arguments",
    "cfgfield",
    "config_reference_table",
    "flag_specs",
    "from_json_dict",
    "iter_serve_fields",
    "load_config_file",
    "serve_config_from_args",
    "serve_config_to_args",
    "to_json_dict",
]


def cfgfield(default: Any = dataclasses.MISSING, *,
             factory: Any = None,
             flag: Optional[str] = "",
             parse: Any = None,
             help: str = "",                          # noqa: A002
             choices: Optional[Sequence[Any]] = None,
             metavar: Optional[str] = None,
             repeatable: bool = False,
             invert: bool = False) -> Any:
    """A ``dataclasses.field`` carrying serve-flag metadata.

    ``flag=""`` (the default) auto-derives ``--<field_name>``; ``flag=None``
    makes the field config-file-only.
    """
    serve = {"flag": flag, "parse": parse, "help": help, "choices": choices,
             "metavar": metavar, "repeatable": repeatable, "invert": invert}
    if factory is not None:
        return field(default_factory=factory, metadata={"serve": serve})
    return field(default=default, metadata={"serve": serve})


# --------------------------------------------------------------------------- #
# Sections
# --------------------------------------------------------------------------- #
@dataclass
class NetConfig:
    """The network front end (:mod:`repro.serve.netfront`)."""

    host: str = cfgfield("127.0.0.1", parse=str, help="bind address")
    port: int = cfgfield(8080, parse=int,
                         help="bind port (0 picks a free port)")
    max_connections: int = cfgfield(
        512, parse=int,
        help="open-connection budget for the eventloop front end; "
             "connections beyond it are answered 503 + Retry-After at "
             "accept time")
    idle_timeout_s: float = cfgfield(
        30.0, parse=float,
        help="close keep-alive connections with no in-flight request after "
             "this long (eventloop front end)")
    request_read_timeout_s: float = cfgfield(
        10.0, parse=float,
        help="408-and-close a connection whose request head/body has not "
             "fully arrived after this long — the slowloris guard "
             "(eventloop front end)")
    io_threads: int = cfgfield(
        32, parse=int,
        help="bounded app-thread bridge size for the eventloop front end")


@dataclass
class EngineConfig:
    """Batching + engine execution knobs (per server / per pool worker)."""

    max_batch_size: int = cfgfield(
        32, parse=int, help="sample budget per coalesced micro-batch")
    max_queue_depth: int = cfgfield(
        256, flag="--max_queue", parse=int,
        help="bounded queue depth; overflow is rejected with 429")
    request_timeout_s: float = cfgfield(
        30.0, flag="--timeout_s", parse=float, help="per-request deadline")
    batch_chunk: Optional[int] = cfgfield(
        None, parse=int,
        help="stream coalesced batches through the engine in slices of this "
             "many samples")
    audit_every: int = cfgfield(
        0, parse=int,
        help="re-run 1/N batches through the reference loop and count "
             "mismatches (0 disables)")
    max_total_values: Optional[int] = cfgfield(
        None, parse=int,
        help="LRU-evict engines beyond this many resident CAM values")
    mmap: bool = cfgfield(
        True, flag="--no_mmap", invert=True,
        help="load bundle arrays eagerly instead of memory-mapping the "
             "extracted .npy cache (mmap shares resident LUT pages across "
             "pool workers)")
    hardware_hz: Optional[float] = cfgfield(
        None, flag="--emulate_hardware_hz", parse=float,
        help="pace every batch to the latency a CAM accelerator at this "
             "clock would need (paper Section 4.3 cost model); for capacity "
             "planning and scaling benchmarks")

    @property
    def mmap_mode(self) -> Optional[str]:
        """The numpy ``mmap_mode`` string the loaders expect."""
        return "r" if self.mmap else None


@dataclass
class PoolConfig:
    """The worker-process pool and its router (:mod:`repro.serve.pool`)."""

    workers: int = cfgfield(
        1, parse=int,
        help="data-parallel worker processes; >1 starts the router + "
             "process pool (repro.serve.pool) instead of a single "
             "in-process server")
    policy: str = cfgfield(
        "least_outstanding", parse=str,
        choices=("round_robin", "least_outstanding", "cache_affinity"),
        help="pool routing policy (with --workers > 1); cache_affinity pins "
             "identical inputs to one worker by canonical input hash")
    heartbeat_interval_s: float = cfgfield(
        0.25, parse=float, help="worker heartbeat cadence (pool mode)")
    heartbeat_timeout_s: float = cfgfield(
        3.0, parse=float,
        help="heartbeat silence after which a worker is declared hung and "
             "respawned (pool mode)")
    start_timeout_s: float = cfgfield(
        60.0, parse=float,
        help="how long a spawning worker may take to report ready before it "
             "is declared failed (pool mode)")
    proxy_retries: int = cfgfield(
        2, parse=int,
        help="router retries of a proxied request on *another* worker after "
             "a connection failure (never after an in-flight timeout)")
    proxy_timeout_s: float = cfgfield(
        60.0, parse=float,
        help="router-side socket timeout per proxied worker request")
    start_method: str = cfgfield(
        "spawn", flag=None,
        help="multiprocessing start method for worker processes "
             "(config-file only)")


@dataclass
class CacheConfig:
    """The deterministic response cache (:mod:`repro.serve.cache`)."""

    cache_mb: float = cfgfield(
        64.0, parse=float,
        help="deterministic response-cache budget in MiB, 0 disables the "
             "cache and in-flight request coalescing (PECAN-D inference is "
             "bitwise deterministic, so exact result caching + in-flight "
             "coalescing is provably lossless); namespaced per "
             "model@version and invalidated on promote/rollback/undeploy")
    cache_check_every: int = cfgfield(
        64, parse=int,
        help="cache-parity audit rate (pool only): re-execute one cache hit "
             "in N through a worker engine and compare bitwise — divergence "
             "is a cache_parity runtime-verification violation (1 checks "
             "every hit, 0 disables)")


@dataclass
class TraceConfig:
    """Distributed tracing + runtime verification (trace / invariants)."""

    trace_dir: Optional[str] = cfgfield(
        None, parse=str,
        help="export spans as otel-style JSONL files "
             "(trace-<service>-<pid>.jsonl) under this directory; analyse "
             "with `repro-pecan trace`")
    enabled: bool = cfgfield(
        True, flag="--no_trace", invert=True,
        help="disable distributed tracing entirely (spans, /trace endpoint, "
             "JSONL export)")
    trace_ring: int = cfgfield(
        2048, parse=int,
        help="bounded in-memory span ring size per process")
    invariant_every: int = cfgfield(
        16, parse=int,
        help="runtime-verification sampling rate: check one response in N "
             "for finite logits / stable shape / retry-stable argmax "
             "(1 checks everything, 0 disables)")


@dataclass
class LifecycleConfig:
    """What to serve and how to load it (registry / deployments)."""

    bundles: Tuple[str, ...] = cfgfield(
        factory=tuple, flag="--bundle", parse=str, repeatable=True,
        metavar="[NAME=]PATH",
        help="deployment bundle .npz to serve; repeatable; NAME defaults to "
             "the file stem")
    preload: bool = cfgfield(
        True, flag="--lazy_load", invert=True,
        help="load bundles on first request instead of at startup")


@dataclass
class AutoscaleConfig:
    """The elastic worker-pool control loop (:mod:`repro.serve.autoscale`).

    Scale-up triggers on sustained admission pressure (router waiting room
    relative to ready capacity, or p99 against the QoS SLO when one is set);
    scale-down triggers after an idle dwell.  All decisions respect the
    crash-loop breaker and the ``[min_workers, max_workers]`` envelope.
    """

    enabled: bool = cfgfield(
        False, flag="--autoscale",
        help="grow/shrink the worker pool from observed queue depth and "
             "latency (pool mode); bounds via --min_workers/--max_workers")
    min_workers: Optional[int] = cfgfield(
        None, parse=int,
        help="autoscale floor (default: 0 with --scale_to_zero, else 1)")
    max_workers: Optional[int] = cfgfield(
        None, parse=int,
        help="autoscale ceiling (default: the starting --workers count)")
    up_queue_per_worker: float = cfgfield(
        4.0, flag="--scale_up_queue", parse=float,
        help="router waiting-room depth per ready worker that counts as "
             "scale-up pressure")
    up_dwell_s: float = cfgfield(
        1.0, flag="--scale_up_dwell_s", parse=float,
        help="how long pressure must be sustained before adding a worker")
    down_idle_s: float = cfgfield(
        10.0, flag="--scale_down_idle_s", parse=float,
        help="how long the pool must be idle below capacity before "
             "retiring a worker")
    cooldown_s: float = cfgfield(
        5.0, flag="--scale_cooldown_s", parse=float,
        help="minimum time between scaling actions (either direction)")
    scale_to_zero: bool = cfgfield(
        False,
        help="allow the pool to retire every worker when idle; the first "
             "request triggers an mmap-backed cold start and waits for it")
    cold_start_timeout_s: float = cfgfield(
        30.0, parse=float,
        help="how long a request arriving at an empty (scaled-to-zero) "
             "pool waits for the cold-started worker before 503")
    probe_timeout_s: float = cfgfield(
        5.0, parse=float,
        help="readiness-probe budget: a spawned worker joins the rotation "
             "only after answering /healthz within this long")

    def floor(self) -> int:
        if self.min_workers is not None:
            return max(0 if self.scale_to_zero else 1, self.min_workers)
        return 0 if self.scale_to_zero else 1

    def ceiling(self, start_workers: int) -> int:
        ceiling = (self.max_workers if self.max_workers is not None
                   else start_workers)
        return max(ceiling, self.floor(), 1)


@dataclass
class ServeConfig:
    """Every serving knob, layered by subsystem.

    ``PECANServer(config=ServeConfig(...))`` (and the same for
    ``PoolServer``) is the one construction path.  :meth:`build` offers a
    flat convenience spelling for tests and scripts:
    ``ServeConfig.build(port=0, workers=4)``.
    """

    net: NetConfig = field(default_factory=NetConfig)
    engine: EngineConfig = field(default_factory=EngineConfig)
    pool: PoolConfig = field(default_factory=PoolConfig)
    qos: QoSConfig = field(default_factory=QoSConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)
    trace: TraceConfig = field(default_factory=TraceConfig)
    lifecycle: LifecycleConfig = field(default_factory=LifecycleConfig)
    autoscale: AutoscaleConfig = field(default_factory=AutoscaleConfig)

    @classmethod
    def build(cls, **flat: Any) -> "ServeConfig":
        """Construct from flat field names: ``ServeConfig.build(port=0)``.

        Dotted names (``"trace.enabled"``) disambiguate the few field names
        that appear in more than one section.
        """
        config = cls()
        index = _flat_field_index()
        for name, value in flat.items():
            if "." in name:
                section_name, _, field_name = name.partition(".")
                sections = dict(SECTION_ORDER)
                if section_name not in sections or field_name not in {
                        f.name for f in fields(sections[section_name])}:
                    raise TypeError(f"unknown config field {name!r}")
                target = (section_name, field_name)
            else:
                hits = index.get(name)
                if not hits:
                    raise TypeError(f"unknown config field {name!r}")
                if len(hits) > 1:
                    options = ", ".join(f"{target[0]}.{name}"
                                        for target, _ in hits)
                    raise TypeError(
                        f"ambiguous config field {name!r}; use a dotted "
                        f"name: {options}")
                target = hits[0][0][0], name
            section_name, field_name = target
            setattr(getattr(config, section_name), field_name, value)
        return config

    def replace(self, **flat: Any) -> "ServeConfig":
        """A copy with flat/dotted overrides applied (sections deep-copied)."""
        merged = from_json_dict(to_json_dict(self))
        merged.qos = dataclasses.replace(self.qos)
        override = ServeConfig.build(**flat)
        for name, value in flat.items():
            if "." in name:
                section_name, _, field_name = name.partition(".")
            else:
                section_name = _flat_field_index()[name][0][0][0]
                field_name = name
            setattr(getattr(merged, section_name), field_name,
                    getattr(getattr(override, section_name), field_name))
        return merged


#: Section traversal order — also the --help group order and the row order of
#: the generated reference table.
SECTION_ORDER: Tuple[Tuple[str, type], ...] = (
    ("net", NetConfig),
    ("engine", EngineConfig),
    ("pool", PoolConfig),
    ("qos", QoSConfig),
    ("cache", CacheConfig),
    ("trace", TraceConfig),
    ("lifecycle", LifecycleConfig),
    ("autoscale", AutoscaleConfig),
)


# --------------------------------------------------------------------------- #
# Flag table (generated from field metadata)
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class FlagSpec:
    """One generated flag: the bridge between a config field and argparse."""

    section: str
    name: str                     # field name on the section dataclass
    flag: Optional[str]           # option string, None = config-file only
    dest: Optional[str]           # argparse dest (derived from the flag)
    parse: Any                    # argparse type callable (None for bools)
    help: str
    choices: Optional[Tuple[Any, ...]]
    metavar: Optional[str]
    repeatable: bool
    invert: bool
    is_bool: bool
    default: Any                  # the *field* default

    @property
    def argparse_default(self) -> Any:
        """What ``parse_args`` yields when the flag is absent."""
        if self.repeatable:
            return None                       # append-action sentinel
        if self.invert or (self.is_bool and self.default is False):
            return False
        return self.default

    def to_field_value(self, parsed: Any) -> Any:
        if self.repeatable:
            return tuple(parsed or ())
        if self.invert:
            return not parsed
        return parsed


def _section_default(section_cls: type, f: dataclasses.Field) -> Any:
    if f.default is not dataclasses.MISSING:
        return f.default
    return f.default_factory()                # type: ignore[misc]


def flag_specs(section: str, section_cls: type) -> List[FlagSpec]:
    """The generated flag table for one section (hard error on bare fields)."""
    specs: List[FlagSpec] = []
    for f in fields(section_cls):
        meta = f.metadata.get("serve")
        if meta is None:
            raise TypeError(
                f"{section_cls.__name__}.{f.name} has no 'serve' field "
                f"metadata — every config field must declare its flag (or "
                f"flag=None for config-file-only fields)")
        flag = meta.get("flag", "")
        if flag == "":
            flag = f"--{f.name}"
        default = _section_default(section_cls, f)
        parse = meta.get("parse")
        is_bool = parse is None and isinstance(default, bool)
        specs.append(FlagSpec(
            section=section,
            name=f.name,
            flag=flag,
            dest=None if flag is None else flag.lstrip("-").replace("-", "_"),
            parse=parse,
            help=meta.get("help", ""),
            choices=tuple(meta["choices"]) if meta.get("choices") else None,
            metavar=meta.get("metavar"),
            repeatable=bool(meta.get("repeatable")),
            invert=bool(meta.get("invert")),
            is_bool=is_bool,
            default=default,
        ))
    return specs


def iter_serve_fields() -> Iterator[Tuple[str, FlagSpec]]:
    """Yield ``(section_name, spec)`` over every field of every section."""
    for section_name, section_cls in SECTION_ORDER:
        for spec in flag_specs(section_name, section_cls):
            yield section_name, spec


def _flat_field_index() -> Dict[str, List[Tuple[Tuple[str, str], Any]]]:
    index: Dict[str, List[Tuple[Tuple[str, str], Any]]] = {}
    for section_name, section_cls in SECTION_ORDER:
        for f in fields(section_cls):
            index.setdefault(f.name, []).append(
                ((section_name, f.name), section_cls))
    return index


# --------------------------------------------------------------------------- #
# argparse generation + argv round trip
# --------------------------------------------------------------------------- #
def add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    """Install every generated serve flag (plus ``--config``) on ``parser``."""
    parser.add_argument(
        "--config", default=None, metavar="PATH",
        help="load a full ServeConfig from a JSON file (sections -> fields, "
             "see the README config reference); explicit flags override the "
             "file, the file overrides the built-in defaults")
    seen: Dict[str, str] = {}
    for section_name, section_cls in SECTION_ORDER:
        group = parser.add_argument_group(f"{section_name} options")
        for spec in flag_specs(section_name, section_cls):
            if spec.flag is None:
                continue
            if spec.dest in seen:
                raise TypeError(
                    f"flag {spec.flag} of {section_name}.{spec.name} "
                    f"collides with section {seen[spec.dest]}")
            seen[spec.dest] = section_name
            if spec.repeatable:
                group.add_argument(spec.flag, action="append", default=None,
                                   metavar=spec.metavar, help=spec.help)
            elif spec.invert or spec.is_bool:
                group.add_argument(spec.flag, action="store_true",
                                   help=spec.help)
            else:
                group.add_argument(spec.flag, type=spec.parse,
                                   default=spec.default, choices=spec.choices,
                                   metavar=spec.metavar, help=spec.help)


def serve_config_from_args(args: argparse.Namespace) -> ServeConfig:
    """Build a :class:`ServeConfig` from a parsed ``serve`` namespace.

    Precedence: built-in defaults < ``--config`` file < flags.  A flag is
    treated as explicit when its parsed value differs from the generated
    default (re-passing a flag *at* its default is a no-op, which is
    harmless: the value is the same).
    """
    config_path = getattr(args, "config", None)
    config = load_config_file(config_path) if config_path else ServeConfig()
    for section_name, spec in iter_serve_fields():
        if spec.dest is None or not hasattr(args, spec.dest):
            continue
        parsed = getattr(args, spec.dest)
        if parsed == spec.argparse_default:
            continue
        setattr(getattr(config, section_name), spec.name,
                spec.to_field_value(parsed))
    return config


def _format_argv_value(value: Any) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def serve_config_to_args(config: ServeConfig) -> List[str]:
    """Render ``config`` as the minimal ``repro-pecan serve`` argv tail.

    Only non-default fields are emitted; parsing the result back
    (:func:`serve_config_from_args`) reproduces ``config`` exactly — the
    round trip the property tests pin down.  Config-file-only fields (no
    flag) raise when set away from their default, since argv cannot express
    them.
    """
    argv: List[str] = []
    for section_name, spec in iter_serve_fields():
        value = getattr(getattr(config, section_name), spec.name)
        if value == spec.default:
            continue
        if spec.flag is None:
            raise ValueError(
                f"{section_name}.{spec.name}={value!r} has no CLI flag; use "
                f"a --config file for it")
        if spec.invert:
            if value is False:
                argv.append(spec.flag)
        elif spec.is_bool:
            if value:
                argv.append(spec.flag)
        elif spec.repeatable:
            for item in value:
                argv += [spec.flag, _format_argv_value(item)]
        elif value is None:
            raise ValueError(
                f"{section_name}.{spec.name}=None cannot be expressed as a "
                f"flag (the default is {spec.default!r}); use a --config "
                f"file for it")
        else:
            argv += [spec.flag, _format_argv_value(value)]
    return argv


# --------------------------------------------------------------------------- #
# JSON round trip + --config files
# --------------------------------------------------------------------------- #
def to_json_dict(config: ServeConfig) -> Dict[str, Dict[str, Any]]:
    """``{section: {field: value}}`` with JSON-clean values (tuples→lists)."""
    out: Dict[str, Dict[str, Any]] = {}
    for section_name, section_cls in SECTION_ORDER:
        section = getattr(config, section_name)
        entry: Dict[str, Any] = {}
        for f in fields(section_cls):
            value = getattr(section, f.name)
            if isinstance(value, tuple):
                value = list(value)
            elif isinstance(value, Mapping):
                value = dict(value)
            entry[f.name] = value
        out[section_name] = entry
    return out


def from_json_dict(data: Mapping[str, Any]) -> ServeConfig:
    """Rebuild a :class:`ServeConfig` from :func:`to_json_dict` output.

    Unknown sections or fields raise ``ValueError`` naming the offender —
    a typo in a ``--config`` file must not be silently ignored.
    """
    sections = dict(SECTION_ORDER)
    config = ServeConfig()
    for section_name, entry in data.items():
        if section_name not in sections:
            raise ValueError(
                f"unknown config section {section_name!r}; expected one of "
                f"{sorted(sections)}")
        if not isinstance(entry, Mapping):
            raise ValueError(f"config section {section_name!r} must be an "
                             f"object, got {type(entry).__name__}")
        section_cls = sections[section_name]
        known = {f.name: f for f in fields(section_cls)}
        section = getattr(config, section_name)
        for field_name, value in entry.items():
            if field_name not in known:
                raise ValueError(
                    f"unknown field {section_name}.{field_name}; expected "
                    f"one of {sorted(known)}")
            current = getattr(section, field_name)
            if isinstance(current, tuple) and isinstance(value, list):
                value = tuple(value)
            setattr(section, field_name, value)
    return config


def load_config_file(path: Any) -> ServeConfig:
    """Parse a ``--config serve.json`` file."""
    text = Path(path).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {path} is not valid JSON: {exc}") \
            from None
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must hold a JSON object of "
                         f"sections")
    return from_json_dict(data)


# --------------------------------------------------------------------------- #
# Generated reference table (README)
# --------------------------------------------------------------------------- #
def config_reference_table() -> str:
    """The markdown config reference: section → field → flag → default."""
    lines = ["| Section | Field | Flag | Default | What it does |",
             "|---|---|---|---|---|"]
    for section_name, spec in iter_serve_fields():
        flag = f"`{spec.flag}`" if spec.flag else "*(config file only)*"
        default = "" if spec.default == () else repr(spec.default)
        summary = spec.help.split(";")[0].split(" — ")[0].strip()
        lines.append(f"| {section_name} | `{spec.name}` | {flag} "
                     f"| `{default}` | {summary} |")
    return "\n".join(lines) + "\n"
