"""Deployment bundles: export the CAM contents of a trained PECAN model.

A deployed PECAN layer stores exactly two arrays per layer (Section 3 of the
paper): the prototypes searched by the CAM and the precomputed
weight-prototype products addressed by the match result.  A
:class:`DeploymentBundle` collects those arrays for every PECAN layer of a
model together with the geometry metadata an accelerator needs (kernel size,
stride, padding, group permutation, similarity mode), and round-trips through
a single ``.npz`` file so hardware testbenches can consume it without Python.

Since format version 3 a bundle can additionally carry a serialized
**inference graph**: the :class:`~repro.ir.graph.Graph` recorded by the
tape-based tracer of :mod:`repro.ir.trace` (PECAN layers by reference to
their LUT, conventional layers with their folded parameters, explicit
``add``/``concat`` join nodes for residual and shortcut topologies).  With a
graph embedded, :class:`repro.serve.engine.BundleEngine` reconstructs the
*entire* forward pass from the ``.npz`` alone — no model object, no autograd
— which is what the serving stack runs in production.  Export validates the
graph by replaying it against the model's own forward, then runs the graph
passes of :mod:`repro.ir.passes` (batch norm folded into the PECAN tables,
ReLUs fused) and checks the folded program against the traced one, so the
bundle on disk is the one program every serving path runs.

Format history (all versions load through :func:`load_deployment_bundle`):

* **v1** — LUTs only; not directly servable.
* **v2** — LUTs + a *linear* inference program (a flat step list; only
  sequential models could export).  Loaded v2 programs lift automatically
  into an equivalent chain graph (:func:`repro.ir.graph.lift_linear_program`)
  and serve unchanged.
* **v3** — LUTs + the inference graph with its topological schedule, so any
  traceable topology (ResNet residuals, ConvMixer blocks, option-A
  concatenation shortcuts) exports and serves.

This module is import-lean on the load path: reading a bundle pulls in the
graph IR but no training modules, so a server process stays free of autograd.

Memory-mapped loading
---------------------
``load_deployment_bundle(path, mmap_mode="r")`` serves the bundle's arrays as
**memory maps** instead of heap copies.  A compressed ``.npz`` cannot be
mapped directly (zip members are neither page-aligned nor stored raw), so the
loader materializes a one-time sidecar cache next to the bundle —
``<bundle>.npz.mmap/<version>/`` holding one plain ``.npy`` file per array —
and then opens every array with ``np.load(..., mmap_mode=...)``.  Versions
are keyed on the bundle file's size+mtime and created atomically (extract to
a staging directory, rename into place), so concurrent loaders — e.g. the N
worker processes of :class:`repro.serve.pool.PoolServer` — race safely;
bundles on read-only mounts fall back to a per-bundle directory under the
system temp dir.  Because all workers map the *same* files, the OS shares
the resident LUT/weight pages between them instead of copying them per
process.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cam.layer_lut import LayerLUT
from repro.ir.graph import Graph, GraphError, lift_linear_program
from repro.pecan.config import PECANMode

PathLike = Union[str, Path]

_MANIFEST_KEY = "__deployment_manifest__"
_PROGRAM_PREFIX = "__program__"        # v2 array namespace (read-compat)
_GRAPH_PREFIX = "__graph__"            # v3 array namespace
_FORMAT_VERSION = 3
#: Versions this loader understands.  v1 bundles carry LUTs only (no program),
#: v2 bundles carry a linear program (lifted to a graph at load time).
_SUPPORTED_VERSIONS = (1, 2, 3)

#: Per-layer manifest keys every supported version must provide.
_REQUIRED_LAYER_KEYS = (
    "kind", "mode", "temperature", "kernel_size", "stride", "padding",
    "in_channels", "out_channels", "has_bias", "has_permutation",
)


class BundleFormatError(ValueError):
    """A deployment bundle is malformed, truncated or from an unknown version."""


@dataclass
class DeploymentBundle:
    """All CAM/LUT artifacts of one model, keyed by layer name.

    ``graph`` (format v3, optional) is the recorded inference graph.  Nodes
    that need tensors beyond the LUTs (unconverted conv/linear layers,
    batch-norm statistics, traced constants) carry them in their ``arrays``.
    ``program`` holds the raw linear step list of a legacy v2 bundle (its
    lifted graph is stored in ``graph``).  ``input_shape`` is the per-sample
    shape the program was traced with.  ``passes`` names the graph passes
    export applied to ``graph`` (empty for bundles written before export
    folded batch norm, and for bundles built in memory).
    """

    luts: Dict[str, LayerLUT] = field(default_factory=dict)
    metadata: Dict[str, object] = field(default_factory=dict)
    graph: Optional[Graph] = None
    program: Optional[List[Dict[str, object]]] = None
    input_shape: Optional[Tuple[int, ...]] = None
    passes: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        # Legacy construction path: a bundle built with only a linear program
        # (old v2 in-process API) lifts to a graph automatically.
        if self.graph is None and self.program:
            self.graph = lift_linear_program(self.program)

    @property
    def layer_names(self) -> List[str]:
        return list(self.luts)

    @property
    def has_program(self) -> bool:
        """True when the bundle is servable (carries an inference graph)."""
        return self.graph is not None

    def total_values(self) -> int:
        """Total scalar values stored across prototypes, tables and graph arrays."""
        total = sum(lut.prototypes.size + lut.table.size for lut in self.luts.values())
        if self.graph is not None:
            for node in self.graph.nodes:
                for array in node.arrays.values():
                    total += array.size
        return int(total)

    def is_multiplier_free(self) -> bool:
        """True when every exported layer uses the distance (PECAN-D) mode."""
        return _multiplier_free(self.luts)


# --------------------------------------------------------------------------- #
# Graph tracing (export side; imports the training stack lazily)
# --------------------------------------------------------------------------- #
def trace_inference_graph(model, input_shape: Sequence[int]) -> Graph:
    """Record the inference graph of ``model`` for one per-sample input shape.

    Thin wrapper over :func:`repro.ir.trace.trace_graph` (tape-based DAG
    tracing through autograd, replacing the old linear recorder).  Residual
    additions and channel concatenations trace as explicit join nodes;
    untraceable models raise :class:`repro.ir.trace.GraphTraceError` naming
    every offending module and the supported-op list.
    """
    from repro.ir.trace import trace_graph

    return trace_graph(model, input_shape)


def export_deployment_bundle(model, path: PathLike,
                             metadata: Optional[Dict[str, object]] = None,
                             input_shape: Optional[Sequence[int]] = None) -> Path:
    """Build the LUTs of every PECAN layer in ``model`` and write them to ``path``.

    When ``input_shape`` (per-sample, e.g. ``(1, 28, 28)``) is given, the
    model's inference graph is traced and embedded so the bundle alone can
    drive :class:`repro.serve.engine.BundleEngine`.  Before the bundle is
    written:

    * the traced graph is replayed against the model's own forward
      (bitwise for multiplier-free bundles); an untraceable model raises
      ``ValueError`` (:class:`repro.ir.trace.GraphTraceError`) naming the
      offending modules instead of exporting a silently wrong program;
    * :func:`repro.ir.passes.optimize_graph` folds batch norm into the
      preceding PECAN tables (or conv/linear weights) and fuses ReLUs, and
      the folded program is checked against the traced one on the same
      probe — bitwise when only exact passes applied, ``atol=1e-8`` once
      ``fold_batchnorm`` did.  A mismatch raises.

    The bundle stores the folded graph and LUTs, and its manifest lists the
    applied passes (:attr:`DeploymentBundle.passes`).
    """
    from repro.cam.lut import build_model_luts

    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz") if path.suffix else path.with_suffix(".npz")
    luts = build_model_luts(model)
    if not luts:
        raise ValueError("model contains no PECAN layers; nothing to export")

    graph = None
    passes: List[str] = []
    if input_shape is not None:
        input_shape = tuple(int(s) for s in input_shape)
        graph = trace_inference_graph(model, input_shape)
        traced_pecan = set(graph.pecan_layers())
        if traced_pecan != set(luts):
            raise ValueError(
                f"traced graph exercises PECAN layers {sorted(traced_pecan)} but the "
                f"model contains {sorted(luts)}; some PECAN layers never ran on the "
                f"traced input shape {input_shape}, so the bundle cannot be exported "
                f"as a servable program")
        probe = np.random.default_rng(0).standard_normal((2, *input_shape))
        traced = _verify_graph(model, luts, graph, probe)
        graph, luts, passes = _fold_graph(luts, graph, probe, traced)

    arrays: Dict[str, np.ndarray] = {}
    manifest: Dict[str, object] = {
        "format_version": _FORMAT_VERSION,
        "layers": {},
        "user": metadata or {},
        "input_shape": list(input_shape) if input_shape is not None else None,
        "graph": None,
        "graph_output": None,
        "passes": passes,
    }
    for name, lut in luts.items():
        arrays[f"{name}/prototypes"] = lut.prototypes
        arrays[f"{name}/table"] = lut.table
        if lut.bias is not None:
            arrays[f"{name}/bias"] = lut.bias
        if lut.group_permutation is not None:
            arrays[f"{name}/permutation"] = lut.group_permutation
        manifest["layers"][name] = {
            "kind": lut.kind,
            "mode": lut.mode.value,
            "temperature": lut.temperature,
            "kernel_size": lut.kernel_size,
            "stride": lut.stride,
            "padding": lut.padding,
            "in_channels": lut.in_channels,
            "out_channels": lut.out_channels,
            "has_bias": lut.bias is not None,
            "has_permutation": lut.group_permutation is not None,
        }
    if graph is not None:
        entries, graph_arrays = graph.to_manifest()
        manifest["graph"] = entries
        manifest["graph_output"] = graph.output_id
        for key, array in graph_arrays.items():
            arrays[f"{_GRAPH_PREFIX}/{key}"] = array

    arrays[_MANIFEST_KEY] = np.frombuffer(json.dumps(manifest).encode("utf-8"), dtype=np.uint8)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, **arrays)
    return path


def _replay(luts, graph: Graph, probe: np.ndarray):
    """Run ``graph`` on ``probe`` with throwaway fused LUT runtimes.

    Returns the output and, per PECAN layer, a copy of the input it read.
    """
    from repro.cam.counters import OpCounter
    from repro.cam.runtime import LUTLayerRuntime
    from repro.ir.executor import GraphExecutor

    counter = OpCounter()
    layer_inputs: Dict[str, np.ndarray] = {}

    def recording(name: str, runtime: LUTLayerRuntime):
        def run(x: np.ndarray) -> np.ndarray:
            layer_inputs[name] = np.array(x)
            return runtime(x)
        return run

    runtimes = {name: recording(name, LUTLayerRuntime(lut, counter))
                for name, lut in luts.items()}
    return GraphExecutor(graph, runtimes).run(probe), layer_inputs


def _multiplier_free(luts) -> bool:
    return all(lut.mode is PECANMode.DISTANCE for lut in luts.values())


def _verify_graph(model, luts, graph, probe):
    """Replay the traced graph and compare against the model's own forward.

    The oracle is :meth:`CAMInferenceEngine.predict_via_module` — Algorithm 1
    through the *live* model forward with only the PECAN layers swapped for
    their LUT runtimes, never through the traced graph.  Comparing the
    bundle replay against the graph-executing engine would be circular: a
    mis-trace (a forward that smuggles input-dependent values past the trace
    hooks, which the tracer then freezes as constants) would replay
    identically on both sides and export a silently wrong program.  Against
    the module forward it diverges on the random probe and is rejected here.
    Returns what :func:`_replay` returned.
    """
    from repro.cam.inference import CAMInferenceEngine

    replay = _replay(luts, graph, probe)
    expected = CAMInferenceEngine(model).predict_via_module(probe)
    close = (np.array_equal(replay[0], expected) if _multiplier_free(luts)
             else np.allclose(replay[0], expected, atol=1e-8))
    if not close:
        raise ValueError(
            "replaying the traced inference graph does not reproduce the "
            "model's own forward pass; the model must perform an operation "
            "the tracer cannot capture (e.g. math smuggled through fresh "
            "arrays) — export without input_shape to write a LUT-only bundle")
    return replay


def _fold_graph(luts, graph: Graph, probe: np.ndarray, traced):
    """Run the graph passes and check the folded program on ``probe``.

    ``traced`` is :func:`_replay` of the traced graph on ``probe``.  The
    output *and* the input of every PECAN layer must match: a PECAN-D
    network's logits are table rows picked by argmin, so for an untrained
    network they can hide a wrong fold that the layer inputs still show.  The
    check is bitwise when only exact passes applied to a multiplier-free
    bundle, and ``atol=1e-8`` (no relative slack) once ``fold_batchnorm``
    reassociated the arithmetic.  Returns ``(graph, luts, applied pass names)``.
    """
    from repro.ir.passes import optimize_graph

    folded, folded_luts, info = optimize_graph(graph, luts)
    output, layer_inputs = _replay(folded_luts, folded, probe)
    pairs = [(output, traced[0])] + [(value, traced[1][name])
                                     for name, value in layer_inputs.items()]
    if info["exact"] and _multiplier_free(luts):
        close = all(np.array_equal(a, b) for a, b in pairs)
    else:
        close = all(np.allclose(a, b, rtol=0.0, atol=1e-8) for a, b in pairs)
    if not close:
        raise ValueError(
            f"the graph passes {info['applied']} changed the traced "
            f"program's output or a PECAN layer's input on the verification "
            f"probe; refusing to export the folded program")
    return folded, folded_luts, list(info["applied"])


# --------------------------------------------------------------------------- #
# Loading (deployment side; no training imports)
# --------------------------------------------------------------------------- #
def _manifest_from_archive(archive, path: Path) -> Dict[str, object]:
    if _MANIFEST_KEY not in archive.files:
        raise BundleFormatError(f"{path} is not a repro deployment bundle "
                                f"(missing {_MANIFEST_KEY!r})")
    try:
        manifest = json.loads(bytes(archive[_MANIFEST_KEY].tobytes()).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise BundleFormatError(f"{path}: deployment manifest is corrupt: {exc}") from exc
    if not isinstance(manifest, dict):
        raise BundleFormatError(f"{path}: deployment manifest must be a JSON object")
    version = manifest.get("format_version")
    if version not in _SUPPORTED_VERSIONS:
        raise BundleFormatError(
            f"{path}: unsupported deployment bundle format version {version!r}; "
            f"this build reads versions {list(_SUPPORTED_VERSIONS)} "
            f"(re-export the bundle with the current repro.io)")
    if not isinstance(manifest.get("layers"), dict) or not manifest["layers"]:
        raise BundleFormatError(f"{path}: manifest has no 'layers' table")
    return manifest


def _archive_array(archive, key: str, path: Path) -> np.ndarray:
    if key not in archive.files:
        raise BundleFormatError(f"{path}: bundle is missing array {key!r} "
                                f"referenced by its manifest")
    return archive[key]


# --------------------------------------------------------------------------- #
# Memory-mapped array cache (one .npy per array, shared across processes)
# --------------------------------------------------------------------------- #
_CACHE_STAMP_NAME = "SOURCE_STAMP"


def bundle_cache_dir(path: PathLike) -> Path:
    """Preferred root of the extraction cache: ``<bundle>.npz.mmap/``.

    :func:`materialize_bundle_cache` falls back to
    :func:`_fallback_cache_dir` when this sidecar location is unusable (the
    bundle lives on a read-only mount, e.g. a container image layer) — mmap
    page sharing only needs every process to open the *same* files, wherever
    they live.
    """
    path = Path(path)
    return path.with_name(path.name + ".mmap")


def _fallback_cache_dir(path: Path) -> Path:
    import hashlib

    digest = hashlib.sha1(str(path.resolve()).encode("utf-8")).hexdigest()[:16]
    return (Path(tempfile.gettempdir()) / "repro-bundle-cache"
            / f"{path.name}.{digest}")


def _cache_stamp(path: Path) -> str:
    stat = path.stat()
    return f"size={stat.st_size} mtime_ns={stat.st_mtime_ns} cache=1"


def materialize_bundle_cache(path: PathLike, refresh: bool = False) -> Path:
    """Extract every array of bundle ``path`` into its mmap cache directory.

    Returns the cache directory holding one plain ``.npy`` per bundle array.
    The cache is **versioned by source stamp** (size + mtime of the ``.npz``):
    each version is a subdirectory of :func:`bundle_cache_dir` (or of the
    temp-dir fallback when the sidecar is unwritable) that is extracted into
    a staging directory and atomically renamed into place, so

    * a re-exported bundle gets a fresh version (stale versions are pruned
      best-effort),
    * concurrent extractors — the N workers of a serving pool — race safely:
      whoever renames first wins and everyone else adopts that directory,
    * a version directory's existence implies it is complete.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"deployment bundle not found: {path}")
    stamp = _cache_stamp(path)
    version = stamp.replace(" ", "_").replace("=", "-")
    roots = (bundle_cache_dir(path), _fallback_cache_dir(path))
    if not refresh:
        for root in roots:
            if (root / version).is_dir():
                return root / version
    last_error: Optional[OSError] = None
    for root in roots:
        cache = root / version
        try:
            root.mkdir(parents=True, exist_ok=True)
            staging = Path(tempfile.mkdtemp(prefix=version + ".", dir=str(root)))
        except OSError as exc:
            last_error = exc                   # unwritable root: try fallback
            continue
        try:
            with np.load(path, allow_pickle=False) as archive:
                for key in archive.files:
                    target = staging / (key + ".npy")
                    target.parent.mkdir(parents=True, exist_ok=True)
                    np.save(target, archive[key])
            (staging / _CACHE_STAMP_NAME).write_text(stamp)
            if refresh and cache.is_dir():
                shutil.rmtree(cache, ignore_errors=True)
            try:
                os.rename(staging, cache)
            except OSError:
                if not cache.is_dir():         # not just "a concurrent winner"
                    raise
                shutil.rmtree(staging, ignore_errors=True)
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        # Best-effort prune of stale versions — but only while this
        # extractor's view of the bundle is still current: if the bundle was
        # re-exported mid-extraction, a concurrent loader may have installed
        # a *newer* version that must survive.  Current-version entries (the
        # winning cache and any concurrent extractor's staging, which shares
        # the version prefix) are always left alone; unlinking files another
        # process still maps is safe on POSIX — existing maps stay valid.
        try:
            still_current = _cache_stamp(path) == stamp
        except OSError:
            still_current = False
        if still_current:
            for entry in root.iterdir():
                if not entry.name.startswith(version):
                    shutil.rmtree(entry, ignore_errors=True)
        return cache
    raise last_error


def _cache_array(cache: Path, key: str, path: Path, mmap_mode: str) -> np.ndarray:
    npy = cache / (key + ".npy")
    if not npy.exists():
        raise BundleFormatError(f"{path}: bundle is missing array {key!r} "
                                f"referenced by its manifest")
    return np.load(npy, mmap_mode=mmap_mode, allow_pickle=False)


# --------------------------------------------------------------------------- #
# Manifest interpretation (shared by the eager and memory-mapped loaders)
# --------------------------------------------------------------------------- #
_Fetch = Callable[[str], np.ndarray]


def _load_v2_program(fetch: _Fetch, manifest, path: Path) -> List[Dict[str, object]]:
    """Parse a v2 linear step list (with its ``__program__`` array table)."""
    program = []
    for index, entry in enumerate(manifest["program"]):
        if "op" not in entry:
            raise BundleFormatError(
                f"{path}: program step {index} is missing its 'op' key")
        step = {key: value for key, value in entry.items() if key != "array_keys"}
        step["arrays"] = {
            key: fetch(f"{_PROGRAM_PREFIX}/{index}/{key}")
            for key in entry.get("array_keys", [])}
        program.append(step)
    return program


def _load_v3_graph(fetch: _Fetch, manifest, path: Path) -> Graph:
    """Deserialize and validate a v3 inference graph."""
    if manifest.get("graph_output") is None:
        raise BundleFormatError(f"{path}: graph manifest has no 'graph_output'")

    def lookup(node_id: int, key: str) -> np.ndarray:
        return fetch(f"{_GRAPH_PREFIX}/{node_id}/{key}")

    try:
        return Graph.from_manifest(manifest["graph"], manifest["graph_output"],
                                   lookup)
    except GraphError as exc:
        raise BundleFormatError(f"{path}: invalid inference graph: {exc}") from exc


def _bundle_from_manifest(manifest: Dict[str, object], fetch: _Fetch,
                          path: Path) -> DeploymentBundle:
    """Assemble a :class:`DeploymentBundle`, pulling arrays through ``fetch``."""
    luts: Dict[str, LayerLUT] = {}
    for name, info in manifest["layers"].items():
        missing = [key for key in _REQUIRED_LAYER_KEYS if key not in info]
        if missing:
            raise BundleFormatError(
                f"{path}: layer {name!r} manifest entry is missing keys {missing}")
        try:
            mode = PECANMode.parse(info["mode"])
        except ValueError as exc:
            raise BundleFormatError(f"{path}: layer {name!r}: {exc}") from exc
        luts[name] = LayerLUT(
            name=name,
            kind=info["kind"],
            mode=mode,
            prototypes=fetch(f"{name}/prototypes"),
            table=fetch(f"{name}/table"),
            bias=fetch(f"{name}/bias") if info["has_bias"] else None,
            temperature=info["temperature"],
            kernel_size=info["kernel_size"],
            stride=info["stride"],
            padding=info["padding"],
            in_channels=info["in_channels"],
            out_channels=info["out_channels"],
            group_permutation=(fetch(f"{name}/permutation")
                               if info["has_permutation"] else None),
        )
    graph = None
    program = None
    if manifest.get("graph"):
        graph = _load_v3_graph(fetch, manifest, path)
    elif manifest.get("program"):
        program = _load_v2_program(fetch, manifest, path)
        try:
            graph = lift_linear_program(program)
        except GraphError as exc:
            raise BundleFormatError(
                f"{path}: cannot lift v2 linear program: {exc}") from exc
    if graph is not None:
        unknown = [name for name in graph.pecan_layers() if name not in luts]
        if unknown:
            raise BundleFormatError(
                f"{path}: inference program references unknown PECAN "
                f"layer(s) {sorted(set(unknown))}")
    input_shape = (tuple(manifest["input_shape"])
                   if manifest.get("input_shape") else None)
    return DeploymentBundle(luts=luts, metadata=manifest.get("user", {}),
                            graph=graph, program=program, input_shape=input_shape,
                            passes=list(manifest.get("passes") or []))


def load_deployment_bundle(path: PathLike,
                           mmap_mode: Optional[str] = None) -> DeploymentBundle:
    """Read a bundle written by :func:`export_deployment_bundle`.

    Format-v2 bundles (linear programs) load via the automatic lift-to-graph
    path and serve exactly as before; v1 bundles load LUT-only (servable only
    after re-export with an ``input_shape``).

    With ``mmap_mode`` (typically ``"r"``) every array is served as a
    read-only memory map of the sidecar cache built by
    :func:`materialize_bundle_cache` instead of a heap copy.  Array *values*
    are bitwise-identical to an eager load; the difference is purely where
    the bytes live — in file-backed pages the OS shares across every process
    mapping the same bundle.

    Raises
    ------
    FileNotFoundError
        If ``path`` does not exist.
    BundleFormatError
        If the file is not a bundle, its manifest is corrupt, its format
        version is unknown, a per-layer entry misses required keys, an array
        referenced by the manifest is absent from the archive, or the
        embedded inference graph is structurally invalid.  (A subclass of
        ``ValueError``.)
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"deployment bundle not found: {path}")
    if mmap_mode is not None:
        cache = materialize_bundle_cache(path)
        with np.load(path, allow_pickle=False) as archive:
            manifest = _manifest_from_archive(archive, path)
        return _bundle_from_manifest(
            manifest, lambda key: _cache_array(cache, key, path, mmap_mode), path)
    with np.load(path, allow_pickle=False) as archive:
        manifest = _manifest_from_archive(archive, path)
        return _bundle_from_manifest(
            manifest, lambda key: _archive_array(archive, key, path), path)
