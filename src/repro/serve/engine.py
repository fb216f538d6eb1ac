"""Bundle-backed inference engine: serve a model from its ``.npz`` alone.

The paper's deployment story (Section 3) is that a trained PECAN layer
reduces to two arrays — the CAM prototypes and the precomputed LUT.
:class:`BundleEngine` completes that story in software: it reconstructs a
running engine from an exported :class:`~repro.io.deployment.DeploymentBundle`
(prototypes + LUTs + geometry + recorded inference graph) with **no model
object, no training graph and no autograd import**.  The engine is a thin
wrapper over a :class:`~repro.ir.executor.GraphExecutor`: each ``pecan`` node
runs the same fused :class:`~repro.cam.runtime.LUTLayerRuntime` kernels as
the model-backed :class:`~repro.cam.inference.CAMInferenceEngine`, and every
other node dispatches through the unified op registry of
:mod:`repro.ir.ops`, so the two engines agree element-wise (bitwise on the
PECAN-D lookup path).  Legacy v2 bundles (linear programs) serve through the
automatic lift-to-graph path.

The engine runs the graph the bundle holds, as it is.  Batch-norm folding and
ReLU fusion happen once, at export
(:func:`~repro.io.deployment.export_deployment_bundle`), so the fused, the
reference, the canary and the cached paths all run that one program; bundles
exported before the fold moved there serve their unfolded graph unchanged.
"""

from __future__ import annotations

import dataclasses
import threading
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.cam.counters import OpCounter
from repro.cam.runtime import LUTLayerRuntime, RuntimeStatsMixin
from repro.io.deployment import DeploymentBundle, load_deployment_bundle
from repro.ir.executor import GraphExecutor
from repro.perf import ChunkPolicy, Workspace, iter_slices
from repro.serve.trace import current_context


class BundleEngine(RuntimeStatsMixin):
    """Execute a deployment bundle's recorded inference graph.

    Parameters
    ----------
    bundle:
        A :class:`DeploymentBundle` or a path to its ``.npz`` file.  The
        bundle must carry an inference graph (export with
        ``export_deployment_bundle(..., input_shape=...)``; v2 linear
        programs lift automatically).
    chunk_policy / use_fused:
        Same knobs as :class:`~repro.cam.inference.CAMInferenceEngine`;
        ``use_fused=False`` selects the per-group reference loop (used by the
        serving parity audit), fixed for the engine's lifetime.  Either
        way the ``ops``/``cam`` statistics come from one static model: each
        layer charges its per-position cost
        (:func:`~repro.cam.counters.pecan_position_cost`) per call.
    mmap_mode:
        Forwarded to :func:`~repro.io.deployment.load_deployment_bundle` when
        ``bundle`` is a path: ``"r"`` memory-maps every bundle array from the
        sidecar ``.npz.mmap/`` cache so concurrent worker processes share the
        resident LUT/weight pages instead of copying them.  Ignored when an
        already-loaded :class:`DeploymentBundle` is passed.
    """

    #: Optional :class:`~repro.serve.trace.Tracer`; when set and a trace
    #: context is active on the calling thread, ``predict`` records an
    #: ``engine.predict`` span (the deepest hop of a traced request).
    tracer = None

    def __init__(self, bundle: Union[DeploymentBundle, str, Path],
                 chunk_policy: Optional[ChunkPolicy] = None,
                 use_fused: bool = True,
                 mmap_mode: Optional[str] = None):
        self.mmap_mode = mmap_mode if not isinstance(bundle, DeploymentBundle) else None
        if not isinstance(bundle, DeploymentBundle):
            bundle = load_deployment_bundle(bundle, mmap_mode=mmap_mode)
        if bundle.graph is None:
            raise ValueError(
                "bundle carries no inference program; re-export it with "
                "export_deployment_bundle(model, path, input_shape=...) so a "
                "server can run it without the model")
        self.bundle = bundle
        self.op_counter = OpCounter()
        self.chunk_policy = chunk_policy if chunk_policy is not None else ChunkPolicy()
        self.workspace = Workspace()
        #: Serializes the forward pass: the layer runtimes share one
        #: ``workspace`` and one ``op_counter``, so concurrent callers would
        #: overwrite each other's scratch buffers.  A serving batcher is its
        #: engine's only caller, so the lock is uncontended there.
        self._forward_lock = threading.Lock()
        self.runtimes: Dict[str, LUTLayerRuntime] = {
            name: LUTLayerRuntime(lut, self.op_counter,
                                  chunk_policy=self.chunk_policy,
                                  workspace=self.workspace, use_fused=use_fused)
            for name, lut in bundle.luts.items()}
        self.executor = GraphExecutor(bundle.graph, self.runtimes)

    # ------------------------------------------------------------------ #
    def reference_engine(self) -> "BundleEngine":
        """A per-group reference-loop engine (``use_fused=False``) executing
        the same bundle, so a parity audit compares kernels on one program."""
        return BundleEngine(self.bundle, chunk_policy=self.chunk_policy,
                            use_fused=False)

    @property
    def input_shape(self) -> Optional[Tuple[int, ...]]:
        """Per-sample input shape the program was traced with."""
        return self.bundle.input_shape

    def is_multiplier_free(self) -> bool:
        """True when every scheduled node runs without multiplications.

        Requires every PECAN layer in distance mode *and* no unconverted
        conv/linear/batch-norm/GELU nodes in the graph (the op registry
        labels each lowering).
        """
        return (self.bundle.is_multiplier_free()
                and not self.executor.multiplier_ops())

    def step_names(self) -> List[str]:
        """The scheduled program as a list of op labels (for introspection)."""
        return self.executor.step_labels()

    def kernel_names(self) -> Dict[str, str]:
        """Active kernel implementation per PECAN layer."""
        return {name: runtime.kernel_name for name, runtime in self.runtimes.items()}

    # ------------------------------------------------------------------ #
    def _forward_batch(self, inputs: np.ndarray) -> np.ndarray:
        return self.executor.run(inputs)

    def predict(self, inputs: np.ndarray, batch_chunk: Optional[int] = None) -> np.ndarray:
        """Logits for a batch of inputs, replayed via Algorithm 1.

        Mirrors :meth:`CAMInferenceEngine.predict`, including ``batch_chunk``
        streaming of the batch axis.
        """
        inputs = np.asarray(inputs, dtype=np.float64)
        if self.input_shape is not None and tuple(inputs.shape[1:]) != self.input_shape:
            raise ValueError(f"expected per-sample input shape {self.input_shape}, "
                             f"got {tuple(inputs.shape[1:])}")
        n = inputs.shape[0]
        span = None
        tracer = self.tracer
        if tracer is not None:
            context = current_context()
            if context is not None:
                span = tracer.start_span(
                    "engine.predict", context[0],
                    parent_id=context[1] or None,
                    attrs={"num_samples": int(n),
                           "batch_chunk": batch_chunk})
        try:
            with self._forward_lock:
                if batch_chunk is None or batch_chunk >= n:
                    result = self._forward_batch(inputs)
                else:
                    parts = [self._forward_batch(inputs[sl])
                             for sl in iter_slices(n, batch_chunk)]
                    result = np.concatenate(parts, axis=0)
        except Exception:
            if tracer is not None:
                tracer.finish_span(span, status="error")
            raise
        if tracer is not None:
            tracer.finish_span(span)
        return result

    def predict_classes(self, inputs: np.ndarray,
                        batch_chunk: Optional[int] = None) -> np.ndarray:
        return self.predict(inputs, batch_chunk=batch_chunk).argmax(axis=1)

    # ------------------------------------------------------------------ #
    def stats_snapshot(self) -> Dict[str, object]:
        """JSON-ready engine statistics for the ``/metrics`` endpoint."""
        return {
            "ops": self.op_counter.summary(),
            "multiplier_free": self.is_multiplier_free(),
            "cam": dataclasses.asdict(self.cam_stats()),
            "kernels": self.kernel_names(),
            "stored_values": self.bundle.total_values(),
            "mmap_mode": self.mmap_mode,
            "optimization": list(self.bundle.passes),
        }
