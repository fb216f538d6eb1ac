"""Lookup-only inference engine (Algorithm 1 of the paper).

:class:`CAMInferenceEngine` executes a trained PECAN model the way the
deployed hardware would:

* every PECAN layer is replaced by (1) a CAM prototype search over its
  codebooks and (2) a read-and-accumulate over the precomputed lookup table
  ``Y^(j) = W₁^(j) C^(j)``;
* every other module (ReLU, pooling, batch-norm, residual additions) runs its
  normal forward pass;
* an :class:`~repro.cam.verify.OpCounter` tallies the arithmetic performed on
  the PECAN path so the multiplier-free property of PECAN-D can be verified
  dynamically.

For PECAN-D the per-position work is ``2·p·d`` additions for the search plus
``cout`` additions for accumulating the ``D`` looked-up columns; for PECAN-A
it is ``p·d`` multiply-adds for the scores plus ``p·cout`` multiply-adds for
the weighted sum — exactly the Table 1 complexity model.

Execution strategy
------------------
The engine is a thin executor over the graph IR of :mod:`repro.ir`: the
model's forward pass is traced once per input shape into a
:class:`~repro.ir.graph.Graph` (tape-based, so residual additions and channel
concatenations of e.g. ``repro.models.resnet`` record exactly) and replayed
by a :class:`~repro.ir.executor.GraphExecutor` whose ``pecan`` nodes dispatch
into :class:`repro.cam.runtime.LUTLayerRuntime` — the same autograd-free
kernels the bundle-backed serving engine of :mod:`repro.serve` runs.  Inside
each runtime the layer's codebooks are stacked into one ``(D, d, p)`` array
and its lookup table into one ``(D, cout, p)`` array, PECAN-D prefers the
compiled single-pass kernel of :mod:`repro.perf.ckernels` with
``cdist``/NumPy fallbacks, PECAN-A runs as batched GEMMs, and the ``L``
position axis is streamed through a :class:`~repro.perf.ChunkPolicy` so peak
memory stays bounded; ``predict`` can additionally stream the batch axis.
The original per-group loop is kept as
:meth:`~repro.cam.runtime.LUTLayerRuntime._run_groups_reference` and every
fast path is verified element-wise against it in the test suite.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.cam.counters import OpCounter
from repro.cam.lut import LayerLUT, build_layer_lut
from repro.cam.runtime import LUTLayerRuntime, RuntimeStatsMixin
from repro.ir.executor import GraphExecutor
from repro.nn.module import Module
from repro.pecan.convert import pecan_layers
from repro.perf import ChunkPolicy, Workspace, iter_slices


class CAMInferenceEngine(RuntimeStatsMixin):
    """Run a PECAN model in deployment (lookup-only) mode.

    Parameters
    ----------
    model:
        A model containing PECAN layers (any mixture with conventional layers
        is allowed; only the PECAN layers are routed through the CAM path).
    chunk_policy:
        Memory budget for the fused kernels' broadcasted transients; the
        position axis of every layer is streamed in chunks that respect it.
        Defaults to :data:`repro.perf.chunking.DEFAULT_MAX_BYTES`.
    use_fused:
        Select the vectorized fast path (default) or the per-group reference
        loop, fixed for the engine's lifetime.  Both produce identical
        outputs and statistics, which come from one static model: every
        layer charges its :func:`~repro.cam.counters.pecan_position_cost`
        per output position and counts prototype usage from the winners.
    """

    def __init__(self, model: Module, chunk_policy: Optional[ChunkPolicy] = None,
                 use_fused: bool = True):
        self.model = model
        self.op_counter = OpCounter()
        self.chunk_policy = chunk_policy if chunk_policy is not None else ChunkPolicy()
        self.workspace = Workspace()
        self.runtimes: Dict[str, LUTLayerRuntime] = {}
        self._layers: Dict[str, Module] = {}
        for name, layer in pecan_layers(model):
            lut = build_layer_lut(layer, name=name)
            self._layers[name] = layer
            self.runtimes[name] = LUTLayerRuntime(lut, self.op_counter,
                                                  chunk_policy=self.chunk_policy,
                                                  workspace=self.workspace,
                                                  use_fused=use_fused)
        #: One compiled executor per per-sample input shape (traced lazily).
        self._executors: Dict[Tuple[int, ...], GraphExecutor] = {}

    def executor_for(self, input_shape: Tuple[int, ...]) -> GraphExecutor:
        """Compiled graph executor for one per-sample input shape.

        The model is traced on first use (eval mode, training flag restored)
        and the executor cached; subsequent predicts replay the graph without
        touching the model at all.
        """
        input_shape = tuple(int(s) for s in input_shape)
        executor = self._executors.get(input_shape)
        if executor is None:
            from repro.ir.trace import trace_graph
            graph = trace_graph(self.model, input_shape)
            executor = GraphExecutor(graph, self.runtimes)
            self._executors[input_shape] = executor
        return executor

    def _forward_batch(self, inputs: np.ndarray) -> np.ndarray:
        return self.executor_for(inputs.shape[1:]).run(inputs)

    def predict_via_module(self, inputs: np.ndarray) -> np.ndarray:
        """Algorithm 1 through the model's *own* forward pass.

        Temporarily swaps every PECAN layer's forward for its LUT runtime and
        runs the live model in eval mode — no graph tracing involved.  This
        is the trace-independent oracle: export verification compares the
        traced-graph replay against it, so a mis-trace (e.g. a module whose
        forward smuggles input-dependent math past the trace hooks) shows up
        as a divergence instead of being replayed identically on both sides.
        """
        from repro.autograd.tensor import Tensor, no_grad

        inputs = np.asarray(inputs)
        originals = {name: self._layers[name].forward for name in self.runtimes}

        def lut_forward(runtime):
            return lambda x: Tensor(runtime(np.asarray(x.data)))

        was_training = self.model.training
        self.model.eval()
        try:
            for name, runtime in self.runtimes.items():
                self._layers[name].forward = lut_forward(runtime)
            with no_grad():
                return self.model(Tensor(inputs)).data
        finally:
            for name, original in originals.items():
                self._layers[name].forward = original
            self.model.train(was_training)

    def predict(self, inputs: np.ndarray, batch_chunk: Optional[int] = None) -> np.ndarray:
        """Logits for a batch of inputs, computed via Algorithm 1.

        Parameters
        ----------
        inputs:
            Array whose leading axis is the batch.
        batch_chunk:
            When given, the batch is streamed through the model in slices of
            at most this many samples and the logits are concatenated.  In
            eval mode every sample is independent, so the result matches the
            unchunked pass (bitwise on the PECAN-D lookup path; up to BLAS
            round-off for PECAN-A) while peak activation memory scales with
            the chunk instead of the full batch.
        """
        inputs = np.asarray(inputs)
        n = inputs.shape[0]
        if batch_chunk is None or batch_chunk >= n:
            return self._forward_batch(inputs)
        # Each chunk's logits go straight into one output array, so peak
        # memory is the output plus one chunk's activations, never the
        # output twice (a list of parts and their concatenation).
        out = None
        for sl in iter_slices(n, batch_chunk):
            part = self._forward_batch(inputs[sl])
            if out is None:
                out = np.empty((n,) + part.shape[1:], dtype=part.dtype)
            out[sl] = part
        return out

    def predict_classes(self, inputs: np.ndarray,
                        batch_chunk: Optional[int] = None) -> np.ndarray:
        """Predicted class indices."""
        return self.predict(inputs, batch_chunk=batch_chunk).argmax(axis=1)

    def accuracy(self, inputs: np.ndarray, labels: np.ndarray,
                 batch_chunk: Optional[int] = None) -> float:
        """Top-1 accuracy of LUT inference on a labelled batch."""
        predicted = self.predict_classes(inputs, batch_chunk=batch_chunk)
        return float((predicted == np.asarray(labels)).mean())

    def lookup_tables(self) -> Dict[str, LayerLUT]:
        return {name: runtime.lut for name, runtime in self.runtimes.items()}


def lut_inference(model: Module, inputs: np.ndarray,
                  batch_chunk: Optional[int] = None) -> np.ndarray:
    """One-shot convenience wrapper: build an engine and return the logits."""
    return CAMInferenceEngine(model).predict(inputs, batch_chunk=batch_chunk)
