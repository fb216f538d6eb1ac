"""Optimization passes over inference graphs, run once at export.

:func:`repro.io.deployment.export_deployment_bundle` is the one caller of
:func:`optimize_graph`: it folds the traced graph, checks the folded program
against the traced one on a probe, and writes only the folded program, so
every serving path runs it.  Each pass takes (and returns) a
:class:`~repro.ir.graph.Graph` plus the LUT dictionary of the bundle being
exported, never mutating its inputs: nodes are shallow-copied and modified
arrays/LUTs are rebuilt, so the traced graph stays available for that check.

Available passes (see :data:`DEFAULT_PASSES` for the pipeline order):

``fold_batchnorm`` (**approximate**)
    Folds a ``batchnorm`` node into its single producing ``conv``/``linear``
    (weights and bias rescaled, Section 4.2 of the paper) or ``pecan`` node
    (the LUT columns and bias are rescaled — for PECAN-D this removes the
    per-position BN multiplications entirely, restoring the multiplier-free
    property).  The algebra is exact, but float rounding reassociates, so
    the export check holds it to ``atol=1e-8`` rather than bitwise.

``fuse_relu`` (**exact**)
    Merges a ``relu`` into its single producer (``conv``/``linear``/
    ``batchnorm``/``pecan``/``add``) as a ``fused_relu`` attribute; the kernel
    applies the identical ``np.maximum`` afterwards, so outputs are bitwise
    unchanged.

``eliminate_identities`` (**exact**)
    Rewires consumers of ``identity`` nodes to the identity's input.

``eliminate_dead_nodes`` (**exact**)
    Drops nodes unreachable from the output (:meth:`Graph.pruned`).

:func:`optimize_graph` chains the passes and reports which ones changed the
graph and whether every applied pass was exact — callers use that to pick the
right parity tolerance (bitwise vs ``allclose``).
"""

from __future__ import annotations

from dataclasses import replace as dataclass_replace
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.cam.layer_lut import LayerLUT
from repro.ir.graph import Graph

LutDict = Dict[str, LayerLUT]

#: Pipeline order; BN folding runs first so the freed ReLUs/identities are
#: cleaned up by the later passes.
DEFAULT_PASSES = ("fold_batchnorm", "fuse_relu", "eliminate_identities",
                  "eliminate_dead_nodes")

#: Passes whose output is bitwise-identical to their input graph.
EXACT_PASSES = frozenset({"fuse_relu", "eliminate_identities",
                          "eliminate_dead_nodes"})

#: Node ops a trailing ReLU may fuse into.
_RELU_FUSABLE = frozenset({"conv", "linear", "batchnorm", "pecan", "add"})


def _copy_graph(graph: Graph) -> Graph:
    return Graph(nodes=[node.copy() for node in graph.nodes],
                 output_id=graph.output_id)


def _single_consumer(graph: Graph) -> Dict[int, Optional[int]]:
    """Map node id -> its sole consumer's id (``None`` when 0 or >1)."""
    table = graph.consumers()
    return {nid: (users[0] if len(users) == 1 else None)
            for nid, users in table.items()}


# --------------------------------------------------------------------------- #
# Passes
# --------------------------------------------------------------------------- #
def fold_batchnorm(graph: Graph, luts: LutDict) -> Tuple[Graph, LutDict, bool]:
    """Fold eval-mode batch-norm into the preceding conv/linear/pecan node."""
    graph = _copy_graph(graph)
    luts = dict(luts)
    by_id = graph.node_map()
    changed = False
    for bn in list(graph.nodes):
        if bn.op != "batchnorm" or bn.attrs.get("fused_relu"):
            continue
        producer = by_id[bn.inputs[0]]
        if producer.op not in ("conv", "linear", "pecan"):
            continue
        if producer.attrs.get("fused_relu"):
            continue                 # an activation sits between the two
        consumers = graph.consumers()
        if consumers.get(producer.id, []) != [bn.id]:
            continue                 # producer feeds something else too
        mean = np.asarray(bn.arrays["mean"], dtype=np.float64)
        var = np.asarray(bn.arrays["var"], dtype=np.float64)
        gamma = np.asarray(bn.arrays["gamma"], dtype=np.float64)
        beta = np.asarray(bn.arrays["beta"], dtype=np.float64)
        scale = gamma / np.sqrt(var + float(bn.attrs["eps"]))
        shift = beta - mean * scale

        if producer.op == "pecan":
            layer = str(producer.attrs["layer"])
            lut = luts[layer]
            if scale.shape != (lut.out_channels,):
                continue             # BN features do not line up with cout
            bias = lut.bias if lut.bias is not None else np.zeros(lut.out_channels)
            luts[layer] = dataclass_replace(
                lut,
                table=lut.table * scale[None, :, None],
                bias=bias * scale + shift,
                group_permutation=(None if lut.group_permutation is None
                                   else lut.group_permutation.copy()),
            )
        else:
            weight = np.asarray(producer.arrays["weight"], dtype=np.float64)
            if scale.shape != (weight.shape[0],):
                continue
            bias = producer.arrays.get("bias")
            bias = (np.zeros(weight.shape[0]) if bias is None
                    else np.asarray(bias, dtype=np.float64))
            broadcast = (-1,) + (1,) * (weight.ndim - 1)
            producer.arrays = dict(producer.arrays,
                                   weight=weight * scale.reshape(broadcast),
                                   bias=bias * scale + shift)

        # Splice the BN node out: its consumers read the producer directly.
        for node in graph.nodes:
            node.inputs = [producer.id if parent == bn.id else parent
                           for parent in node.inputs]
        if graph.output_id == bn.id:
            graph.output_id = producer.id
        graph.nodes.remove(bn)
        by_id = graph.node_map()
        changed = True
    return graph, luts, changed


def fuse_relu(graph: Graph, luts: LutDict) -> Tuple[Graph, LutDict, bool]:
    """Absorb ``relu`` nodes into their single producer as ``fused_relu``."""
    graph = _copy_graph(graph)
    by_id = graph.node_map()
    changed = False
    for node in list(graph.nodes):
        if node.op != "relu":
            continue
        producer = by_id[node.inputs[0]]
        if producer.op not in _RELU_FUSABLE or producer.attrs.get("fused_relu"):
            continue
        if graph.consumers().get(producer.id, []) != [node.id]:
            continue
        producer.attrs = dict(producer.attrs, fused_relu=True)
        for other in graph.nodes:
            other.inputs = [producer.id if parent == node.id else parent
                            for parent in other.inputs]
        if graph.output_id == node.id:
            graph.output_id = producer.id
        graph.nodes.remove(node)
        by_id = graph.node_map()
        changed = True
    return graph, luts, changed


def eliminate_identities(graph: Graph, luts: LutDict) -> Tuple[Graph, LutDict, bool]:
    """Rewire consumers of ``identity`` nodes straight to their inputs."""
    graph = _copy_graph(graph)
    changed = False
    for node in list(graph.nodes):
        if node.op != "identity" or node.attrs.get("fused_relu"):
            continue
        source = node.inputs[0]
        for other in graph.nodes:
            other.inputs = [source if parent == node.id else parent
                            for parent in other.inputs]
        if graph.output_id == node.id:
            graph.output_id = source
        graph.nodes.remove(node)
        changed = True
    return graph, luts, changed


def eliminate_dead_nodes(graph: Graph, luts: LutDict) -> Tuple[Graph, LutDict, bool]:
    """Drop nodes unreachable from the output."""
    pruned = graph.pruned()
    return pruned, luts, len(pruned.nodes) != len(graph.nodes)


_PASSES = {
    "fold_batchnorm": fold_batchnorm,
    "fuse_relu": fuse_relu,
    "eliminate_identities": eliminate_identities,
    "eliminate_dead_nodes": eliminate_dead_nodes,
}


def available_passes() -> List[str]:
    return sorted(_PASSES)


def optimize_graph(graph: Graph, luts: LutDict,
                   passes: Iterable[str] = DEFAULT_PASSES
                   ) -> Tuple[Graph, LutDict, Dict[str, object]]:
    """Run ``passes`` in order; returns ``(graph, luts, info)``.

    ``info["applied"]`` lists the passes that changed the graph and
    ``info["exact"]`` is ``True`` when every applied pass preserves bitwise
    output equality (callers then verify with ``array_equal`` instead of
    ``allclose``).
    """
    applied: List[str] = []
    for name in passes:
        try:
            pass_fn = _PASSES[name]
        except KeyError:
            raise ValueError(f"unknown graph pass {name!r}; available: "
                             f"{available_passes()}") from None
        graph, luts, changed = pass_fn(graph, luts)
        if changed:
            applied.append(name)
    graph.validate()
    info = {"applied": applied,
            "exact": all(name in EXACT_PASSES for name in applied)}
    return graph, luts, info
