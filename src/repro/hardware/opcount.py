"""Analytic inference operation counts (Table 1 of the paper).

Closed-form addition / multiplication counts for the baseline CNN layers, the
two PECAN variants and the AdderNet comparator, plus a model-level counter
that walks a network, captures every compute layer's input/output geometry via
a shape-tracing forward pass, and applies the formulas.

The Table 1 formulas (per layer, per input image):

=================  ==========================================  =======================
method             additions                                   multiplications
=================  ==========================================  =======================
baseline CONV      ``cin·Hout·Wout·k²·cout``                    same as additions
baseline FC        ``cin·cout``                                 same as additions
PECAN-A CONV       ``p·D·Hout·Wout·(d + cout)``                 same as additions
PECAN-A FC         ``p·D·(d + cout)``                           same as additions
PECAN-D CONV       ``D·Hout·Wout·(2·p·d + cout)``               0
PECAN-D FC         ``D·(2·p·d + cout)``                         0
AdderNet CONV      ``2·cin·Hout·Wout·k²·cout``                  0
=================  ==========================================  =======================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.autograd.tensor import Tensor, no_grad
from repro.cam.counters import pecan_position_cost
from repro.nn.layers import Conv2d, Linear
from repro.nn.module import Module
from repro.pecan.config import PECANMode
from repro.pecan.layers import PECANConv2d, PECANLinear


@dataclass(frozen=True)
class OpCount:
    """Addition / multiplication counts (per inference of one input image)."""

    additions: int
    multiplications: int

    def __add__(self, other: "OpCount") -> "OpCount":
        return OpCount(self.additions + other.additions,
                       self.multiplications + other.multiplications)

    def scaled(self, factor: float) -> "OpCount":
        return OpCount(int(round(self.additions * factor)),
                       int(round(self.multiplications * factor)))

    @property
    def total(self) -> int:
        return self.additions + self.multiplications

    def human(self) -> str:
        """Format counts the way the paper's tables do (K / M / G suffixes)."""
        return f"#Add {format_count(self.additions)}, #Mul {format_count(self.multiplications)}"


def format_count(value: float, unit: Optional[str] = None) -> str:
    """Human-readable operation count (``2.00M``, ``0.61G``, ``248.10K``).

    ``unit`` forces a specific suffix (``"K"``, ``"M"`` or ``"G"``) — the
    paper's tables pick the unit per model family (VGG rows in G, ResNet rows
    in M), so the benches pass it explicitly to match the published strings.
    """
    scales = {"K": 1e3, "M": 1e6, "G": 1e9}
    if unit is not None:
        return f"{value / scales[unit.upper()]:.2f}{unit.upper()}"
    if value >= 1e9:
        return f"{value / 1e9:.2f}G"
    if value >= 1e6:
        return f"{value / 1e6:.2f}M"
    if value >= 1e3:
        return f"{value / 1e3:.2f}K"
    return f"{value:.0f}"


ZERO_OPS = OpCount(0, 0)


# --------------------------------------------------------------------------- #
# Closed-form per-layer counts
# --------------------------------------------------------------------------- #
def conv_baseline_ops(cin: int, cout: int, kernel_size: int, hout: int, wout: int) -> OpCount:
    """Baseline im2col convolution: ``cin·Hout·Wout·k²·cout`` MACs."""
    macs = cin * hout * wout * kernel_size * kernel_size * cout
    return OpCount(additions=macs, multiplications=macs)


def fc_baseline_ops(in_features: int, out_features: int) -> OpCount:
    """Baseline fully-connected layer: ``cin·cout`` MACs."""
    macs = in_features * out_features
    return OpCount(additions=macs, multiplications=macs)


def pecan_conv_ops(mode: PECANMode, p: int, num_groups: int, subvector_dim: int,
                   cout: int, hout: int, wout: int) -> OpCount:
    """PECAN convolution ops per Table 1 (both variants)."""
    cost = pecan_position_cost(mode, p, num_groups, subvector_dim, cout)
    positions = hout * wout
    return OpCount(additions=positions * cost.additions,
                   multiplications=positions * cost.multiplications)


def pecan_fc_ops(mode: PECANMode, p: int, num_groups: int, subvector_dim: int,
                 out_features: int) -> OpCount:
    """PECAN fully-connected ops per Table 1 (an FC layer is a 1×1 CONV)."""
    return pecan_conv_ops(mode, p, num_groups, subvector_dim, out_features, 1, 1)


def addernet_conv_ops(cin: int, cout: int, kernel_size: int, hout: int, wout: int) -> OpCount:
    """AdderNet convolution: the l1 template matching costs two additions per MAC."""
    macs = cin * hout * wout * kernel_size * kernel_size * cout
    return OpCount(additions=2 * macs, multiplications=0)


def addernet_fc_ops(in_features: int, out_features: int) -> OpCount:
    """AdderNet fully-connected layer (l1 matching)."""
    macs = in_features * out_features
    return OpCount(additions=2 * macs, multiplications=0)


def max_prototypes_for_reduction(cout: int, subvector_dim: int, lam: float = 0.5) -> int:
    """Largest ``p`` keeping PECAN-A cheaper than the baseline (Section 3.3).

    The paper's constraint is ``p ≤ min(λ·cout, (1−λ)·d)`` for some
    ``λ ∈ (0, 1)``.
    """
    if not 0.0 < lam < 1.0:
        raise ValueError("lam must lie strictly between 0 and 1")
    return int(min(lam * cout, (1.0 - lam) * subvector_dim))


# --------------------------------------------------------------------------- #
# Model-level counting
# --------------------------------------------------------------------------- #
@dataclass
class LayerOpRecord:
    """One compute layer's geometry and analytic op count."""

    name: str
    kind: str                  # "conv", "fc", "pecan_conv", "pecan_fc"
    ops: OpCount
    output_hw: Tuple[int, int]
    detail: Dict[str, int] = field(default_factory=dict)


@dataclass
class ModelOpReport:
    """Per-layer and aggregate op counts for one model / input geometry."""

    model_name: str
    records: List[LayerOpRecord] = field(default_factory=list)

    @property
    def total(self) -> OpCount:
        total = ZERO_OPS
        for record in self.records:
            total = total + record.ops
        return total

    @property
    def additions(self) -> int:
        return self.total.additions

    @property
    def multiplications(self) -> int:
        return self.total.multiplications

    def as_rows(self) -> List[Tuple[str, str, str, str]]:
        """Rows ``(layer, kind, #Add, #Mul)`` formatted like the paper's tables."""
        return [(r.name, r.kind, format_count(r.ops.additions), format_count(r.ops.multiplications))
                for r in self.records]


def count_layer_ops(module: Module, hout: int, wout: int) -> Optional[LayerOpRecord]:
    """Analytic op count for one layer given its output spatial size."""
    if isinstance(module, PECANConv2d):
        p, d_groups, dim = module.pq_shape()
        ops = pecan_conv_ops(module.config.mode, p, d_groups, dim,
                             module.out_channels, hout, wout)
        return LayerOpRecord("", "pecan_conv", ops, (hout, wout),
                             {"p": p, "D": d_groups, "d": dim, "cout": module.out_channels})
    if isinstance(module, PECANLinear):
        p, d_groups, dim = module.pq_shape()
        ops = pecan_fc_ops(module.config.mode, p, d_groups, dim, module.out_features)
        return LayerOpRecord("", "pecan_fc", ops, (1, 1),
                             {"p": p, "D": d_groups, "d": dim, "cout": module.out_features})
    if isinstance(module, Conv2d):
        ops = conv_baseline_ops(module.in_channels, module.out_channels,
                                module.kernel_size, hout, wout)
        return LayerOpRecord("", "conv", ops, (hout, wout),
                             {"cin": module.in_channels, "cout": module.out_channels,
                              "k": module.kernel_size})
    if isinstance(module, Linear):
        ops = fc_baseline_ops(module.in_features, module.out_features)
        return LayerOpRecord("", "fc", ops, (1, 1),
                             {"cin": module.in_features, "cout": module.out_features})
    return None


def count_model_ops(model: Module, input_shape: Tuple[int, int, int],
                    model_name: str = "", addernet: bool = False) -> ModelOpReport:
    """Trace a forward pass to capture layer geometries and apply Table 1 formulas.

    Parameters
    ----------
    model:
        Any mixture of conventional and PECAN layers.
    input_shape:
        ``(C, H, W)`` of a single input image.
    addernet:
        Count conventional Conv2d/Linear layers with the AdderNet formulas
        instead of the baseline MAC formulas (used for Table 5).
    """
    report = ModelOpReport(model_name=model_name or type(model).__name__)
    compute_layers = [(name, module) for name, module in model.named_modules()
                      if isinstance(module, (Conv2d, Linear, PECANConv2d, PECANLinear))]
    captured: Dict[int, Tuple[int, int]] = {}
    originals = {}

    def wrap(module: Module):
        original = module.forward

        def traced(x, _module=module, _original=original):
            out = _original(x)
            if out.ndim == 4:
                captured[id(_module)] = (out.shape[2], out.shape[3])
            else:
                captured[id(_module)] = (1, 1)
            return out

        return original, traced

    for _, module in compute_layers:
        original, traced = wrap(module)
        originals[id(module)] = original
        module.forward = traced

    was_training = model.training
    model.eval()
    try:
        with no_grad():
            model(Tensor(np.zeros((1,) + tuple(input_shape))))
    finally:
        model.train(was_training)
        for _, module in compute_layers:
            module.forward = originals[id(module)]

    for name, module in compute_layers:
        hout, wout = captured.get(id(module), (1, 1))
        record = count_layer_ops(module, hout, wout)
        if record is None:
            continue
        record.name = name
        if addernet and record.kind == "conv":
            record.ops = addernet_conv_ops(module.in_channels, module.out_channels,
                                           module.kernel_size, hout, wout)
            record.kind = "adder_conv"
        elif addernet and record.kind == "fc":
            record.ops = addernet_fc_ops(module.in_features, module.out_features)
            record.kind = "adder_fc"
        report.records.append(record)
    return report
