"""The static cost model and per-layer operation counters of Algorithm 1.

The central hardware claim of PECAN-D is that inference uses **zero
multiplications** (Section 3.2 / Table 1).  :func:`pecan_position_cost` is the
one home of the paper's per-position formula: both the analytic counts of
:mod:`repro.hardware.opcount` and the counts the inference runtimes charge per
call derive from it.  The module is import-lean (training-free) so the
model-based engine (:mod:`repro.cam.inference`) and the bundle-backed serving
engine (:mod:`repro.serve`) account identically.  The model-level helpers that
*interpret* the counts (tracing a model, checking for unconverted layers) stay
in :mod:`repro.cam.verify`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple, Union

from repro.cam.cam_array import CAMEnergyModel
from repro.pecan.config import PECANMode


@dataclass(frozen=True)
class PositionCost:
    """Cost of one output position of a PECAN layer, over all ``D`` groups."""

    additions: int
    multiplications: int
    comparisons: int
    lookups: int
    searches: int
    matchline_evaluations: int
    cell_operations: int
    energy: float


def pecan_position_cost(mode: Union[PECANMode, str], p: int, num_groups: int,
                        subvector_dim: int, cout: int) -> PositionCost:
    """Table 1 arithmetic (no bias additions) plus one CAM search per group.

    The search energy is priced by the default
    :class:`~repro.cam.cam_array.CAMEnergyModel` (Section 4.3).
    """
    mode = PECANMode.parse(mode)
    if mode is PECANMode.DISTANCE:      # l1 search, then D looked-up columns
        arithmetic = (num_groups * (2 * p * subvector_dim + cout), 0,
                      num_groups * p, num_groups * cout)
    else:                               # scores, then a p-column weighted sum
        macs = num_groups * p * (subvector_dim + cout)
        arithmetic = (macs, macs, 0, num_groups * p * cout)
    return PositionCost(
        *arithmetic, searches=num_groups,
        matchline_evaluations=num_groups * p,
        cell_operations=num_groups * p * subvector_dim,
        energy=num_groups * CAMEnergyModel().search_energy(mode, p, subvector_dim))


@dataclass
class LayerOpCount:
    """Operations executed by one layer during a traced inference pass."""

    name: str
    kind: str
    additions: int = 0
    multiplications: int = 0
    comparisons: int = 0
    lookups: int = 0

    def total(self) -> int:
        return self.additions + self.multiplications + self.comparisons + self.lookups


@dataclass
class OpCounter:
    """Aggregates per-layer operation counts for one traced inference pass."""

    layers: Dict[str, LayerOpCount] = field(default_factory=dict)

    def layer(self, name: str, kind: str) -> LayerOpCount:
        if name not in self.layers:
            self.layers[name] = LayerOpCount(name=name, kind=kind)
        return self.layers[name]

    def _snapshot(self) -> List[LayerOpCount]:
        # list(dict.values()) is atomic under the GIL: metrics readers on
        # other threads must never race a RuntimeError out of an engine
        # worker inserting a new layer entry mid-iteration.
        return list(self.layers.values())

    @property
    def additions(self) -> int:
        return sum(layer.additions for layer in self._snapshot())

    @property
    def multiplications(self) -> int:
        return sum(layer.multiplications for layer in self._snapshot())

    @property
    def comparisons(self) -> int:
        return sum(layer.comparisons for layer in self._snapshot())

    @property
    def lookups(self) -> int:
        return sum(layer.lookups for layer in self._snapshot())

    def is_multiplier_free(self) -> bool:
        return self.multiplications == 0

    def summary(self) -> Dict[str, int]:
        return {
            "additions": self.additions,
            "multiplications": self.multiplications,
            "comparisons": self.comparisons,
            "lookups": self.lookups,
        }

    def per_layer_table(self) -> List[Tuple[str, str, int, int]]:
        """Rows ``(name, kind, additions, multiplications)`` in insertion order."""
        return [(l.name, l.kind, l.additions, l.multiplications) for l in self._snapshot()]


class MultiplierUsageError(AssertionError):
    """Raised when a supposedly multiplier-free inference used multiplications."""
