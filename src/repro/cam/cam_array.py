"""Behavioural model of a content-addressable memory (CAM) macro.

The paper targets platforms with built-in CAM support (FPGAs, RRAM crossbars)
where the prototype search is a single associative-memory operation: the query
subvector is broadcast on the search lines, every stored prototype evaluates
its match line in parallel, and the best match (smallest l1 distance for
PECAN-D, largest dot product for PECAN-A) wins.

This module does not model device physics; it is a *behavioural* simulator
that (1) reproduces the functional result of the search and (2) accounts for
the quantities a hardware designer would track — number of searches, match-line
evaluations, per-cell comparison operations and an energy estimate derived
from per-operation constants.  The defaults for the energy constants follow
the paper's Intel VIA Nano accounting convention (an absolute-difference cell
costs one addition, a multiply-accumulate cell costs one multiplication plus
one addition, and multiplication is 4× the energy of addition).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.pecan.config import PECANMode


@dataclass
class CAMEnergyModel:
    """Per-operation energy constants (arbitrary units, addition = 1)."""

    add_energy: float = 1.0
    multiply_energy: float = 4.0
    compare_energy: float = 0.25     # match-line comparison / winner-take-all per candidate
    lookup_energy: float = 0.5       # one table-entry read

    def search_energy(self, mode: PECANMode, num_prototypes: int, dim: int) -> float:
        """Energy of matching one subvector against a codebook of ``p`` prototypes."""
        if mode is PECANMode.DISTANCE:
            # |x - c| per cell (one subtraction) plus the row sum (d-1 additions),
            # then a winner-take-all comparison across the p match lines.
            per_line = dim * self.add_energy + (dim - 1) * self.add_energy
            return num_prototypes * per_line + num_prototypes * self.compare_energy
        # Angle mode: a multiply-accumulate per cell plus the softmax normalization
        # (approximated as one multiply + one add per prototype).
        per_line = dim * (self.multiply_energy + self.add_energy)
        softmax_cost = num_prototypes * (self.multiply_energy + self.add_energy)
        return num_prototypes * per_line + softmax_cost

    def lookup_accumulate_energy(self, mode: PECANMode, num_prototypes: int,
                                 out_features: int) -> float:
        """Energy of producing one output group contribution from the LUT."""
        if mode is PECANMode.DISTANCE:
            return out_features * (self.lookup_energy + self.add_energy)
        return out_features * num_prototypes * (self.lookup_energy + self.multiply_energy
                                                + self.add_energy)


@dataclass
class CAMStats:
    """Counters accumulated by a :class:`CAMArray` across queries."""

    searches: int = 0
    matchline_evaluations: int = 0
    cell_operations: int = 0
    energy: float = 0.0

    def merge(self, other: "CAMStats") -> "CAMStats":
        return CAMStats(
            searches=self.searches + other.searches,
            matchline_evaluations=self.matchline_evaluations + other.matchline_evaluations,
            cell_operations=self.cell_operations + other.cell_operations,
            energy=self.energy + other.energy,
        )


class CAMArray:
    """One CAM bank storing the ``p`` prototypes of a single PQ group.

    ``query`` performs the associative search for a batch of subvectors and
    returns either hard indices (distance mode) or soft attention weights
    (angle mode), updating the usage and energy statistics.
    """

    def __init__(self, prototypes: np.ndarray, mode: PECANMode,
                 temperature: float = 1.0,
                 energy_model: Optional[CAMEnergyModel] = None):
        if prototypes.ndim != 2:
            raise ValueError("prototypes must be a (d, p) array for a single group")
        self.prototypes = np.asarray(prototypes, dtype=np.float64)
        self.mode = PECANMode.parse(mode)
        self.temperature = float(temperature)
        self.energy_model = energy_model if energy_model is not None else CAMEnergyModel()
        self.stats = CAMStats()
        self.usage = np.zeros(self.num_prototypes, dtype=np.int64)

    @property
    def subvector_dim(self) -> int:
        return self.prototypes.shape[0]

    @property
    def num_prototypes(self) -> int:
        return self.prototypes.shape[1]

    def _account(self, num_queries: int) -> None:
        p, d = self.num_prototypes, self.subvector_dim
        self.stats.searches += num_queries
        self.stats.matchline_evaluations += num_queries * p
        self.stats.cell_operations += num_queries * p * d
        self.stats.energy += num_queries * self.energy_model.search_energy(self.mode, p, d)

    def match(self, queries: np.ndarray) -> np.ndarray:
        """Hard winner-take-all match: ``(d, L)`` queries → ``(L,)`` indices."""
        if queries.shape[0] != self.subvector_dim:
            raise ValueError(f"query dimension {queries.shape[0]} does not match "
                             f"prototype dimension {self.subvector_dim}")
        num_queries = queries.shape[1]
        self._account(num_queries)
        if self.mode is PECANMode.DISTANCE:
            distances = np.abs(queries[:, None, :] - self.prototypes[:, :, None]).sum(axis=0)
            winners = distances.argmin(axis=0)
        else:
            scores = self.prototypes.T @ queries
            winners = scores.argmax(axis=0)
        # bincount is a single C pass over the winners — much faster than the
        # np.add.at scatter for large batches, with bitwise-identical counts.
        self.usage += np.bincount(winners, minlength=self.num_prototypes)
        return winners

    def soft_match(self, queries: np.ndarray) -> np.ndarray:
        """Soft attention weights: ``(d, L)`` queries → ``(p, L)`` weights."""
        if self.mode is not PECANMode.ANGLE:
            raise ValueError("soft_match is only defined for angle-mode CAM banks")
        num_queries = queries.shape[1]
        self._account(num_queries)
        scores = (self.prototypes.T @ queries) / self.temperature
        scores -= scores.max(axis=0, keepdims=True)
        weights = np.exp(scores)
        weights /= weights.sum(axis=0, keepdims=True)
        self.usage += np.bincount(weights.argmax(axis=0),
                                  minlength=self.num_prototypes)
        return weights

    def reset_stats(self) -> None:
        self.stats = CAMStats()
        self.usage[:] = 0
