"""Autograd-free execution of Algorithm 1 for a single PECAN layer.

:class:`LUTLayerRuntime` is the deployment kernel of the reproduction: given a
:class:`~repro.cam.layer_lut.LayerLUT` (prototypes + precomputed table +
geometry) it runs the CAM search and LUT accumulation on plain NumPy arrays.
It is shared by two front ends:

* :class:`repro.cam.inference.CAMInferenceEngine` — wraps a live training
  model and swaps each PECAN layer's forward for its runtime;
* :class:`repro.serve.engine.BundleEngine` — reconstructs runtimes straight
  from an exported ``.npz`` deployment bundle, with no model, no autograd and
  no training imports.

The runtime owns two interchangeable kernels:

* the **fused** kernel (default) — one broadcasted search over all groups
  plus a single flat-index gather, chunked over the position axis; PECAN-D
  prefers the compiled single-pass kernel of :mod:`repro.perf.ckernels`,
  bound to the layer's constant arrays at construction.  Given the unpadded
  input it unfolds, searches, accumulates, adds the bias and writes the
  channel-major output in one call, and increments :attr:`usage` itself.
  Without it PECAN-D falls back to scipy's ``cdist`` or a broadcasted l1
  pass; PECAN-A runs as batched GEMMs with an in-place softmax;
* the **reference** kernel — the original Python loop over the ``D``
  :class:`~repro.cam.cam_array.CAMArray` banks, retained for verification,
  benchmarking and the serving parity audit; only a reference runtime
  builds banks.  The kernel is fixed at construction.

Both produce identical outputs (bitwise for the PECAN-D lookup path).  The
statistics come from one static model, not from the kernels: each call
charges ``positions ×`` the layer's
:func:`~repro.cam.counters.pecan_position_cost` (plus bias additions).  The
usage histogram (Fig. 6) gets one ``(D, p)`` bincount of the winners per
call, or, on the compiled path, the kernel's own increments.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.cam.cam_array import CAMArray, CAMStats
from repro.cam.counters import OpCounter, pecan_position_cost
from repro.cam.layer_lut import LayerLUT
from repro.pecan.config import PECANMode
from repro.perf import ChunkPolicy, Workspace, iter_slices
from repro.perf.ckernels import get_pecan_d_kernel
from repro.perf.im2col import conv_output_size, im2col

try:                                      # scipy ships with the image but is
    from scipy.spatial.distance import cdist as _cdist   # not a hard dependency
except ImportError:                       # pragma: no cover - env without scipy
    _cdist = None


class LUTLayerRuntime:
    """Executes Algorithm 1 for a single PECAN layer using its LUT."""

    def __init__(self, lut: LayerLUT, counter: OpCounter,
                 chunk_policy: Optional[ChunkPolicy] = None,
                 workspace: Optional[Workspace] = None,
                 use_fused: bool = True):
        self.lut = lut
        self.counter = counter
        self.chunk_policy = chunk_policy if chunk_policy is not None else ChunkPolicy()
        self.workspace = workspace if workspace is not None else Workspace()
        self._use_fused = bool(use_fused)
        #: Static cost of one output position; every call charges a multiple.
        self.cost = pecan_position_cost(lut.mode, lut.num_prototypes, lut.num_groups,
                                        lut.subvector_dim, lut.out_channels)
        self._bias_additions = lut.out_channels if lut.bias is not None else 0
        self.stats = CAMStats()
        #: ``(D, p)`` prototype-usage histogram (Fig. 6).
        self.usage = np.zeros((lut.num_groups, lut.num_prototypes), dtype=np.int64)
        # Only the reference kernel searches bank by bank; the banks' own
        # tallies are an independent check on the static model.
        self.cam_banks = ([] if self._use_fused else
                          [CAMArray(lut.prototypes[j], lut.mode, temperature=lut.temperature)
                           for j in range(lut.num_groups)])
        # Stacked deployment arrays for the fused kernels.
        self.prototypes = np.ascontiguousarray(lut.prototypes)          # (D, d, p)
        self.table = np.ascontiguousarray(lut.table)                    # (D, cout, p)
        # (D·p, cout) view: row j·p + m is the LUT column of prototype m of
        # group j, so winners translate to rows with one flat-index gather.
        self.table_flat = np.ascontiguousarray(
            self.table.transpose(0, 2, 1).reshape(-1, lut.out_channels))
        # (D, p, d): prototype-major rows for cdist / batched GEMM queries.
        self._protos_rows = np.ascontiguousarray(self.prototypes.transpose(0, 2, 1))
        # (cout, D·p): contracts weighted sum and group summation in one GEMM.
        self._table_2d = np.ascontiguousarray(
            self.table.transpose(1, 0, 2).reshape(lut.out_channels, -1))
        self._group_offsets = (np.arange(lut.num_groups, dtype=np.int64)
                               * lut.num_prototypes)[None, :, None]     # (1, D, 1)
        bind = (get_pecan_d_kernel()
                if self._use_fused and lut.mode is PECANMode.DISTANCE else None)
        # The compiled kernel reads each grouped query dimension at its
        # (permuted) im2col row, so the fast path never unfolds or pads.
        # Like the NumPy paths, only a conv layer applies a permutation.
        conv = lut.kind == "conv"
        self._ckernel = None if bind is None else bind(
            self.prototypes, self.table_flat,
            (np.ascontiguousarray(lut.group_permutation, dtype=np.int64)
             if conv and lut.group_permutation is not None
             else np.arange(lut.num_groups * lut.subvector_dim, dtype=np.int64)),
            None if lut.bias is None else np.ascontiguousarray(lut.bias, dtype=np.float64),
            *((lut.kernel_size, lut.stride, lut.padding) if conv else (1, 1, 0)))

    @property
    def use_fused(self) -> bool:
        """Fused kernels (True) or the per-group reference loop (False)."""
        return self._use_fused

    @property
    def kernel_name(self) -> str:
        """Which implementation the fused path will use for this layer."""
        if not self.use_fused:
            return "reference"
        if self.lut.mode is PECANMode.DISTANCE:
            if self._ckernel is not None:
                return "ckernel"
            return "cdist" if _cdist is not None else "numpy"
        return "blas"

    # ------------------------------------------------------------------ #
    def _charge(self, num_positions: int) -> None:
        """Charge ``num_positions`` × the static per-position cost."""
        cost = self.cost
        ops = self.counter.layer(self.lut.name, self.lut.kind)
        ops.additions += num_positions * (cost.additions + self._bias_additions)
        ops.multiplications += num_positions * cost.multiplications
        ops.comparisons += num_positions * cost.comparisons
        ops.lookups += num_positions * cost.lookups
        stats = self.stats
        stats.searches += num_positions * cost.searches
        stats.matchline_evaluations += num_positions * cost.matchline_evaluations
        stats.cell_operations += num_positions * cost.cell_operations
        stats.energy += num_positions * cost.energy

    def _record_usage(self, rows: np.ndarray) -> None:
        """Add winners, as flat ``j·p + m`` indices of any shape, to ``usage``."""
        counts = np.bincount(rows.reshape(-1), minlength=self.usage.size)
        self.usage += counts.reshape(self.usage.shape)

    def reset_stats(self, counter: OpCounter) -> None:
        """Zero the CAM statistics and usage; charge ops to ``counter`` from now on."""
        self.counter = counter
        self.stats = CAMStats()
        self.usage[:] = 0
        for bank in self.cam_banks:
            bank.reset_stats()

    # ------------------------------------------------------------------ #
    def _grouped_columns(self, cols: np.ndarray) -> np.ndarray:
        """``(N, total, L) -> (N, D, d, L)`` applying the stored permutation.

        ``group_permutation`` is ``None`` for the channel layout (identity
        permutation), in which case this is a pure reshape view — no copy.
        """
        n, _, length = cols.shape
        if self.lut.group_permutation is not None:
            cols = cols[:, self.lut.group_permutation, :]
        return cols.reshape(n, self.lut.num_groups, self.lut.subvector_dim, length)

    # ------------------------------------------------------------------ #
    # Fused kernels (all groups in one pass, chunked over positions)
    # ------------------------------------------------------------------ #
    def _distance_winners(self, grouped: np.ndarray) -> np.ndarray:
        """Fused l1 search: grouped ``(N, D, d, L)`` → winners ``(N, D, L)``.

        Uses scipy's C ``cdist`` when available (bitwise-identical to the
        broadcast), otherwise a broadcasted pass chunked so the
        ``(N, D, p, d, L_chunk)`` transient respects the chunk policy.
        """
        n, d_groups, dim, length = grouped.shape
        p = self.lut.num_prototypes
        itemsize = np.dtype(np.float64).itemsize
        winners = np.empty((n, d_groups, length), dtype=np.int64)
        if _cdist is not None:
            # Chunk over positions: the (N·Lc, p) cdist result and the
            # (N, Lc, d) query copy are the transients to bound.
            chunk = self.chunk_policy.columns_per_chunk(
                n * max(p, dim) * itemsize, length)
            qbuf = self.workspace.request(f"{self.lut.name}/cdist_q",
                                          (n, chunk, dim))
            for sl in iter_slices(length, chunk):
                width = sl.stop - sl.start
                queries = qbuf[:, :width]
                for j in range(d_groups):
                    np.copyto(queries, grouped[:, j, :, sl].transpose(0, 2, 1))
                    dist = _cdist(queries.reshape(n * width, dim),
                                  self._protos_rows[j], "cityblock")
                    winners[:, j, sl] = dist.argmin(axis=1).reshape(n, width)
            return winners
        per_column = n * d_groups * dim * p * itemsize
        chunk = self.chunk_policy.columns_per_chunk(per_column, length)
        protos = self.prototypes[None, :, :, :, None]                   # (1, D, d, p, 1)
        for sl in iter_slices(length, chunk):
            diff = np.abs(grouped[:, :, :, None, sl] - protos)          # (N, D, d, p, Lc)
            winners[:, :, sl] = diff.sum(axis=2).argmin(axis=2)
        return winners

    def _run_groups_fused(self, grouped: np.ndarray) -> np.ndarray:
        """Search + lookup for grouped columns ``(N, D, d, L)`` → ``(N, cout, L)``."""
        n, d_groups, dim, length = grouped.shape
        p = self.lut.num_prototypes
        cout = self.lut.out_channels
        itemsize = np.dtype(np.float64).itemsize

        if self.lut.mode is PECANMode.DISTANCE:
            winners = self._distance_winners(grouped)
            # One flat-index gather + sum over the group axis, chunked so
            # the (N, D, Lc, cout) gather respects the memory budget.  The
            # sum adds the groups in the reference loop's order, except when
            # Lc·cout == 1 makes the group axis the contiguous inner run:
            # NumPy then sums pairwise, so those chunks add group by group.
            out = np.empty((n, cout, length))
            per_column = n * d_groups * cout * itemsize
            chunk = self.chunk_policy.columns_per_chunk(per_column, length)
            flat = winners + self._group_offsets                        # (N, D, L)
            for sl in iter_slices(length, chunk):
                gathered = self.table_flat.take(flat[:, :, sl], axis=0)
                if (sl.stop - sl.start) * cout == 1:
                    total = np.zeros((n, 1, 1))
                    for j in range(d_groups):
                        total += gathered[:, j]
                else:
                    total = gathered.sum(axis=1)
                out[:, :, sl] = total.transpose(0, 2, 1)
            self._record_usage(flat)
        else:
            # PECAN-A: one batched GEMM for all group scores, an in-place
            # softmax on a reused cache-sized buffer, then a single
            # (cout, D·p) × (D·p, L) GEMM contracting the weighted sum and
            # the group summation at once.
            queries = self.workspace.request(f"{self.lut.name}/angle_q",
                                             (d_groups, dim, n * length))
            np.copyto(queries.reshape(d_groups, dim, n, length),
                      grouped.transpose(1, 2, 0, 3))
            winners = np.empty((d_groups, n * length), dtype=np.int64)
            out_pm = self.workspace.request(f"{self.lut.name}/angle_out",
                                            (cout, n * length))
            chunk = self.chunk_policy.columns_per_chunk(d_groups * p * itemsize,
                                                        n * length)
            sbuf = self.workspace.request(f"{self.lut.name}/angle_scores",
                                          (d_groups, p, chunk))
            for sl in iter_slices(n * length, chunk):
                weights = sbuf[:, :, :sl.stop - sl.start]               # (D, p, Lc)
                np.matmul(self._protos_rows, queries[:, :, sl], out=weights)
                weights /= self.lut.temperature
                weights -= weights.max(axis=1, keepdims=True)
                np.exp(weights, out=weights)
                weights /= weights.sum(axis=1, keepdims=True)
                winners[:, sl] = weights.argmax(axis=1)
                np.matmul(self._table_2d, weights.reshape(d_groups * p, -1),
                          out=out_pm[:, sl])
            self._record_usage(winners + self._group_offsets[0])
            # .copy() (not ascontiguousarray): out_pm is a reused workspace
            # buffer, so the returned layer output must never alias it.
            out = out_pm.reshape(cout, n, length).transpose(1, 0, 2).copy()  # (N, cout, L)

        if self.lut.bias is not None:
            out += self.lut.bias.reshape(1, cout, 1)
        return out

    # ------------------------------------------------------------------ #
    # Reference kernel (per-group Python loop over the CAM banks)
    # ------------------------------------------------------------------ #
    def _run_groups_reference(self, grouped: np.ndarray) -> np.ndarray:
        """Original per-group loop — the verification reference for the fused path."""
        n, d_groups, _, length = grouped.shape
        cout = self.lut.out_channels
        out = np.zeros((n, cout, length))
        winners = np.empty((d_groups, n * length), dtype=np.int64)
        for j in range(d_groups):
            bank = self.cam_banks[j]
            queries = grouped[:, j].transpose(1, 0, 2).reshape(self.lut.subvector_dim,
                                                               n * length)
            if self.lut.mode is PECANMode.DISTANCE:
                winners[j] = bank.match(queries)                    # (N*L,)
                contribution = self.lut.table[j][:, winners[j]]     # (cout, N*L)
            else:
                weights = bank.soft_match(queries)                  # (p, N*L)
                winners[j] = weights.argmax(axis=0)
                contribution = self.lut.table[j] @ weights          # (cout, N*L)
            out += contribution.reshape(cout, n, length).transpose(1, 0, 2)
        self._record_usage(winners + self._group_offsets[0])
        if self.lut.bias is not None:
            out += self.lut.bias.reshape(1, cout, 1)
        return out

    def _run_groups(self, grouped: np.ndarray) -> np.ndarray:
        if self.use_fused:
            return self._run_groups_fused(grouped)
        return self._run_groups_reference(grouped)

    # ------------------------------------------------------------------ #
    def conv_forward(self, data: np.ndarray) -> np.ndarray:
        """``(N, Cin, H, W)`` input → ``(N, cout, Hout, Wout)`` layer output."""
        data = np.asarray(data)
        n, cin, h, w = data.shape
        hout = conv_output_size(h, self.lut.kernel_size, self.lut.stride, self.lut.padding)
        wout = conv_output_size(w, self.lut.kernel_size, self.lut.stride, self.lut.padding)
        k = self.lut.kernel_size
        if self._ckernel is not None:
            out = self._ckernel(data, self.usage)
        else:
            cols_buf = self.workspace.request(f"{self.lut.name}/im2col",
                                              (n, cin * k * k, hout * wout),
                                              dtype=data.dtype)
            cols = im2col(data, k, self.lut.stride, self.lut.padding, out=cols_buf)
            grouped = self._grouped_columns(cols)
            out = self._run_groups(grouped)
        self._charge(n * hout * wout)
        return out.reshape(n, self.lut.out_channels, hout, wout)

    def fc_forward(self, data: np.ndarray) -> np.ndarray:
        """``(N, features)`` input → ``(N, out_features)`` layer output."""
        data = np.asarray(data)
        n = data.shape[0]
        if self._ckernel is not None:
            out = self._ckernel(data.reshape(n, -1), self.usage)
        else:
            grouped = data.reshape(n, self.lut.num_groups, self.lut.subvector_dim, 1)
            out = self._run_groups(grouped)
        self._charge(n)
        return out.reshape(n, self.lut.out_channels)

    def __call__(self, data: np.ndarray) -> np.ndarray:
        if self.lut.kind == "conv":
            return self.conv_forward(data)
        return self.fc_forward(data)


class RuntimeStatsMixin:
    """Statistics surface of an engine that owns a set of layer runtimes."""

    runtimes: Dict[str, LUTLayerRuntime]
    op_counter: OpCounter

    @property
    def use_fused(self) -> bool:
        return all(runtime.use_fused for runtime in self.runtimes.values())

    def reset_counters(self) -> None:
        self.op_counter = OpCounter()
        for runtime in self.runtimes.values():
            runtime.reset_stats(self.op_counter)

    def cam_stats(self) -> CAMStats:
        """Total CAM activity (searches, match-line evaluations, energy)."""
        total = CAMStats()
        for runtime in self.runtimes.values():
            total = total.merge(runtime.stats)
        return total

    def prototype_usage(self) -> Dict[str, np.ndarray]:
        """Per-layer ``(D, p)`` usage histograms accumulated so far (Fig. 6)."""
        return {name: runtime.usage.copy() for name, runtime in self.runtimes.items()}
