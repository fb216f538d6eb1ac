"""Optional compiled fused kernels (C via ``gcc`` + ``ctypes``).

PECAN-D filtering is a CAM search followed by a LUT add, with no
multiplications, so the l1 prototype search *is* the inference hot loop.  One
C kernel runs a whole layer in a single pass with no NumPy intermediates:

* **Position blocks.**  Output positions are indexed over the flattened
  ``(n, oh, ow)`` axis and taken :data:`POSITION_BLOCK` at a time, so a fully
  connected layer (one position per sample) fills a block across the batch.
  For each block and group the kernel gathers the ``d × block`` queries
  straight out of the input once, then scores every prototype for the whole
  block: the innermost loop runs across *positions* and vectorizes even when
  a layer has only a handful of prototypes.
* **Bitwise equal to NumPy.**  Each distance still sums ``fabs(q - proto)``
  over the dimensions in order, starting from ``0.0``, and the winner is the
  first minimum (a strict ``<`` written as a lane-wise select), exactly like
  ``argmin``; LUT rows are added in group order, then the bias.
* **Padding.**  The kernel reads zeros outside the input, so callers pass the
  unpadded ``(N, C, H, W)`` array (or ``(N, features)`` for a fully connected
  layer).
* **Outputs.**  It writes the layer output channel-major, ``(N, cout, Hout,
  Wout)`` with the bias added, and increments the ``(D, p)`` prototype-usage
  histogram itself.

:func:`get_pecan_d_kernel` returns a binder: ``bind(protos, table_flat, rows,
bias, kernel_size, stride, padding)`` checks the layouts of a layer's
constant arrays once and returns a :class:`PecanDKernel` whose calls check
only the input and the usage array.

The kernel is compiled on first use into ``src/repro/perf/_build/`` (keyed by
a hash of the source and flags, so edits rebuild automatically) and loaded
with ``ctypes``.  Everything degrades gracefully: no compiler, a failed
compile, or ``REPRO_DISABLE_CKERNELS`` set to anything but ``0`` simply means
:func:`get_pecan_d_kernel` returns ``None`` and callers use their NumPy path.
No third-party packages are involved.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import platform
import subprocess
import tempfile
from pathlib import Path
from typing import Optional

import numpy as np

#: Output positions searched together; the kernel's innermost loops run
#: across this many lanes.
POSITION_BLOCK = 8

_C_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>

/* Fused im2col + PECAN-D search + lookup-accumulate over all groups.
 *
 * x:      (N, C, H, W) unpadded input, C-contiguous.  A fully connected
 *         layer is the case H = W = k = 1, pad = 0.  Reads outside the
 *         input see zeros (the padding rule of im2col).
 * rows:   (G*d,) im2col row c*k*k + ki*k + kj of each grouped query
 *         dimension, with any group permutation already applied.
 * protos: (G, d, p) codebooks.
 * table:  (G*p, cout) row j*p + m = LUT column of prototype m, group j.
 * bias:   (cout,) or NULL.
 * out:    (N, cout, Hout*Wout) channel-major output, bias added.
 * usage:  (G, p) int64 histogram, incremented once per (position, group).
 *
 * Positions run over the flattened (n, oh, ow) axis in blocks of BLOCK
 * lanes; the search runs across the lanes of a block.  Each distance is
 * summed over the dimensions in order from 0.0 and the first minimum wins
 * (strict <, as a lane-wise select), so results equal the NumPy path bit
 * for bit.  Returns 0, or -1 if scratch memory could not be allocated.
 */
#define BLOCK %(block)d

/* One block of lanes as a GCC/Clang generic vector; the compiler splits it
 * into whatever SIMD registers the target has.  8-byte alignment lets the
 * query rows live in plain malloc'd memory. */
typedef double vd __attribute__((vector_size(BLOCK * 8), aligned(8)));
typedef int64_t vi __attribute__((vector_size(BLOCK * 8), aligned(8)));

int pecan_d_lookup(const double* x, const int64_t* rows,
                   const double* protos, const double* table,
                   const double* bias, double* out, int64_t* usage,
                   int64_t N, int64_t C, int64_t H, int64_t W,
                   int64_t k, int64_t stride, int64_t pad,
                   int64_t Hout, int64_t Wout,
                   int64_t G, int64_t d, int64_t p, int64_t cout)
{
    const int64_t L = Hout * Wout, total = N * L, HW = H * W, GD = G * d;
    int64_t* roff = malloc((size_t)(3 * GD) * sizeof(int64_t));
    vd* q = malloc((size_t)d * sizeof(vd));
    double* acc = malloc((size_t)(cout * BLOCK) * sizeof(double));
    if (!roff || !q || !acc) {
        free(roff); free(q); free(acc);
        return -1;
    }
    /* Per query dimension: offset inside one sample at window origin
     * (0, 0), and the window row/column for the padding test. */
    int64_t* rki = roff + GD;
    int64_t* rkj = roff + 2 * GD;
    for (int64_t r = 0; r < GD; ++r) {
        const int64_t c = rows[r] / (k * k), w = rows[r] %% (k * k);
        rki[r] = w / k;
        rkj[r] = w %% k;
        roff[r] = c * HW + rki[r] * W + rkj[r];
    }
    int64_t base[BLOCK], ih0[BLOCK], iw0[BLOCK], obase[BLOCK];
    const vi absmask = (vi){0} + INT64_MAX, zero_i = (vi){0};
    const vd zero = (vd){0};
    int64_t n = 0, oh = 0, ow = 0;
    for (int64_t q0 = 0; q0 < total; q0 += BLOCK) {
        const int64_t nb = total - q0 < BLOCK ? total - q0 : BLOCK;
        int interior = 1;
        for (int64_t b = 0; b < BLOCK; ++b) {
            if (b < nb) {
                ih0[b] = oh * stride - pad;
                iw0[b] = ow * stride - pad;
                base[b] = n * C * HW + ih0[b] * W + iw0[b];
                obase[b] = n * cout * L + oh * Wout + ow;
                interior &= ih0[b] >= 0 && iw0[b] >= 0
                            && ih0[b] + k <= H && iw0[b] + k <= W;
                if (++ow == Wout) {
                    ow = 0;
                    if (++oh == Hout) { oh = 0; ++n; }
                }
            } else {
                /* Tail lanes repeat lane 0: valid reads, results dropped. */
                ih0[b] = ih0[0]; iw0[b] = iw0[0]; base[b] = base[0];
            }
        }
        for (int64_t i = 0; i < cout * BLOCK; ++i) acc[i] = 0.0;
        for (int64_t j = 0; j < G; ++j) {
            for (int64_t i = 0; i < d; ++i) {
                const int64_t r = j * d + i, off = roff[r];
                vd* qi = q + i;
                if (interior) {
                    for (int64_t b = 0; b < BLOCK; ++b) (*qi)[b] = x[base[b] + off];
                } else {
                    const int64_t ki = rki[r], kj = rkj[r];
                    for (int64_t b = 0; b < BLOCK; ++b) {
                        const int64_t ih = ih0[b] + ki, iw = iw0[b] + kj;
                        (*qi)[b] = (ih >= 0 && ih < H && iw >= 0 && iw < W)
                                ? x[base[b] + off] : 0.0;
                    }
                }
            }
            const double* pj = protos + j * d * p;
            vd best = zero;
            vi bm = zero_i;
            for (int64_t m = 0; m < p; ++m) {
                vd dist = zero;
                for (int64_t i = 0; i < d; ++i)     /* fabs: clear the sign bit */
                    dist += (vd)((vi)(q[i] - pj[i * p + m]) & absmask);
                if (m == 0) {
                    best = dist;
                } else {
                    const vi lt = (vi)(dist < best);
                    best = (vd)(((vi)dist & lt) | ((vi)best & ~lt));
                    bm = (m & lt) | (bm & ~lt);
                }
            }
            const double* tj = table + j * p * cout;
            int64_t* uj = usage + j * p;
            for (int64_t b = 0; b < nb; ++b) {
                ++uj[bm[b]];
                const double* trow = tj + bm[b] * cout;
                double* a = acc + b * cout;
                for (int64_t c = 0; c < cout; ++c) a[c] += trow[c];
            }
        }
        for (int64_t b = 0; b < nb; ++b) {
            double* o = out + obase[b];
            const double* a = acc + b * cout;
            if (bias) {
                for (int64_t c = 0; c < cout; ++c) o[c * L] = a[c] + bias[c];
            } else {
                for (int64_t c = 0; c < cout; ++c) o[c * L] = a[c];
            }
        }
    }
    free(roff); free(q); free(acc);
    return 0;
}
""" % {"block": POSITION_BLOCK}

_BASE_FLAGS = ["-O3", "-shared", "-fPIC"]
_ARCH_FLAGS = ["-march=native"]

_lib: Optional[ctypes.CDLL] = None
_load_attempted = False


def _build_dir() -> Path:
    override = os.environ.get("REPRO_CKERNEL_DIR")
    if override:
        return Path(override)
    return Path(__file__).resolve().parent / "_build"


def _compiler_candidates():
    env_cc = os.environ.get("CC")
    if env_cc:
        yield env_cc
    yield "gcc"
    yield "cc"


def _compile(source: str) -> Optional[Path]:
    """Compile ``source`` into the build cache, returning the .so path or None."""
    tag = hashlib.sha256(
        (source + " ".join(_BASE_FLAGS + _ARCH_FLAGS) + platform.machine()).encode()
    ).hexdigest()[:16]
    build_dir = _build_dir()
    lib_path = build_dir / f"pecan_kernels_{tag}.so"
    if lib_path.exists():
        return lib_path
    try:
        build_dir.mkdir(parents=True, exist_ok=True)
    except OSError:
        return None
    with tempfile.TemporaryDirectory(dir=str(build_dir)) as tmp:
        src_path = Path(tmp) / "pecan_kernels.c"
        src_path.write_text(source)
        tmp_lib = Path(tmp) / "pecan_kernels.so"
        for cc in _compiler_candidates():
            for flags in (_BASE_FLAGS + _ARCH_FLAGS, _BASE_FLAGS):
                cmd = [cc, *flags, "-o", str(tmp_lib), str(src_path)]
                try:
                    result = subprocess.run(cmd, capture_output=True, timeout=120)
                except (OSError, subprocess.TimeoutExpired):
                    break      # compiler missing/hung: try the next candidate
                if result.returncode == 0:
                    try:
                        os.replace(tmp_lib, lib_path)
                    except OSError:
                        return None
                    return lib_path
    return None


def _load() -> Optional[ctypes.CDLL]:
    global _lib, _load_attempted
    if _load_attempted:
        return _lib
    _load_attempted = True
    if os.environ.get("REPRO_DISABLE_CKERNELS", "0") not in ("", "0"):
        return None
    lib_path = _compile(_C_SOURCE)
    if lib_path is None:
        return None
    try:
        lib = ctypes.CDLL(str(lib_path))
    except OSError:
        return None
    lib.pecan_d_lookup.restype = ctypes.c_int
    lib.pecan_d_lookup.argtypes = [ctypes.c_void_p] * 7 + [ctypes.c_int64] * 13
    _lib = lib
    return _lib


def kernel_available() -> bool:
    """Whether the compiled PECAN-D kernel can be used on this machine."""
    return _load() is not None


def _constant(name: str, arr: np.ndarray, dtype, shape) -> np.ndarray:
    if arr.dtype != dtype or not arr.flags.c_contiguous or arr.shape != shape:
        raise ValueError(f"{name} must be a C-contiguous {np.dtype(dtype).name} "
                         f"array of shape {shape}, got {arr.dtype} {arr.shape}")
    return arr


class PecanDKernel:
    """The compiled PECAN-D kernel bound to one layer's constant arrays.

    Construction checks the layouts of ``protos`` ``(G, d, p)``,
    ``table_flat`` ``(G·p, cout)``, ``rows`` ``(G·d,)`` and ``bias``
    ``(cout,)`` once and keeps references to them; each call checks only
    the input and the usage histogram.  See the C source for the layouts.
    """

    def __init__(self, lib: ctypes.CDLL, protos: np.ndarray, table_flat: np.ndarray,
                 rows: np.ndarray, bias: Optional[np.ndarray] = None,
                 kernel_size: int = 1, stride: int = 1, padding: int = 0):
        g, d, p = protos.shape
        cout = table_flat.shape[-1]
        k = max(1, int(kernel_size))
        self._protos = _constant("protos", protos, np.float64, (g, d, p))
        self._table = _constant("table_flat", table_flat, np.float64, (g * p, cout))
        self._rows = _constant("rows", rows, np.int64, (g * d,))
        self._bias = None if bias is None else _constant("bias", bias, np.float64, (cout,))
        if (g * d) % (k * k) or (g * d and not 0 <= rows.min() <= rows.max() < g * d):
            raise ValueError(f"rows must index the {g * d} rows of a k={k} unfold")
        if int(stride) < 1 or int(padding) < 0:
            raise ValueError(f"need stride >= 1 and padding >= 0, got {stride}, {padding}")
        self.in_channels = g * d // (k * k)
        self.kernel_size, self.stride, self.padding = k, int(stride), int(padding)
        self.usage_shape = (g, p)
        self._fn = lib.pecan_d_lookup
        self._pointers = (self._rows.ctypes.data, self._protos.ctypes.data,
                          self._table.ctypes.data,
                          None if self._bias is None else self._bias.ctypes.data)
        self._dims = (g, d, p, cout)

    def __call__(self, x: np.ndarray, usage: np.ndarray) -> np.ndarray:
        """``(N, C, H, W)`` or ``(N, features)`` input → a fresh output array.

        The output is ``(N, cout, Hout, Wout)`` (``(N, cout)`` for a 2-D
        input), with the bias added; ``usage`` is incremented in place.
        """
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.ndim == 2:
            n, c = x.shape
            h = w = 1
        elif x.ndim == 4:
            n, c, h, w = x.shape
        else:
            raise ValueError(f"kernel input must be 2-D or 4-D, got {x.ndim}-D")
        k, stride, pad = self.kernel_size, self.stride, self.padding
        hout = (h + 2 * pad - k) // stride + 1
        wout = (w + 2 * pad - k) // stride + 1
        if c != self.in_channels or hout < 1 or wout < 1:
            raise ValueError(f"input {x.shape} does not fit the layer "
                             f"({self.in_channels} channels, k={k}, padding={pad})")
        if (usage.dtype != np.int64 or not usage.flags.c_contiguous
                or not usage.flags.writeable or usage.shape != self.usage_shape):
            raise ValueError(f"usage must be a writeable C-contiguous int64 "
                             f"array of shape {self.usage_shape}")
        g, d, p, cout = self._dims
        out = np.empty((n, cout, hout, wout) if x.ndim == 4 else (n, cout))
        status = self._fn(x.ctypes.data, *self._pointers, out.ctypes.data,
                          usage.ctypes.data, n, c, h, w, k, stride, pad,
                          hout, wout, g, d, p, cout)
        if status:
            raise MemoryError("PECAN-D kernel could not allocate its scratch")
        return out


def get_pecan_d_kernel():
    """Return the PECAN-D kernel binder, or ``None`` if the kernel is unavailable.

    The binder has signature ``bind(protos, table_flat, rows, bias=None,
    kernel_size=1, stride=1, padding=0)`` and returns a
    :class:`PecanDKernel`, called as ``kernel(x, usage) -> out``.
    """
    lib = _load()
    return None if lib is None else functools.partial(PecanDKernel, lib)
