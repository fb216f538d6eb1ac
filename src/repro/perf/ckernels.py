"""Optional compiled fused kernels (C via ``gcc`` + ``ctypes``).

The PECAN-D lookup inference hot loop — im2col unfold, l1 prototype search,
and LUT-column accumulation — is memory-bound in NumPy because every
broadcasted formulation materializes large transients.  A ~50-line C kernel
performs the whole thing in a single pass per output position with no
intermediates at all, reading receptive fields straight out of the (padded)
input through a precomputed row-offset table, and is bitwise-identical to the
NumPy reference: each distance is summed in the same left-to-right dimension
order (the inner loop vectorizes across *prototypes*, never reordering a
single sum) and ties break to the first minimum exactly like ``argmin``.

The kernel is compiled on first use into ``src/repro/perf/_build/`` (keyed by
a hash of the source and flags, so edits rebuild automatically) and loaded
with ``ctypes``.  Everything degrades gracefully: no compiler, a failed
compile, or ``REPRO_DISABLE_CKERNELS`` set to anything but ``0`` simply means
:func:`get_pecan_d_kernel` returns ``None`` and callers use their NumPy path.
No third-party packages are involved.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import tempfile
from pathlib import Path
from typing import Optional

import numpy as np

#: Prototype-count ceiling baked into the kernel's stack buffer.
MAX_PROTOTYPES = 1024

_C_SOURCE = r"""
#include <stdint.h>
#include <math.h>

/* Fused im2col + PECAN-D search + lookup-accumulate over all groups.
 *
 * xp:         (N, C, Hp, Wp) zero-padded input, C-contiguous.  A fully
 *             connected layer is the degenerate case Hp = Wp = 1.
 * row_offset: (G*d,) offset of grouped im2col row r within one sample at
 *             output position (0, 0): c*Hp*Wp + ki*Wp + kj, with any group
 *             permutation already applied.
 * protos:     (G, d, p) codebooks in their native layout (prototype index m
 *             contiguous, so the m-loop vectorizes without reordering any
 *             individual distance sum).
 * table_flat: (G*p, cout) row j*p + m = LUT column of prototype m, group j.
 * out:        (N*Hout*Wout, cout) position-major output (bias NOT added).
 * winners:    (N*Hout*Wout, G) winning prototype per position and group.
 */
#define MAX_P %(max_p)d
void pecan_d_lookup(const double* xp, const int64_t* row_offset,
                    const double* protos, const double* table_flat,
                    double* out, int64_t* winners,
                    int64_t N, int64_t sample_stride, int64_t Wp, int64_t stride,
                    int64_t Hout, int64_t Wout,
                    int64_t G, int64_t d, int64_t p, int64_t cout)
{
    double dists[MAX_P];
    for (int64_t n = 0; n < N; ++n) {
        const double* xn = xp + n * sample_stride;
        for (int64_t oh = 0; oh < Hout; ++oh) {
            for (int64_t ow = 0; ow < Wout; ++ow) {
                const double* xq = xn + (oh * Wp + ow) * stride;
                const int64_t q = (n * Hout + oh) * Wout + ow;
                double* orow = out + q * cout;
                for (int64_t c = 0; c < cout; ++c) orow[c] = 0.0;
                int64_t* wrow = winners + q * G;
                const int64_t* roff = row_offset;
                for (int64_t j = 0; j < G; ++j) {
                    const double* pj = protos + j * d * p;
                    for (int64_t m = 0; m < p; ++m) dists[m] = 0.0;
                    for (int64_t i = 0; i < d; ++i) {
                        const double qi = xq[roff[i]];
                        const double* prow = pj + i * p;
                        for (int64_t m = 0; m < p; ++m) dists[m] += fabs(qi - prow[m]);
                    }
                    roff += d;
                    double best = dists[0]; int64_t bm = 0;
                    for (int64_t m = 1; m < p; ++m) {
                        if (dists[m] < best) { best = dists[m]; bm = m; }
                    }
                    wrow[j] = bm;
                    const double* trow = table_flat + (j * p + bm) * cout;
                    for (int64_t c = 0; c < cout; ++c) orow[c] += trow[c];
                }
            }
        }
    }
}
""" % {"max_p": MAX_PROTOTYPES}

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
    lib.pecan_d_lookup.restype = None
    lib.pecan_d_lookup.argtypes = [ctypes.c_void_p] * 6 + [ctypes.c_int64] * 10
    _lib = lib
    return _lib


def kernel_available() -> bool:
    """Whether the compiled PECAN-D kernel can be used on this machine."""
    return _load() is not None


def get_pecan_d_kernel():
    """Return the fused PECAN-D lookup kernel, or ``None`` if unavailable.

    The returned callable has signature ``kernel(xp, row_offset, protos,
    table_flat, out, winners, wp, stride, hout, wout)`` with the array
    layouts documented in the C source.  ``xp`` is the already-padded input
    of shape ``(N, C, Hp, Wp)`` (or ``(N, features, 1, 1)``-equivalent for a
    fully connected layer); ``out`` receives the bias-free position-major
    layer output and ``winners`` the per-group winning prototype indices.
    """
    lib = _load()
    if lib is None:
        return None

    def kernel(xp: np.ndarray, row_offset: np.ndarray, protos: np.ndarray,
               table_flat: np.ndarray, out: np.ndarray, winners: np.ndarray,
               wp: int, stride: int, hout: int, wout: int) -> None:
        n = xp.shape[0]
        sample_stride = int(np.prod(xp.shape[1:], dtype=np.int64))
        g, d, p = protos.shape
        cout = table_flat.shape[-1]
        if p > MAX_PROTOTYPES:
            raise ValueError(f"kernel supports at most {MAX_PROTOTYPES} prototypes, got {p}")
        if row_offset.shape != (g * d,):
            raise ValueError(f"row_offset must have shape ({g * d},)")
        for name, arr, dtype in (("xp", xp, np.float64),
                                 ("row_offset", row_offset, np.int64),
                                 ("protos", protos, np.float64),
                                 ("table_flat", table_flat, np.float64),
                                 ("out", out, np.float64),
                                 ("winners", winners, np.int64)):
            if arr.dtype != dtype or not arr.flags.c_contiguous:
                raise ValueError(f"{name} must be C-contiguous {np.dtype(dtype).name}")
        lib.pecan_d_lookup(
            xp.ctypes.data, row_offset.ctypes.data, protos.ctypes.data,
            table_flat.ctypes.data, out.ctypes.data, winners.ctypes.data,
            n, sample_stride, wp, stride, hout, wout, g, d, p, cout)

    return kernel
