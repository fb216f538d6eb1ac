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

The same source holds a **JSON tensor parser** for ``/predict`` bodies
(used by :func:`repro.serve.pipeline.decode_predict_body`).  It finds the
top-level ``"inputs"`` array, checks the JSON number grammar and the
array's rectangular shape, and converts the numbers into an array of
exactly that shape.  Every number is correctly rounded, so the values
equal ``json.loads`` + ``np.asarray`` bit for bit.  Short significands use
exact integer arithmetic; the rest use ``strtod_l`` in the "C" locale, so
``LC_NUMERIC`` plays no part.  Anything else (a BOM, an escaped key, a
repeated key, ``NaN``, ``null``, a ragged array, an out-of-range number,
...) is declined, and the caller uses ``json.loads``.  Since ``ctypes.CDLL``
releases the GIL for each call, a large body decodes while the engine
thread runs.

The library is compiled on first use into ``src/repro/perf/_build/`` (keyed
by a hash of the source and flags, so edits rebuild automatically) and
loaded with ``ctypes``.  Everything degrades gracefully: no compiler, a
failed compile, or ``REPRO_DISABLE_CKERNELS`` set to anything but ``0``
simply means :func:`get_pecan_d_kernel` returns ``None`` and callers use
their NumPy path, and the JSON parser declines every body.  No third-party
packages are involved.
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
from typing import Optional, Tuple

import numpy as np

#: Output positions searched together; the kernel's innermost loops run
#: across this many lanes.
POSITION_BLOCK = 8
#: Deepest ``inputs`` nesting the JSON tensor parser accepts.
_JSON_MAX_DEPTH = 8

_C_SOURCE = r"""
#define _GNU_SOURCE                 /* strtod_l, newlocale */
#include <errno.h>
#include <locale.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

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

/* JSON tensor parser: the top-level "inputs" array of a /predict body.
 *
 * json_inputs_shape walks the top-level object, skipping every other value
 * (strings with escapes, nested containers), and checks the one "inputs"
 * value without converting a number: a rectangular nest of at most
 * MAX_DEPTH non-empty arrays of strict JSON number tokens of at most
 * MAX_NUMBER bytes.  json_inputs_fill converts the tokens of that span in
 * order, correctly rounded.  Both decline anything else (a BOM, a key with
 * an escape, a second "inputs", null in the tensor, a number out of float64
 * range, ...), and the caller then parses the body with json.loads, which
 * also validates every value this code only delimits.
 */
#define MAX_DEPTH %(max_depth)d
#define MAX_NUMBER 63

static locale_t c_numeric;

__attribute__((constructor)) static void json_init(void)
{
    c_numeric = newlocale(LC_NUMERIC_MASK, "C", (locale_t)0);
}

static int is_digit(char c) { return c >= '0' && c <= '9'; }

static int is_ws(char c) { return c == ' ' || c == '\t' || c == '\n' || c == '\r'; }

static int64_t skip_ws(const char* s, int64_t i, int64_t n)
{
    while (i < n && is_ws(s[i])) ++i;
    return i;
}

/* End of the JSON number token at s[i], or -1 (bad grammar, too long). */
static int64_t number_end(const char* s, int64_t i, int64_t n)
{
    const int64_t start = i;
    if (i < n && s[i] == '-') ++i;
    if (i < n && s[i] == '0') {
        ++i;
    } else if (i < n && is_digit(s[i])) {
        while (i < n && is_digit(s[i])) ++i;
    } else {
        return -1;
    }
    if (i < n && s[i] == '.') {
        if (++i >= n || !is_digit(s[i])) return -1;
        while (i < n && is_digit(s[i])) ++i;
    }
    if (i < n && (s[i] == 'e' || s[i] == 'E')) {
        if (++i < n && (s[i] == '+' || s[i] == '-')) ++i;
        if (i >= n || !is_digit(s[i])) return -1;
        while (i < n && is_digit(s[i])) ++i;
    }
    return i - start > MAX_NUMBER ? -1 : i;
}

/* End of the string opening at s[i], or -1; *escaped is set on a backslash. */
static int64_t string_end(const char* s, int64_t i, int64_t n, int* escaped)
{
    for (++i; i < n; ++i) {
        if (s[i] == '\\') {
            *escaped = 1;
            ++i;
        } else if (s[i] == '"') {
            return i + 1;
        }
    }
    return -1;
}

/* End of the value at s[i], or -1: strings, brackets and bare scalars. */
static int64_t value_end(const char* s, int64_t i, int64_t n)
{
    int64_t depth = 0;
    int escaped = 0;
    do {
        if (i >= n) return -1;
        if (s[i] == '"') {
            i = string_end(s, i, n, &escaped);
            if (i < 0) return -1;
        } else if (s[i] == '{' || s[i] == '[') {
            ++depth;
            ++i;
        } else if (s[i] == '}' || s[i] == ']') {
            if (--depth < 0) return -1;
            ++i;
        } else if (depth == 0) {
            while (i < n && s[i] != ',' && s[i] != '}' && s[i] != ']' && !is_ws(s[i]))
                ++i;
            return i;
        } else {
            ++i;
        }
    } while (depth > 0);
    return i;
}

/* Shape of the rectangular number array at s[*pos]; returns its ndim and
 * moves *pos past it, or returns 0. */
static int64_t array_shape(const char* s, int64_t* pos, int64_t n, int64_t* shape)
{
    int64_t count[MAX_DEPTH];
    int64_t i = *pos, depth = 0, ndim = 0;
    for (int64_t d = 0; d < MAX_DEPTH; ++d) shape[d] = -1;
    if (i >= n || s[i] != '[') return 0;
    for (;;) {
        if (s[i] == '[') {
            if (depth == MAX_DEPTH || (ndim && depth >= ndim)) return 0;
            count[depth++] = 0;
            i = skip_ws(s, i + 1, n);
            if (i >= n || s[i] == ']') return 0;        /* empty */
            continue;
        }
        i = number_end(s, i, n);
        if (i < 0 || (ndim && depth != ndim)) return 0;
        ndim = depth;
        /* Close finished arrays until the next element. */
        for (;;) {
            ++count[depth - 1];
            i = skip_ws(s, i, n);
            if (i < n && s[i] == ',') {
                i = skip_ws(s, i + 1, n);
                if (i >= n) return 0;
                break;
            }
            if (i >= n || s[i] != ']') return 0;
            --depth;
            if (shape[depth] < 0) shape[depth] = count[depth];
            else if (shape[depth] != count[depth]) return 0;     /* ragged */
            ++i;
            if (depth == 0) {
                *pos = i;
                return ndim;
            }
        }
    }
}

/* info = [start, end, shape[0..MAX_DEPTH)] of the top-level "inputs" array
 * of the body s[0..n).  Returns its ndim, or 0 to decline. */
int64_t json_inputs_shape(const char* s, int64_t n, int64_t* info)
{
    int64_t i = skip_ws(s, 0, n), ndim = 0;
    if (i >= n || s[i] != '{') return 0;
    i = skip_ws(s, i + 1, n);
    for (;;) {
        int escaped = 0;
        if (i >= n || s[i] != '"') return 0;
        const int64_t key = i + 1;
        i = string_end(s, i, n, &escaped);
        if (i < 0 || escaped) return 0;
        const int is_inputs = i - 1 - key == 6 && memcmp(s + key, "inputs", 6) == 0;
        i = skip_ws(s, i, n);
        if (i >= n || s[i] != ':') return 0;
        i = skip_ws(s, i + 1, n);
        if (is_inputs) {
            if (ndim) return 0;                       /* a second "inputs" */
            info[0] = i;
            ndim = array_shape(s, &i, n, info + 2);
            if (!ndim) return 0;
            info[1] = i;
        } else {
            i = value_end(s, i, n);
            if (i < 0) return 0;
        }
        i = skip_ws(s, i, n);
        if (i < n && s[i] == ',') {
            i = skip_ws(s, i + 1, n);
        } else if (i < n && s[i] == '}') {
            return skip_ws(s, i + 1, n) == n ? ndim : 0;
        } else {
            return 0;
        }
    }
}

#ifdef __SIZEOF_INT128__
static const uint64_t POW10[20] = {
    1ULL, 10ULL, 100ULL, 1000ULL, 10000ULL, 100000ULL, 1000000ULL,
    10000000ULL, 100000000ULL, 1000000000ULL, 10000000000ULL,
    100000000000ULL, 1000000000000ULL, 10000000000000ULL,
    100000000000000ULL, 1000000000000000ULL, 10000000000000000ULL,
    100000000000000000ULL, 1000000000000000000ULL, 10000000000000000000ULL};

static int bit_length(uint64_t v) { return 64 - __builtin_clzll(v); }

/* w * 10^q rounded to nearest-even, for 0 < w and q in [-19, 19], into *v;
 * returns -1 when the exact product does not fit in 64 bits.  A quotient
 * w * 2^s / 10^-q of 56 to 64 bits, with the remainder as a sticky bit, is
 * rounded to 53 bits by hand, so the result is the correctly rounded value
 * that strtod (and Python's float) give. */
static int scaled_value(uint64_t w, int64_t q, double* v)
{
    if (q >= 0) {
        const unsigned __int128 x = (unsigned __int128)w * POW10[q];
        if (x >> 64) return -1;
        *v = (double)(uint64_t)x;          /* one correctly rounded conversion */
        return 0;
    }
    const uint64_t d = POW10[-q];
    int s = 56 + bit_length(d) - bit_length(w);
    if (s < 0) s = 0;
    const unsigned __int128 num = (unsigned __int128)w << s;
    const uint64_t quot = (uint64_t)(num / d);          /* in [2^55, 2^64) */
    const int sticky = num != (unsigned __int128)quot * d, sh = bit_length(quot) - 53;
    const uint64_t rest = quot & ((1ULL << sh) - 1), half = 1ULL << (sh - 1);
    uint64_t m = quot >> sh;
    if (rest > half || (rest == half && (sticky || (m & 1)))) ++m;
    /* m <= 2^53 times the normal power of two 2^(sh - s): exact. */
    const uint64_t bits = (uint64_t)(1023 + sh - s) << 52;
    double scale;
    memcpy(&scale, &bits, sizeof scale);
    *v = (double)m * scale;
    return 0;
}
#endif

/* The float64 that json.loads + np.asarray give the number token s[0..len)
 * (already checked by number_end), or -1 to decline (out of float64 range,
 * no "C" locale).  json.loads reads an integer literal as an int, so "-0"
 * is +0.0 and only a fraction or exponent makes -0.0. */
static int number_value(const char* s, size_t len, double* out)
{
    const char* p = s + (*s == '-');
    const char* end = s + len;
    int integer = 1, digits = 0;
    int64_t q = 0;
    uint64_t w = 0;
    for (; p < end && (is_digit(*p) || *p == '.'); ++p) {
        if (*p == '.') {
            integer = 0;
            continue;
        }
        q -= !integer;
        if (w == 0 && *p == '0') continue;             /* leading zero */
        if (++digits > 19) goto slow;
        w = w * 10 + (uint64_t)(*p - '0');
    }
    if (p < end) {                                     /* exponent */
        const int negative = *++p == '-';
        int64_t e = 0;
        integer = 0;
        for (p += *p == '-' || *p == '+'; p < end; ++p) {
            if (e > 100000) goto slow;
            e = e * 10 + (*p - '0');
        }
        q += negative ? -e : e;
    }
    if (w == 0) {
        *out = *s == '-' && !integer ? -0.0 : 0.0;
        return 0;
    }
#ifdef __SIZEOF_INT128__
    if (q >= -19 && q <= 19 && !scaled_value(w, q, out)) {
        if (*s == '-') *out = -*out;
        return 0;
    }
#endif
slow: {
        char token[MAX_NUMBER + 1];
        char* tail;
        if (c_numeric == (locale_t)0) return -1;
        memcpy(token, s, len);
        token[len] = '\0';
        errno = 0;
        *out = strtod_l(token, &tail, c_numeric);
        return errno == ERANGE || tail != token + len ? -1 : 0;
    }
}

/* Convert the count number tokens of s[start..end) into out.  Returns 0,
 * or -1 to decline. */
int json_inputs_fill(const char* s, int64_t start, int64_t end,
                     double* out, int64_t count)
{
    int64_t k = 0;
    for (int64_t i = start; i < end;) {
        if (s[i] != '-' && !is_digit(s[i])) {          /* brackets, commas, ws */
            ++i;
            continue;
        }
        const int64_t stop = number_end(s, i, end);
        if (stop < 0 || k == count || number_value(s + i, (size_t)(stop - i), out + k))
            return -1;
        ++k;
        i = stop;
    }
    return k == count ? 0 : -1;
}
""" % {"block": POSITION_BLOCK, "max_depth": _JSON_MAX_DEPTH}

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
    lib.json_inputs_shape.restype = ctypes.c_int64
    lib.json_inputs_shape.argtypes = [ctypes.c_char_p, ctypes.c_int64, ctypes.c_void_p]
    lib.json_inputs_fill.restype = ctypes.c_int
    lib.json_inputs_fill.argtypes = [ctypes.c_char_p, ctypes.c_int64, ctypes.c_int64,
                                     ctypes.c_void_p, ctypes.c_int64]
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


def _json_inputs(body: bytes) -> Optional[Tuple[np.ndarray, int, int]]:
    """``(inputs, start, end)``: the top-level ``"inputs"`` array of a JSON
    object body parsed into a fresh float64 array, and the byte span it
    occupies; ``None`` when the kernel is unavailable or declines the body
    (see the C source), in which case the caller parses it with ``json.loads``.

    Both passes run in C with the GIL released: one checks the grammar and
    finds the shape, the other converts the numbers into an array of exactly
    that shape.
    """
    lib = _load()
    if lib is None or type(body) is not bytes:
        return None
    info = np.empty(2 + _JSON_MAX_DEPTH, dtype=np.int64)
    ndim = lib.json_inputs_shape(body, len(body), info.ctypes.data)
    if ndim <= 0:
        return None
    start, end = int(info[0]), int(info[1])
    inputs = np.empty(tuple(info[2:2 + ndim].tolist()))
    if lib.json_inputs_fill(body, start, end, inputs.ctypes.data, inputs.size):
        return None
    return inputs, start, end


def get_pecan_d_kernel():
    """Return the PECAN-D kernel binder, or ``None`` if the kernel is unavailable.

    The binder has signature ``bind(protos, table_flat, rows, bias=None,
    kernel_size=1, stride=1, padding=0)`` and returns a
    :class:`PecanDKernel`, called as ``kernel(x, usage) -> out``.
    """
    lib = _load()
    return None if lib is None else functools.partial(PecanDKernel, lib)
