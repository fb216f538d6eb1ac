"""Unit tests for the perf subsystem (chunking, workspace, timers, kernels)."""

import ctypes
import json

import numpy as np
import pytest

from repro.autograd.im2col import im2col
from repro.perf import (ChunkPolicy, Timer, Workspace, iter_slices,
                        measure_throughput)
from repro.perf.chunking import DEFAULT_MAX_BYTES


class TestIterSlices:
    def test_covers_total_exactly(self):
        slices = list(iter_slices(10, 3))
        assert [(s.start, s.stop) for s in slices] == [(0, 3), (3, 6), (6, 9), (9, 10)]

    def test_single_chunk(self):
        assert [(s.start, s.stop) for s in iter_slices(4, 100)] == [(0, 4)]

    def test_empty(self):
        assert list(iter_slices(0, 5)) == []

    def test_chunk_clamped_to_one(self):
        assert len(list(iter_slices(3, 0))) == 3


class TestChunkPolicy:
    def test_respects_budget(self):
        policy = ChunkPolicy(max_bytes=1000, preferred_bytes=0)
        assert policy.columns_per_chunk(100, 50) == 10

    def test_always_at_least_one_column(self):
        policy = ChunkPolicy(max_bytes=8, preferred_bytes=0)
        assert policy.columns_per_chunk(10_000, 50) == 1

    def test_never_exceeds_total(self):
        policy = ChunkPolicy(max_bytes=10**12)
        assert policy.columns_per_chunk(8, 17) == 17

    def test_preferred_caps_below_budget(self):
        policy = ChunkPolicy(max_bytes=DEFAULT_MAX_BYTES, preferred_bytes=1000)
        assert policy.columns_per_chunk(100, 10**6) == 10

    def test_disabled_policy_runs_unchunked(self):
        policy = ChunkPolicy(max_bytes=0)
        assert not policy.enabled
        assert policy.columns_per_chunk(10**9, 123) == 123

    def test_plan(self):
        policy = ChunkPolicy(max_bytes=1000, preferred_bytes=0)
        assert policy.plan(100, 25) == (10, 3)


class TestWorkspace:
    def test_reuses_matching_buffer(self):
        ws = Workspace()
        a = ws.request("x", (4, 5))
        b = ws.request("x", (4, 5))
        assert a is b

    def test_reallocates_on_shape_change(self):
        ws = Workspace()
        a = ws.request("x", (4, 5))
        b = ws.request("x", (4, 6))
        assert a is not b and b.shape == (4, 6)

    def test_reallocates_on_dtype_change(self):
        ws = Workspace()
        a = ws.request("x", (3,), dtype=np.float64)
        b = ws.request("x", (3,), dtype=np.int64)
        assert b.dtype == np.int64 and a is not b

    def test_accounting(self):
        ws = Workspace()
        ws.request("a", (10,))
        ws.request("b", (20,), dtype=np.float32)
        assert len(ws) == 2 and "a" in ws
        assert ws.nbytes() == 10 * 8 + 20 * 4
        ws.clear()
        assert len(ws) == 0


class TestTimers:
    def test_timer_accumulates(self):
        timer = Timer()
        for _ in range(3):
            with timer:
                sum(range(1000))
        assert timer.entries == 3
        assert timer.total >= timer.elapsed > 0

    def test_measure_throughput(self):
        result = measure_throughput(lambda: sum(range(100)), "toy",
                                    items_per_run=32, repeats=3, warmup=1)
        assert len(result.times) == 3
        assert result.best <= result.mean
        assert result.items_per_second > 0
        payload = result.to_dict()
        assert payload["label"] == "toy" and payload["items_per_run"] == 32


class TestIm2colOutBuffer:
    def test_matches_allocation_free_path(self, rng):
        x = rng.standard_normal((2, 3, 7, 7))
        expected = im2col(x, 3, 2, 1)
        out = np.empty_like(expected)
        got = im2col(x, 3, 2, 1, out=out)
        assert got is out
        np.testing.assert_array_equal(got, expected)

    def test_wrong_shape_rejected(self, rng):
        x = rng.standard_normal((1, 2, 5, 5))
        with pytest.raises(ValueError):
            im2col(x, 3, 1, 0, out=np.empty((1, 2, 3)))

    def test_non_contiguous_rejected(self, rng):
        x = rng.standard_normal((1, 1, 4, 4))
        good = im2col(x, 2, 2, 0)
        bad = np.empty(good.shape[::-1]).transpose(2, 1, 0)
        with pytest.raises(ValueError):
            im2col(x, 2, 2, 0, out=bad)


class TestCompiledKernel:
    def test_graceful_when_disabled(self, monkeypatch):
        import importlib
        import repro.perf.ckernels as ck
        monkeypatch.setenv("REPRO_DISABLE_CKERNELS", "1")
        module = importlib.reload(ck)
        try:
            assert module.kernel_available() is False
            assert module.get_pecan_d_kernel() is None
        finally:
            monkeypatch.delenv("REPRO_DISABLE_CKERNELS")
            importlib.reload(module)

    @pytest.mark.parametrize("value", ["", "0"])
    def test_empty_or_zero_does_not_disable(self, monkeypatch, value):
        # CI sets REPRO_DISABLE_CKERNELS=0 on its compiled-kernel legs.
        import importlib
        import repro.perf.ckernels as ck
        monkeypatch.delenv("REPRO_DISABLE_CKERNELS", raising=False)
        expected = importlib.reload(ck).kernel_available()
        monkeypatch.setenv("REPRO_DISABLE_CKERNELS", value)
        try:
            assert importlib.reload(ck).kernel_available() is expected
        finally:
            monkeypatch.undo()
            importlib.reload(ck)

    def test_kernel_matches_reference_when_available(self, rng):
        from repro.perf.ckernels import get_pecan_d_kernel
        bind = get_pecan_d_kernel()
        if bind is None:
            pytest.skip("no C compiler available")
        g, d, p, cout, n = 3, 4, 5, 6, 7
        x = np.ascontiguousarray(rng.standard_normal((n, g * d)))
        protos = np.ascontiguousarray(rng.standard_normal((g, d, p)))
        table_flat = np.ascontiguousarray(rng.standard_normal((g * p, cout)))
        row_offset = np.arange(g * d, dtype=np.int64)
        kernel = bind(protos, table_flat, row_offset)
        usage = np.zeros((g, p), dtype=np.int64)
        out = kernel(x, usage)
        grouped = x.reshape(n, g, d)
        expected = np.zeros((n, cout))
        winners = np.empty((n, g), dtype=np.int64)
        for j in range(g):
            dist = np.abs(grouped[:, j, :, None] - protos[j][None]).sum(axis=1)
            win = dist.argmin(axis=1)
            winners[:, j] = win
            expected += table_flat[j * p + win]
        # One sample at a time, the usage delta is the one-hot of each winner.
        steps = np.zeros_like(usage)
        for i in range(n):
            step = np.zeros_like(usage)
            np.testing.assert_array_equal(kernel(x[i:i + 1], step), out[i:i + 1])
            np.testing.assert_array_equal(step.sum(axis=1), np.ones(g))
            np.testing.assert_array_equal(step.argmax(axis=1), winners[i])
            steps += step
        np.testing.assert_array_equal(usage, steps)
        np.testing.assert_array_equal(out, expected)

    @pytest.mark.parametrize("stride,padding", [(2, 1), (1, 1), (2, 0)])
    def test_conv_kernel_matches_im2col_reference(self, rng, stride, padding):
        from repro.perf.ckernels import get_pecan_d_kernel
        bind = get_pecan_d_kernel()
        if bind is None:
            pytest.skip("no C compiler available")
        n, cin, h, w, k, d, p, cout = 3, 2, 7, 6, 3, 3, 5, 4
        g = cin * k * k // d
        x = rng.standard_normal((n, cin, h, w))
        protos = rng.standard_normal((g, d, p))
        table_flat = rng.standard_normal((g * p, cout))
        bias = rng.standard_normal(cout)
        rows = rng.permutation(g * d).astype(np.int64)
        kernel = bind(protos, table_flat, rows, bias, k, stride, padding)
        usage = np.zeros((g, p), dtype=np.int64)
        out = kernel(x, usage)
        cols = im2col(x, k, stride, padding)[:, rows].reshape(n, g, d, -1)
        hout, wout = out.shape[2:]
        assert cols.shape[-1] == hout * wout
        dist = np.abs(cols[:, :, :, None, :] - protos[None, :, :, :, None]).sum(axis=2)
        win = dist.argmin(axis=2)                                   # (N, G, L)
        flat = win + (np.arange(g) * p)[None, :, None]
        expected = table_flat[flat].sum(axis=1).transpose(0, 2, 1) + bias[None, :, None]
        np.testing.assert_array_equal(out, expected.reshape(n, cout, hout, wout))
        np.testing.assert_array_equal(
            usage, np.bincount(flat.reshape(-1), minlength=g * p).reshape(g, p))

    def test_kernel_rejects_bad_layouts(self, rng):
        from repro.perf.ckernels import get_pecan_d_kernel
        bind = get_pecan_d_kernel()
        if bind is None:
            pytest.skip("no C compiler available")
        protos = rng.standard_normal((2, 3, 4))
        table_flat = rng.standard_normal((8, 5))
        rows = np.arange(6, dtype=np.int64)
        with pytest.raises(ValueError):
            bind(protos[:, :, ::-1], table_flat, rows)            # not contiguous
        with pytest.raises(ValueError):
            bind(protos, table_flat.astype(np.float32), rows)
        with pytest.raises(ValueError):
            bind(protos, table_flat, rows + 1)                    # row 6 of 6
        kernel = bind(protos, table_flat, rows)
        with pytest.raises(ValueError):
            kernel(rng.standard_normal((2, 7)), np.zeros((2, 4), np.int64))
        with pytest.raises(ValueError):
            kernel(rng.standard_normal((2, 6)), np.zeros((2, 4), np.int32))

    def test_kernel_builds_when_enabled_and_compiler_present(self, monkeypatch):
        # Guards CI's compiled leg: a kernel that stops compiling must fail
        # here, not pass silently on the NumPy fallback.
        import importlib
        import shutil
        import repro.perf.ckernels as ck
        if not any(shutil.which(cc) for cc in ck._compiler_candidates()):
            pytest.skip("no C compiler available")
        monkeypatch.setenv("REPRO_DISABLE_CKERNELS", "0")
        try:
            assert importlib.reload(ck).kernel_available() is True
        finally:
            monkeypatch.undo()
            importlib.reload(ck)

    def test_c_source_compiles_without_warnings(self, tmp_path):
        import shutil
        import subprocess
        from repro.perf.ckernels import _C_SOURCE, _compiler_candidates
        compiler = next((cc for cc in _compiler_candidates() if shutil.which(cc)), None)
        if compiler is None:
            pytest.skip("no C compiler available")
        source = tmp_path / "pecan_kernels.c"
        source.write_text(_C_SOURCE)
        result = subprocess.run(
            [compiler, "-Wall", "-Wextra", "-Werror", "-O2", "-shared", "-fPIC",
             "-o", str(tmp_path / "pecan_kernels.so"), str(source)],
            capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        # One source: the JSON tensor parser is built with the same flags.
        lib = ctypes.CDLL(str(tmp_path / "pecan_kernels.so"))
        for symbol in ("pecan_d_lookup", "json_inputs_shape", "json_inputs_fill"):
            assert hasattr(lib, symbol), symbol

    def test_json_inputs_ignore_a_comma_decimal_locale(self):
        """The tensor parser reads numbers in the "C" locale whatever
        ``LC_NUMERIC`` says (plain ``strtod`` would stop at the '.')."""
        import locale
        import repro.perf.ckernels as ck
        if not ck.kernel_available():
            pytest.skip("compiled kernels unavailable")
        saved = locale.setlocale(locale.LC_NUMERIC)
        for name in ("de_DE.UTF-8", "de_DE.utf8", "fr_FR.UTF-8", "fr_FR.utf8",
                     "de_DE", "fr_FR"):
            try:
                locale.setlocale(locale.LC_NUMERIC, name)
            except locale.Error:
                continue
            if locale.localeconv()["decimal_point"] == ",":
                break
        else:
            locale.setlocale(locale.LC_NUMERIC, saved)
            pytest.skip("no comma-decimal locale installed")
        # Past 19 significant digits or a decimal exponent of 19 the parser
        # calls strtod_l; shorter numbers are converted in integer arithmetic.
        body = (b'{"inputs": [0.5, 1.25e-300, 0.123456789012345678901234,'
                b' -7.5e+300, 3]}')
        try:
            parsed = ck._json_inputs(body)
        finally:
            locale.setlocale(locale.LC_NUMERIC, saved)
        assert parsed is not None
        expected = np.asarray(json.loads(body)["inputs"], dtype=np.float64)
        assert parsed[0].tobytes() == expected.tobytes()
