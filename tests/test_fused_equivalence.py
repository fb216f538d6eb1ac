"""Randomized equivalence tests: fused fast paths vs the reference kernels.

Every fast path introduced by the perf work must be indistinguishable from
the original implementation:

* the fused/streaming CAM engine vs the per-group ``CAMArray`` loop
  (PECAN-A and PECAN-D, conv and fc, with and without a group permutation),
* the chunked recompute-in-backward l1 kernels vs dense autograd,
* the fused ``einsum`` training forward vs the explicit
  reconstruct → per-group matmul → sum pipeline.
"""

import numpy as np
import pytest

from repro.autograd import Tensor, check_gradient, functional as F, no_grad
from repro.cam.cam_array import CAMStats
from repro.cam.inference import CAMInferenceEngine
from repro.nn.layers import ReLU
from repro.nn.sequential import Sequential
from repro.pecan.config import PECANMode, PQLayerConfig
from repro.pecan.layers import PECANConv2d, PECANLinear
from repro.pecan.similarity import (l1_distance_smoothed, reconstruct,
                                    reconstruct_and_project)
from repro.perf import ChunkPolicy


def make_config(mode, p=4, subvector_dim=None):
    temperature = 1.0 if PECANMode.parse(mode) is PECANMode.ANGLE else 0.5
    return PQLayerConfig(num_prototypes=p, mode=mode, temperature=temperature,
                         subvector_dim=subvector_dim)


def conv_model(rng, mode, subvector_dim=None, in_channels=4):
    """Two PECAN convs (+ReLU). ``subvector_dim=in_channels`` → spatial layout."""
    first = make_config(mode, subvector_dim=subvector_dim)
    second = make_config(mode)
    return Sequential(
        PECANConv2d(in_channels, 6, 3, first, padding=1, rng=rng), ReLU(),
        PECANConv2d(6, 5, 3, second, padding=1, stride=2, rng=rng),
    )


def fc_model(rng, mode):
    cfg = make_config(mode)
    return Sequential(PECANLinear(24, 10, cfg, rng=rng), ReLU(),
                      PECANLinear(10, 7, cfg, rng=rng))


def assert_engine_paths_match(model, x, atol=1e-10):
    fused = CAMInferenceEngine(model)
    assert fused.use_fused
    reference = CAMInferenceEngine(model, use_fused=False)
    out_fused = fused.predict(x)
    out_ref = reference.predict(x)
    np.testing.assert_allclose(out_fused, out_ref, atol=atol)
    # Statistics must agree exactly between the two kernels.
    assert fused.op_counter.summary() == reference.op_counter.summary()
    # Field by field, energy included: the default energy constants are
    # multiples of 0.25, so every sum is exact.
    assert fused.cam_stats() == reference.cam_stats()
    for name, usage in fused.prototype_usage().items():
        np.testing.assert_array_equal(usage, reference.prototype_usage()[name])
    # Fused runtimes hold no CAM banks; the reference path's banks keep their
    # own tallies, an independent check on the static cost model.
    assert not any(runtime.cam_banks for runtime in fused.runtimes.values())
    merged = CAMStats()
    for name, runtime in reference.runtimes.items():
        assert len(runtime.cam_banks) == runtime.lut.num_groups
        for bank in runtime.cam_banks:
            merged = merged.merge(bank.stats)
        np.testing.assert_array_equal(
            np.stack([bank.usage for bank in runtime.cam_banks]),
            reference.prototype_usage()[name])
    assert merged == reference.cam_stats()
    return out_fused


class TestEngineEquivalence:
    @pytest.mark.parametrize("mode", ["distance", "angle"])
    def test_conv_channel_layout(self, rng, mode):
        model = conv_model(rng, mode)
        assert model[0].group_layout == "channel"
        assert_engine_paths_match(model, rng.standard_normal((3, 4, 8, 8)))

    @pytest.mark.parametrize("mode", ["distance", "angle"])
    def test_conv_spatial_permutation(self, rng, mode):
        # d = cin forces the position-major ("spatial") group permutation.
        model = conv_model(rng, mode, subvector_dim=4)
        assert model[0].group_layout == "spatial"
        assert model[0].num_groups == 9
        assert_engine_paths_match(model, rng.standard_normal((3, 4, 8, 8)))

    @pytest.mark.parametrize("mode", ["distance", "angle"])
    def test_fc(self, rng, mode):
        model = fc_model(rng, mode)
        assert_engine_paths_match(model, rng.standard_normal((5, 24)))

    @pytest.mark.parametrize("mode", ["distance", "angle"])
    def test_streaming_chunks_identical(self, rng, mode):
        model = conv_model(rng, mode)
        x = rng.standard_normal((7, 4, 8, 8))
        engine = CAMInferenceEngine(model)
        full = engine.predict(x)
        for chunk in (1, 2, 3, 7, 50):
            streamed = engine.predict(x, batch_chunk=chunk)
            if mode == "distance":
                np.testing.assert_array_equal(full, streamed)
            else:
                # BLAS GEMMs may block differently per operand shape; the
                # angle path is equal only to floating-point round-off.
                np.testing.assert_allclose(full, streamed, atol=1e-12)

    def test_position_chunking_identical(self, rng):
        # A tiny chunk budget forces many position chunks on the NumPy paths.
        model = conv_model(rng, "distance")
        x = rng.standard_normal((2, 4, 8, 8))
        tight = CAMInferenceEngine(model, chunk_policy=ChunkPolicy(max_bytes=4096))
        roomy = CAMInferenceEngine(model)
        np.testing.assert_allclose(tight.predict(x), roomy.predict(x), atol=1e-12)

    def test_numpy_fallback_matches_reference(self, rng, monkeypatch):
        # Disable the compiled kernel so the chunked NumPy path is exercised.
        model = conv_model(rng, "distance")
        x = rng.standard_normal((2, 4, 8, 8))
        engine = CAMInferenceEngine(model, chunk_policy=ChunkPolicy(max_bytes=64 * 1024))
        for runtime in engine.runtimes.values():
            monkeypatch.setattr(runtime, "_ckernel", None)
            assert runtime.kernel_name in ("cdist", "numpy")
        reference = CAMInferenceEngine(model, use_fused=False)
        np.testing.assert_allclose(engine.predict(x), reference.predict(x), atol=1e-10)

    def test_broadcast_fallback_matches_reference(self, rng, monkeypatch):
        # No compiled kernel AND no scipy → pure chunked-broadcast path.
        import repro.cam.runtime as runtime_mod
        model = conv_model(rng, "distance")
        x = rng.standard_normal((2, 4, 8, 8))
        engine = CAMInferenceEngine(model, chunk_policy=ChunkPolicy(max_bytes=64 * 1024))
        monkeypatch.setattr(runtime_mod, "_cdist", None)
        for runtime in engine.runtimes.values():
            monkeypatch.setattr(runtime, "_ckernel", None)
            assert runtime.kernel_name == "numpy"
        reference = CAMInferenceEngine(model, use_fused=False)
        np.testing.assert_allclose(engine.predict(x), reference.predict(x), atol=1e-10)


class TestTrainingPathEquivalence:
    def _dense_l1_reference(self, x, protos, sharpness=None):
        """The pre-fusion implementation retaining the full difference tensor."""
        diff = x.data[..., None, :, :] - protos.data[..., :, :, None].swapaxes(-3, -2)
        out_data = np.abs(diff).sum(axis=-2)
        sign = np.sign(diff) if sharpness is None else np.tanh(sharpness * diff)

        def backward(grad):
            if x.requires_grad:
                x._accumulate_grad((sign * grad[..., :, None, :]).sum(axis=-3))
            if protos.requires_grad:
                gp = (-sign * grad[..., :, None, :]).sum(axis=-1)
                protos._accumulate_grad(gp.swapaxes(-1, -2))

        return Tensor.from_op(out_data, (x, protos), backward)

    @pytest.mark.parametrize("sharpness", [None, 3.7])
    def test_chunked_l1_matches_dense(self, rng, sharpness):
        policy = ChunkPolicy(max_bytes=2048)       # force several chunks
        x = Tensor(rng.standard_normal((2, 3, 4, 11)), requires_grad=True)
        protos = Tensor(rng.standard_normal((3, 4, 5)), requires_grad=True)
        if sharpness is None:
            fused = F.pairwise_l1_distance(x, protos, chunk_policy=policy)
        else:
            fused = F.pairwise_l1_distance(
                x, protos, sign_fn=lambda d: np.tanh(sharpness * d),
                chunk_policy=policy)
        x2 = Tensor(x.data.copy(), requires_grad=True)
        protos2 = Tensor(protos.data.copy(), requires_grad=True)
        dense = self._dense_l1_reference(x2, protos2, sharpness=sharpness)
        np.testing.assert_allclose(fused.data, dense.data, atol=1e-10)
        seed = rng.standard_normal(fused.shape)
        fused.backward(seed)
        dense.backward(seed)
        np.testing.assert_allclose(x.grad, x2.grad, atol=1e-10)
        np.testing.assert_allclose(protos.grad, protos2.grad, atol=1e-10)

    def test_l1_exact_subgradient_gradcheck(self, rng):
        # sharpness=None selects the exact sign subgradient, which is what the
        # numerical gradient of the |·| forward measures.  (The tanh surrogate
        # intentionally deviates from it — Eq. 6 — and is covered against the
        # dense reference implementation above.)
        x = Tensor(rng.standard_normal((2, 2, 3, 4)), requires_grad=True)
        protos = Tensor(rng.standard_normal((2, 3, 5)), requires_grad=True)
        for index in range(2):
            ok, err = check_gradient(
                lambda a, b: l1_distance_smoothed(a, b, sharpness=None),
                [x, protos], index=index, atol=1e-3, rtol=1e-2)
            assert ok, f"input {index}: {err}"

    def test_einsum_matches_numpy_and_gradcheck(self, rng):
        w = Tensor(rng.standard_normal((3, 5, 4)), requires_grad=True)
        c = Tensor(rng.standard_normal((3, 4, 6)), requires_grad=True)
        k = Tensor(rng.standard_normal((2, 3, 6, 7)), requires_grad=True)
        out = F.einsum("god,gdp,ngpl->nol", w, c, k)
        expected = np.einsum("god,gdp,ngpl->nol", w.data, c.data, k.data)
        np.testing.assert_allclose(out.data, expected, atol=1e-10)
        for index in range(3):
            ok, err = check_gradient(
                lambda *args: F.einsum("god,gdp,ngpl->nol", *args),
                [w, c, k], index=index, atol=1e-3, rtol=1e-2)
            assert ok, f"operand {index}: {err}"

    def test_einsum_rejects_unsupported(self, rng):
        a = Tensor(rng.standard_normal((3, 3)))
        with pytest.raises(ValueError):
            F.einsum("ij,jk", a, a)                  # implicit output
        with pytest.raises(NotImplementedError):
            F.einsum("ii->i", a)                     # repeated index
        with pytest.raises(NotImplementedError):
            F.einsum("ij,jk->k", a, a)               # 'i' summed inside one operand

    def test_einsum_internal_sum_rejected_before_any_gradient(self, rng):
        # The restriction must fire at construction, not mid-backward where it
        # would leave gradients partially accumulated.
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        with pytest.raises(NotImplementedError):
            F.einsum("ij,jk->k", a, b)
        assert a.grad is None and b.grad is None

    def test_fused_forward_matches_unfused_pipeline(self, rng):
        w = Tensor(rng.standard_normal((3, 5, 4)), requires_grad=True)
        protos = Tensor(rng.standard_normal((3, 4, 6)), requires_grad=True)
        assignment = Tensor(rng.random((2, 3, 6, 7)), requires_grad=True)
        fused = reconstruct_and_project(w, protos, assignment)
        quantized = reconstruct(protos, assignment)
        unfused = w.matmul(quantized).sum(axis=1)
        np.testing.assert_allclose(fused.data, unfused.data, atol=1e-10)

    @pytest.mark.parametrize("mode", ["distance", "angle"])
    def test_layer_forward_backward_still_consistent(self, rng, mode):
        """End-to-end: the fused training graph differentiates correctly."""
        layer = PECANConv2d(2, 3, 3, make_config(mode, p=3), padding=1, rng=rng)
        x = Tensor(rng.standard_normal((2, 2, 5, 5)), requires_grad=True)
        out = layer(x)
        out.sum().backward()
        assert x.grad is not None and np.isfinite(x.grad).all()
        assert layer.weight.grad is not None
        assert layer.codebook.prototypes.grad is not None


class TestLUTInferenceStillMatchesTraining:
    @pytest.mark.parametrize("mode", ["distance", "angle"])
    def test_fused_lut_matches_training_graph(self, rng, mode):
        model = conv_model(rng, mode)
        x = rng.standard_normal((2, 4, 8, 8))
        model.eval()
        with no_grad():
            direct = model(Tensor(x)).data
        engine = CAMInferenceEngine(model)
        np.testing.assert_allclose(engine.predict(x), direct, atol=1e-8)
