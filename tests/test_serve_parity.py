"""Bundle→engine parity: a served ``.npz`` must reproduce the live engine.

The acceptance property of the serving subsystem: export a *trained* toy
model, reload the bundle with no model object, and the
:class:`~repro.serve.engine.BundleEngine` (and the HTTP server in front of
it) produce outputs identical to :meth:`CAMInferenceEngine.predict` on the
source model — element-wise, and bitwise for PECAN-D.  Exercised across the
permuted-group (spatial layout) path and the compiled-kernel-disabled
(``REPRO_DISABLE_CKERNELS=1``) fallback paths.
"""

from __future__ import annotations

import numpy as np
import pytest

from harness import unfolded_bundle
from repro.cam.inference import CAMInferenceEngine
from repro.data import make_dataset
from repro.data.loader import DataLoader
from repro.io import export_deployment_bundle, load_deployment_bundle
from repro.models import build_model
from repro.nn import Conv2d, Flatten, Linear, MaxPool2d, Module, ReLU, Sequential
from repro.pecan.config import PQLayerConfig
from repro.pecan.convert import convert_to_pecan
from repro.pecan.training import PECANTrainer
from repro.perf import kernel_available
from repro.serve import BundleEngine, PECANServer, ServeClient, ServeConfig


def toy_model(rng, mode, subvector_dim=None, in_channels=1, image_size=12):
    cfg = PQLayerConfig(num_prototypes=4, mode=mode, subvector_dim=subvector_dim,
                        temperature=0.5 if mode == "distance" else 1.0)
    spatial = (image_size - 2) // 2
    model = Sequential(
        Conv2d(in_channels, 4, 3, rng=rng), ReLU(), MaxPool2d(2), Flatten(),
        Linear(4 * spatial * spatial, 10, rng=rng),
    )
    return convert_to_pecan(model, cfg, rng=rng)


@pytest.fixture(scope="module")
def trained_setup():
    """A briefly *trained* PECAN-D toy model, its bundle, and eval images."""
    rng = np.random.default_rng(7)
    train, test = make_dataset("mnist", num_train=32, num_test=16, image_size=12)
    model = toy_model(rng, "distance")
    trainer = PECANTrainer(model)
    trainer.fit(DataLoader(train, batch_size=16, shuffle=True, seed=0),
                DataLoader(test, batch_size=16), epochs=1, verbose=False)
    return model, test.images[:8]


@pytest.fixture(scope="module")
def trained_bundle(trained_setup, tmp_path_factory):
    model, images = trained_setup
    path = tmp_path_factory.mktemp("bundles") / "trained.npz"
    export_deployment_bundle(model, path, input_shape=images.shape[1:])
    return path


class TestTrainedBundleParity:
    def test_engine_bitwise_parity_pecan_d(self, trained_setup, trained_bundle):
        model, images = trained_setup
        bundle_engine = BundleEngine(trained_bundle)
        expected = CAMInferenceEngine(model).predict(images)
        np.testing.assert_array_equal(bundle_engine.predict(images), expected)

    def test_reference_path_parity(self, trained_setup, trained_bundle):
        model, images = trained_setup
        bundle_engine = BundleEngine(trained_bundle, use_fused=False)
        expected = CAMInferenceEngine(model, use_fused=False).predict(images)
        np.testing.assert_array_equal(bundle_engine.predict(images), expected)

    def test_server_parity_from_npz_only(self, trained_setup, trained_bundle):
        """Acceptance: a server started from only the exported .npz answers
        /predict with outputs identical to CAMInferenceEngine on the model."""
        model, images = trained_setup
        expected = CAMInferenceEngine(model).predict(images)
        server = PECANServer(config=ServeConfig.build(
            port=0, max_batch_size=8, cache_mb=0.0,
            mmap=False))
        server.add_bundle(trained_bundle, name="trained", preload=True)
        with server:
            client = ServeClient(server.url)
            assert client.wait_ready(10.0)
            logits = client.predict(images)
        np.testing.assert_array_equal(logits, expected)

    def test_bundle_round_trip_preserves_program(self, trained_bundle):
        bundle = load_deployment_bundle(trained_bundle)
        assert bundle.has_program
        assert bundle.input_shape == (1, 12, 12)
        # Export fuses the ReLU into the first PECAN layer.
        assert bundle.graph.op_names() == ["pecan", "maxpool", "flatten",
                                           "pecan"]
        assert bundle.graph.nodes[1].attrs.get("fused_relu")
        assert bundle.passes == ["fuse_relu"]
        assert bundle.graph.pecan_layers() == ["0", "4"]


class TestAngleParity:
    def test_engine_parity_pecan_a(self, rng, tmp_path):
        model = toy_model(rng, "angle")
        images = rng.standard_normal((6, 1, 12, 12))
        path = export_deployment_bundle(model, tmp_path / "angle.npz",
                                        input_shape=(1, 12, 12))
        replayed = BundleEngine(path).predict(images)
        expected = CAMInferenceEngine(model).predict(images)
        np.testing.assert_allclose(replayed, expected, atol=1e-8)


class TestPermutedGroupParity:
    def test_spatial_layout_bundle_parity(self, rng, tmp_path):
        # subvector_dim = cin forces the spatial (permuted) group layout.
        model = Sequential(Conv2d(4, 8, 3, padding=1, rng=rng), ReLU(),
                           Conv2d(8, 4, 3, padding=1, rng=rng))
        cfg = PQLayerConfig(num_prototypes=4, subvector_dim=4, mode="distance",
                            temperature=0.5)
        converted = convert_to_pecan(model, cfg, rng=rng)
        assert converted[0].group_layout == "spatial"
        path = export_deployment_bundle(converted, tmp_path / "perm.npz",
                                        input_shape=(4, 8, 8))
        bundle = load_deployment_bundle(path)
        assert any(lut.group_permutation is not None for lut in bundle.luts.values())
        images = rng.standard_normal((3, 4, 8, 8))
        expected = CAMInferenceEngine(converted).predict(images)
        np.testing.assert_array_equal(BundleEngine(path).predict(images), expected)


class TestCompiledKernelFallbackParity:
    @pytest.fixture
    def no_ckernels(self, monkeypatch):
        """Recreate the REPRO_DISABLE_CKERNELS=1 environment in-process."""
        import repro.perf.ckernels as ck
        monkeypatch.setenv("REPRO_DISABLE_CKERNELS", "1")
        monkeypatch.setattr(ck, "_load_attempted", False)
        monkeypatch.setattr(ck, "_lib", None)
        yield
        monkeypatch.setattr(ck, "_load_attempted", False)
        monkeypatch.setattr(ck, "_lib", None)

    def test_fallback_parity(self, rng, tmp_path, no_ckernels):
        from repro.perf.ckernels import get_pecan_d_kernel
        assert get_pecan_d_kernel() is None          # env var honoured
        model = toy_model(rng, "distance")
        images = rng.standard_normal((4, 1, 12, 12))
        path = export_deployment_bundle(model, tmp_path / "fallback.npz",
                                        input_shape=(1, 12, 12))
        bundle_engine = BundleEngine(path)
        assert all(name in ("cdist", "numpy")
                   for name in bundle_engine.kernel_names().values())
        expected = CAMInferenceEngine(model).predict(images)
        np.testing.assert_array_equal(bundle_engine.predict(images), expected)

    @pytest.mark.skipif(not kernel_available(), reason="no C compiler available")
    def test_fallback_matches_compiled_bundle_engine(self, rng, tmp_path):
        model = toy_model(rng, "distance")
        images = rng.standard_normal((4, 1, 12, 12))
        path = export_deployment_bundle(model, tmp_path / "both.npz",
                                        input_shape=(1, 12, 12))
        compiled = BundleEngine(path)
        assert set(compiled.kernel_names().values()) == {"ckernel"}
        fallback = BundleEngine(path)
        for runtime in fallback.runtimes.values():
            runtime._ckernel = None
        np.testing.assert_array_equal(compiled.predict(images),
                                      fallback.predict(images))


# --------------------------------------------------------------------------- #
# Multi-topology parity (graph IR): residual and mixer architectures
# --------------------------------------------------------------------------- #
def small_resnet(seed=11):
    return build_model("resnet20_pecan_d", width_multiplier=0.125,
                       prototype_cap=4, rng=np.random.default_rng(seed))


def small_convmixer(seed=12):
    return build_model("convmixer_pecan_d", width_multiplier=0.0625, depth=2,
                       patch_size=4, image_size=16, prototype_cap=4,
                       rng=np.random.default_rng(seed))


class TestMultiTopologyParity:
    """Export→load→serve round trips for non-sequential architectures.

    The graph IR's acceptance property: every model in the registry —
    including ResNet (residual adds + option-A concat shortcuts) and
    ConvMixer (block-level residuals) — exports to a format-v3 bundle and
    serves with outputs element-wise identical (bitwise for PECAN-D) to the
    live CAM engine *and* to the per-group reference loop.
    """

    @pytest.fixture(scope="class", params=["resnet", "convmixer"])
    def topology(self, request, tmp_path_factory):
        if request.param == "resnet":
            model, shape = small_resnet(), (3, 16, 16)
        else:
            model, shape = small_convmixer(), (3, 16, 16)
        path = tmp_path_factory.mktemp("topo") / f"{request.param}.npz"
        export_deployment_bundle(model, path, input_shape=shape)
        images = np.random.default_rng(5).standard_normal((4, *shape))
        return model, path, images

    def test_fused_engine_bitwise_parity(self, topology):
        model, path, images = topology
        expected = CAMInferenceEngine(model).predict(images)
        np.testing.assert_array_equal(BundleEngine(path).predict(images), expected)

    def test_reference_loop_parity(self, topology):
        model, path, images = topology
        expected = CAMInferenceEngine(model, use_fused=False).predict(images)
        bundle_reference = BundleEngine(path, use_fused=False).predict(images)
        np.testing.assert_array_equal(bundle_reference, expected)
        # Fused and reference paths agree bitwise on the PECAN-D lookup path.
        np.testing.assert_array_equal(BundleEngine(path).predict(images),
                                      bundle_reference)

    def test_server_round_trip(self, topology):
        model, path, images = topology
        expected = CAMInferenceEngine(model).predict(images)
        server = PECANServer(config=ServeConfig.build(
            port=0, max_batch_size=8, audit_every=1,
            cache_mb=0.0, mmap=False))
        server.add_bundle(path, name="topo", preload=True)
        with server:
            client = ServeClient(server.url)
            assert client.wait_ready(10.0)
            logits = client.predict(images)
            server.monitor.drain()
            verification = server.monitor.snapshot()
            assert verification["by_invariant"]["parity_audit"] == 0
        np.testing.assert_array_equal(logits, expected)

    def test_batch_chunk_streaming_matches(self, topology, request):
        _, path, images = topology
        engine = BundleEngine(path)
        streamed = engine.predict(images, batch_chunk=1)
        full = engine.predict(images)
        if "resnet" in request.node.name:
            # Fully converted PECAN-D path: streaming is bitwise stable.
            np.testing.assert_array_equal(streamed, full)
        else:
            # ConvMixer keeps its first conv / classifier unconverted; those
            # BLAS matmuls reassociate across batch sizes (last-bit only).
            np.testing.assert_allclose(streamed, full, atol=1e-12)

    def test_optimized_graph_parity(self, topology, request):
        # Export runs the graph passes; the bundle holds the folded program.
        model, path, images = topology
        engine = BundleEngine(path)
        unfolded = BundleEngine(unfolded_bundle(model, images.shape[1:]))
        if "resnet" in request.node.name:
            # Every conv/pecan–BN pair of the ResNet folds away.
            assert "fold_batchnorm" in engine.bundle.passes
            assert len(engine.step_names()) < len(unfolded.step_names())
        assert engine.stats_snapshot()["optimization"] == engine.bundle.passes
        np.testing.assert_allclose(engine.predict(images),
                                   CAMInferenceEngine(model).predict(images),
                                   atol=1e-8)

    def test_optimized_server_audits_clean(self, topology):
        # The audit's reference engine executes the *same* (folded) program
        # as the served engine, so the parity audit counts no mismatches.
        model, path, images = topology
        # Output sampling off, so `checks` counts the parity audits alone.
        server = PECANServer(config=ServeConfig.build(
            port=0, max_batch_size=8, audit_every=1,
            cache_mb=0.0, invariant_every=0))
        server.add_bundle(path, name="opt", preload=True)
        try:
            for start in range(0, 4, 2):
                server.predict(images[start:start + 2], model="opt")
            served = server._served["opt"]
            assert served.reference.step_names() == served.engine.step_names()
            # The batch hook runs after the caller is answered, so the
            # second batch's audit may not be queued yet; the first's is.
            server.monitor.drain()
            verification = server.monitor.snapshot()
            assert verification["checks"] >= 1
            assert verification["by_invariant"]["parity_audit"] == 0
        finally:
            server.stop()

    def test_reference_engine_mirrors_optimization(self, topology):
        model, path, _ = topology
        engine = BundleEngine(path)
        reference = engine.reference_engine()
        assert set(reference.kernel_names().values()) == {"reference"}
        assert reference.step_names() == engine.step_names()
        # An unfolded bundle's reference runs the unfolded program.
        unfolded = BundleEngine(unfolded_bundle(model, engine.input_shape))
        assert (unfolded.reference_engine().step_names()
                == unfolded.step_names())

    def test_resnet_ckernel_fallback_parity(self, rng, tmp_path, monkeypatch):
        import repro.perf.ckernels as ck
        monkeypatch.setenv("REPRO_DISABLE_CKERNELS", "1")
        monkeypatch.setattr(ck, "_load_attempted", False)
        monkeypatch.setattr(ck, "_lib", None)
        try:
            model = small_resnet(seed=21)
            images = rng.standard_normal((3, 3, 16, 16))
            path = export_deployment_bundle(model, tmp_path / "resnet_fb.npz",
                                            input_shape=(3, 16, 16))
            engine = BundleEngine(path)
            assert all(name in ("cdist", "numpy")
                       for name in engine.kernel_names().values())
            expected = CAMInferenceEngine(model).predict(images)
            np.testing.assert_array_equal(engine.predict(images), expected)
        finally:
            monkeypatch.setattr(ck, "_load_attempted", False)
            monkeypatch.setattr(ck, "_lib", None)

    def test_permuted_group_residual_parity(self, rng, tmp_path):
        # subvector_dim = cin on a residual block forces the spatial
        # (permuted) group layout through the DAG path.
        class Residual(Module):
            def __init__(self):
                super().__init__()
                self.conv1 = Conv2d(4, 4, 3, padding=1, rng=rng)
                self.relu = ReLU()
                self.conv2 = Conv2d(4, 4, 3, padding=1, rng=rng)

            def forward(self, x):
                return self.relu(self.conv2(self.relu(self.conv1(x)))) + x

        cfg = PQLayerConfig(num_prototypes=4, subvector_dim=4, mode="distance",
                            temperature=0.5)
        converted = convert_to_pecan(Residual(), cfg, rng=rng)
        assert converted.conv1.group_layout == "spatial"
        path = export_deployment_bundle(converted, tmp_path / "perm_res.npz",
                                        input_shape=(4, 8, 8))
        bundle = load_deployment_bundle(path)
        assert any(lut.group_permutation is not None
                   for lut in bundle.luts.values())
        assert "add" in bundle.graph.op_names()
        images = rng.standard_normal((3, 4, 8, 8))
        expected = CAMInferenceEngine(converted).predict(images)
        np.testing.assert_array_equal(BundleEngine(path).predict(images), expected)
