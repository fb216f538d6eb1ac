"""Unit tests for checkpoint and deployment-bundle serialization."""

import json

import numpy as np
import pytest

from repro.autograd import Tensor, no_grad
from repro.cam import CAMInferenceEngine
from repro.io import (DeploymentBundle, export_deployment_bundle, load_checkpoint, load_deployment_bundle, save_checkpoint)
from repro.io.deployment import (_MANIFEST_KEY, _PROGRAM_PREFIX, BundleFormatError,
                                 bundle_cache_dir, materialize_bundle_cache)
from repro.models import LeNet5, build_model


@pytest.fixture
def pecan_model(rng):
    return build_model("lenet5_pecan_d", width_multiplier=0.5, image_size=14,
                       prototype_cap=8, rng=rng)


class TestCheckpoint:
    def test_roundtrip_restores_parameters(self, rng, tmp_path):
        model = LeNet5(width_multiplier=0.5, rng=rng)
        path = save_checkpoint(model, tmp_path / "model")
        assert path.suffix == ".npz"

        other = LeNet5(width_multiplier=0.5, rng=np.random.default_rng(99))
        assert not np.array_equal(other.features[0].weight.data,
                                  model.features[0].weight.data)
        load_checkpoint(path, model=other)
        np.testing.assert_array_equal(other.features[0].weight.data,
                                      model.features[0].weight.data)

    def test_roundtrip_restores_buffers(self, rng, tmp_path):
        model = build_model("vgg_small", width_multiplier=0.05, image_size=16, rng=rng)
        model.train()
        model(Tensor(rng.standard_normal((4, 3, 16, 16))))
        path = save_checkpoint(model, tmp_path / "vgg.npz")

        other = build_model("vgg_small", width_multiplier=0.05, image_size=16,
                            rng=np.random.default_rng(5))
        load_checkpoint(path, model=other)
        bn = model.features[1]
        other_bn = other.features[1]
        np.testing.assert_array_equal(bn.running_mean, other_bn.running_mean)

    def test_metadata_roundtrip(self, rng, tmp_path):
        model = LeNet5(width_multiplier=0.5, rng=rng)
        path = save_checkpoint(model, tmp_path / "m", metadata={"accuracy": 0.93, "epoch": 7})
        checkpoint = load_checkpoint(path)
        assert checkpoint.metadata == {"accuracy": 0.93, "epoch": 7}
        assert checkpoint.num_arrays == len(model.state_dict())
        assert checkpoint.num_values > 0

    def test_pecan_prototypes_roundtrip(self, rng, tmp_path, pecan_model):
        path = save_checkpoint(pecan_model, tmp_path / "pecan")
        other = build_model("lenet5_pecan_d", width_multiplier=0.5, image_size=14,
                            prototype_cap=8, rng=np.random.default_rng(123))
        load_checkpoint(path, model=other)
        np.testing.assert_array_equal(other.features[0].codebook.prototypes.data,
                                      pecan_model.features[0].codebook.prototypes.data)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "nope.npz")

    def test_non_checkpoint_file_raises(self, tmp_path):
        bogus = tmp_path / "bogus.npz"
        np.savez(bogus, something=np.zeros(3))
        with pytest.raises(ValueError):
            load_checkpoint(bogus)

    def test_strict_load_into_mismatched_model_raises(self, rng, tmp_path):
        model = LeNet5(width_multiplier=0.5, rng=rng)
        path = save_checkpoint(model, tmp_path / "m")
        mismatched = LeNet5(width_multiplier=1.0, rng=rng)
        with pytest.raises(Exception):
            load_checkpoint(path, model=mismatched)


class TestDeploymentBundle:
    def test_export_and_reload(self, rng, tmp_path, pecan_model):
        path = export_deployment_bundle(pecan_model, tmp_path / "bundle",
                                        metadata={"arch": "lenet5_pecan_d"})
        bundle = load_deployment_bundle(path)
        assert isinstance(bundle, DeploymentBundle)
        assert len(bundle.layer_names) == 5
        assert bundle.metadata["arch"] == "lenet5_pecan_d"
        assert bundle.is_multiplier_free()
        assert bundle.total_values() > 0

    def test_bundle_matches_in_memory_luts(self, rng, tmp_path, pecan_model):
        from repro.cam.lut import build_model_luts
        path = export_deployment_bundle(pecan_model, tmp_path / "bundle.npz")
        bundle = load_deployment_bundle(path)
        luts = build_model_luts(pecan_model)
        for name, lut in luts.items():
            np.testing.assert_allclose(bundle.luts[name].table, lut.table)
            np.testing.assert_allclose(bundle.luts[name].prototypes, lut.prototypes)
            assert bundle.luts[name].mode is lut.mode
            assert bundle.luts[name].kernel_size == lut.kernel_size

    def test_reloaded_bundle_supports_inference_reconstruction(self, rng, tmp_path, pecan_model):
        """A LUT reloaded from disk must reproduce the same layer outputs."""
        path = export_deployment_bundle(pecan_model, tmp_path / "bundle.npz")
        bundle = load_deployment_bundle(path)

        layer = pecan_model.features[0]
        lut = bundle.luts["features.0"]
        x = rng.standard_normal((1, 1, 14, 14))
        pecan_model.eval()
        with no_grad():
            expected = layer(Tensor(x)).data
        # Recompute via the reloaded LUT arrays.
        from repro.autograd.im2col import im2col
        cols = im2col(x, lut.kernel_size, lut.stride, lut.padding)
        grouped = cols.reshape(1, lut.num_groups, lut.subvector_dim, -1)
        out = np.zeros((1, lut.out_channels, grouped.shape[-1]))
        for j in range(lut.num_groups):
            distances = np.abs(grouped[0, j][:, None, :] - lut.prototypes[j][:, :, None]).sum(axis=0)
            winners = distances.argmin(axis=0)
            out[0] += lut.table[j][:, winners]
        out += lut.bias.reshape(1, -1, 1)
        np.testing.assert_allclose(out.reshape(expected.shape), expected, atol=1e-8)

    def test_angle_bundle_not_multiplier_free(self, rng, tmp_path):
        model = build_model("lenet5_pecan_a", width_multiplier=0.5, image_size=14, rng=rng)
        path = export_deployment_bundle(model, tmp_path / "angle.npz")
        assert not load_deployment_bundle(path).is_multiplier_free()

    def test_export_without_pecan_layers_raises(self, rng, tmp_path):
        with pytest.raises(ValueError):
            export_deployment_bundle(LeNet5(width_multiplier=0.5, rng=rng), tmp_path / "x.npz")

    def test_missing_bundle_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_deployment_bundle(tmp_path / "missing.npz")

    def test_export_rejects_hook_bypassing_forward(self, rng, tmp_path):
        """Mis-traces must fail export, not serialize silently wrong graphs.

        A forward that wraps input-dependent NumPy math in a fresh Tensor
        bypasses the trace hooks; the tracer freezes the probe's value as a
        constant.  The export oracle (the model's *own* forward with LUT-
        swapped PECAN layers, not the traced graph) catches the divergence.
        """
        from repro.nn import Module, Sequential, Conv2d
        from repro.pecan.config import PQLayerConfig
        from repro.pecan.convert import convert_to_pecan

        class Smuggler(Module):
            def forward(self, x):
                return x + Tensor(np.tanh(x.data))   # invisible to the tracer

        cfg = PQLayerConfig(num_prototypes=4, mode="distance", temperature=0.5)
        model = convert_to_pecan(
            Sequential(Conv2d(1, 2, 3, rng=rng), Smuggler()), cfg, rng=rng)
        with pytest.raises(ValueError, match="own forward"):
            export_deployment_bundle(model, tmp_path / "smuggled.npz",
                                     input_shape=(1, 6, 6))

    def test_v3_bundle_embeds_graph_for_residual_model(self, rng, tmp_path):
        model = build_model("resnet20_pecan_d", width_multiplier=0.125,
                            prototype_cap=4, rng=rng)
        path = export_deployment_bundle(model, tmp_path / "resnet.npz",
                                        input_shape=(3, 16, 16))
        bundle = load_deployment_bundle(path)
        assert bundle.has_program
        assert "add" in bundle.graph.op_names()
        assert set(bundle.graph.pecan_layers()) == set(bundle.luts)

    def test_spatial_permutation_preserved(self, rng, tmp_path):
        from repro.pecan.config import PQLayerConfig
        from repro.pecan.convert import convert_to_pecan
        from repro.nn import Sequential, Conv2d

        model = Sequential(Conv2d(4, 6, 3, padding=1, rng=rng))
        config = PQLayerConfig(num_prototypes=4, subvector_dim=4, mode="distance",
                               temperature=0.5)
        converted = convert_to_pecan(model, config, rng=rng)
        assert converted[0].group_layout == "spatial"
        path = export_deployment_bundle(converted, tmp_path / "perm.npz")
        bundle = load_deployment_bundle(path)
        lut = bundle.luts["0"]
        assert lut.group_permutation is not None
        np.testing.assert_array_equal(lut.group_permutation, converted[0]._perm)


def trained_batchnorm(model, seed=0):
    """Give every batch norm of ``model`` non-identity statistics."""
    from repro.nn.layers import BatchNorm2d

    rng = np.random.default_rng(seed)
    for module in model.modules():
        if isinstance(module, BatchNorm2d):
            c = module.running_mean.shape[0]
            module.running_mean[...] = 0.5 * rng.standard_normal(c)
            module.running_var[...] = rng.uniform(0.25, 4.0, c)
            module.weight.data[...] = rng.uniform(-2.0, 2.0, c)
            module.bias.data[...] = 0.5 * rng.standard_normal(c)
    return model


class TestExportFold:
    """Export folds batch norm into the tables and checks the folded program."""

    SHAPE = (3, 16, 16)

    @pytest.fixture(scope="class")
    def resnet(self, tmp_path_factory):
        model = trained_batchnorm(build_model(
            "resnet20_pecan_d", width_multiplier=0.125, prototype_cap=4,
            rng=np.random.default_rng(3)))
        path = export_deployment_bundle(
            model, tmp_path_factory.mktemp("fold") / "resnet.npz",
            input_shape=self.SHAPE)
        return model, path

    def test_resnet_bundle_holds_no_batchnorm(self, resnet):
        from repro.serve import BundleEngine

        _, path = resnet
        engine = BundleEngine(path)
        assert "batchnorm" not in engine.bundle.graph.op_names()
        assert engine.executor.multiplier_ops() == ["global_avgpool"]
        assert engine.bundle.passes == ["fold_batchnorm", "fuse_relu",
                                        "eliminate_identities"]
        snapshot = engine.stats_snapshot()
        assert snapshot["optimization"] == engine.bundle.passes
        # The PECAN layers charge no multiplications, but the average pool
        # still multiplies, so the engine is not multiplier-free.
        assert engine.op_counter.is_multiplier_free()
        assert snapshot["multiplier_free"] is False

    def test_unfolded_bundle_still_serves(self, resnet, rng):
        # Stands in for a bundle written before export folded batch norm.
        from harness import unfolded_bundle
        from repro.serve import BundleEngine

        model, path = resnet
        engine = BundleEngine(unfolded_bundle(model, self.SHAPE))
        assert engine.executor.multiplier_ops().count("batchnorm") == 19
        x = rng.standard_normal((5, *self.SHAPE))
        expected = CAMInferenceEngine(model).predict(x)
        np.testing.assert_array_equal(engine.predict(x), expected)
        np.testing.assert_array_equal(engine.reference_engine().predict(x),
                                      expected)
        assert engine.stats_snapshot()["optimization"] == []
        # On this PECAN-D model the folded program is bitwise equal too.
        np.testing.assert_array_equal(BundleEngine(path).predict(x), expected)

    def test_pecan_a_folds_within_tolerance(self, rng, tmp_path):
        from repro.serve import BundleEngine

        model = trained_batchnorm(build_model(
            "resnet20_pecan_a", width_multiplier=0.125, prototype_cap=4,
            rng=rng))
        path = export_deployment_bundle(model, tmp_path / "angle.npz",
                                        input_shape=self.SHAPE)
        engine = BundleEngine(path)
        assert "fold_batchnorm" in engine.bundle.passes
        x = rng.standard_normal((4, *self.SHAPE))
        np.testing.assert_allclose(engine.predict(x),
                                   CAMInferenceEngine(model).predict(x),
                                   rtol=0, atol=1e-8)

    def test_corrupt_fold_fails_export(self, resnet, tmp_path, monkeypatch):
        from dataclasses import replace

        from repro.ir import passes

        model, _ = resnet
        fold = passes.fold_batchnorm

        def skewed_scale(graph, luts):
            # A fold whose table scale is off by one part in a million: the
            # size of the error a dropped eps makes.  The logits of this
            # untrained network hide it; the PECAN layer inputs do not.
            graph, folded, changed = fold(graph, luts)
            return graph, {name: (lut if lut is luts[name] else
                                  replace(lut, table=lut.table * (1 + 1e-6)))
                           for name, lut in folded.items()}, changed

        monkeypatch.setitem(passes._PASSES, "fold_batchnorm", skewed_scale)
        with pytest.raises(ValueError, match="graph passes"):
            export_deployment_bundle(model, tmp_path / "bad.npz",
                                     input_shape=self.SHAPE)
        assert not (tmp_path / "bad.npz").exists()


# --------------------------------------------------------------------------- #
# Memory-mapped loading (the sidecar .npy cache behind mmap_mode="r")
# --------------------------------------------------------------------------- #
class TestBundleMmapLoading:
    def test_mmap_load_is_bitwise_identical_to_eager(self, rng, tmp_path, pecan_model):
        path = export_deployment_bundle(pecan_model, tmp_path / "bundle.npz",
                                        input_shape=(1, 14, 14))
        eager = load_deployment_bundle(path)
        mapped = load_deployment_bundle(path, mmap_mode="r")
        assert set(mapped.luts) == set(eager.luts)
        for name, lut in eager.luts.items():
            assert isinstance(mapped.luts[name].prototypes, np.memmap)
            np.testing.assert_array_equal(mapped.luts[name].prototypes,
                                          lut.prototypes)
            np.testing.assert_array_equal(mapped.luts[name].table, lut.table)
        assert mapped.total_values() == eager.total_values()
        assert mapped.input_shape == eager.input_shape
        assert mapped.graph is not None

    def test_cache_extracts_once_and_reversions_on_reexport(self, rng, tmp_path,
                                                            pecan_model):
        path = export_deployment_bundle(pecan_model, tmp_path / "bundle.npz")
        cache = materialize_bundle_cache(path)
        assert cache.parent == bundle_cache_dir(path)         # versioned subdir
        stamp = (cache / "SOURCE_STAMP").read_text()
        before = cache.stat().st_mtime_ns
        assert materialize_bundle_cache(path) == cache        # version hit: reused
        assert cache.stat().st_mtime_ns == before
        # Re-exporting the bundle (different size/mtime) makes a new version;
        # the stale one is pruned.
        import os
        os.utime(path, ns=(1, 1))
        fresh = materialize_bundle_cache(path)
        assert fresh != cache and fresh.parent == cache.parent
        assert (fresh / "SOURCE_STAMP").read_text() != stamp
        assert not cache.exists()                             # stale pruned

    def test_mmap_arrays_are_read_only(self, rng, tmp_path, pecan_model):
        path = export_deployment_bundle(pecan_model, tmp_path / "bundle.npz")
        mapped = load_deployment_bundle(path, mmap_mode="r")
        lut = next(iter(mapped.luts.values()))
        with pytest.raises(ValueError):
            lut.table[...] = 0.0

    def test_missing_cached_array_raises_bundle_error(self, rng, tmp_path,
                                                      pecan_model):
        path = export_deployment_bundle(pecan_model, tmp_path / "bundle.npz")
        cache = materialize_bundle_cache(path)
        victim = next(iter(cache.rglob("table.npy")))
        victim.unlink()
        with pytest.raises(BundleFormatError, match="missing array"):
            load_deployment_bundle(path, mmap_mode="r")

    def test_missing_bundle_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            materialize_bundle_cache(tmp_path / "absent.npz")
        with pytest.raises(FileNotFoundError):
            load_deployment_bundle(tmp_path / "absent.npz", mmap_mode="r")


# --------------------------------------------------------------------------- #
# Backward compatibility: v2 (linear program) and v1 (LUT-only) bundles
# --------------------------------------------------------------------------- #
def _write_v2_bundle(path, luts, program, input_shape):
    """Re-create the PR2-era format-v2 writer byte layout in-process.

    ``program`` is the legacy linear step list: per-step op dicts with scalar
    attrs inline and tensors under ``"arrays"``; arrays land in the
    ``__program__/<index>/<key>`` namespace exactly as the old exporter wrote
    them.
    """
    arrays = {}
    manifest = {
        "format_version": 2,
        "layers": {},
        "user": {"writer": "legacy-test"},
        "input_shape": list(input_shape),
        "program": [],
    }
    for name, lut in luts.items():
        arrays[f"{name}/prototypes"] = lut.prototypes
        arrays[f"{name}/table"] = lut.table
        if lut.bias is not None:
            arrays[f"{name}/bias"] = lut.bias
        if lut.group_permutation is not None:
            arrays[f"{name}/permutation"] = lut.group_permutation
        manifest["layers"][name] = {
            "kind": lut.kind, "mode": lut.mode.value,
            "temperature": lut.temperature, "kernel_size": lut.kernel_size,
            "stride": lut.stride, "padding": lut.padding,
            "in_channels": lut.in_channels, "out_channels": lut.out_channels,
            "has_bias": lut.bias is not None,
            "has_permutation": lut.group_permutation is not None,
        }
    for index, step in enumerate(program):
        entry = {key: value for key, value in step.items() if key != "arrays"}
        entry["array_keys"] = sorted(step.get("arrays", {}))
        for key, array in step.get("arrays", {}).items():
            arrays[f"{_PROGRAM_PREFIX}/{index}/{key}"] = array
        manifest["program"].append(entry)
    arrays[_MANIFEST_KEY] = np.frombuffer(json.dumps(manifest).encode("utf-8"),
                                          dtype=np.uint8)
    np.savez_compressed(path, **arrays)
    return path


class TestBundleBackwardCompatibility:
    """v2 linear-program and v1 LUT-only payloads keep their documented behavior."""

    @pytest.fixture
    def v2_setup(self, rng, tmp_path):
        """A legacy v2 bundle built in-process for a mixed PECAN/plain model."""
        from repro.cam.lut import build_model_luts
        from repro.nn import Conv2d, Flatten, Linear, MaxPool2d, ReLU, Sequential
        from repro.pecan.config import PQLayerConfig
        from repro.pecan.convert import convert_to_pecan

        cfg = PQLayerConfig(num_prototypes=4, mode="distance", temperature=0.5)

        def selective(index, module):
            return cfg if index == 0 else None   # leave the linear head plain

        model = Sequential(
            Conv2d(1, 4, 3, rng=rng), ReLU(), MaxPool2d(2), Flatten(),
            Linear(4 * 4 * 4, 6, rng=rng),
        )
        converted = convert_to_pecan(model, selective, rng=rng)
        head = converted[4]
        program = [
            {"op": "pecan", "layer": "0"},
            {"op": "relu"},
            {"op": "maxpool", "kernel_size": 2, "stride": 2},
            {"op": "flatten"},
            {"op": "linear",
             "arrays": {"weight": np.asarray(head.weight.data, dtype=np.float64),
                        "bias": np.asarray(head.bias.data, dtype=np.float64)}},
        ]
        path = _write_v2_bundle(tmp_path / "legacy_v2.npz",
                                build_model_luts(converted), program,
                                input_shape=(1, 10, 10))
        return converted, path

    def test_v2_bundle_lifts_to_chain_graph(self, v2_setup):
        _, path = v2_setup
        bundle = load_deployment_bundle(path)
        assert bundle.has_program
        assert bundle.metadata == {"writer": "legacy-test"}
        # The raw v2 step list is preserved alongside the lifted graph.
        assert [step["op"] for step in bundle.program] == \
            ["pecan", "relu", "maxpool", "flatten", "linear"]
        assert bundle.graph.op_names() == ["pecan", "relu", "maxpool",
                                           "flatten", "linear"]
        for before, node in zip(bundle.graph.nodes, bundle.graph.nodes[1:]):
            assert node.inputs == [before.id]

    def test_v2_bundle_serves_bitwise_identically(self, v2_setup, rng):
        from repro.serve import BundleEngine

        model, path = v2_setup
        engine = BundleEngine(path)
        x = rng.standard_normal((3, 1, 10, 10))
        np.testing.assert_array_equal(engine.predict(x),
                                      CAMInferenceEngine(model).predict(x))

    def test_v2_program_arrays_round_trip(self, v2_setup):
        model, path = v2_setup
        bundle = load_deployment_bundle(path)
        linear_node = bundle.graph.nodes[-1]
        assert linear_node.op == "linear"
        np.testing.assert_array_equal(linear_node.arrays["weight"],
                                      model[4].weight.data)

    def test_v2_total_values_counts_program_arrays(self, v2_setup):
        _, path = v2_setup
        bundle = load_deployment_bundle(path)
        lut_values = sum(lut.prototypes.size + lut.table.size
                         for lut in bundle.luts.values())
        assert bundle.total_values() > lut_values

    def test_in_process_program_bundle_lifts(self, v2_setup):
        # The old in-process API (DeploymentBundle(program=...)) still works.
        _, path = v2_setup
        loaded = load_deployment_bundle(path)
        rebuilt = DeploymentBundle(luts=loaded.luts, program=loaded.program,
                                   input_shape=loaded.input_shape)
        assert rebuilt.graph is not None
        assert rebuilt.graph.op_names() == loaded.graph.op_names()

    def test_v1_lut_only_bundle_loads_but_is_not_servable(self, rng, tmp_path):
        from repro.cam.lut import build_model_luts
        from repro.serve import BundleEngine

        model = build_model("lenet5_pecan_d", width_multiplier=0.5,
                            image_size=14, prototype_cap=8, rng=rng)
        luts = build_model_luts(model)
        path = _write_v2_bundle(tmp_path / "v1.npz", luts, [], (1, 14, 14))
        # Rewrite the manifest to a true v1 payload (no program keys at all).
        with np.load(path, allow_pickle=False) as archive:
            arrays = {key: archive[key] for key in archive.files}
        manifest = json.loads(bytes(arrays[_MANIFEST_KEY].tobytes()).decode())
        manifest["format_version"] = 1
        manifest.pop("program")
        manifest.pop("input_shape")
        arrays[_MANIFEST_KEY] = np.frombuffer(json.dumps(manifest).encode(),
                                              dtype=np.uint8)
        v1_path = tmp_path / "true_v1.npz"
        np.savez_compressed(v1_path, **arrays)

        bundle = load_deployment_bundle(v1_path)
        assert not bundle.has_program
        assert set(bundle.layer_names) == set(luts)
        np.testing.assert_array_equal(bundle.luts["features.0"].prototypes,
                                      luts["features.0"].prototypes)
        with pytest.raises(ValueError, match="no inference program"):
            BundleEngine(bundle)
