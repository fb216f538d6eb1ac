"""Integration tests for the CAM/LUT inference engine (Algorithm 1).

The key correctness property: lookup-only inference must reproduce the
training-graph forward pass of the same model (up to floating-point
associativity), and PECAN-D must execute zero multiplications on that path.
"""

import numpy as np
import pytest

from repro.autograd import Tensor, no_grad
from repro.cam import CAMInferenceEngine, assert_multiplier_free, lut_inference, trace_inference_ops
from repro.cam.verify import MultiplierUsageError, batchnorm_layers, unconverted_compute_layers
from repro.hardware.opcount import count_model_ops
from repro.models import LeNet5, build_model
from repro.pecan.config import PECANMode, PQLayerConfig
from repro.pecan.convert import convert_to_pecan


def pecan_lenet(rng, mode, p=4, width=0.5, image_size=14):
    model = LeNet5(width_multiplier=width, image_size=image_size, rng=rng)
    temperature = 1.0 if PECANMode.parse(mode) is PECANMode.ANGLE else 0.5
    config = PQLayerConfig(num_prototypes=p, mode=mode, temperature=temperature)
    return convert_to_pecan(model, config, rng=rng)


class TestLUTEquivalence:
    @pytest.mark.parametrize("mode", ["distance", "angle"])
    def test_lut_matches_training_graph(self, rng, mode):
        model = pecan_lenet(rng, mode)
        x = rng.standard_normal((3, 1, 14, 14))
        model.eval()
        with no_grad():
            direct = model(Tensor(x)).data
        via_lut = lut_inference(model, x)
        np.testing.assert_allclose(via_lut, direct, atol=1e-8)

    def test_lut_matches_on_resnet_architecture(self, rng):
        model = build_model("resnet20_pecan_d", width_multiplier=0.125, rng=rng)
        x = rng.standard_normal((1, 3, 16, 16))
        model.eval()
        with no_grad():
            direct = model(Tensor(x)).data
        via_lut = lut_inference(model, x)
        np.testing.assert_allclose(via_lut, direct, atol=1e-8)

    def test_engine_restores_original_forward(self, rng):
        model = pecan_lenet(rng, "distance")
        engine = CAMInferenceEngine(model)
        x = rng.standard_normal((2, 1, 14, 14))
        engine.predict(x)
        # After prediction, the training forward must be back in place and still
        # produce the same values (it was only swapped temporarily).
        model.eval()
        with no_grad():
            direct = model(Tensor(x)).data
        np.testing.assert_allclose(direct, engine.predict(x), atol=1e-8)

    def test_predict_classes_and_accuracy(self, rng):
        model = pecan_lenet(rng, "distance")
        x = rng.standard_normal((4, 1, 14, 14))
        engine = CAMInferenceEngine(model)
        classes = engine.predict_classes(x)
        assert classes.shape == (4,)
        accuracy = engine.accuracy(x, classes)
        assert accuracy == 1.0

    def test_training_mode_restored_after_predict(self, rng):
        model = pecan_lenet(rng, "distance")
        model.train()
        CAMInferenceEngine(model).predict(rng.standard_normal((1, 1, 14, 14)))
        assert model.training


class TestOpCounting:
    def test_pecan_d_is_multiplier_free(self, rng):
        model = pecan_lenet(rng, "distance")
        engine = CAMInferenceEngine(model)
        engine.predict(rng.standard_normal((2, 1, 14, 14)))
        assert engine.op_counter.multiplications == 0
        assert engine.op_counter.additions > 0
        assert engine.op_counter.lookups > 0

    def test_pecan_a_uses_multiplications(self, rng):
        model = pecan_lenet(rng, "angle")
        engine = CAMInferenceEngine(model)
        engine.predict(rng.standard_normal((2, 1, 14, 14)))
        assert engine.op_counter.multiplications > 0

    def test_counts_scale_linearly_with_batch(self, rng):
        model = pecan_lenet(rng, "distance")
        engine = CAMInferenceEngine(model)
        engine.predict(rng.standard_normal((1, 1, 14, 14)))
        single = engine.op_counter.additions
        engine.reset_counters()
        engine.predict(rng.standard_normal((3, 1, 14, 14)))
        assert engine.op_counter.additions == 3 * single

    def test_per_layer_breakdown_present(self, rng):
        model = pecan_lenet(rng, "distance")
        counter = trace_inference_ops(model, rng.standard_normal((1, 1, 14, 14)))
        assert len(counter.per_layer_table()) == 5
        assert all(adds > 0 for _, _, adds, _ in counter.per_layer_table())

    def test_counts_match_table1_formula(self, rng):
        """The traced additions of a conv layer must equal D·HW·(2pd+cout)."""
        model = pecan_lenet(rng, "distance", p=4)
        counter = trace_inference_ops(model, rng.standard_normal((1, 1, 14, 14)),
                                      per_sample=False)
        conv1 = model.features[0]
        name = next(n for n in counter.layers if n.endswith("features.0"))
        hout, wout = conv1.output_spatial(14, 14)
        p, d_groups, dim = conv1.pq_shape()
        expected = d_groups * hout * wout * (2 * p * dim + conv1.out_channels)
        expected += hout * wout * conv1.out_channels     # bias additions
        assert counter.layers[name].additions == expected

    @pytest.mark.parametrize("net", ["lenet-distance", "lenet-angle", "resnet20-distance"])
    def test_charged_counts_equal_analytic_model(self, rng, net):
        """Every PECAN layer's engine charge equals its count_model_ops record."""
        if net == "resnet20-distance":      # the perfbench ResNet-20 PECAN-D
            model = build_model("resnet20_pecan_d", width_multiplier=0.125,
                                prototype_cap=4, rng=rng)
            shape = (3, 16, 16)
        else:
            model = pecan_lenet(rng, net.split("-")[1])
            shape = (1, 14, 14)
        batch = 2
        engine = CAMInferenceEngine(model)
        engine.predict(rng.standard_normal((batch, *shape)))
        records = {record.name: record for record in count_model_ops(model, shape).records
                   if record.kind.startswith("pecan")}
        assert set(engine.op_counter.layers) == set(records)
        for name, charged in engine.op_counter.layers.items():
            record = records[name]
            positions = batch * record.output_hw[0] * record.output_hw[1]
            has_bias = engine.runtimes[name].lut.bias is not None
            bias = positions * record.detail["cout"] if has_bias else 0
            assert charged.additions - bias == batch * record.ops.additions, name
            assert charged.multiplications == batch * record.ops.multiplications, name

    def test_cam_stats_aggregate(self, rng):
        model = pecan_lenet(rng, "distance")
        engine = CAMInferenceEngine(model)
        engine.predict(rng.standard_normal((2, 1, 14, 14)))
        stats = engine.cam_stats()
        assert stats.searches > 0
        assert stats.energy > 0

    def test_prototype_usage_collected(self, rng):
        model = pecan_lenet(rng, "distance", p=4)
        engine = CAMInferenceEngine(model)
        engine.predict(rng.standard_normal((2, 1, 14, 14)))
        usage = engine.prototype_usage()
        assert len(usage) == 5
        for counts in usage.values():
            assert counts.sum() > 0


class TestMultiplierFreeAssertion:
    def test_fully_converted_distance_model_passes_non_strict(self, rng):
        model = pecan_lenet(rng, "distance")
        counter = assert_multiplier_free(model, rng.standard_normal((1, 1, 14, 14)),
                                         strict=False)
        assert counter.multiplications == 0

    def test_lenet_distance_model_passes_strict(self, rng):
        # LeNet has no batch-norm and all layers converted -> fully multiplier-free.
        model = pecan_lenet(rng, "distance")
        assert_multiplier_free(model, rng.standard_normal((1, 1, 14, 14)), strict=True)

    def test_angle_model_fails(self, rng):
        model = pecan_lenet(rng, "angle")
        with pytest.raises(MultiplierUsageError):
            assert_multiplier_free(model, rng.standard_normal((1, 1, 14, 14)), strict=False)

    def test_partially_converted_model_fails_strict(self, rng):
        model = LeNet5(width_multiplier=0.5, image_size=14, rng=rng)
        converted = convert_to_pecan(model, PQLayerConfig(num_prototypes=4, mode="distance",
                                                          temperature=0.5),
                                     skip_last=True, rng=rng)
        with pytest.raises(MultiplierUsageError):
            assert_multiplier_free(converted, rng.standard_normal((1, 1, 14, 14)), strict=True)

    def test_unconverted_layer_listing(self, rng):
        model = LeNet5(width_multiplier=0.5, rng=rng)
        converted = convert_to_pecan(model, PQLayerConfig(num_prototypes=4), skip_first=True,
                                     rng=rng)
        leftovers = unconverted_compute_layers(converted)
        assert leftovers == ["features.0"]

    def test_batchnorm_detection(self, rng):
        model = build_model("vgg_small_pecan_d", width_multiplier=0.05, image_size=16, rng=rng)
        assert batchnorm_layers(model)
        with pytest.raises(MultiplierUsageError):
            assert_multiplier_free(model, rng.standard_normal((1, 3, 16, 16)), strict=True)
