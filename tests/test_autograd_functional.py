"""Unit tests for the functional operators (softmax, conv, pooling, PQ primitives)."""

import numpy as np
import pytest

from repro.autograd import Tensor, check_gradient, functional as F
from repro.autograd.im2col import conv_output_size


class TestActivations:
    def test_softmax_rows_sum_to_one(self, rng):
        x = Tensor(rng.standard_normal((4, 7)))
        out = F.softmax(x, axis=1)
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(4))

    def test_softmax_invariant_to_shift(self, rng):
        x = rng.standard_normal((3, 5))
        a = F.softmax(Tensor(x), axis=1).data
        b = F.softmax(Tensor(x + 100.0), axis=1).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_softmax_gradcheck(self, rng):
        x = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
        ok, err = check_gradient(lambda t: F.softmax(t, axis=1), [x])
        assert ok, err

    def test_log_softmax_matches_log_of_softmax(self, rng):
        x = Tensor(rng.standard_normal((3, 5)))
        np.testing.assert_allclose(F.log_softmax(x, axis=1).data,
                                   np.log(F.softmax(x, axis=1).data), atol=1e-10)

    def test_gelu_close_to_relu_for_large_inputs(self):
        x = Tensor(np.array([10.0, -10.0]))
        out = F.gelu(x).data
        np.testing.assert_allclose(out, [10.0, 0.0], atol=1e-3)

    def test_gelu_gradcheck(self, rng):
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        ok, err = check_gradient(F.gelu, [x])
        assert ok, err

    def test_dropout_eval_is_identity(self, rng):
        x = Tensor(rng.standard_normal((5, 5)))
        np.testing.assert_array_equal(F.dropout(x, 0.5, training=False).data, x.data)

    def test_dropout_training_scales_surviving_units(self, rng):
        x = Tensor(np.ones((1000,)))
        out = F.dropout(x, 0.5, training=True, rng=np.random.default_rng(0)).data
        surviving = out[out > 0]
        np.testing.assert_allclose(surviving, 2.0)
        assert 0.3 < (out > 0).mean() < 0.7


class TestLosses:
    def test_cross_entropy_matches_manual(self, rng):
        logits = rng.standard_normal((4, 3))
        targets = np.array([0, 1, 2, 1])
        loss = F.cross_entropy(Tensor(logits), targets).data
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        expected = -np.log(probs[np.arange(4), targets]).mean()
        assert loss == pytest.approx(expected)

    def test_cross_entropy_gradcheck(self, rng):
        logits = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
        targets = np.array([0, 3, 1, 2, 2])
        ok, err = check_gradient(lambda t: F.cross_entropy(t, targets), [logits])
        assert ok, err

    def test_cross_entropy_label_smoothing_increases_loss_on_confident_logits(self):
        logits = Tensor(np.array([[10.0, -10.0, -10.0]]))
        targets = np.array([0])
        plain = F.cross_entropy(logits, targets).data
        smoothed = F.cross_entropy(logits, targets, label_smoothing=0.2).data
        assert smoothed > plain

    def test_mse_loss(self):
        a = Tensor(np.array([1.0, 2.0]))
        b = Tensor(np.array([0.0, 0.0]))
        assert F.mse_loss(a, b).data == pytest.approx(2.5)

    def test_l1_loss(self):
        a = Tensor(np.array([1.0, -2.0]))
        b = Tensor(np.array([0.0, 0.0]))
        assert F.l1_loss(a, b).data == pytest.approx(1.5)

    def test_accuracy(self):
        logits = Tensor(np.array([[0.9, 0.1], [0.2, 0.8], [0.7, 0.3]]))
        assert F.accuracy(logits, np.array([0, 1, 1])) == pytest.approx(2.0 / 3.0)

    def test_topk_accuracy(self):
        logits = Tensor(np.array([[0.5, 0.3, 0.2], [0.1, 0.2, 0.7]]))
        assert F.topk_accuracy(logits, np.array([1, 0]), k=2) == pytest.approx(0.5)


class TestLinearAndConv:
    def test_linear_matches_numpy(self, rng):
        x = rng.standard_normal((4, 6))
        w = rng.standard_normal((3, 6))
        b = rng.standard_normal(3)
        out = F.linear(Tensor(x), Tensor(w), Tensor(b)).data
        np.testing.assert_allclose(out, x @ w.T + b)

    def test_conv2d_matches_direct_convolution(self, rng):
        x = rng.standard_normal((2, 3, 6, 6))
        w = rng.standard_normal((4, 3, 3, 3))
        out = F.conv2d(Tensor(x), Tensor(w)).data
        # direct nested-loop reference
        expected = np.zeros((2, 4, 4, 4))
        for n in range(2):
            for o in range(4):
                for i in range(4):
                    for j in range(4):
                        expected[n, o, i, j] = (x[n, :, i:i + 3, j:j + 3] * w[o]).sum()
        np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_conv2d_stride_and_padding_shapes(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 9, 9)))
        w = Tensor(rng.standard_normal((5, 2, 3, 3)))
        out = F.conv2d(x, w, stride=2, padding=1)
        expected = conv_output_size(9, 3, 2, 1)
        assert out.shape == (1, 5, expected, expected)

    def test_conv2d_gradcheck_all_inputs(self, rng):
        x = Tensor(rng.standard_normal((2, 2, 5, 5)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 2, 3, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal(3), requires_grad=True)
        for index in range(3):
            ok, err = check_gradient(lambda a, c, d: F.conv2d(a, c, d, stride=1, padding=1),
                                     [x, w, b], index=index)
            assert ok, f"input {index}: {err}"

    def test_conv2d_channel_mismatch_raises(self, rng):
        x = Tensor(rng.standard_normal((1, 3, 5, 5)))
        w = Tensor(rng.standard_normal((2, 4, 3, 3)))
        with pytest.raises(ValueError):
            F.conv2d(x, w)

    def test_bias_broadcast(self, rng):
        x = Tensor(rng.standard_normal((1, 1, 4, 4)))
        w = Tensor(np.zeros((2, 1, 3, 3)))
        b = Tensor(np.array([1.0, -1.0]))
        out = F.conv2d(x, w, b).data
        np.testing.assert_allclose(out[0, 0], 1.0)
        np.testing.assert_allclose(out[0, 1], -1.0)


class TestPooling:
    def test_max_pool_forward(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        out = F.max_pool2d(x, 2).data
        np.testing.assert_allclose(out[0, 0], [[5.0, 7.0], [13.0, 15.0]])

    def test_max_pool_gradcheck(self, rng):
        x = Tensor(rng.standard_normal((2, 2, 4, 4)), requires_grad=True)
        ok, err = check_gradient(lambda t: F.max_pool2d(t, 2), [x])
        assert ok, err

    def test_avg_pool_forward(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        out = F.avg_pool2d(x, 2).data
        np.testing.assert_allclose(out[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_avg_pool_gradcheck(self, rng):
        x = Tensor(rng.standard_normal((2, 2, 4, 4)), requires_grad=True)
        ok, err = check_gradient(lambda t: F.avg_pool2d(t, 2), [x])
        assert ok, err

    def test_global_avg_pool(self, rng):
        data = rng.standard_normal((3, 5, 4, 4))
        np.testing.assert_allclose(F.global_avg_pool2d(Tensor(data)).data,
                                   data.mean(axis=(2, 3)))


class TestBatchNorm:
    def test_training_normalizes_batch(self, rng):
        x = Tensor(rng.standard_normal((16, 3, 4, 4)) * 5 + 2)
        gamma = Tensor(np.ones(3))
        beta = Tensor(np.zeros(3))
        running_mean, running_var = np.zeros(3), np.ones(3)
        out = F.batch_norm(x, gamma, beta, running_mean, running_var, training=True).data
        assert abs(out.mean()) < 1e-6
        assert abs(out.std() - 1.0) < 1e-2

    def test_running_stats_updated(self, rng):
        x = Tensor(rng.standard_normal((8, 2, 3, 3)) + 4.0)
        running_mean, running_var = np.zeros(2), np.ones(2)
        F.batch_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), running_mean, running_var,
                     training=True, momentum=0.5)
        assert np.all(running_mean > 1.0)

    def test_eval_uses_running_stats(self, rng):
        x = Tensor(rng.standard_normal((4, 2, 3, 3)))
        running_mean, running_var = np.full(2, 10.0), np.ones(2)
        out = F.batch_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), running_mean,
                           running_var, training=False).data
        assert out.mean() < -5.0

    def test_2d_input(self, rng):
        x = Tensor(rng.standard_normal((8, 5)))
        out = F.batch_norm(x, Tensor(np.ones(5)), Tensor(np.zeros(5)),
                           np.zeros(5), np.ones(5), training=True)
        assert out.shape == (8, 5)

    def test_invalid_ndim_raises(self):
        with pytest.raises(ValueError):
            F.batch_norm(Tensor(np.zeros((2, 3, 4))), Tensor(np.ones(3)), Tensor(np.zeros(3)),
                         np.zeros(3), np.ones(3), training=True)

    @pytest.mark.parametrize("shape", [(6, 3, 2, 2), (8, 5)])
    @pytest.mark.parametrize("index", [0, 1, 2], ids=["x", "gamma", "beta"])
    def test_training_gradcheck(self, rng, shape, index):
        # The output is weighted by a fixed random tensor before check_gradient
        # sums it: the plain sum of a batch-normalized tensor does not depend
        # on x, so it would hide the terms that flow through the batch stats.
        channels = shape[1]
        x = Tensor(rng.standard_normal(shape) * 2.0 + 1.0, requires_grad=True)
        gamma = Tensor(rng.uniform(0.5, 1.5, channels), requires_grad=True)
        beta = Tensor(rng.standard_normal(channels), requires_grad=True)
        weight = Tensor(rng.standard_normal(shape))

        def fn(x_, gamma_, beta_):
            out = F.batch_norm(x_, gamma_, beta_, np.zeros(channels), np.ones(channels),
                               training=True)
            return out * weight

        ok, err = check_gradient(fn, [x, gamma, beta], index=index)
        assert ok, err

    @pytest.mark.parametrize("shape", [(6, 3, 2, 2), (8, 5)])
    def test_training_forward_and_running_stats(self, rng, shape):
        axes = (0, 2, 3) if len(shape) == 4 else (0,)
        bshape = (1, -1, 1, 1) if len(shape) == 4 else (1, -1)
        channels, momentum, eps = shape[1], 0.3, 1e-5
        x = rng.standard_normal(shape) * 3.0 - 1.0
        gamma = rng.uniform(0.5, 1.5, channels)
        beta = rng.standard_normal(channels)
        running_mean = rng.standard_normal(channels)
        running_var = rng.uniform(0.5, 2.0, channels)
        expected_mean = running_mean * (1.0 - momentum) + momentum * x.mean(axis=axes)
        expected_var = running_var * (1.0 - momentum) + momentum * x.var(axis=axes)

        out = F.batch_norm(Tensor(x), Tensor(gamma), Tensor(beta), running_mean, running_var,
                           training=True, momentum=momentum, eps=eps).data

        mean = x.mean(axis=axes).reshape(bshape)
        var = x.var(axis=axes).reshape(bshape)
        expected = (x - mean) / np.sqrt(var + eps) * gamma.reshape(bshape) \
            + beta.reshape(bshape)
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(running_mean, expected_mean, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(running_var, expected_var, rtol=1e-12, atol=1e-15)


class TestShapeUtilities:
    def test_concatenate_forward_and_grad(self, rng):
        a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 2)), requires_grad=True)
        out = F.concatenate([a, b], axis=1)
        assert out.shape == (2, 5)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 3)))
        np.testing.assert_allclose(b.grad, np.ones((2, 2)))

    def test_stack(self, rng):
        a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        out = F.stack([a, b], axis=0)
        assert out.shape == (2, 2, 3)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 3)))

    def test_pad2d(self, rng):
        x = Tensor(rng.standard_normal((1, 1, 3, 3)), requires_grad=True)
        out = F.pad2d(x, 2)
        assert out.shape == (1, 1, 7, 7)
        out.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((1, 1, 3, 3)))

    def test_pad2d_zero_is_identity(self, rng):
        x = Tensor(rng.standard_normal((1, 1, 3, 3)))
        assert F.pad2d(x, 0) is x

    def test_unfold_matches_im2col(self, rng):
        from repro.autograd.im2col import im2col
        x = rng.standard_normal((2, 3, 6, 6))
        np.testing.assert_array_equal(F.unfold(Tensor(x), 3, 1, 1).data, im2col(x, 3, 1, 1))

    def test_unfold_gradcheck(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 5, 5)), requires_grad=True)
        ok, err = check_gradient(lambda t: F.unfold(t, 3, 2, 1), [x])
        assert ok, err


class TestPQPrimitives:
    def test_stop_gradient_blocks_backward(self):
        a = Tensor(np.array([2.0]), requires_grad=True)
        out = F.stop_gradient(a * 3) * a
        out.backward()
        np.testing.assert_allclose(a.grad, [6.0])   # only the outer a receives gradient

    def test_straight_through_forward_is_hard_value(self, rng):
        soft = Tensor(rng.random((3, 4)), requires_grad=True)
        hard = np.eye(3, 4)
        out = F.straight_through(soft, hard)
        np.testing.assert_allclose(out.data, hard)

    def test_straight_through_gradient_flows_to_soft(self, rng):
        soft = Tensor(rng.random((3, 4)), requires_grad=True)
        hard = np.zeros((3, 4))
        out = F.straight_through(soft, hard)
        out.sum().backward()
        np.testing.assert_allclose(soft.grad, np.ones((3, 4)))

    def test_pairwise_l1_distance_values(self):
        x = Tensor(np.array([[[1.0], [2.0]]]))          # (1, d=2, L=1)
        protos = Tensor(np.array([[[0.0, 1.0], [0.0, 2.0]]]))  # (1, d=2, p=2)
        out = F.pairwise_l1_distance(x, protos).data
        np.testing.assert_allclose(out[0, :, 0], [3.0, 0.0])

    def test_pairwise_l1_distance_gradcheck(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 4, 5)), requires_grad=True)
        protos = Tensor(rng.standard_normal((3, 4, 6)), requires_grad=True)
        for index in range(2):
            ok, err = check_gradient(F.pairwise_l1_distance, [x, protos], index=index,
                                     atol=1e-3, rtol=1e-2)
            assert ok, f"input {index}: {err}"

    def test_pairwise_dot_matches_einsum(self, rng):
        x = rng.standard_normal((2, 3, 4, 5))
        protos = rng.standard_normal((3, 4, 6))
        out = F.pairwise_dot(Tensor(x), Tensor(protos)).data
        expected = np.einsum("gdp,ngdl->ngpl", protos, x)
        np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_one_hot(self):
        out = F.one_hot(np.array([0, 2]), depth=3)
        np.testing.assert_array_equal(out, [[1, 0, 0], [0, 0, 1]])

    def test_one_hot_multidimensional(self):
        out = F.one_hot(np.array([[1], [0]]), depth=2)
        assert out.shape == (2, 1, 2)
        np.testing.assert_array_equal(out[:, 0], [[0, 1], [1, 0]])
