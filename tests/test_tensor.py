"""Tensor engine tests: forward semantics, gradients, serialization."""

import tracemalloc

import numpy as np
import pytest

from cacseg import tensor as T
from cacseg.errors import (
    ContractError,
    DataIOError,
    DegenerateBatchError,
    DimensionError,
    NumericError,
)
from cacseg.gradcheck import check_gradients
from cacseg.tensor import RunningMoments, Tensor


def t64(arr, requires_grad=True):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=requires_grad)


# id: (input shape, kh, kw, stride, padding), 4 output channels.
CONV_CASES = {
    "1-0-3-3": ((2, 3, 9, 10), 3, 3, 1, 0),
    "1-1-3-3": ((2, 3, 9, 10), 3, 3, 1, 1),
    "2-1-3-3": ((2, 3, 9, 10), 3, 3, 2, 1),
    "1-0-1-1": ((2, 3, 9, 10), 1, 1, 1, 0),
    "2-0-2-4": ((2, 3, 9, 10), 2, 4, 2, 0),
    "3-2-5-3": ((2, 3, 9, 10), 5, 3, 3, 2),
    # Shapes whose kernel path differs from 3x3/pad 1 at unit stride.
    "cin1": ((2, 1, 9, 11), 3, 3, 1, 1),
    "attention-1x1": ((2, 6, 17, 1), 1, 1, 1, 0),
    "stride2-odd-width": ((2, 3, 9, 11), 3, 3, 2, 1),
    "5x3-pad2": ((2, 3, 9, 11), 5, 3, 1, 2),
    "odd-width": ((2, 3, 7, 13), 3, 3, 1, 1),
}
SHAPE_CASES = ["cin1", "attention-1x1", "stride2-odd-width", "5x3-pad2", "odd-width"]


def conv_operands(case, rng, dtype=np.float32):
    shape, kh, kw, stride, padding = CONV_CASES[case]
    x = rng.standard_normal(shape).astype(dtype)
    w = rng.standard_normal((4, shape[1], kh, kw)).astype(dtype)
    b = rng.standard_normal(4).astype(dtype)
    return x, w, b, stride, padding


class TestConstruction:
    def test_default_dtype_is_f32(self):
        x = Tensor([[1.0, 2.0]])
        assert x.dtype == np.float32

    def test_rejects_nan(self):
        with pytest.raises(NumericError):
            Tensor(np.array([1.0, np.nan]))

    def test_rejects_inf(self):
        with pytest.raises(NumericError):
            Tensor(np.array([np.inf]))


class TestConv2d:
    def test_sum_of_ones(self):
        x = Tensor(np.ones((1, 1, 3, 3), np.float32))
        w = Tensor(np.ones((1, 1, 3, 3), np.float32))
        b = Tensor(np.zeros(1, np.float32))
        y = T.conv2d(x, w, b)
        assert y.shape == (1, 1, 1, 1)
        assert y.data[0, 0, 0, 0] == 9.0

    def test_identity_kernel(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((2, 1, 5, 7)).astype(np.float32))
        w = Tensor(np.ones((1, 1, 1, 1), np.float32))
        b = Tensor(np.zeros(1, np.float32))
        y = T.conv2d(x, w, b)
        np.testing.assert_array_equal(y.data, x.data)

    @pytest.mark.parametrize("case", list(CONV_CASES))
    def test_matches_direct_form(self, case):
        x, w, b, stride, padding = conv_operands(case, np.random.default_rng(11))
        fast = T.conv2d(Tensor(x), Tensor(w), Tensor(b), stride, padding)
        direct = T.conv2d_forward_direct(x, w, b, stride, padding)
        np.testing.assert_allclose(fast.data, direct, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("case", SHAPE_CASES)
    def test_shapes_match_finite_differences(self, case):
        rng = np.random.default_rng(6)
        x, w, b, stride, padding = conv_operands(case, rng, np.float64)
        x, w, b = t64(x), t64(w), t64(b)
        out_shape = T.conv2d(x, w, b, stride, padding).shape
        r = t64(rng.standard_normal(out_shape), requires_grad=False)
        res = check_gradients(
            f"conv-{case}", lambda: (T.conv2d(x, w, b, stride, padding) * r).sum(),
            {"input": x, "weight": w, "bias": b})
        assert res.passed, res.row()

    @pytest.mark.parametrize("case", ["1-1-3-3", "cin1", "attention-1x1", "stride2-odd-width"])
    def test_batch_matches_stacked_single_images(self, case):
        x, w, b, stride, padding = conv_operands(case, np.random.default_rng(12))
        x = np.concatenate([x, x[::-1] * 0.5, x + 1.0])
        batch = T.conv2d(Tensor(x), Tensor(w), Tensor(b), stride, padding).data
        single = np.concatenate([
            T.conv2d(Tensor(x[i:i + 1]), Tensor(w), Tensor(b), stride, padding).data
            for i in range(len(x))])
        assert batch.tobytes() == single.tobytes()

    def test_memory_holds_no_column_buffer(self):
        # A dec0.c1 layer of the desk64 net: 24 -> 8 channels at 64x64, batch 16.
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((16, 24, 64, 64)).astype(np.float32),
                   requires_grad=True)
        w = Tensor(rng.standard_normal((8, 24, 3, 3)).astype(np.float32) * 0.1,
                   requires_grad=True)
        g = rng.standard_normal((16, 8, 64, 64)).astype(np.float32)
        padded_bytes = 16 * 24 * 66 * 66 * 4
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            y = T.conv2d(x, w, padding=1)
            retained = tracemalloc.get_traced_memory()[0] - base
            tracemalloc.reset_peak()
            y._backward_fn(g)
            backward_peak = tracemalloc.get_traced_memory()[1] - base - retained
        finally:
            tracemalloc.stop()
        mib = 2 ** 20
        assert retained <= y.data.nbytes + padded_bytes + mib, \
            f"forward retains {retained / mib:.1f} MiB"
        assert backward_peak <= 4 * x.data.nbytes, \
            f"backward peaks {backward_peak / mib:.1f} MiB above that"

    def test_gradients_match_finite_differences(self):
        # random 2x3x8x8 input, 4x3x3x3 kernel, padding 1
        rng = np.random.default_rng(5)
        x = t64(rng.standard_normal((2, 3, 8, 8)))
        w = t64(rng.standard_normal((4, 3, 3, 3)) * 0.5)
        b = t64(rng.standard_normal(4))
        r = t64(rng.standard_normal((2, 4, 8, 8)), requires_grad=False)
        res = check_gradients(
            "conv", lambda: (T.conv2d(x, w, b, padding=1) * r).sum(),
            {"input": x, "weight": w, "bias": b})
        assert res.passed, res.row()

    def test_channel_mismatch_names_operand(self):
        x = Tensor(np.zeros((1, 3, 4, 4), np.float32))
        w = Tensor(np.zeros((2, 4, 3, 3), np.float32))
        with pytest.raises(DimensionError, match="input has 3 channels"):
            T.conv2d(x, w)

    def test_kernel_larger_than_input(self):
        x = Tensor(np.zeros((1, 1, 2, 2), np.float32))
        w = Tensor(np.zeros((1, 1, 5, 5), np.float32))
        with pytest.raises(DimensionError, match="kernel"):
            T.conv2d(x, w)


class TestBatchNorm:
    def test_normalizes_batch(self):
        rng = np.random.default_rng(7)
        x = Tensor((rng.standard_normal((4, 3, 6, 6)) * 3 + 5).astype(np.float32))
        gamma = Tensor(np.ones(3, np.float32))
        beta = Tensor(np.zeros(3, np.float32))
        y = T.batchnorm2d(x, gamma, beta, RunningMoments(3), training=True)
        mean = y.data.mean(axis=(0, 2, 3))
        var = y.data.var(axis=(0, 2, 3))
        np.testing.assert_allclose(mean, 0.0, atol=1e-5)
        np.testing.assert_allclose(var, 1.0, atol=1e-4)

    def test_zero_gamma_gives_beta(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.standard_normal((2, 3, 4, 4)).astype(np.float32))
        gamma = Tensor(np.zeros(3, np.float32))
        beta = Tensor(np.array([1.0, -2.0, 0.5], np.float32))
        y = T.batchnorm2d(x, gamma, beta, RunningMoments(3), training=True)
        expected = np.broadcast_to(beta.data.reshape(1, 3, 1, 1), y.shape)
        np.testing.assert_array_equal(y.data, expected)

    def test_eval_uses_running_moments(self):
        state = RunningMoments(2)
        state.mean[:] = [1.0, -1.0]
        state.var[:] = [4.0, 0.25]
        x = Tensor(np.ones((1, 2, 2, 2), np.float32))
        y = T.batchnorm2d(x, Tensor(np.ones(2, np.float32)),
                          Tensor(np.zeros(2, np.float32)), state, training=False)
        np.testing.assert_allclose(y.data[0, 0], (1 - 1) / np.sqrt(4 + 1e-5), atol=1e-6)
        np.testing.assert_allclose(y.data[0, 1], (1 + 1) / np.sqrt(0.25 + 1e-5),
                                   rtol=1e-5)

    def test_training_updates_moments(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((4, 2, 4, 4)).astype(np.float32) * 2 + 3
        state = RunningMoments(2)
        T.batchnorm2d(Tensor(x), Tensor(np.ones(2, np.float32)),
                      Tensor(np.zeros(2, np.float32)), state, training=True)
        m = 4 * 4 * 4
        expected_mean = 0.1 * x.mean(axis=(0, 2, 3))
        expected_var = 0.9 + 0.1 * x.var(axis=(0, 2, 3)) * m / (m - 1)
        np.testing.assert_allclose(state.mean, expected_mean, rtol=1e-5)
        np.testing.assert_allclose(state.var, expected_var, rtol=1e-5)

    def test_degenerate_batch_raises(self):
        x = Tensor(np.zeros((1, 2, 1, 1), np.float32))
        with pytest.raises(DegenerateBatchError):
            T.batchnorm2d(x, Tensor(np.ones(2, np.float32)),
                          Tensor(np.zeros(2, np.float32)), RunningMoments(2),
                          training=True)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(10)
        x = t64(rng.standard_normal((2, 3, 4, 4)))
        gamma = t64(rng.uniform(0.5, 1.5, 3))
        beta = t64(rng.standard_normal(3))
        state = RunningMoments(3, dtype=np.float64)
        r = t64(rng.standard_normal((2, 3, 4, 4)), requires_grad=False)
        res = check_gradients(
            "bn", lambda: (T.batchnorm2d(x, gamma, beta, state, True) * r).sum(),
            {"input": x, "gamma": gamma, "beta": beta})
        assert res.passed, res.row()


class TestActivations:
    def test_sigmoid_at_zero(self):
        assert T.sigmoid(Tensor(np.zeros(1, np.float32))).data[0] == 0.5

    def test_softmax_symmetry(self):
        p = T.softmax_channel(Tensor(np.zeros((1, 6, 1, 1), np.float32)))
        np.testing.assert_allclose(p.data.ravel(), 1.0 / 6.0, rtol=1e-6)

    def test_softmax_normalization(self):
        rng = np.random.default_rng(12)
        p = T.softmax_channel(Tensor(rng.standard_normal((2, 6, 5, 5))
                                     .astype(np.float32) * 4))
        np.testing.assert_allclose(p.data.sum(axis=1), 1.0, atol=1e-6)

    def test_relu_gradient_indicator(self):
        x = Tensor(np.array([-2.0, -0.5, 0.7, 3.0], np.float32), requires_grad=True)
        T.relu(x).sum().backward()
        np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0, 1.0])

    def test_relu_finite_differences_away_from_zero(self):
        rng = np.random.default_rng(13)
        vals = rng.standard_normal((4, 8))
        vals[np.abs(vals) < 0.05] += 0.2  # keep clear of the kink
        x = t64(vals)
        r = t64(rng.standard_normal((4, 8)), requires_grad=False)
        res = check_gradients("relu", lambda: (T.relu(x) * r).sum(), {"x": x})
        assert res.passed, res.row()


class TestMaxPool:
    def test_single_window(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]], np.float32))
        assert T.maxpool2(x).data.ravel()[0] == 4.0

    def test_tie_routes_to_first_element(self):
        x = Tensor(np.full((1, 1, 2, 2), 5.0, np.float32), requires_grad=True)
        y = T.maxpool2(x)
        assert y.data.ravel()[0] == 5.0
        y.sum().backward()
        np.testing.assert_array_equal(x.grad[0, 0], [[1.0, 0.0], [0.0, 0.0]])

    def test_odd_extent_rejected(self):
        with pytest.raises(DimensionError, match="even"):
            T.maxpool2(Tensor(np.zeros((1, 1, 3, 4), np.float32)))

    def test_finite_differences_unique_argmax(self):
        rng = np.random.default_rng(14)
        x = t64(rng.standard_normal((1, 2, 8, 8)))
        r = t64(rng.standard_normal((1, 2, 4, 4)), requires_grad=False)
        res = check_gradients("maxpool", lambda: (T.maxpool2(x) * r).sum(), {"x": x})
        assert res.passed, res.row()


class TestResampling:
    def test_upsample_constant(self):
        x = Tensor(np.full((2, 3, 4, 5), 1.75, np.float32))
        y = T.upsample_bilinear2(x)
        assert y.shape == (2, 3, 8, 10)
        np.testing.assert_allclose(y.data, 1.75, rtol=1e-6)

    def test_directional_avgpool_values(self):
        x = Tensor(np.array([[[[1.0, 3.0], [5.0, 7.0]]]], np.float32))
        over_width = T.directional_avgpool(x, "width")
        np.testing.assert_allclose(over_width.data.ravel(), [2.0, 6.0])
        assert over_width.shape == (1, 1, 2, 1)
        over_height = T.directional_avgpool(x, "height")
        np.testing.assert_allclose(over_height.data.ravel(), [3.0, 5.0])
        assert over_height.shape == (1, 1, 1, 2)

    def test_concat_mismatch_rejected(self):
        a = Tensor(np.zeros((1, 2, 4, 4), np.float32))
        b = Tensor(np.zeros((1, 2, 5, 4), np.float32))
        with pytest.raises(DimensionError, match="concat operand 1"):
            T.concat_channels(a, b)

    def test_all_three_ops_pass_gradient_checks(self):
        rng = np.random.default_rng(15)
        for name, fn, out_shape in (
            ("upsample", T.upsample_bilinear2, (1, 2, 8, 8)),
            ("davg_h", lambda t: T.directional_avgpool(t, "height"), (1, 2, 1, 4)),
            ("davg_w", lambda t: T.directional_avgpool(t, "width"), (1, 2, 4, 1)),
        ):
            x = t64(rng.standard_normal((1, 2, 4, 4)))
            r = t64(rng.standard_normal(out_shape), requires_grad=False)
            res = check_gradients(name, lambda: (fn(x) * r).sum(), {"x": x})
            assert res.passed, res.row()
        a = t64(rng.standard_normal((1, 2, 4, 4)))
        b = t64(rng.standard_normal((1, 3, 4, 4)))
        r = t64(rng.standard_normal((1, 5, 4, 4)), requires_grad=False)
        res = check_gradients("concat",
                              lambda: (T.concat_channels(a, b) * r).sum(),
                              {"a": a, "b": b})
        assert res.passed, res.row()


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3), requires_grad=True)
        x.sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones((2, 3), np.float32))

    def test_quadratic_gives_two_x(self):
        x = Tensor(np.array([1.5, -2.0, 0.25], np.float32), requires_grad=True)
        (x * x).sum().backward()
        np.testing.assert_allclose(x.grad, 2 * x.data, rtol=1e-6)

    def test_fanout_accumulates(self):
        x = Tensor(np.array([3.0], np.float32), requires_grad=True)
        y = x + x
        y.sum().backward()
        assert x.grad[0] == 2.0

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.zeros(3, np.float32), requires_grad=True)
        with pytest.raises(ContractError, match="scalar"):
            (x * 2.0).backward()

    def test_unreachable_tensor_keeps_grad_absent(self):
        x = Tensor(np.ones(2, np.float32), requires_grad=True)
        other = Tensor(np.ones(2, np.float32), requires_grad=True)
        x.sum().backward()
        assert other.grad is None

    def test_no_grad_suppresses_graph(self):
        x = Tensor(np.ones(2, np.float32), requires_grad=True)
        with T.no_grad():
            y = (x * 3.0).sum()
        assert not y.requires_grad


class TestDeterminism:
    def test_forward_bit_identical(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        a = T.conv2d(Tensor(x), Tensor(w), padding=1).data
        b = T.conv2d(Tensor(x.copy()), Tensor(w.copy()), padding=1).data
        assert a.tobytes() == b.tobytes()


class TestTns:
    def test_f32_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(17)
        arr = rng.standard_normal((3, 4, 5)).astype(np.float32)
        path = tmp_path / "x.tns"
        T.save_tns(path, arr)
        back = T.load_tns(path)
        assert back.dtype == np.float32
        assert back.tobytes() == arr.tobytes()

    def test_u8_round_trip(self, tmp_path):
        arr = np.arange(24, dtype=np.uint8).reshape(4, 6)
        path = tmp_path / "m.tns"
        T.save_tns(path, arr)
        np.testing.assert_array_equal(T.load_tns(path), arr)

    def test_header_layout(self, tmp_path):
        arr = np.zeros((2, 3), np.float32)
        path = tmp_path / "h.tns"
        T.save_tns(path, arr)
        raw = path.read_bytes()
        assert raw[:4] == b"TNS1"
        assert raw[4] == 0 and raw[5] == 2
        assert int.from_bytes(raw[6:10], "little") == 2
        assert int.from_bytes(raw[10:14], "little") == 3
        assert len(raw) == 14 + 6 * 4

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.tns"
        path.write_bytes(b"XXXX" + b"\x00" * 10)
        with pytest.raises(DataIOError):
            T.load_tns(path)

    def test_nonfinite_payload_rejected(self, tmp_path):
        import struct
        payload = struct.pack("<f", np.nan)
        path = tmp_path / "nan.tns"
        path.write_bytes(b"TNS1" + bytes([0, 1]) + (1).to_bytes(4, "little") + payload)
        with pytest.raises(NumericError):
            T.load_tns(path)
