"""Tensor engine tests: forward semantics, gradients, serialization."""

import subprocess
import sys
import tracemalloc
import types
import weakref
from pathlib import Path

import numpy as np
import pytest

from cacseg import attention, network
from cacseg import tensor as T
from cacseg.attention import CAConfig, ca_forward, init_ca
from cacseg.errors import (
    ContractError,
    DataIOError,
    DegenerateBatchError,
    DimensionError,
    NumericError,
)
from cacseg.gradcheck import check_gradients
from cacseg.losses import LossConfig, class_weights_from_counts, loss_by_variant
from cacseg.network import ArchConfig, build, forward
from cacseg.params import ParameterStore, load_tns, save_tns
from cacseg.tensor import RunningMoments, Tensor
from plain_forms import batchnorm2d_plain, fold_tolerance, lerp_matrix_plain


def t64(arr, requires_grad=True):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=requires_grad)


def copy_moments(state: RunningMoments) -> RunningMoments:
    m = RunningMoments(len(state.mean), state.mean.dtype)
    m.mean[:], m.var[:] = state.mean, state.var
    return m


# id: (input shape, kh, kw, padding), 4 output channels. The first four ids
# read stride-padding-kh-kw; conv2d has unit stride only.
CONV_CASES = {
    "1-0-3-3": ((2, 3, 9, 10), 3, 3, 0),
    "1-1-3-3": ((2, 3, 9, 10), 3, 3, 1),
    "1-0-1-1": ((2, 3, 9, 10), 1, 1, 0),
    "1-0-2-4": ((2, 3, 9, 10), 2, 4, 0),
    # Shapes whose kernel path differs from 3x3/pad 1.
    "cin1": ((2, 1, 9, 11), 3, 3, 1),
    "attention-1x1": ((2, 6, 17, 1), 1, 1, 0),
    "5x3-pad2": ((2, 3, 9, 11), 5, 3, 2),
    "odd-width": ((2, 3, 7, 13), 3, 3, 1),
}
SHAPE_CASES = ["cin1", "attention-1x1", "5x3-pad2", "odd-width"]


# Shapes of the reference-form batchnorm tests: desk64 enc0, deep128 enc0
# (H*W above numpy's 8192-element buffer), a batch-1 slice, the
# deep128 bottleneck, an odd shape, and the float64 gradient-check path.
BN_SHAPES = [
    pytest.param((16, 8, 56, 56), np.float32, id="desk"),
    pytest.param((4, 16, 128, 128), np.float32, id="deep128"),
    pytest.param((1, 8, 64, 64), np.float32, id="batch1"),
    pytest.param((4, 256, 8, 8), np.float32, id="wide"),
    pytest.param((2, 3, 5, 7), np.float32, id="odd"),
    pytest.param((2, 3, 5, 7), np.float64, id="odd-f64"),
]


def maxpool2_plain(x, g):
    """Reference 2x2 max pool by argmax: (out, dx, argmax index)."""
    n, c, h, w = x.shape
    win = x.reshape(n, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5)
    win = win.reshape(n, c, h // 2, w // 2, 4)
    idx = win.argmax(axis=-1)
    out = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]
    g4 = np.zeros(win.shape, dtype=g.dtype)
    np.put_along_axis(g4, idx[..., None], g[..., None], axis=-1)
    dx = g4.reshape(n, c, h // 2, w // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(x.shape)
    return out, dx, idx


def upsample_bilinear2_plain(x, g):
    """Reference upsample, two tensordots per direction: (out, dx)."""
    mh = lerp_matrix_plain(x.shape[2], x.dtype)
    mw = lerp_matrix_plain(x.shape[3], x.dtype)
    yh = np.tensordot(mh, x, axes=([1], [2])).transpose(1, 2, 0, 3)
    out = np.tensordot(mw, yh, axes=([1], [3])).transpose(1, 2, 3, 0)
    gh = np.tensordot(mw.T, g, axes=([1], [3])).transpose(1, 2, 3, 0)
    dx = np.tensordot(mh.T, gh, axes=([1], [2])).transpose(1, 2, 0, 3)
    return np.ascontiguousarray(out), np.ascontiguousarray(dx)


def sigmoid_plain(x, g):
    """Reference sigmoid by boolean indexing of each sign: (out, dx)."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out, g * out * (1.0 - out)


def directional_avgpool_plain(x, g, axis):
    """Reference directional pool by ``mean``: (out, dx)."""
    ax = 3 if axis == "width" else 2
    return x.mean(axis=ax, keepdims=True), np.broadcast_to(g / x.shape[ax], x.shape)


def relu_plain(x, g):
    """Reference relu: (out, dx, sign mask)."""
    mask = x > 0
    return np.maximum(x, 0), g * mask, mask


def two_products(x, a, b):
    """Reference gate: the chain of two Tensor products."""
    return x * a * b


def plant_zeros(arr):
    """`arr` with -0.0 at every 5th element and 0.0 after each."""
    arr = arr.copy()
    arr.flat[::5] = -0.0
    arr.flat[1::5] = 0.0
    return arr


def gate_grads(op, x, a, b, g):
    """Output and the gradients of x, a and b of `op(x, a, b)`, fed `g`."""
    xs = [Tensor(v, requires_grad=True, check=False) for v in (x, a, b)]
    y = op(*xs)
    (y * Tensor(g, check=False)).sum().backward()
    return [y.data] + [t.grad for t in xs]


# Shapes of the kernel-rewrite byte tests: the smallest, an odd shape, and
# the activations of the desk64 (batch 16) and deep128 (batch 4) nets.
# UPSAMPLE_SHAPES are the inputs of every decoder level of the two nets.
ACT_SHAPES = [(1, 1, 1, 1), (2, 3, 5, 7), (16, 8, 64, 64), (16, 32, 16, 16),
              (4, 16, 128, 128), (4, 256, 8, 8)]
UPSAMPLE_SHAPES = [(1, 1, 1, 1), (2, 3, 5, 7), (16, 32, 16, 16), (16, 16, 32, 32),
                   (4, 256, 8, 8), (4, 128, 16, 16), (4, 64, 32, 32), (4, 32, 64, 64)]
DTYPES = [pytest.param(np.float32, id="f32"), pytest.param(np.float64, id="f64")]


def _forward_backward(op, x, g):
    """(out, dx) of a Tensor op on `x`, its closure fed `g`."""
    xt = Tensor(x, requires_grad=True, check=False)
    y = op(xt)
    y._backward_fn(g)
    return y.data, xt.grad


def tied_windows(dtype):
    """Every 2x2 window over {-1, -0.0, 0.0, 0.5}: 2-, 3- and 4-way ties at
    every window position, -0.0 against 0.0 included. Channel 1 holds
    random values, mostly without ties."""
    values = np.array([-1.0, -0.0, 0.0, 0.5], dtype=dtype)
    combos = np.stack(np.meshgrid(*[np.arange(4)] * 4, indexing="ij"), -1).reshape(-1, 4)
    win = values[combos].reshape(16, 16, 2, 2)          # 256 windows
    x = np.empty((2, 2, 32, 32), dtype=dtype)
    x[:, 0] = win.transpose(0, 2, 1, 3).reshape(32, 32)
    x[:, 1] = np.random.default_rng(28).standard_normal((2, 32, 32))
    x[1, 0] = x[1, 0, ::-1]
    return x


def conv_operands(case, rng, dtype=np.float32):
    shape, kh, kw, padding = CONV_CASES[case]
    x = rng.standard_normal(shape).astype(dtype)
    w = rng.standard_normal((4, shape[1], kh, kw)).astype(dtype)
    b = rng.standard_normal(4).astype(dtype)
    return x, w, b, padding


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
        x, w, b, padding = conv_operands(case, np.random.default_rng(11))
        fast = T.conv2d(Tensor(x), Tensor(w), Tensor(b), padding)
        direct = T.conv2d_forward_direct(x, w, b, padding=padding)
        np.testing.assert_allclose(fast.data, direct, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("case", [c for c, spec in CONV_CASES.items() if spec[3]])
    def test_padding_matches_np_pad(self, case):
        x, w, b, padding = conv_operands(case, np.random.default_rng(13))
        xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        xt, xpt = Tensor(x, requires_grad=True), Tensor(xp, requires_grad=True)
        wt, wpt = Tensor(w, requires_grad=True), Tensor(w, requires_grad=True)
        padded = T.conv2d(xt, wt, Tensor(b), padding)
        unpadded = T.conv2d(xpt, wpt, Tensor(b), 0)
        assert padded.data.tobytes() == unpadded.data.tobytes()
        g = np.random.default_rng(14).standard_normal(padded.shape).astype(x.dtype)
        padded._backward_fn(g)
        unpadded._backward_fn(g)
        inner = xpt.grad[:, :, padding:-padding, padding:-padding]
        assert xt.grad.tobytes() == np.ascontiguousarray(inner).tobytes()
        assert wt.grad.tobytes() == wpt.grad.tobytes()

    @pytest.mark.parametrize("case", SHAPE_CASES)
    def test_shapes_match_finite_differences(self, case):
        rng = np.random.default_rng(6)
        x, w, b, padding = conv_operands(case, rng, np.float64)
        x, w, b = t64(x), t64(w), t64(b)
        out_shape = T.conv2d(x, w, b, padding).shape
        r = t64(rng.standard_normal(out_shape), requires_grad=False)
        res = check_gradients(
            f"conv-{case}", lambda: (T.conv2d(x, w, b, padding) * r).sum(),
            {"input": x, "weight": w, "bias": b})
        assert res.passed, res.row()

    @pytest.mark.parametrize("case", ["1-1-3-3", "cin1", "attention-1x1"])
    def test_batch_matches_stacked_single_images(self, case):
        x, w, b, padding = conv_operands(case, np.random.default_rng(12))
        x = np.concatenate([x, x[::-1] * 0.5, x + 1.0])
        batch = T.conv2d(Tensor(x), Tensor(w), Tensor(b), padding).data
        single = np.concatenate([
            T.conv2d(Tensor(x[i:i + 1]), Tensor(w), Tensor(b), padding).data
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

    def test_backward_peaks_below_two_grad_x(self):
        # grad-x is 1 MiB; the padded scratch is one image, not the batch.
        rng = np.random.default_rng(8)
        x = Tensor(rng.standard_normal((8, 8, 64, 64)).astype(np.float32),
                   requires_grad=True)
        w = Tensor(rng.standard_normal((4, 8, 3, 3)).astype(np.float32),
                   requires_grad=True)
        g = rng.standard_normal((8, 4, 64, 64)).astype(np.float32)
        y = T.conv2d(x, w, padding=1)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            y._backward_fn(g)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 2 * x.data.nbytes, \
            f"backward peaks at {peak / x.data.nbytes:.2f}x the grad-x bytes"

    def test_backward_keeps_one_padded_scratch(self):
        # grad-w's input and grad-x's accumulator share one padded image
        n, cin, cout, side = 2, 32, 16, 64
        rng = np.random.default_rng(10)
        x = Tensor(rng.standard_normal((n, cin, side, side)).astype(np.float32),
                   requires_grad=True)
        w = Tensor(rng.standard_normal((cout, cin, 3, 3)).astype(np.float32),
                   requires_grad=True)
        g = rng.standard_normal((n, cout, side, side)).astype(np.float32)
        y = T.conv2d(x, w, padding=1)
        wp = side + 2
        padded_image = cin * wp * wp * 4
        # grad-x, one widened-g image and g_tap
        known = x.data.nbytes + cout * side * wp * 4 + cin * (side * wp - 2) * 4
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            y._backward_fn(g)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        scratch = (peak - known) / padded_image
        assert scratch < 1.5, f"backward keeps {scratch:.2f} padded images of scratch"

    def test_padding_builds_no_full_batch_copy(self):
        # 16 -> 1 channel, so a padded copy of the batch outweighs the
        # output, and 16 images, so it outweighs the one-image scratch
        rng = np.random.default_rng(9)
        x = Tensor(rng.standard_normal((16, 16, 16, 16)).astype(np.float32),
                   requires_grad=True)
        w = Tensor(rng.standard_normal((1, 16, 3, 3)).astype(np.float32),
                   requires_grad=True)
        g = rng.standard_normal((16, 1, 16, 16)).astype(np.float32)
        padded_bytes = 16 * 16 * 18 * 18 * 4
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            y = T.conv2d(x, w, padding=1)
            forward_peak = tracemalloc.get_traced_memory()[1] - base
            tracemalloc.reset_peak()
            y._backward_fn(g)
            backward_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert forward_peak - y.data.nbytes < padded_bytes / 2, \
            f"forward peaks {forward_peak / padded_bytes:.2f}x a padded batch above its output"
        extra = backward_peak - y.data.nbytes - x.grad.nbytes
        assert extra < padded_bytes / 2, \
            f"backward peaks {extra / padded_bytes:.2f}x a padded batch above output and grad-x"

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("padding", [0, 1])
    def test_bn_relu_conv_grads_match_the_stored_input(self, padding, dtype):
        # reshape's output carries no rebuild, so the second conv stores
        # its input where the first rebuilds it from batch norm's xhat
        rng = np.random.default_rng(17)
        x0 = rng.standard_normal((3, 4, 9, 10)).astype(dtype)
        w0 = rng.standard_normal((5, 4, 3, 3)).astype(dtype)
        gamma0, beta0 = rng.standard_normal(4).astype(dtype), rng.standard_normal(4).astype(dtype)
        g = rng.standard_normal((3, 5, 9 - 2 + 2 * padding, 10 - 2 + 2 * padding)).astype(dtype)
        grads = []
        for stored in (False, True):
            x, w = Tensor(x0, requires_grad=True), Tensor(w0, requires_grad=True)
            gamma, beta = Tensor(gamma0, requires_grad=True), Tensor(beta0, requires_grad=True)
            a = T.relu(T.batchnorm2d(x, gamma, beta, RunningMoments(4, dtype)))
            if stored:
                a = a.reshape(a.shape)
            assert (a._node.rebuild is None) == stored
            y = T.conv2d(a, w, padding=padding)
            out = y.data.tobytes()
            (y * Tensor(g)).sum().backward()
            grads.append([out] + [t.grad.tobytes() for t in (x, w, gamma, beta)])
        assert grads[0] == grads[1]

    @pytest.mark.parametrize("padding", [0, 1])
    def test_bn_relu_conv_holds_one_activation(self, padding):
        rng = np.random.default_rng(18)
        x = Tensor(rng.standard_normal((16, 8, 32, 32)).astype(np.float32),
                   requires_grad=True)
        gamma = Tensor(np.ones(8, np.float32), requires_grad=True)
        beta = Tensor(np.zeros(8, np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 8, 3, 3)).astype(np.float32), requires_grad=True)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            a = T.relu(T.batchnorm2d(x, gamma, beta, RunningMoments(8)))
            loss = T.conv2d(a, w, padding=padding).sum()
            del a
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert held < 1.5 * x.data.nbytes, \
            f"{held / x.data.nbytes:.2f} activations held when backward starts"
        loss.backward()
        assert all(t.grad is not None for t in (x, gamma, beta, w))

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
        y = T.batchnorm2d(x, gamma, beta, RunningMoments(3))
        mean = y.data.mean(axis=(0, 2, 3))
        var = y.data.var(axis=(0, 2, 3))
        np.testing.assert_allclose(mean, 0.0, atol=1e-5)
        np.testing.assert_allclose(var, 1.0, atol=1e-4)

    def test_zero_gamma_gives_beta(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.standard_normal((2, 3, 4, 4)).astype(np.float32))
        gamma = Tensor(np.zeros(3, np.float32))
        beta = Tensor(np.array([1.0, -2.0, 0.5], np.float32))
        y = T.batchnorm2d(x, gamma, beta, RunningMoments(3))
        expected = np.broadcast_to(beta.data.reshape(1, 3, 1, 1), y.shape)
        np.testing.assert_array_equal(y.data, expected)

    def test_eval_uses_running_moments(self):
        # Eval mode is the fold: here into a 1x1 identity conv
        state = RunningMoments(2)
        state.mean[:] = [1.0, -1.0]
        state.var[:] = [4.0, 0.25]
        x = Tensor(np.ones((1, 2, 2, 2), np.float32))
        eye = Tensor(np.eye(2, dtype=np.float32).reshape(2, 2, 1, 1))
        y = T.conv2d(x, *T.fold_batchnorm(eye, Tensor(np.ones(2, np.float32)),
                                          Tensor(np.zeros(2, np.float32)), state))
        np.testing.assert_allclose(y.data[0, 0], (1 - 1) / np.sqrt(4 + 1e-5), atol=1e-6)
        np.testing.assert_allclose(y.data[0, 1], (1 + 1) / np.sqrt(0.25 + 1e-5),
                                   rtol=1e-5)

    def test_training_updates_moments(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((4, 2, 4, 4)).astype(np.float32) * 2 + 3
        state = RunningMoments(2)
        T.batchnorm2d(Tensor(x), Tensor(np.ones(2, np.float32)),
                      Tensor(np.zeros(2, np.float32)), state)
        m = 4 * 4 * 4
        expected_mean = 0.1 * x.mean(axis=(0, 2, 3))
        expected_var = 0.9 + 0.1 * x.var(axis=(0, 2, 3)) * m / (m - 1)
        np.testing.assert_allclose(state.mean, expected_mean, rtol=1e-5)
        np.testing.assert_allclose(state.var, expected_var, rtol=1e-5)

    def test_degenerate_batch_raises(self):
        x = Tensor(np.zeros((1, 2, 1, 1), np.float32))
        with pytest.raises(DegenerateBatchError):
            T.batchnorm2d(x, Tensor(np.ones(2, np.float32)),
                          Tensor(np.zeros(2, np.float32)), RunningMoments(2))

    @pytest.mark.parametrize("shape,dtype", BN_SHAPES)
    def test_matches_plain_form_bytes(self, shape, dtype):
        rng = np.random.default_rng(23)
        c = shape[1]
        x = (rng.standard_normal(shape) * 2 + 0.5).astype(dtype)
        gamma = rng.uniform(0.5, 1.5, c).astype(dtype)
        beta = rng.standard_normal(c).astype(dtype)
        g = rng.standard_normal(shape).astype(dtype)
        state = RunningMoments(c, dtype=dtype)
        state.mean[:] = rng.standard_normal(c)
        state.var[:] = rng.uniform(0.5, 2.0, c)
        ref_state = copy_moments(state)
        want = batchnorm2d_plain(x, gamma, beta, ref_state, True, g)

        xt, gt, bt = (Tensor(a, requires_grad=True) for a in (x, gamma, beta))
        x_before, g_before = x.copy(), g.copy()
        y = T.batchnorm2d(xt, gt, bt, state)
        y._backward_fn(g)
        got = (y.data, xt.grad, gt.grad, bt.grad, state.mean, state.var)
        for name, a, b in zip(("out", "dx", "dgamma", "dbeta", "mean", "var"), got,
                              want + (ref_state.mean, ref_state.var)):
            assert a.dtype == b.dtype and np.array_equal(a, b), name
            assert a.tobytes() == b.tobytes(), name
        assert x.tobytes() == x_before.tobytes() and g.tobytes() == g_before.tobytes()

    @pytest.mark.parametrize("shape,dtype", BN_SHAPES)
    def test_eval_fold_matches_plain_form(self, shape, dtype):
        # The fold into a 1x1 identity conv against the plain form's two
        # eval ops: within the fold's bound, and the moments left as stored.
        rng = np.random.default_rng(23)
        c = shape[1]
        x = (rng.standard_normal(shape) * 2 + 0.5).astype(dtype)
        gamma = rng.uniform(0.5, 1.5, c).astype(dtype)
        beta = rng.standard_normal(c).astype(dtype)
        g = rng.standard_normal(shape).astype(dtype)
        state = RunningMoments(c, dtype=dtype)
        state.mean[:] = rng.standard_normal(c)
        state.var[:] = rng.uniform(0.5, 2.0, c)
        stored = copy_moments(state)
        want = batchnorm2d_plain(x, gamma, beta, copy_moments(stored), False, g)

        xt, gt, bt = (Tensor(a, requires_grad=True) for a in (x, gamma, beta))
        x_before, g_before = x.copy(), g.copy()
        eye = Tensor(np.eye(c, dtype=dtype).reshape(c, c, 1, 1))
        y = T.conv2d(xt, *T.fold_batchnorm(eye, gt, bt, state))
        (y * Tensor(g)).sum().backward()
        got = (y.data, xt.grad, gt.grad, bt.grad)
        for name, a, b in zip(("out", "dx", "dgamma", "dbeta"), got, want):
            assert a.dtype == b.dtype, name
            assert np.abs(a - b).max() <= fold_tolerance(b), name
        assert bt.grad.tobytes() == want[3].tobytes()
        assert state.mean.tobytes() == stored.mean.tobytes()
        assert state.var.tobytes() == stored.var.tobytes()
        assert x.tobytes() == x_before.tobytes() and g.tobytes() == g_before.tobytes()

    @pytest.mark.parametrize("shape,dtype", BN_SHAPES)
    def test_channel_sum_matches_numpy_reductions(self, shape, dtype):
        a = (np.random.default_rng(24).standard_normal(shape) * 3 + 1).astype(dtype)
        n, c, h, w = shape
        m = n * h * w
        # batchnorm2d forms its moments as numpy's channel sum over N*H*W
        axes = (0, 2, 3)
        assert (a.sum(axis=axes) / m).tobytes() == a.mean(axis=axes).tobytes()
        centred = a - a.mean(axis=axes).reshape(1, c, 1, 1)
        assert ((centred * centred).sum(axis=axes) / m).tobytes() == a.var(axis=axes).tobytes()

    def test_memory_peaks_at_two_activations(self):
        # A desk64 enc0 activation: batch 16, 8 channels, 64x64.
        rng = np.random.default_rng(25)
        x = Tensor(rng.standard_normal((16, 8, 64, 64)).astype(np.float32),
                   requires_grad=True)
        gamma = Tensor(np.ones(8, np.float32), requires_grad=True)
        beta = Tensor(np.zeros(8, np.float32), requires_grad=True)
        g = rng.standard_normal(x.shape).astype(np.float32)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            y = T.batchnorm2d(x, gamma, beta, RunningMoments(8))
            after_forward, forward_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            y._backward_fn(g)
            backward_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        limit = 2.1 * x.data.nbytes
        assert forward_peak - base <= limit, \
            f"forward peaks at {(forward_peak - base) / x.data.nbytes:.2f}x the input"
        assert backward_peak - after_forward <= limit, \
            f"backward peaks at {(backward_peak - after_forward) / x.data.nbytes:.2f}x the input"

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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_plain_form_bytes_on_ties(self, dtype):
        x = tied_windows(dtype)
        g = np.random.default_rng(26).standard_normal(
            (x.shape[0], x.shape[1], x.shape[2] // 2, x.shape[3] // 2)).astype(dtype)
        out, dx, idx = maxpool2_plain(x, g)
        xt = Tensor(x, requires_grad=True)
        with T.record_switches() as switches:
            y = T.maxpool2(xt)
        y._backward_fn(g)
        assert y.data.tobytes() == out.tobytes()
        assert np.signbit(y.data).sum() > 0, "no -0.0 maximum was planted"
        assert xt.grad.tobytes() == dx.tobytes()
        assert len(switches) == 1 and np.array_equal(switches[0], idx)

    def test_closure_holds_no_routing_index(self):
        x = Tensor(np.random.default_rng(27).standard_normal((16, 8, 64, 64))
                   .astype(np.float32), requires_grad=True)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            y = T.maxpool2(x)
            retained = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert retained <= y.data.nbytes + 64 * 1024, \
            f"forward retains {retained / 2 ** 20:.2f} MiB for a {y.data.nbytes / 2 ** 20:.2f} MiB output"

class TestKernelRewrites:
    """Upsample, sigmoid, directional pool, relu and gate give the bytes of
    the plain forms above, forward and backward."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape", UPSAMPLE_SHAPES, ids=str)
    def test_upsample_matches_tensordot_form(self, shape, dtype):
        rng = np.random.default_rng(29)
        x = rng.standard_normal(shape).astype(dtype)
        g = rng.standard_normal(shape[:2] + (2 * shape[2], 2 * shape[3])).astype(dtype)
        out, dx = _forward_backward(T.upsample_bilinear2, x, g)
        want_out, want_dx = upsample_bilinear2_plain(x, g)
        assert out.dtype == dtype and out.tobytes() == want_out.tobytes()
        assert dx.dtype == dtype and dx.tobytes() == want_dx.tobytes()

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape", ACT_SHAPES, ids=str)
    def test_sigmoid_matches_indexed_form(self, shape, dtype):
        rng = np.random.default_rng(30)
        x = (rng.standard_normal(shape) * 4).astype(dtype)
        g = rng.standard_normal(shape).astype(dtype)
        out, dx = _forward_backward(T.sigmoid, x, g)
        want_out, want_dx = sigmoid_plain(x, g)
        assert out.dtype == dtype and out.tobytes() == want_out.tobytes()
        assert dx.tobytes() == want_dx.tobytes()

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_sigmoid_matches_indexed_form_at_special_values(self, dtype):
        big = np.finfo(dtype).max
        x = np.array([np.inf, -np.inf, 0.0, -0.0, big, -big, 1e-30, -1e-30,
                      20.0, -20.0, 90.0, -90.0, 750.0, -750.0], dtype=dtype)
        g = np.ones_like(x)
        out, dx = _forward_backward(T.sigmoid, x, g)
        want_out, want_dx = sigmoid_plain(x, g)
        assert out.tobytes() == want_out.tobytes()
        assert dx.tobytes() == want_dx.tobytes()
        assert list(out[:4]) == [1.0, 0.0, 0.5, 0.5]

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape", ACT_SHAPES, ids=str)
    @pytest.mark.parametrize("axis", ["height", "width"])
    def test_directional_avgpool_matches_mean_form(self, shape, dtype, axis):
        rng = np.random.default_rng(31)
        x = (rng.standard_normal(shape) * 3 + 1).astype(dtype)
        pooled = list(shape)
        pooled[3 if axis == "width" else 2] = 1
        g = rng.standard_normal(pooled).astype(dtype)
        out, dx = _forward_backward(lambda t: T.directional_avgpool(t, axis), x, g)
        want_out, want_dx = directional_avgpool_plain(x, g, axis)
        assert out.dtype == dtype and out.tobytes() == want_out.tobytes()
        assert dx.tobytes() == np.ascontiguousarray(want_dx).tobytes()

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape", ACT_SHAPES, ids=str)
    def test_relu_matches_plain_form(self, shape, dtype):
        rng = np.random.default_rng(32)
        x = rng.standard_normal(shape).astype(dtype)
        x.flat[::7] = -0.0
        x.flat[1::7] = 0.0
        g = rng.standard_normal(shape).astype(dtype)
        want_out, want_dx, want_mask = relu_plain(x, g)
        with T.record_switches() as switches:
            out, dx = _forward_backward(T.relu, x, g)
        assert out.tobytes() == want_out.tobytes() and dx.tobytes() == want_dx.tobytes()
        assert len(switches) == 1 and np.array_equal(switches[0], want_mask)
        with T.no_grad():
            y = T.relu(Tensor(x, requires_grad=True))
        assert y.data.tobytes() == want_out.tobytes()

    def test_relu_records_its_mask_without_a_graph(self):
        x = np.array([[-1.0, 0.0, 2.0, -0.0]], np.float32)
        with T.no_grad(), T.record_switches() as switches:
            y = T.relu(Tensor(x))
        assert not y.requires_grad
        assert len(switches) == 1 and switches[0].tolist() == [[False, False, True, False]]

    def test_relu_without_a_consumer_builds_no_graph(self):
        with T.no_grad():
            y = T.relu(Tensor(np.ones((2, 2), np.float32), requires_grad=True))
        assert not y.requires_grad and y._backward_fn is None and y._parents == ()
        y = T.relu(Tensor(np.ones((2, 2), np.float32)))
        assert not y.requires_grad and y._backward_fn is None

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape", ACT_SHAPES, ids=str)
    def test_gate_matches_two_products(self, shape, dtype):
        n, c, h, w = shape
        rng = np.random.default_rng(33)
        x, a, b, g = (plant_zeros(rng.standard_normal(s).astype(dtype))
                      for s in (shape, (n, c, 1, w), (n, c, h, 1), shape))
        got = gate_grads(T.gate, x, a, b, g)
        want = gate_grads(two_products, x, a, b, g)
        for name, u, v in zip(("out", "dx", "da", "db"), got, want):
            assert u.dtype == dtype and u.shape == v.shape, name
            assert u.tobytes() == v.tobytes(), name
        assert np.signbit(got[0]).any() and (got[0] == 0).any()

    def test_gate_rejects_a_gate_wider_than_its_input(self):
        x = Tensor(np.ones((1, 2, 3, 1), np.float32))
        with pytest.raises(DimensionError, match="gate shapes"):
            T.gate(x, Tensor(np.ones((1, 2, 1, 4), np.float32)),
                   Tensor(np.ones((1, 2, 3, 1), np.float32)))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_attention_gate_matches_two_products(self, dtype, monkeypatch):
        # ca_forward with its gates zeroed in places (-0.0 and 0.0) by the
        # hook, once through gate and once through the two-product chain.
        cfg = CAConfig(reduction_ratio=4, min_mid_channels=2)
        rng = np.random.default_rng(34)
        x = plant_zeros(rng.standard_normal((2, 8, 6, 10)).astype(dtype))
        r = rng.standard_normal(x.shape).astype(dtype)

        def planted(t):
            signs = plant_zeros(np.ones(t.shape, dtype))
            return t * Tensor(signs, check=False)

        def run():
            store = ParameterStore()
            init_ca(store, "ca", 8, cfg, np.random.default_rng(35))
            if dtype == np.float64:
                store = store.to_double()
            xt = Tensor(x, requires_grad=True, check=False)
            y = ca_forward(xt, store, "ca", cfg, training=True,
                           attention_hook=lambda a_h, a_w: (planted(a_h), planted(a_w)))
            (y * Tensor(r, check=False)).sum().backward()
            return [y.data, xt.grad] + [t.grad for _, t in store.items()]

        chained = []

        def chain(x, a, b):
            chained.append(x.shape)
            return two_products(x, a, b)

        got = run()
        monkeypatch.setattr(attention, "gate", chain)
        want = run()
        assert chained == [x.shape] and len(got) == len(want) > 2
        for u, v in zip(got, want):
            assert u.dtype == dtype and u.tobytes() == v.tobytes()
        assert np.signbit(got[0]).any()


def with_rebuild(rng, shape, dtype):
    """A batchnorm2d output, which carries a rebuild, whose channel 0 mixes
    -0.0 and 0.0 (gamma and beta -0.0 there)."""
    gamma = rng.standard_normal(shape[1]).astype(dtype)
    beta = rng.standard_normal(shape[1]).astype(dtype)
    gamma[0] = beta[0] = -0.0
    x = Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True)
    return T.batchnorm2d(x, Tensor(gamma, requires_grad=True), Tensor(beta, requires_grad=True),
                         RunningMoments(shape[1], dtype))


def gates_of(rng, shape, dtype):
    """Width and height gates for an input of `shape`, with planted ±0."""
    n, c, h, w = shape
    return [Tensor(plant_zeros(rng.standard_normal(s).astype(dtype)), requires_grad=True,
                   check=False) for s in ((n, c, 1, w), (n, c, h, 1))]


def rebuild_cases(rng, dtype):
    """name -> an op output that carries a rebuild, built on (2, 3, 6, 10)."""
    shape = (2, 3, 6, 10)
    stored = Tensor(plant_zeros(rng.standard_normal(shape).astype(dtype)),
                    requires_grad=True, check=False)
    small = with_rebuild(rng, (2, 3, 3, 5), dtype)
    upsampled = T.upsample_bilinear2(T.relu(small))
    return {
        "add": with_rebuild(rng, shape, dtype) + with_rebuild(rng, shape, dtype),
        "gate": T.gate(with_rebuild(rng, shape, dtype), *gates_of(rng, shape, dtype)),
        "gate-stored-input": T.gate(stored, *gates_of(rng, shape, dtype)),
        "concat": T.concat_channels(with_rebuild(rng, shape, dtype),
                                    T.relu(with_rebuild(rng, (2, 2, 6, 10), dtype))),
        "upsample": upsampled,
        # the decoder of an attention net: upsample, gate, concat a RICA sum
        "decoder": T.concat_channels(
            T.gate(upsampled, *gates_of(rng, shape, dtype)),
            T.relu(with_rebuild(rng, shape, dtype)) + with_rebuild(rng, shape, dtype)),
    }


class TestRebuilds:
    """A rebuild writes image i of its op's output, byte for byte, into a
    strided buffer such as a conv scratch's interior."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("case", ["add", "gate", "gate-stored-input", "concat",
                                      "upsample", "decoder"])
    def test_rebuild_matches_the_output(self, case, dtype):
        y = rebuild_cases(np.random.default_rng(40), dtype)[case]
        assert y._node.rebuild is not None
        n, c, h, w = y.shape
        for i in range(n):
            scratch = np.full((c, h + 2, w + 2), np.nan, dtype)
            out = scratch[:, 1:-1, 1:-1]
            assert y._node.rebuild(i, out) is out
            assert out.tobytes() == y.data[i].tobytes()
        assert (y.data == 0).any()
        if case != "upsample":
            assert np.signbit(y.data[y.data == 0]).any()

    def test_no_rebuild_without_rebuilt_operands(self):
        rng = np.random.default_rng(41)
        plain = Tensor(rng.standard_normal((2, 3, 4, 4)).astype(np.float32), requires_grad=True)
        rebuilt = with_rebuild(rng, (2, 3, 4, 4), np.float32)
        assert (plain + rebuilt)._node.rebuild is None
        assert (rebuilt + rebuilt.narrow(3, 0, 1))._node.rebuild is None
        assert T.concat_channels(plain, rebuilt)._node.rebuild is None
        assert T.concat([rebuilt, rebuilt], axis=2)._node.rebuild is None
        assert T.upsample_bilinear2(plain)._node.rebuild is None

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape", [(2, 3, 5, 7), (16, 8, 64, 64), (4, 16, 128, 128)],
                             ids=str)
    def test_gate_of_bn_relu_matches_two_products(self, shape, dtype):
        # the gate keeps no input and rebuilds it per image in backward
        n, c, h, w = shape
        rng = np.random.default_rng(42)
        x0 = rng.standard_normal(shape).astype(dtype)
        gamma0, beta0 = rng.standard_normal(c).astype(dtype), rng.standard_normal(c).astype(dtype)
        a0, b0, g = (plant_zeros(rng.standard_normal(s).astype(dtype))
                     for s in ((n, c, 1, w), (n, c, h, 1), shape))
        results = []
        for op in (T.gate, two_products):
            x, gamma, beta, a, b = (Tensor(v, requires_grad=True, check=False)
                                    for v in (x0, gamma0, beta0, a0, b0))
            r = T.relu(T.batchnorm2d(x, gamma, beta, RunningMoments(c, dtype)))
            y = op(r, a, b)
            (y * Tensor(g, check=False)).sum().backward()
            results.append([y.data] + [t.grad for t in (x, a, b, gamma, beta)])
        for name, u, v in zip(("out", "dx", "da", "db", "dgamma", "dbeta"), *results):
            assert u.dtype == dtype and u.tobytes() == v.tobytes(), name

    def test_gate_rejects_a_gate_of_another_dtype(self):
        x = Tensor(np.ones((1, 2, 3, 4), np.float32))
        with pytest.raises(ContractError, match="gate dtypes"):
            T.gate(x, Tensor(np.ones((1, 2, 1, 4))), Tensor(np.ones((1, 2, 3, 1), np.float32)))


class TestResampling:
    def test_upsample_constant(self):
        x = Tensor(np.full((2, 3, 4, 5), 1.75, np.float32))
        y = T.upsample_bilinear2(x)
        assert y.shape == (2, 3, 8, 10)
        np.testing.assert_allclose(y.data, 1.75, rtol=1e-6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_lerp_matrix_matches_row_loop(self, dtype):
        for length in range(1, 257):
            m = T._lerp_matrix(length, dtype)
            want = lerp_matrix_plain(length, dtype)
            assert m.dtype == dtype and m.tobytes() == want.tobytes(), length

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

    def test_second_backward_raises(self):
        x = Tensor(np.array([1.0, 2.0], np.float32), requires_grad=True)
        loss = (x * x).sum()
        loss.backward()
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])
        with pytest.raises(ContractError, match="already released"):
            loss.backward()

    def test_backward_through_released_subgraph_raises(self):
        x = Tensor(np.array([1.0, 2.0], np.float32), requires_grad=True)
        shared = x * 3.0
        first = shared.sum()
        second = (shared * shared).sum()
        first.backward()
        with pytest.raises(ContractError, match="already released"):
            second.backward()

    def test_leaf_grads_survive_and_nonleaf_grads_are_dropped(self):
        x = Tensor(np.array([1.0, -2.0], np.float32), requires_grad=True)
        h = x * 2.0
        loss = (h * h).sum()
        loss.backward()
        np.testing.assert_array_equal(x.grad, [8.0, -16.0])
        assert h.grad is None and loss.grad is None
        assert h._parents == () and loss._parents == ()

    def test_unsaved_outputs_freed_before_backward(self):
        # conv -> BN -> ReLU: the ReLU saves its mask, not its input, so the
        # BN output is freed once forward drops its tensor.
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((2, 3, 8, 8)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 3, 3, 3)).astype(np.float32), requires_grad=True)
        gamma = Tensor(np.ones(4, np.float32), requires_grad=True)
        beta = Tensor(np.zeros(4, np.float32), requires_grad=True)
        y = T.batchnorm2d(T.conv2d(x, w, padding=1), gamma, beta, RunningMoments(4))
        bn_out = weakref.ref(y.data)
        loss = T.relu(y).sum()
        del y
        assert bn_out() is None, "the BN output outlived its tensor"
        loss.backward()
        assert all(t.grad is not None for t in (x, w, gamma, beta))

    def test_attention_net_frees_concat_gate_inputs_and_rica_sums(self, monkeypatch):
        # Every part of a decoder concat carries a rebuild, so the conv it
        # feeds, the decoder gates and the convs on the RICA sums keep none.
        freed = {"concat": [], "decoder gate input": [], "rica sum": []}

        def recording(fn, kind, pick):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                watched = pick(args, out)
                if watched is not None:
                    freed[kind].append(weakref.ref(watched.data))
                return out
            return wrapper

        monkeypatch.setattr(network, "concat_channels", recording(
            network.concat_channels, "concat", lambda args, out: out))
        monkeypatch.setattr(network, "ca_forward", recording(
            network.ca_forward, "decoder gate input",
            lambda args, out: args[0] if args[2].startswith("dec") else None))
        monkeypatch.setattr(network, "rica_forward", recording(
            network.rica_forward, "rica sum", lambda args, out: out))
        store = build(ArchConfig(levels=2, base_channels=4), 0)
        x = Tensor(np.random.default_rng(6).standard_normal((2, 1, 16, 16)).astype(np.float32))
        loss = loss_by_variant(LossConfig())(forward(store, x, training=True),
                                             np.zeros((2, 16, 16), np.int64))
        assert {k: len(v) for k, v in freed.items()} == \
            {"concat": 2, "decoder gate input": 2, "rica sum": 3}
        alive = {k: sum(ref() is not None for ref in v) for k, v in freed.items()}
        assert alive == {k: 0 for k in freed}, f"alive before backward: {alive}"
        loss.backward()
        assert all(t.grad is not None for _, t in store.items())

    def test_closures_hold_nodes_not_tensors(self):
        store = build(ArchConfig(levels=1, base_channels=4), 0)
        x = Tensor(np.random.default_rng(4).random((2, 1, 8, 8), dtype=np.float32))
        loss = loss_by_variant(LossConfig())(forward(store, x, training=True),
                                             np.zeros((2, 8, 8), np.int64))
        a = t64(np.linspace(0.5, 2.0, 12).reshape(3, 4))
        extra = T.concat([(-a).exp() - a.sqrt() / a, a.transpose((1, 0)).reshape(3, 4)], axis=0)
        roots = [loss._node, extra.narrow(0, 1, 2).sum()._node]
        seen = set()
        while roots:
            node = roots.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            for cell in node._backward_fn.__closure__ or ():
                assert not isinstance(cell.cell_contents, Tensor), node._backward_fn
            roots.extend(p for p in node._parents if p._backward_fn is not None)
        assert len(seen) > 50

    def test_recorded_closures_hold_only_what_their_gradient_reads(self):
        def held(t):
            """The buffers the backward closure of `t` holds, following the
            functions in its cells to any depth, as tools/saved_state.py does."""
            buffers, functions, seen = [], [t._backward_fn], set()
            while functions:
                fn = functions.pop()
                if id(fn) in seen:
                    continue
                seen.add(id(fn))
                for cell in fn.__closure__ or ():
                    value = cell.cell_contents
                    for item in value if isinstance(value, (tuple, list)) else (value,):
                        if isinstance(item, np.ndarray):
                            while isinstance(item.base, np.ndarray):
                                item = item.base
                            buffers.append(item)
                        elif isinstance(item, types.FunctionType):
                            functions.append(item)
            return buffers

        rng = np.random.default_rng(9)
        x = Tensor(rng.random((3, 4), dtype=np.float32) + 0.5, requires_grad=True)
        y = Tensor(rng.random((3, 4), dtype=np.float32) + 0.5, requires_grad=True)
        for name, out in {"-x": -x, "x + y": x + y, "x - y": x - y,
                          "reshape": x.reshape(4, 3), "transpose": x.transpose((1, 0)),
                          "sum": x.sum(axis=0), "mean": x.mean(),
                          "narrow": x.narrow(0, 1, 2)}.items():
            assert [a.shape for a in held(out) if a.size >= x.size] == [], name
        for name, out in {"x * y": x * y, "x / y": x / y}.items():
            assert set(map(id, held(out))) == {id(x.data), id(y.data)}, name
        for name, out in {"exp": x.exp(), "sqrt": x.sqrt(), "sigmoid": T.sigmoid(x)}.items():
            assert set(map(id, held(out))) == {id(out.data)}, name
        assert set(map(id, held(x.log()))) == {id(x.data)}

    def test_binary_ops_compute_no_gradient_for_a_constant(self, monkeypatch):
        # A desk64-shaped loss backward (batch 16, 64x64, FocalLogDice with
        # inverse-frequency weights) multiplies by the constant one-hot and
        # weight tensors; no gradient may be computed for them.
        rng = np.random.default_rng(5)
        logits = Tensor(rng.standard_normal((16, 6, 64, 64)).astype(np.float32),
                        requires_grad=True)
        target = np.zeros((16, 64, 64), np.int64)
        for i in range(16):
            r, c = rng.integers(4, 56, size=2)
            target[i, r:r + 6, c:c + 6] = 1 + i % 4
        counts = np.bincount(target.ravel(), minlength=6)
        loss = loss_by_variant(LossConfig(class_weights=class_weights_from_counts(counts)))(
            logits, target)
        wasted, accum = [], T._Node.accum

        def counting(node, g):
            if not node.requires_grad:
                wasted.append(g.shape)
            accum(node, g)
        monkeypatch.setattr(T._Node, "accum", counting)
        loss.backward()
        assert wasted == [], f"{len(wasted)} gradients computed for constants: {wasted}"
        assert logits.grad is not None

    def test_desk64_step_releases_graph(self):
        # One desk64-shaped training step: L2, base 8, batch 16, 64x64,
        # FocalLogDice with inverse-frequency weights of a sparse mask.
        rng = np.random.default_rng(5)
        store = build(ArchConfig(levels=2, base_channels=8), 0)
        x = Tensor(rng.standard_normal((16, 1, 64, 64)).astype(np.float32))
        target = np.zeros((16, 64, 64), np.int64)
        for i in range(16):
            r, c = rng.integers(4, 56, size=2)
            target[i, r:r + 6, c:c + 6] = 1 + i % 4
        counts = np.bincount(target.ravel(), minlength=6)
        loss_fn = loss_by_variant(LossConfig(class_weights=class_weights_from_counts(counts)))
        mib = 2 ** 20
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            logits = forward(store, x, training=True)
            loss = loss_fn(logits, target)
            activation = weakref.ref(logits._parents[0].data)
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            loss.backward()
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert start - base <= 75 * mib, f"{(start - base) / mib:.1f} MiB held when backward starts"
        assert after - base <= 4 * mib, f"{(after - base) / mib:.1f} MiB kept after backward"
        assert peak - start <= 8 * mib, f"backward peaked {(peak - start) / mib:.1f} MiB above its start"
        assert activation() is None, "a non-leaf activation outlived backward"
        assert all(t.grad is not None for _, t in store.items())

    def test_desk64_step_saved_state(self):
        # The step of test_desk64_step_releases_graph. Relu keeps its mask
        # as bits and max-pool its route as 2-bit codes, neither keeps a
        # bool or float array, and the attention gates keep no product.
        rng = np.random.default_rng(5)
        store = build(ArchConfig(levels=2, base_channels=8), 0)
        x = Tensor(rng.standard_normal((16, 1, 64, 64)).astype(np.float32))
        target = np.zeros((16, 64, 64), np.int64)
        for i in range(16):
            r, c = rng.integers(4, 56, size=2)
            target[i, r:r + 6, c:c + 6] = 1 + i % 4
        counts = np.bincount(target.ravel(), minlength=6)
        loss_fn = loss_by_variant(LossConfig(class_weights=class_weights_from_counts(counts)))
        mib = 2 ** 20
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loss = loss_fn(forward(store, x, training=True), target)
            start = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert start - base <= 56 * mib, f"{(start - base) / mib:.1f} MiB held when backward starts"
        switching = {"relu": 0, "maxpool2": 0}
        nodes, seen = [loss._node], set()
        while nodes:
            node = nodes.pop()
            if id(node) in seen or node._backward_fn is None:
                continue
            seen.add(id(node))
            op = node._backward_fn.__qualname__.split(".")[0]
            if op in switching:
                switching[op] += 1
                for cell in node._backward_fn.__closure__:
                    held = cell.cell_contents
                    for arr in held if isinstance(held, (tuple, list)) else (held,):
                        assert not (isinstance(arr, np.ndarray) and arr.dtype.kind in "bf"), \
                            f"a {op} closure holds a {arr.dtype} array of shape {arr.shape}"
            nodes.extend(node._parents)
        assert switching == {"relu": 15, "maxpool2": 2}


class TestAllocator:
    def test_a_freed_large_block_leaves_the_process(self):
        # With glibc's dynamic thresholds the first free of a 9 MiB block
        # raises them, so the next 9 MiB block is carved from the heap and
        # stays resident, 8.9 MiB of it, after it is freed.
        if not Path("/proc/self/statm").is_file() or not T._fix_malloc_thresholds():
            pytest.skip("needs glibc's mallopt and /proc/self/statm")
        code = ("import os, numpy as np, cacseg.tensor\n"
                "def resident():\n"
                "    with open('/proc/self/statm') as f:\n"
                "        return int(f.read().split()[1]) * os.sysconf('SC_PAGE_SIZE')\n"
                "base = resident()\n"
                "for _ in range(3):\n"
                "    block = np.ones(9 << 18, np.float32)\n"
                "    del block\n"
                "print(resident() - base)\n")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True)
        assert int(out.stdout) < 2 ** 20, f"{int(out.stdout) / 2 ** 20:.1f} MiB stayed resident"


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
        save_tns(path, arr)
        back = load_tns(path)
        assert back.dtype == np.float32
        assert back.tobytes() == arr.tobytes()

    def test_u8_round_trip(self, tmp_path):
        arr = np.arange(24, dtype=np.uint8).reshape(4, 6)
        path = tmp_path / "m.tns"
        save_tns(path, arr)
        np.testing.assert_array_equal(load_tns(path), arr)

    def test_header_layout(self, tmp_path):
        arr = np.zeros((2, 3), np.float32)
        path = tmp_path / "h.tns"
        save_tns(path, arr)
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
            load_tns(path)

    def test_nonfinite_payload_rejected(self, tmp_path):
        import struct
        payload = struct.pack("<f", np.nan)
        path = tmp_path / "nan.tns"
        path.write_bytes(b"TNS1" + bytes([0, 1]) + (1).to_bytes(4, "little") + payload)
        with pytest.raises(NumericError):
            load_tns(path)
