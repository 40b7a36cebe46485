"""Coordinate-attention module and RICA block tests."""

import numpy as np
import pytest

from cacseg.attention import CAConfig, ca_forward, conv_bn, init_ca
from cacseg.errors import ConfigError, DimensionError
from cacseg.gradcheck import NET_TOL, check_gradients
from cacseg.network import init_rica, rica_forward
from cacseg.params import ParameterStore
from cacseg.tensor import RunningMoments, Tensor, batchnorm2d, conv2d

CFG = CAConfig(reduction_ratio=4, min_mid_channels=2)


def make_ca_store(channels=3, seed=0, cfg=CFG):
    store = ParameterStore()
    init_ca(store, "ca", channels, cfg, np.random.default_rng(seed))
    return store


def make_rica_store(cin=3, cout=8, seed=0, cfg=CFG):
    store = ParameterStore()
    init_rica(store, "blk", cin, cout, cfg, np.random.default_rng(seed))
    return store


def ca_with_gates(x, store, cfg=CFG):
    """ca_forward in training mode, and the (a_h, a_w) gates its hook saw."""
    gates = []

    def keep(a_h, a_w):
        gates.extend((a_h, a_w))
        return a_h, a_w

    return ca_forward(x, store, "ca", cfg, training=True, attention_hook=keep), gates


class TestCAConfig:
    def test_mid_channels_floor(self):
        assert CAConfig(reduction_ratio=32, min_mid_channels=8).mid_channels(64) == 8
        assert CAConfig(reduction_ratio=32, min_mid_channels=8).mid_channels(512) == 16

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            CAConfig(reduction_ratio=0).validate()
        with pytest.raises(ConfigError):
            CAConfig(activation="gelu").validate()


class TestCAForward:
    def test_zeroed_branch_convs_give_half_gates(self):
        store = make_ca_store()
        store.param("ca.convh.weight").data[:] = 0.0
        store.param("ca.convw.weight").data[:] = 0.0
        rng = np.random.default_rng(1)
        x = Tensor(rng.standard_normal((2, 3, 5, 6)).astype(np.float32))
        y, (a_h, a_w) = ca_with_gates(x, store)
        np.testing.assert_array_equal(a_h.data, 0.5)
        np.testing.assert_array_equal(a_w.data, 0.5)
        np.testing.assert_allclose(y.data, 0.25 * x.data, rtol=1e-6)

    def test_zero_input_gives_zero_output(self):
        store = make_ca_store(seed=2)
        x = Tensor(np.zeros((1, 3, 4, 4), np.float32))
        y = ca_forward(x, store, "ca", CFG, training=True)
        np.testing.assert_array_equal(y.data, 0.0)

    def test_attention_shrinks_everything(self):
        # gates lie in (0,1), so |y| < |x| wherever x != 0
        rng = np.random.default_rng(3)
        store = make_ca_store(seed=3)
        x = Tensor(rng.standard_normal((2, 3, 6, 7)).astype(np.float32))
        y = ca_forward(x, store, "ca", CFG, training=True)
        nz = x.data != 0
        assert (np.abs(y.data[nz]) < np.abs(x.data[nz])).all()

    def test_maps_shapes_and_open_interval(self):
        rng = np.random.default_rng(4)
        store = make_ca_store(seed=4)
        x = Tensor(rng.standard_normal((2, 3, 5, 9)).astype(np.float32))
        _, (a_h, a_w) = ca_with_gates(x, store)
        assert a_h.shape == (2, 3, 5, 1)
        assert a_w.shape == (2, 3, 1, 9)
        for m in (a_h.data, a_w.data):
            assert (m > 0.0).all() and (m < 1.0).all()

    @pytest.mark.parametrize("shape", [(1, 3, 1, 7), (1, 3, 7, 1), (1, 3, 1, 1),
                                       (2, 3, 16, 4)])
    def test_shape_preserved_including_degenerate_axes(self, shape):
        rng = np.random.default_rng(5)
        store = make_ca_store(seed=5)
        x = Tensor(rng.standard_normal(shape).astype(np.float32))
        y = ca_forward(x, store, "ca", CFG, training=False)
        assert y.shape == shape

    def test_gating_identity_hook(self):
        # all-ones gates make the module an exact identity
        rng = np.random.default_rng(6)
        store = make_ca_store(seed=6)
        x = Tensor(rng.standard_normal((1, 3, 4, 5)).astype(np.float32))

        def ones_hook(a_h, a_w):
            return (Tensor(np.ones_like(a_h.data)),
                    Tensor(np.ones_like(a_w.data)))

        y = ca_forward(x, store, "ca", CFG, training=True, attention_hook=ones_hook)
        np.testing.assert_array_equal(y.data, x.data)

    def test_hardswish_gates_in_open_interval_and_gradients_match(self):
        cfg = CAConfig(reduction_ratio=4, min_mid_channels=2, activation="hardswish")
        store = make_ca_store(seed=11, cfg=cfg).to_double()
        rng = np.random.default_rng(11)
        x = Tensor(rng.standard_normal((1, 3, 8, 8)), requires_grad=True)
        r = Tensor(rng.standard_normal((1, 3, 8, 8)))
        _, (a_h, a_w) = ca_with_gates(x, store, cfg)
        for m in (a_h.data, a_w.data):
            assert (m > 0.0).all() and (m < 1.0).all()
        res = check_gradients(
            "ca_forward_hardswish",
            lambda: (ca_forward(x, store, "ca", cfg, training=True) * r).sum(),
            {"input": x, **dict(store.items())}, tol=NET_TOL)
        assert res.passed, res.row()

    def test_channel_mismatch_rejected(self):
        store = make_ca_store(channels=3)
        x = Tensor(np.zeros((1, 4, 4, 4), np.float32))
        with pytest.raises(DimensionError, match="channels"):
            ca_forward(x, store, "ca", CFG, training=False)


class TestRicaForward:
    def test_zeroed_main_path_leaves_skip(self):
        store = make_rica_store(seed=7)
        store.param("blk.f1.conv.weight").data[:] = 0.0
        store.param("blk.f2.conv.weight").data[:] = 0.0
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((1, 3, 8, 8)).astype(np.float32))
        y = rica_forward(x, store, "blk", CFG, training=True)
        skip = ca_forward(x, store, "blk.ca", CFG, training=True)
        skip = conv2d(skip, store.param("blk.pjs.conv.weight"))
        skip = batchnorm2d(skip, store.param("blk.pjs.bn.gamma"),
                           store.param("blk.pjs.bn.beta"),
                           RunningMoments(8))
        np.testing.assert_array_equal(y.data, skip.data)

    def test_zeroed_pjs_leaves_main_path(self):
        store = make_rica_store(seed=8)
        store.param("blk.pjs.conv.weight").data[:] = 0.0
        rng = np.random.default_rng(8)
        x = Tensor(rng.standard_normal((1, 3, 8, 8)).astype(np.float32))
        y = rica_forward(x, store, "blk", CFG, training=True)
        main = rica_forward(x, store, "blk", CFG, training=True, ca_enabled=False)
        np.testing.assert_array_equal(y.data, main.data)

    def test_additivity_is_exact(self):
        store = make_rica_store(seed=9)
        rng = np.random.default_rng(9)
        x = Tensor(rng.standard_normal((2, 3, 8, 8)).astype(np.float32))
        y = rica_forward(x, store, "blk", CFG, training=False)
        main = rica_forward(x, store, "blk", CFG, training=False, ca_enabled=False)
        skip = ca_forward(x, store, "blk.ca", CFG, training=False)
        skip = conv_bn(skip, store, "blk.pjs.conv.weight", "blk.pjs.bn", training=False)
        assert y.data.tobytes() == (main.data + skip.data).tobytes()

    def test_spatial_dims_preserved_channels_mapped(self):
        store = make_rica_store(cin=3, cout=8, seed=10)
        x = Tensor(np.zeros((2, 3, 12, 20), np.float32))
        y = rica_forward(x, store, "blk", CFG, training=False)
        assert y.shape == (2, 8, 12, 20)

    def test_parameter_names_follow_convention(self):
        store = make_rica_store()
        names = set(store.names())
        for expected in ("blk.f1.conv.weight", "blk.f2.bn.gamma",
                         "blk.pjs.conv.weight", "blk.ca.conv1.weight",
                         "blk.ca.convh.weight", "blk.ca.convw.weight"):
            assert expected in names

