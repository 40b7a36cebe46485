"""Network builder/forward tests and checkpoint round trips."""

import numpy as np
import pytest

from cacseg import attention, network
from cacseg.errors import ConfigError, DataIOError, DimensionError
from cacseg.network import ArchConfig, build, forward, load_model
from cacseg.params import save_checkpoint
from cacseg.tensor import Tensor, batchnorm2d, conv2d, softmax_channel
from plain_forms import batchnorm2d_plain, fold_tolerance

TINY = ArchConfig(levels=2, base_channels=4)


def hand_counted_parameters() -> int:
    """Closed-form parameter count for levels=2, base=4, 1 input channel,
    6 classes, default attention sizing (mid = max(C // 32, 8)).

    Per RICA(cin, cout): f1 = 9*cin*cout + 2*cout, f2 = 9*cout^2 + 2*cout,
    pjs = cin*cout + 2*cout, ca = mid*cin + 2*mid + 2*cin*mid.
    Decoder level: ca(c_up) + 9*(c_up+c_skip)*c_skip + 2*c_skip
                 + 9*c_skip^2 + 2*c_skip. Head: 6*base + 6.
    """
    def ca(c):
        mid = max(c // 32, 8)
        return mid * c + 2 * mid + 2 * c * mid

    def rica(cin, cout):
        return (9 * cin * cout + 2 * cout        # f1
                + 9 * cout * cout + 2 * cout     # f2
                + cin * cout + 2 * cout          # pjs
                + ca(cin))

    total = rica(1, 4) + rica(4, 8) + rica(8, 16)          # encoder + bottleneck
    total += ca(16) + 9 * (16 + 8) * 8 + 2 * 8 + 9 * 8 * 8 + 2 * 8   # dec1
    total += ca(8) + 9 * (8 + 4) * 4 + 2 * 4 + 9 * 4 * 4 + 2 * 4     # dec0
    total += 6 * 4 + 6                                                # head
    return total


class TestBuild:
    def test_parameter_count_closed_form(self):
        store = build(TINY, rng_seed=0)
        assert store.total_parameters() == hand_counted_parameters() == 8758

    def test_same_seed_bit_identical(self):
        a = build(TINY, rng_seed=42)
        b = build(TINY, rng_seed=42)
        assert a.names() == b.names()
        for name in a.names():
            assert a.param(name).data.tobytes() == b.param(name).data.tobytes()

    def test_different_seed_differs(self):
        a = build(TINY, rng_seed=1)
        b = build(TINY, rng_seed=2)
        assert any(a.param(n).data.tobytes() != b.param(n).data.tobytes()
                   for n in a.names())

    def test_ca_disabled_is_strictly_smaller(self):
        full = build(TINY, rng_seed=0)
        plain = build(ArchConfig(levels=2, base_channels=4, ca_enabled=False),
                      rng_seed=0)
        assert plain.total_parameters() < full.total_parameters()
        assert set(plain.names()) < set(full.names())
        assert not any(".ca." in n or ".pjs." in n for n in plain.names())

    def test_invalid_config_names_field(self):
        with pytest.raises(ConfigError, match="levels"):
            build(ArchConfig(levels=0), rng_seed=0)


class TestForward:
    def test_zero_input_shape_and_finiteness(self):
        store = build(TINY, rng_seed=3)
        x = Tensor(np.zeros((1, 1, 16, 16), np.float32))
        logits = forward(store, x, training=False)
        assert logits.shape == (1, 6, 16, 16)
        assert np.isfinite(logits.data).all()

    def test_softmax_over_logits_normalized(self):
        store = build(TINY, rng_seed=4)
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((2, 1, 16, 16)).astype(np.float32))
        p = softmax_channel(forward(store, x, training=False))
        np.testing.assert_allclose(p.data.sum(axis=1), 1.0, atol=1e-6)

    @pytest.mark.parametrize("h,w", [(8, 8), (8, 16), (24, 32), (16, 8)])
    def test_shape_contract_over_admissible_sizes(self, h, w):
        store = build(ArchConfig(levels=2, base_channels=2), rng_seed=5)
        x = Tensor(np.zeros((1, 1, h, w), np.float32))
        assert forward(store, x).shape == (1, 6, h, w)

    def test_indivisible_extent_states_required_multiple(self):
        store = build(TINY, rng_seed=6)
        x = Tensor(np.zeros((1, 1, 18, 16), np.float32))
        with pytest.raises(DimensionError, match="multiples of 4"):
            forward(store, x)

    def test_eval_forward_is_pure(self):
        store = build(TINY, rng_seed=7)
        before = {n: m.mean.copy() for n, m in store.moments_items()}
        x = Tensor(np.random.default_rng(7).standard_normal((2, 1, 16, 16))
                   .astype(np.float32))
        forward(store, x, training=False)
        for name, m in store.moments_items():
            np.testing.assert_array_equal(m.mean, before[name])

    def test_eval_forward_is_batch_invariant(self):
        # Inference and eval forward train.batch_size slices at a time; a
        # slice's logits must not depend on the batch it ran in, to the byte.
        store = build(ArchConfig(levels=2, base_channels=8), rng_seed=5)
        rng = np.random.default_rng(5)
        forward(store, Tensor(rng.standard_normal((4, 1, 32, 32)).astype(np.float32)),
                training=True)
        x = rng.standard_normal((4, 1, 32, 32)).astype(np.float32)
        batch = forward(store, Tensor(x), training=False).data
        single = np.concatenate([forward(store, Tensor(x[i:i + 1]), training=False).data
                                 for i in range(4)])
        assert batch.tobytes() == single.tobytes()

    def test_training_forward_mutates_only_moments(self):
        store = build(TINY, rng_seed=8)
        params_before = {n: store.param(n).data.copy() for n in store.names()}
        moments_before = {n: m.mean.copy() for n, m in store.moments_items()}
        x = Tensor(np.random.default_rng(8).standard_normal((2, 1, 16, 16))
                   .astype(np.float32))
        forward(store, x, training=True)
        for name in store.names():
            np.testing.assert_array_equal(store.param(name).data, params_before[name])
        assert any(not np.array_equal(m.mean, moments_before[n])
                   for n, m in store.moments_items())


class TestCheckpoint:
    def test_round_trip_forward_bit_identical(self, tmp_path):
        store = build(TINY, rng_seed=9)
        rng = np.random.default_rng(9)
        # push the moments away from init so eval mode exercises them
        x_warm = Tensor(rng.standard_normal((4, 1, 16, 16)).astype(np.float32))
        forward(store, x_warm, training=True)
        path = tmp_path / "model.rckp"
        save_checkpoint(path, store.state_entries())
        loaded, extra = load_model(path, TINY)
        assert extra == {}
        x = Tensor(rng.standard_normal((2, 1, 16, 16)).astype(np.float32))
        a = forward(store, x, training=False).data
        b = forward(loaded, x, training=False).data
        assert a.tobytes() == b.tobytes()

    def test_file_round_trip_bit_exact(self, tmp_path):
        store = build(TINY, rng_seed=10)
        path = tmp_path / "model.rckp"
        save_checkpoint(path, store.state_entries())
        first = path.read_bytes()
        loaded, _ = load_model(path, TINY)
        save_checkpoint(tmp_path / "again.rckp", loaded.state_entries())
        assert (tmp_path / "again.rckp").read_bytes() == first

    def test_load_draws_no_weights(self, tmp_path, monkeypatch):
        store = build(TINY, rng_seed=12)
        path = tmp_path / "model.rckp"
        save_checkpoint(path, store.state_entries())

        def no_generator(*args, **kwargs):
            raise AssertionError("load_model drew weights")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        loaded, extra = load_model(path, TINY)
        assert extra == {}
        assert loaded.names() == store.names()
        for name, t in store.items():
            assert loaded.param(name).data.tobytes() == t.data.tobytes(), name

    def test_wrong_arch_rejected(self, tmp_path):
        store = build(TINY, rng_seed=11)
        path = tmp_path / "model.rckp"
        save_checkpoint(path, store.state_entries())
        with pytest.raises(DataIOError):
            load_model(path, ArchConfig(levels=2, base_channels=8))

    def test_magic_layout(self, tmp_path):
        store = build(ArchConfig(levels=1, base_channels=2, ca_enabled=False),
                      rng_seed=0)
        path = tmp_path / "m.rckp"
        save_checkpoint(path, store.state_entries())
        raw = path.read_bytes()
        assert raw[:4] == b"RCKP"
        assert int.from_bytes(raw[4:8], "little") == 1


def conv_bn_unfused(x, store, weight, bn, training, padding=0):
    """The conv -> batch-norm pair as two ops, the form eval mode folds: the
    program's batch norm in training mode, the plain form's stored-moment
    batch norm (no graph) in eval mode."""
    y = conv2d(x, store.param(weight), padding=padding)
    gamma, beta = store.param(f"{bn}.gamma"), store.param(f"{bn}.beta")
    if training:
        return batchnorm2d(y, gamma, beta, store.moments(bn))
    return Tensor(batchnorm2d_plain(y.data, gamma.data, beta.data, store.moments(bn), False,
                                    np.zeros_like(y.data))[0])


def conv_bn_sites(store):
    """(weight name, BN prefix) of every conv -> BN pair in the store."""
    return [(bn[:-3] + (".conv1.weight" if bn.endswith(".ca.bn") else ".conv.weight"), bn)
            for bn, _ in store.moments_items()]


@pytest.fixture(params=[np.float32, np.float64], ids=["f32", "f64"])
def trained_like_store(request):
    """The desk64 net with moments and BN affines away from their init."""
    store = build(ArchConfig(levels=2, base_channels=8), rng_seed=12)
    rng = np.random.default_rng(12)
    for bn, m in store.moments_items():
        c = m.mean.shape[0]
        m.mean[:] = rng.standard_normal(c) * 2
        m.var[:] = rng.uniform(0.05, 4.0, c)
        store.param(f"{bn}.gamma").data[:] = rng.uniform(0.5, 1.5, c)
        store.param(f"{bn}.beta").data[:] = rng.standard_normal(c)
    return store if request.param is np.float32 else store.to_double()


class TestFoldedBatchNorm:
    def test_every_site_matches_unfused_within_tolerance(self, trained_like_store):
        store = trained_like_store
        sites = conv_bn_sites(store)
        assert len(sites) == 18
        rng = np.random.default_rng(13)
        for weight, bn in sites:
            w = store.param(weight)
            x = Tensor(rng.standard_normal((3, w.shape[1], 8, 8)).astype(w.dtype))
            pad = w.shape[2] // 2
            folded = attention.conv_bn(x, store, weight, bn, False, pad).data
            plain = conv_bn_unfused(x, store, weight, bn, False, pad).data
            assert folded.dtype == plain.dtype
            assert np.abs(folded - plain).max() <= fold_tolerance(plain), bn

    def test_network_logits_match_unfused_within_tolerance(self, trained_like_store,
                                                            monkeypatch):
        store = trained_like_store
        dtype = store.param("head.conv.weight").dtype
        x = Tensor(np.random.default_rng(14).standard_normal((4, 1, 32, 32)).astype(dtype))
        folded = forward(store, x, training=False).data
        monkeypatch.setattr(network, "conv_bn", conv_bn_unfused)
        monkeypatch.setattr(attention, "conv_bn", conv_bn_unfused)
        plain = forward(store, x, training=False).data
        assert np.abs(folded - plain).max() <= fold_tolerance(plain)
        assert np.array_equal(folded.argmax(axis=1), plain.argmax(axis=1))

    def test_training_mode_is_the_unfused_pair_to_the_byte(self):
        store = build(ArchConfig(levels=2, base_channels=8), rng_seed=15)
        x = Tensor(np.random.default_rng(15).standard_normal((2, 1, 8, 8))
                   .astype(np.float32))
        twin = build(ArchConfig(levels=2, base_channels=8), rng_seed=15)
        y = attention.conv_bn(x, store, "enc0.rica.f1.conv.weight", "enc0.rica.f1.bn", True, 1)
        want = conv_bn_unfused(x, twin, "enc0.rica.f1.conv.weight", "enc0.rica.f1.bn", True, 1)
        assert y.data.tobytes() == want.data.tobytes()
        m, m_want = store.moments("enc0.rica.f1.bn"), twin.moments("enc0.rica.f1.bn")
        assert m.mean.tobytes() == m_want.mean.tobytes()
        assert m.var.tobytes() == m_want.var.tobytes()

    def test_eval_mode_differentiates_through_the_fold(self, trained_like_store):
        store = trained_like_store
        weight, bn = "enc1.rica.f1.conv.weight", "enc1.rica.f1.bn"
        w = store.param(weight)
        x = Tensor(np.random.default_rng(16).standard_normal((2, w.shape[1], 6, 6))
                   .astype(w.dtype), requires_grad=True)
        store.zero_grads()
        attention.conv_bn(x, store, weight, bn, False, 1).sum().backward()
        got = [t.grad.copy() for t in (x, w, store.param(f"{bn}.gamma"),
                                        store.param(f"{bn}.beta"))]
        x.grad = None
        store.zero_grads()
        # d(sum)/d(out) is all ones: the plain form's eval-mode gradients,
        # then the program conv's backward from its dx
        y = conv2d(x, w, padding=1)
        _, dy, dgamma, dbeta = batchnorm2d_plain(
            y.data, store.param(f"{bn}.gamma").data, store.param(f"{bn}.beta").data,
            store.moments(bn), False, np.ones_like(y.data))
        y._backward_fn(dy)
        want = [x.grad, w.grad, dgamma, dbeta]
        for a, b in zip(got, want):
            np.testing.assert_allclose(a, b, rtol=0, atol=fold_tolerance(b))
