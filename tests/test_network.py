"""Network builder/forward tests and checkpoint round trips."""

import numpy as np
import pytest

from cacseg.errors import ConfigError, DataIOError, DimensionError
from cacseg.network import ArchConfig, build, forward, load_model
from cacseg.params import save_checkpoint
from cacseg.tensor import Tensor, softmax_channel

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
        # Inference exports batch-1 predictions; they must equal the same
        # slices' rows of a batched forward, byte for byte.
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
