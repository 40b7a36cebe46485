"""Scheduler, optimizer, and training-loop tests."""

import math

import numpy as np
import pytest

from cacseg import data as D
from cacseg import params
from cacseg import training as TR
from cacseg.attention import CAConfig
from cacseg.errors import (ConfigError, ContractError, DataIOError, DimensionError,
                           NumericError)
from cacseg.evaluation import dice_per_class
from cacseg.losses import LossConfig
from cacseg.network import ArchConfig, build, forward, load_model
from cacseg.params import ParameterStore
from cacseg.tensor import Tensor

PAPER_SCHED = TR.TrainConfig()  # defaults follow the published recipe

TINY_ARCH = ArchConfig(levels=2, base_channels=2,
                       ca=CAConfig(reduction_ratio=4, min_mid_channels=2))


class TestSchedule:
    def test_epoch_zero_is_initial_lr(self):
        assert TR.lr_at(0.0, PAPER_SCHED) == 1e-12

    def test_warmup_end_is_max_lr(self):
        assert TR.lr_at(5.0, PAPER_SCHED) == 1e-4

    def test_cycle_one_peak_is_halved(self):
        assert TR.lr_at(55.0, PAPER_SCHED) == 5e-5

    def test_cycle_two_peak_quartered(self):
        assert TR.lr_at(105.0, PAPER_SCHED) == 2.5e-5

    def test_cycle_start_returns_to_init(self):
        assert TR.lr_at(50.0, PAPER_SCHED) == pytest.approx(1e-12, abs=1e-18)

    def test_continuous_within_cycle(self):
        xs = np.linspace(0.0, 49.999, 2000)
        lrs = np.array([TR.lr_at(float(x), PAPER_SCHED) for x in xs])
        jumps = np.abs(np.diff(lrs))
        assert jumps.max() < 2e-6  # no discontinuity at the warmup joint

    def test_single_peak_per_cycle(self):
        xs = np.linspace(0.0, 49.95, 1000)
        lrs = [TR.lr_at(float(x), PAPER_SCHED) for x in xs]
        peak = max(lrs)
        assert lrs.index(peak) == int(np.argmin(np.abs(xs - 5.0)))

    def test_peaks_form_geometric_sequence(self):
        for k in range(4):
            peak = TR.lr_at(50.0 * k + 5.0, PAPER_SCHED)
            assert peak == pytest.approx(1e-4 * 0.5 ** k, rel=1e-12)

    def test_period_multiplier_stretches_cycles(self):
        cfg = TR.TrainConfig(restart_period_multiplier=2.0)
        # cycle 1 spans epochs [50, 150): its peak sits at 55
        assert TR.lr_at(55.0, cfg) == 5e-5
        assert TR.lr_at(149.0, cfg) < 1e-6

    def test_negative_fraction_rejected(self):
        with pytest.raises(ContractError):
            TR.lr_at(-1.0, PAPER_SCHED)

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            TR.TrainConfig(init_lr=1e-3, max_lr=1e-4).validate()
        with pytest.raises(ConfigError):
            TR.TrainConfig(warmup_epochs=50, first_restart_epochs=50).validate()


class TestAdam:
    def make_store(self, value):
        store = ParameterStore()
        store.add_param("w", np.array([value], np.float32))
        return store

    def test_zero_gradient_keeps_parameters(self):
        store = self.make_store(1.5)
        state = TR.adam_init(store)
        state.m["w"][:] = 0.5
        state.v["w"][:] = 0.25
        store.param("w").grad = np.zeros(1, np.float32)
        cfg = TR.TrainConfig()
        before_m = state.m["w"].copy()
        for _ in range(3):
            store.param("w").grad = np.zeros(1, np.float32)
            TR.adam_step(store, state, lr=0.0, cfg=cfg)
        assert store.param("w").data[0] == 1.5
        assert abs(state.m["w"][0]) < before_m[0]  # moments decay toward 0

    def test_first_step_magnitude_is_lr(self):
        # constant gradient g: first bias-corrected step is -lr * sign(g)
        for g in (0.3, -2.0):
            store = self.make_store(0.0)
            state = TR.adam_init(store)
            store.param("w").grad = np.array([g], np.float32)
            TR.adam_step(store, state, lr=1e-2, cfg=TR.TrainConfig())
            assert store.param("w").data[0] == pytest.approx(-1e-2 * np.sign(g),
                                                             rel=1e-4)

    def test_deterministic_across_runs(self):
        runs = []
        for _ in range(2):
            store = self.make_store(1.0)
            state = TR.adam_init(store)
            rng = np.random.default_rng(0)
            for _ in range(10):
                store.param("w").grad = rng.standard_normal(1).astype(np.float32)
                TR.adam_step(store, state, lr=1e-3, cfg=TR.TrainConfig())
            runs.append(store.param("w").data.tobytes())
        assert runs[0] == runs[1]

    def test_missing_gradient_names_parameter(self):
        store = self.make_store(1.0)
        state = TR.adam_init(store)
        with pytest.raises(ContractError, match="'?w'?"):
            TR.adam_step(store, state, lr=1e-3, cfg=TR.TrainConfig())


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("tinyset")
    spec = D.PhantomSpec(slices=8, size=16, rng_seed=21,
                         p_lesion={"lm": 1.0, "lad": 1.0, "lcx": 1.0, "rca": 1.0},
                         px_range={"lm": (5, 6), "lad": (5, 8),
                                   "lcx": (5, 8), "rca": (5, 8)})
    D.generate_phantom(spec, root)
    return D.Dataset(root)


def quick_cfg(epochs, seed=0):
    return TR.TrainConfig(epochs=epochs, batch_size=4, init_lr=1e-12,
                          max_lr=3e-3, first_restart_epochs=max(epochs, 2),
                          warmup_epochs=1, seed=seed)


TINY_AUG = D.AugmentConfig(crop_sides=(12, 14))


class TestTrainLoop:
    def test_metrics_log_matches_lr_at(self, tiny_dataset, tmp_path):
        cfg = quick_cfg(epochs=3)
        result = TR.train(TINY_ARCH, tiny_dataset, tiny_dataset, LossConfig(),
                          cfg, tmp_path, aug_cfg=D.AugmentConfig(enabled=False))
        lines = result.metrics_path.read_text().splitlines()
        assert lines[0] == TR.METRICS_HEADER
        assert len(lines) == 4
        for row, logged in zip(lines[1:], result.rows):
            cells = row.split("\t")
            epoch = int(cells[0])
            assert float(cells[1]) == TR.lr_at(epoch, cfg)
            assert [float(c) for c in cells[1:]] == list(logged[1:])

    def test_rerun_is_bit_exact(self, tiny_dataset, tmp_path):
        outs = []
        for name in ("a", "b"):
            result = TR.train(TINY_ARCH, tiny_dataset, tiny_dataset, LossConfig(),
                              quick_cfg(epochs=2, seed=3), tmp_path / name,
                              aug_cfg=TINY_AUG)
            outs.append(result)
        assert (outs[0].metrics_path.read_bytes()
                == outs[1].metrics_path.read_bytes())
        assert (outs[0].last_checkpoint.read_bytes()
                == outs[1].last_checkpoint.read_bytes())

    def test_resume_reproduces_uninterrupted_run(self, tiny_dataset, tmp_path):
        full = TR.train(TINY_ARCH, tiny_dataset, tiny_dataset, LossConfig(),
                        quick_cfg(epochs=4, seed=5), tmp_path / "full",
                        aug_cfg=TINY_AUG)
        TR.train(TINY_ARCH, tiny_dataset, tiny_dataset, LossConfig(),
                 quick_cfg(epochs=2, seed=5), tmp_path / "half",
                 aug_cfg=TINY_AUG)
        resumed = TR.train(TINY_ARCH, tiny_dataset, tiny_dataset, LossConfig(),
                           quick_cfg(epochs=4, seed=5), tmp_path / "resumed",
                           aug_cfg=TINY_AUG,
                           resume_from=tmp_path / "half" / TR.LAST_CHECKPOINT)
        assert (resumed.last_checkpoint.read_bytes()
                == full.last_checkpoint.read_bytes())
        full_rows = full.metrics_path.read_text().splitlines()[1:]
        resumed_rows = resumed.metrics_path.read_text().splitlines()[1:]
        assert resumed_rows == full_rows[2:]

    def test_checkpoint_forward_matches_memory(self, tiny_dataset, tmp_path):
        result = TR.train(TINY_ARCH, tiny_dataset, tiny_dataset, LossConfig(),
                          quick_cfg(epochs=2, seed=7), tmp_path, aug_cfg=TINY_AUG)
        loaded, extra = load_model(result.last_checkpoint, TINY_ARCH)
        assert "opt.step" in extra
        x = Tensor(D.preprocess(tiny_dataset.sample(0))[None])
        again, _ = load_model(result.last_checkpoint, TINY_ARCH)
        a = forward(loaded, x).data
        b = forward(again, x).data
        assert a.tobytes() == b.tobytes()

    def test_validation_dice_columns_in_unit_range(self, tiny_dataset, tmp_path):
        result = TR.train(TINY_ARCH, tiny_dataset, tiny_dataset, LossConfig(),
                          quick_cfg(epochs=2, seed=9), tmp_path, aug_cfg=TINY_AUG)
        for row in result.rows:
            for dice in row[3:]:
                assert 0.0 <= dice <= 1.0


class TestPredict:
    def test_evaluate_dice_matches_one_slice_forwards_at_any_batch(self, tiny_dataset):
        ds = D.Dataset(tiny_dataset.root)
        ds.rows = ds.rows[:5]
        store = build(TINY_ARCH, rng_seed=4)
        rng = np.random.default_rng(4)
        for _, m in store.moments_items():    # a fold that is not the identity
            m.mean[:] = rng.standard_normal(m.mean.shape)
            m.var[:] = rng.uniform(0.2, 3.0, m.var.shape)
        samples = [ds.sample(i) for i in range(len(ds))]
        preds = [forward(store, Tensor(D.preprocess(s)[None]), training=False)
                 .data[0].argmax(axis=0) for s in samples]
        want = dice_per_class(np.stack(preds), np.stack([s.mask for s in samples])).dice
        for batch in (1, 3, 16):
            np.testing.assert_array_equal(TR.evaluate_dice(store, ds, batch), want)

    def test_batch_ends_where_the_slice_size_changes(self, mixed_dataset, monkeypatch):
        ds = D.Dataset(mixed_dataset)
        store = build(TINY_ARCH, rng_seed=1)
        shapes = []

        def recording_forward(store, x, training):
            shapes.append(x.shape)
            return forward(store, x, training=training)
        monkeypatch.setattr(TR, "forward", recording_forward)
        ids = [s.slice_id for _, s in TR.predict(store, ds, 16)]
        assert ids == [f"slice_{i:05d}" for i in range(5)]
        assert shapes == [(2, 1, 32, 32), (2, 1, 16, 16), (1, 1, 32, 32)]
        shapes.clear()
        logits = [lg.shape for lg, _ in TR.predict(store, ds, 1, count=3)]
        assert shapes == [(1, 1, 32, 32)] * 2 + [(1, 1, 16, 16)]
        assert logits == [(D.NUM_CLASSES, 32, 32)] * 2 + [(D.NUM_CLASSES, 16, 16)]

    def test_training_batch_of_mixed_sizes_names_the_odd_slice(self, mixed_dataset):
        ds = D.Dataset(mixed_dataset)
        with pytest.raises(DimensionError, match="slice_00002 is \\(16, 16\\), "
                                                 "slice_00000 is \\(32, 32\\)"):
            TR._assemble([ds.sample(i) for i in range(3)])


class TestPersistence:
    def test_failed_checkpoint_write_keeps_previous_file(self, tmp_path, fail_atomic_writes):
        path = tmp_path / TR.LAST_CHECKPOINT
        params.save_checkpoint(path, {"w": np.arange(4, dtype=np.float32)})
        before = path.read_bytes()
        fail_atomic_writes()
        with pytest.raises(DataIOError, match="No space left"):
            params.save_checkpoint(path, {"w": np.ones(64, np.float32)})
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [TR.LAST_CHECKPOINT]

    def test_metrics_hold_finished_epochs_when_training_stops(self, tiny_dataset,
                                                              tmp_path, monkeypatch):
        # 8 slices at batch 4: loss call 5 is the first batch of epoch 2
        real = TR.loss_by_variant
        calls = []

        def failing_loss_by_variant(cfg):
            fn = real(cfg)

            def loss(logits, targets):
                calls.append(None)
                if len(calls) == 5:
                    raise NumericError("injected at epoch 2")
                return fn(logits, targets)
            return loss

        monkeypatch.setattr(TR, "loss_by_variant", failing_loss_by_variant)
        with pytest.raises(NumericError):
            TR.train(TINY_ARCH, tiny_dataset, tiny_dataset, LossConfig(),
                     quick_cfg(epochs=4), tmp_path, aug_cfg=D.AugmentConfig(enabled=False))
        lines = (tmp_path / TR.METRICS_NAME).read_text().splitlines()
        assert lines[0] == TR.METRICS_HEADER
        assert [row.split("\t")[0] for row in lines[1:]] == ["0", "1"]
        _, extra = load_model(tmp_path / TR.LAST_CHECKPOINT, TINY_ARCH)
        assert int(extra["opt.epoch"][0]) == 2
