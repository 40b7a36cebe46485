"""Dice metric, Agatston-style scoring, and export tests."""

import numpy as np
import pytest

from cacseg import evaluation as E
from cacseg.errors import ConfigError, DataIOError, DimensionError, LabelError
from cacseg.params import load_tns


def brute_force_dice(pred, true):
    """Elementary per-pixel counting oracle."""
    out = np.zeros(6)
    for c in range(6):
        p = int((pred == c).sum())
        t = int((true == c).sum())
        inter = int(((pred == c) & (true == c)).sum())
        out[c] = 1.0 if p + t == 0 else 2.0 * inter / (p + t)
    return out


class TestDice:
    def test_identity_gives_ones(self):
        rng = np.random.default_rng(0)
        mask = rng.integers(0, 6, (16, 16))
        report = E.dice_per_class(mask, mask)
        np.testing.assert_array_equal(report.dice, 1.0)

    def test_disjoint_gives_zero(self):
        pred = np.zeros((4, 4), np.int64)
        true = np.zeros((4, 4), np.int64)
        pred[0, :2] = 3
        true[2, :2] = 3
        report = E.dice_per_class(pred, true)
        assert report.dice[3] == 0.0

    def test_hand_counted_overlap(self):
        # |P|=6, |T|=4, overlap 3 -> 2*3/(6+4) = 0.6
        pred = np.zeros((4, 4), np.int64)
        true = np.zeros((4, 4), np.int64)
        pred.ravel()[:6] = 2
        true.ravel()[3:7] = 2
        report = E.dice_per_class(pred, true)
        assert report.dice[2] == pytest.approx(0.6)

    def test_matches_brute_force_on_random_masks(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            pred = rng.integers(0, 6, (8, 8))
            true = rng.integers(0, 6, (8, 8))
            report = E.dice_per_class(pred, true)
            np.testing.assert_array_equal(report.dice, brute_force_dice(pred, true))

    def test_symmetry_and_permutation_invariance(self):
        rng = np.random.default_rng(2)
        pred = rng.integers(0, 6, (10, 10))
        true = rng.integers(0, 6, (10, 10))
        a = E.dice_per_class(pred, true).dice
        b = E.dice_per_class(true, pred).dice
        np.testing.assert_array_equal(a, b)
        perm = rng.permutation(100)
        c = E.dice_per_class(pred.ravel()[perm], true.ravel()[perm]).dice
        np.testing.assert_array_equal(a, c)

    def test_absent_class_flagged(self):
        pred = np.zeros((4, 4), np.int64)
        true = np.zeros((4, 4), np.int64)
        report = E.dice_per_class(pred, true)
        assert report.both_absent[5] and report.dice[5] == 1.0
        assert not report.both_absent[0]

    def test_global_counts_pool_over_set(self):
        rng = np.random.default_rng(3)
        preds = rng.integers(0, 6, (5, 8, 8))
        trues = rng.integers(0, 6, (5, 8, 8))
        stacked = E.dice_per_class(preds, trues).dice
        np.testing.assert_array_equal(E.dice_global(zip(preds, trues)), stacked)

    def test_per_slice_mean_differs_from_global(self):
        pred = [np.full((2, 2), 2, np.int64), np.zeros((2, 2), np.int64)]
        true = [np.full((2, 2), 2, np.int64), np.full((2, 2), 2, np.int64)]
        per_slice = E.dice_per_slice_mean(zip(pred, true))
        global_counts = E.dice_per_class(np.stack(pred), np.stack(true)).dice
        assert per_slice[2] == pytest.approx(0.5)          # (1 + 0) / 2
        assert global_counts[2] == pytest.approx(2 * 4 / (4 + 8))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            E.dice_per_class(np.zeros((2, 2), int), np.zeros((3, 3), int))

    def test_bad_labels_rejected(self):
        with pytest.raises(LabelError):
            E.dice_per_class(np.full((2, 2), 9), np.zeros((2, 2), int))


class TestAgatston:
    def test_empty_mask_scores_zero(self):
        report = E.agatston_per_lesion(np.zeros((8, 8), np.uint8),
                                       np.zeros((8, 8), np.float32), 1.0)
        assert report.total == 0.0
        assert set(report.scores) == {"lm", "lad", "lcx", "rca"}

    def test_four_mm2_at_450_scores_16(self):
        mask = np.zeros((8, 8), np.uint8)
        mask[2:4, 2:4] = 2          # 4 pixels at 1 mm^2 each
        hu = np.zeros((8, 8), np.float32)
        hu[2:4, 2:4] = 450.0
        report = E.agatston_per_lesion(mask, hu, 1.0)
        assert report.scores["lm"] == pytest.approx(16.0)
        assert report.total == pytest.approx(16.0)

    def test_peak_below_threshold_excluded(self):
        mask = np.zeros((8, 8), np.uint8)
        mask[1:3, 1:3] = 5
        hu = np.full((8, 8), 120.0, np.float32)
        report = E.agatston_per_lesion(mask, hu, 1.0)
        assert report.scores["rca"] == 0.0

    @pytest.mark.parametrize("peak,weight", [(130, 1), (199, 1), (200, 2),
                                             (299, 2), (300, 3), (399, 3),
                                             (400, 4), (900, 4)])
    def test_density_weight_bins(self, peak, weight):
        mask = np.zeros((6, 6), np.uint8)
        mask[2:4, 2:4] = 3
        hu = np.zeros((6, 6), np.float32)
        hu[2:4, 2:4] = peak
        report = E.agatston_per_lesion(mask, hu, 1.0)
        assert report.scores["lad"] == pytest.approx(4.0 * weight)

    def test_additive_over_disjoint_components(self):
        mask = np.zeros((10, 10), np.uint8)
        hu = np.zeros((10, 10), np.float32)
        mask[1:3, 1:3] = 4; hu[1:3, 1:3] = 450.0
        mask[6:8, 6:8] = 4; hu[6:8, 6:8] = 150.0
        both = E.agatston_per_lesion(mask, hu, 1.0).scores["lcx"]
        assert both == pytest.approx(4 * 4 + 4 * 1)

    def test_diagonal_pixels_are_separate_components(self):
        # 4-connectivity: diagonal neighbors do not merge
        mask = np.zeros((6, 6), np.uint8)
        mask[1, 1] = 5
        mask[2, 2] = 5
        hu = np.full((6, 6), 450.0, np.float32)
        # each 1 mm^2 component counts on its own
        report = E.agatston_per_lesion(mask, hu, 1.0)
        assert report.scores["rca"] == pytest.approx(2 * 1 * 4)

    def test_subminimum_component_ignored(self):
        mask = np.zeros((6, 6), np.uint8)
        mask[2, 2] = 2
        hu = np.full((6, 6), 450.0, np.float32)
        report = E.agatston_per_lesion(mask, hu, pixel_area_mm2=0.25)
        assert report.scores["lm"] == 0.0  # 0.25 mm^2 < 1 mm^2 minimum

    def test_monotone_in_area(self):
        hu = np.full((12, 12), 450.0, np.float32)
        prev = -1.0
        for side in (2, 3, 4, 5):
            mask = np.zeros((12, 12), np.uint8)
            mask[:side, :side] = 2
            score = E.agatston_per_lesion(mask, hu, 1.0).scores["lm"]
            assert score > prev
            prev = score

    def test_nonpositive_pixel_area_rejected(self):
        with pytest.raises(ConfigError):
            E.agatston_per_lesion(np.zeros((2, 2), np.uint8),
                                  np.zeros((2, 2), np.float32), 0.0)


class TestExport:
    def test_uniform_background_logits(self, tmp_path):
        logits = np.zeros((6, 4, 4), np.float32)
        logits[0] = 5.0
        mask_path, ppm_path = E.export_prediction(logits, tmp_path / "p")
        mask = load_tns(mask_path)
        np.testing.assert_array_equal(mask, 0)
        raw = open(ppm_path, "rb").read()
        assert raw.startswith(b"P6\n4 4\n255\n")
        assert len(raw) == len(b"P6\n4 4\n255\n") + 4 * 4 * 3

    def test_round_trip_equals_argmax(self, tmp_path):
        rng = np.random.default_rng(4)
        logits = rng.standard_normal((6, 8, 8)).astype(np.float32)
        mask_path, _ = E.export_prediction(logits, tmp_path / "x")
        np.testing.assert_array_equal(load_tns(mask_path), logits.argmax(axis=0))

    @pytest.mark.parametrize("name", ["p.tns", "p.ppm"])
    def test_failed_export_write_keeps_previous_file(self, tmp_path, fail_atomic_writes, name):
        logits = np.zeros((6, 4, 4), np.float32)
        E.export_prediction(logits, tmp_path / "p")
        before = (tmp_path / name).read_bytes()
        fail_atomic_writes(name)
        logits[3] = 1.0
        with pytest.raises(DataIOError, match="No space left"):
            E.export_prediction(logits, tmp_path / "p")
        assert (tmp_path / name).read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["p.ppm", "p.tns"]

    def test_palette_has_six_distinct_colors(self):
        colors = {tuple(c) for c in E.PALETTE}
        assert len(colors) == 6

    def test_overlay_blends_over_hu(self, tmp_path):
        logits = np.zeros((6, 4, 4), np.float32)
        logits[5, 2, 2] = 10.0
        hu = np.full((4, 4), 40.0, np.float32)
        _, ppm_path = E.export_prediction(logits, tmp_path / "o", hu_image=hu)
        raw = open(ppm_path, "rb").read()
        pixels = np.frombuffer(raw.split(b"255\n", 1)[1], np.uint8).reshape(4, 4, 3)
        assert tuple(pixels[0, 0]) == (127, 127, 127)   # mid-window gray
        assert pixels[2, 2, 2] > pixels[2, 2, 0]        # RCA blue dominates
