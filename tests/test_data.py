"""Preprocessing, augmentation, and phantom generator tests."""

import numpy as np
import pytest

from cacseg import data as D
from cacseg.errors import ConfigError, DataIOError
from cacseg.params import load_tns


def sample_of(hu: np.ndarray, mask=None) -> D.SliceSample:
    hu = np.asarray(hu, np.float32)
    if mask is None:
        mask = np.zeros(hu.shape, np.uint8)
    return D.SliceSample(image=hu[None], mask=mask)


DESK_SPEC = dict(size=64,
                 px_range={"lm": (5, 14), "lad": (10, 40),
                           "lcx": (10, 40), "rca": (12, 45)})


class TestPreprocess:
    def test_clip_and_scale_pins(self):
        hu = np.array([[500.0, -400.0], [40.0, 230.0]], np.float32)
        out = D.preprocess(sample_of(hu))
        np.testing.assert_allclose(out[0], [[1.0, 0.0], [0.5, 1.0]], atol=1e-7)

    def test_range_always_unit_interval(self):
        rng = np.random.default_rng(0)
        hu = rng.uniform(-2000, 3000, (32, 32)).astype(np.float32)
        out = D.preprocess(sample_of(hu))
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_affine_bijection_on_window(self):
        # preprocess inverts exactly on already-clipped values
        rng = np.random.default_rng(1)
        hu = rng.uniform(-150, 230, (16, 16)).astype(np.float32)
        out = D.preprocess(sample_of(hu))
        back = out[0] * D.HU_WINDOW + D.HU_LO
        np.testing.assert_allclose(back, hu, atol=1e-3)
        again = D.preprocess(sample_of(back))
        np.testing.assert_allclose(again, out, atol=1e-6)


class TestAugment:
    def test_zero_probability_is_identity(self):
        rng = np.random.default_rng(2)
        s = sample_of(rng.uniform(-150, 230, (32, 32)),
                      rng.integers(0, 6, (32, 32)).astype(np.uint8))
        cfg = D.AugmentConfig(prob=0.0, crop_sides=(16, 24))
        out = D.augment(s, np.random.default_rng(0), cfg)
        np.testing.assert_array_equal(out.image, s.image)
        np.testing.assert_array_equal(out.mask, s.mask)

    def test_same_stream_is_deterministic(self):
        rng = np.random.default_rng(3)
        s = sample_of(rng.uniform(-150, 230, (32, 32)))
        cfg = D.AugmentConfig(prob=1.0, crop_sides=(20, 24))
        a = D.augment(s, np.random.default_rng(9), cfg)
        b = D.augment(s, np.random.default_rng(9), cfg)
        assert a.image.tobytes() == b.image.tobytes()
        assert a.mask.tobytes() == b.mask.tobytes()

    def test_rotation_round_trip_interior(self):
        # +5 degrees then -5 degrees on a constant-interior image is near
        # identity away from the borders
        hu = np.full((48, 48), 100.0, np.float32)
        hu[:8] = -150.0
        mask = np.zeros(hu.shape, np.uint8)
        fwd, _ = D._rotate(hu, mask, 5.0)
        back, _ = D._rotate(fwd, mask, -5.0)
        interior = np.abs(back[16:32, 16:32] - hu[16:32, 16:32])
        assert interior.max() < 1e-3

    def test_salt_pepper_flip_count(self):
        # flips concentrate around rate * n over repeated seeds
        rate = 0.01
        n = 64 * 64
        base = np.full((64, 64), 40.0, np.float32)
        flips = np.array([
            int((D.salt_pepper(base, np.random.default_rng(seed), rate) != base).sum())
            for seed in range(50)
        ])
        sigma = np.sqrt(n * rate * (1 - rate))
        assert abs(flips.mean() - n * rate) < 3 * sigma / np.sqrt(50) * 5
        assert (np.abs(flips - n * rate) < 5 * sigma).all()

    def test_salt_pepper_hits_extremes_only(self):
        base = np.full((64, 64), 40.0, np.float32)
        out = D.salt_pepper(base, np.random.default_rng(5), 0.05)
        changed = out != 40.0
        assert changed.any()
        assert set(np.unique(out[changed])) <= {D.HU_LO, D.HU_HI}

    def test_mask_labels_preserved(self):
        rng = np.random.default_rng(6)
        mask = np.zeros((48, 48), np.uint8)
        mask[10:20, 10:20] = 3
        mask[30:35, 30:40] = 5
        s = sample_of(rng.uniform(-150, 230, (48, 48)), mask)
        cfg = D.AugmentConfig(prob=1.0, crop_sides=(32, 40))
        for seed in range(8):
            out = D.augment(s, np.random.default_rng(seed), cfg)
            assert set(np.unique(out.mask)) <= set(np.unique(mask))

    def test_oversized_crop_rejected(self):
        s = sample_of(np.zeros((32, 32), np.float32))
        cfg = D.AugmentConfig(prob=1.0, crop_sides=(300,))
        with pytest.raises(ConfigError, match="crop side 300"):
            for seed in range(64):  # crop branch fires with prob 1
                D.augment(s, np.random.default_rng(seed), cfg)


class TestPhantom:
    def test_fixed_seed_bit_identical(self, tmp_path):
        spec = D.PhantomSpec(slices=4, rng_seed=11, **DESK_SPEC)
        m1 = D.generate_phantom(spec, tmp_path / "a")
        m2 = D.generate_phantom(spec, tmp_path / "b")
        assert m1.read_bytes() == m2.read_bytes()  # manifest paths are relative
        for kind in ("images", "masks"):
            for i in range(4):
                a = (tmp_path / "a" / kind / f"slice_{i:05d}.tns").read_bytes()
                b = (tmp_path / "b" / kind / f"slice_{i:05d}.tns").read_bytes()
                assert a == b

    def test_failed_manifest_write_keeps_previous_file(self, tmp_path, fail_atomic_writes):
        manifest = D.generate_phantom(D.PhantomSpec(slices=2, rng_seed=11, **DESK_SPEC), tmp_path)
        before = manifest.read_bytes()
        fail_atomic_writes(D.MANIFEST_NAME)
        with pytest.raises(DataIOError, match="No space left"):
            D.generate_phantom(D.PhantomSpec(slices=3, rng_seed=12, **DESK_SPEC), tmp_path)
        assert manifest.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["images", D.MANIFEST_NAME, "masks"]

    def test_zero_probability_masks_are_binary(self):
        spec = D.PhantomSpec(slices=6, rng_seed=3,
                             p_lesion={"lm": 0.0, "lad": 0.0, "lcx": 0.0, "rca": 0.0},
                             **DESK_SPEC)
        for i in range(6):
            mask = D.phantom_slice(spec, i).mask
            assert set(np.unique(mask)) <= {0, 1}

    def test_lm_min_size_is_five_pixels(self):
        spec = D.PhantomSpec(slices=40, rng_seed=5, size=64,
                             p_lesion={"lm": 1.0, "lad": 0.0, "lcx": 0.0, "rca": 0.0},
                             px_range={"lm": (5, 5), "lad": (10, 40),
                                       "lcx": (10, 40), "rca": (12, 45)})
        for i in range(40):
            mask = D.phantom_slice(spec, i).mask
            assert int((mask == 2).sum()) == 5

    def test_lesions_land_in_distinct_zones(self):
        spec = D.PhantomSpec(slices=30, rng_seed=6,
                             p_lesion={"lm": 1.0, "lad": 1.0, "lcx": 1.0, "rca": 1.0},
                             **DESK_SPEC)
        centers = {c: [] for c in D.LESION_CLASSES}
        for i in range(30):
            mask = D.phantom_slice(spec, i).mask
            for c in D.LESION_CLASSES:
                ys, xs = np.nonzero(mask == c)
                assert ys.size > 0
                centers[c].append((ys.mean() / 64, xs.mean() / 64))
        means = {c: np.mean(centers[c], axis=0) for c in centers}
        for a in centers:
            for b in centers:
                if a < b:
                    assert np.linalg.norm(means[a] - means[b]) > 0.08

    def test_lesion_hu_within_cac_range(self):
        spec = D.PhantomSpec(slices=20, rng_seed=7,
                             p_lesion={"lm": 1.0, "lad": 1.0, "lcx": 1.0, "rca": 1.0},
                             **DESK_SPEC)
        for i in range(20):
            s = D.phantom_slice(spec, i)
            lesion = s.image[0][np.isin(s.mask, D.LESION_CLASSES)]
            assert lesion.min() >= 130.0 and lesion.max() <= 800.0

    def test_binomial_interval_for_lm(self):
        # 1000 slices at p=0.013: 99% interval is 13 +/- 9 slices
        spec = D.PhantomSpec(slices=1000, rng_seed=1, size=32,
                             px_range={"lm": (5, 8), "lad": (5, 10),
                                       "lcx": (5, 10), "rca": (5, 10)})
        count = sum((D.phantom_slice(spec, i).mask == 2).any()
                    for i in range(1000))
        assert 13 - 9 <= count <= 13 + 9

    def test_frequencies_converge(self):
        # law of large numbers at n = 10^4, 3 sigma tolerance per class
        n = 10_000
        spec = D.PhantomSpec(slices=n, rng_seed=2, size=32,
                             px_range={"lm": (5, 8), "lad": (5, 10),
                                       "lcx": (5, 10), "rca": (5, 10)})
        present = np.zeros(6, dtype=np.int64)
        for i in range(n):
            mask = D.phantom_slice(spec, i).mask
            for c in D.LESION_CLASSES:
                present[c] += bool((mask == c).any())
        for c, name in zip(D.LESION_CLASSES, ("lm", "lad", "lcx", "rca")):
            p = spec.p_lesion[name]
            sigma = np.sqrt(n * p * (1 - p))
            assert abs(present[c] - n * p) < 3 * sigma, (name, present[c], n * p)

    def test_manifest_counts_match_recount(self, tmp_path):
        spec = D.PhantomSpec(slices=8, rng_seed=9,
                             p_lesion={"lm": 0.5, "lad": 0.5, "lcx": 0.5, "rca": 0.5},
                             **DESK_SPEC)
        D.generate_phantom(spec, tmp_path)
        ds = D.Dataset(tmp_path)
        assert len(ds) == 8
        total = np.zeros(6, np.int64)
        for i in range(8):
            s = ds.sample(i)
            recount = np.bincount(s.mask.ravel(), minlength=6)
            np.testing.assert_array_equal(recount, ds.rows[i][2])
            total += recount
        np.testing.assert_array_equal(total, ds.pixel_counts())

    def test_images_are_integers_stored_as_f32(self, tmp_path):
        spec = D.PhantomSpec(slices=2, rng_seed=10, **DESK_SPEC)
        D.generate_phantom(spec, tmp_path)
        img = load_tns(tmp_path / "images" / "slice_00000.tns")
        assert img.dtype == np.float32 and img.shape == (1, 64, 64)
        np.testing.assert_array_equal(img, np.rint(img))
