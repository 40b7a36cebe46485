"""The numpy resampling, blur and component labelling in cacseg against
scipy.ndimage, byte for byte.

scipy is a test-only dependency: it is the reference these routines were
written to reproduce, and the program itself never imports it
(tests/test_config_cli.py checks that).
"""

import numpy as np
import pytest

from cacseg import data as D
from cacseg import evaluation as E

ndimage = pytest.importorskip("scipy.ndimage")

FOUR_CONN = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])


def image_of(rng, shape, dtype):
    """HU values for a float dtype, labels 0..5 for u8."""
    if dtype == np.uint8:
        return rng.integers(0, 6, shape).astype(np.uint8)
    return rng.uniform(-1000.0, 1000.0, shape).astype(dtype)


# order 0 resamples masks, order 1 images; float64 shows every bit of the sum
@pytest.mark.parametrize("order, dtype", [(0, np.uint8), (1, np.float32), (1, np.float64)])
def test_resize_matches_map_coordinates(order, dtype):
    rng = np.random.default_rng(100 + order)
    for _ in range(200):
        h, w = rng.integers(2, 71, 2)
        oh, ow = rng.integers(2, 131, 2)
        img = image_of(rng, (h, w), dtype)
        rows = (np.arange(oh) + 0.5) * (h / oh) - 0.5
        cols = (np.arange(ow) + 0.5) * (w / ow) - 0.5
        want = ndimage.map_coordinates(img, np.meshgrid(rows, cols, indexing="ij"),
                                       order=order, mode="nearest")
        got = D._resize_image(img, (oh, ow), order)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), (h, w, oh, ow)


@pytest.mark.parametrize("order, dtype", [(0, np.uint8), (1, np.float32), (1, np.float64)])
def test_sample_matches_map_coordinates_at_random_points(order, dtype):
    # points around and beyond the edges; the products give fractions below
    # 1 every bit of a double, which uniform draws alone do not
    rng = np.random.default_rng(200 + order)
    for _ in range(100):
        h, w = rng.integers(2, 40, 2)
        img = image_of(rng, (h, w), dtype)
        rows = rng.uniform(-2.0, h + 1.0, (16, 24)) * rng.uniform(0.5, 1.0, (16, 24))
        cols = rng.uniform(-2.0, w + 1.0, (16, 24)) * rng.uniform(0.5, 1.0, (16, 24))
        want = ndimage.map_coordinates(img, [rows, cols], order=order, mode="nearest")
        assert D._sample(img, rows, cols, order).tobytes() == want.tobytes(), (h, w)


def rotation_cases(rng):
    for angle in (5.0, -5.0, 10.0, -10.0):
        for shape in ((64, 64), (48, 37), (2, 9)):
            yield angle, shape
    for _ in range(100):
        yield float(rng.uniform(-180.0, 180.0)), tuple(rng.integers(2, 70, 2))


def test_rotation_matches_rotate():
    rng = np.random.default_rng(11)
    for angle, shape in rotation_cases(rng):
        img = image_of(rng, shape, np.float32)
        mask = image_of(rng, shape, np.uint8)
        got_img, got_mask = D._rotate(img, mask, angle)
        want_img = ndimage.rotate(img, angle, reshape=False, order=1,
                                  mode="constant", cval=D.HU_AIR)
        want_mask = ndimage.rotate(mask, angle, reshape=False, order=0,
                                   mode="constant", cval=0)
        assert got_img.tobytes() == want_img.tobytes(), (angle, shape)
        assert got_mask.tobytes() == want_mask.tobytes(), (angle, shape)


@pytest.mark.parametrize("angle", [5.0, -5.0, 10.0, -10.0, 7.5, -12.5])
def test_rotation_float64_matches_rotate(angle):
    # at the angles a config names, the float64 sum agrees to the last bit
    rng = np.random.default_rng(12)
    for shape in ((64, 64), (48, 37), (31, 56)):
        img = image_of(rng, shape, np.float64)
        got, _ = D._rotate(img, np.zeros(shape, np.uint8), angle)
        want = ndimage.rotate(img, angle, reshape=False, order=1,
                              mode="constant", cval=D.HU_AIR)
        assert got.tobytes() == want.tobytes(), shape


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_blur_matches_gaussian_filter(dtype):
    rng = np.random.default_rng(13)
    sigmas = np.concatenate([[0.1, 0.5, 1.0, 2.5, 3.0], rng.uniform(0.1, 3.0, 150)])
    for sigma in sigmas:
        # sides from 1, so the radius int(4 sigma + 0.5) often exceeds the side
        h, w = rng.integers(1, 70, 2)
        img = image_of(rng, (h, w), dtype)
        want = ndimage.gaussian_filter(img, float(sigma))
        got = D._gaussian_blur(img, float(sigma))
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), (sigma, h, w)


def spiral(n: int) -> np.ndarray:
    """One 4-connected square spiral path, arms two pixels apart."""
    out = np.zeros((n, n), bool)
    r = c = 0
    out[r, c] = True
    arms = [n - 1] + [length for length in range(n - 1, 0, -2) for _ in range(2)]
    for turn, length in enumerate(arms):
        dr, dc = ((0, 1), (1, 0), (0, -1), (-1, 0))[turn % 4]
        for _ in range(length):
            r, c = r + dr, c + dc
            out[r, c] = True
    return out


def assert_labels_match(fg):
    want, n = ndimage.label(fg, structure=FOUR_CONN)
    got, m = E._label_components(fg.astype(np.uint8))
    assert m == n
    np.testing.assert_array_equal(got, want)


def test_labels_match_label_on_random_masks():
    rng = np.random.default_rng(17)
    for density in np.linspace(0.0, 1.0, 21):
        for _ in range(10):
            h, w = rng.integers(1, 48, 2)
            assert_labels_match(rng.random((h, w)) < density)


def test_labels_match_label_on_shapes():
    assert_labels_match(np.ones((9, 13), bool))
    assert_labels_match(np.zeros((9, 13), bool))
    # diagonal-only contacts: every pixel its own component
    checker = (np.add.outer(np.arange(12), np.arange(15)) % 2).astype(bool)
    assert_labels_match(checker)
    assert_labels_match(np.eye(20, dtype=bool) | np.eye(20, k=3, dtype=bool))
    s = spiral(31)
    assert E._label_components(s.astype(np.uint8))[1] == 1
    assert_labels_match(s)
    assert_labels_match(~s)


def test_multi_class_labels_keep_per_class_order():
    # components of each class come in the order ndimage.label gives that
    # class alone, and touching pixels of different classes stay apart
    rng = np.random.default_rng(19)
    for _ in range(50):
        mask = rng.integers(0, 6, (40, 40)) * (rng.random((40, 40)) < 0.7)
        labels, n = E._label_components(mask)
        for cls in range(1, 6):
            want, k = ndimage.label(mask == cls, structure=FOUR_CONN)
            got = labels[mask == cls]
            order = np.unique(got)  # ascending label = scipy's order
            assert order.size == k
            remap = np.zeros(n + 1, np.int64)
            remap[order] = np.arange(1, k + 1)
            np.testing.assert_array_equal(remap[got], want[mask == cls])


def agatston_reference(mask, hu, pixel_area_mm2):
    """The per-vessel score summed component by component over ndimage.label."""
    scores = {}
    for cls, name in zip(E.LESION_CLASSES, E.VESSELS):
        total = 0.0
        labeled, n = ndimage.label(mask == cls, structure=FOUR_CONN)
        for comp in range(1, n + 1):
            sel = labeled == comp
            peak = float(hu[sel].max())
            area = float(sel.sum()) * pixel_area_mm2
            if peak >= E.AGATSTON_HU_THRESHOLD and area >= E.MIN_COMPONENT_MM2:
                total += area * E._density_weight(peak)
        scores[name] = total
    return scores


def test_agatston_matches_component_by_component_sum():
    rng = np.random.default_rng(23)
    for density in (0.02, 0.2, 0.6, 1.0):
        for _ in range(20):
            mask = (rng.integers(0, 6, (48, 48))
                    * (rng.random((48, 48)) < density)).astype(np.uint8)
            hu = rng.uniform(50.0, 700.0, (48, 48)).astype(np.float32)
            area = float(rng.choice([0.1, 0.37, 0.5, 1.3]))
            got = E.agatston_per_lesion(mask, hu[None], area).scores
            want = agatston_reference(mask, hu, area)
            assert [np.float64(got[k]).tobytes() for k in E.VESSELS] == \
                [np.float64(want[k]).tobytes() for k in E.VESSELS]

