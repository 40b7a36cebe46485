"""The benchmark's oracles agree with the program on good outputs and flag
planted faults: one flipped mask pixel, a hand-built mask of known score."""

import shutil

import numpy as np
import pytest

import oracles
from cacseg import data, evaluation, tensor, training


@pytest.fixture(scope="module")
def phantom(tmp_path_factory):
    root = tmp_path_factory.mktemp("phantom")
    spec = data.PhantomSpec(slices=4, size=32, rng_seed=3,
                            p_lesion={"lm": 1.0, "lad": 1.0, "lcx": 0.0, "rca": 0.0},
                            px_range={"lm": (5, 8), "lad": (6, 10), "lcx": (5, 6),
                                      "rca": (5, 6)})
    data.generate_phantom(spec, root)
    return root


def test_read_tns_matches_program(phantom):
    ds = data.Dataset(phantom)
    s = ds.sample(1)
    np.testing.assert_array_equal(oracles.read_tns(phantom / ds.rows[1][1]), s.mask)
    np.testing.assert_array_equal(oracles.read_tns(phantom / ds.rows[1][0]), s.image)


def test_dataset_faults_clean(phantom):
    assert oracles.dataset_faults(phantom, (130.0, 800.0)) == ["", "", "", ""]


def test_dataset_faults_flags_one_flipped_pixel(phantom, tmp_path):
    root = tmp_path / "copy"
    shutil.copytree(phantom, root)
    mask_path = root / data.Dataset(root).rows[2][1]
    mask = oracles.read_tns(mask_path).copy()
    mask[0, 0] = 1 if mask[0, 0] != 1 else 0
    tensor.save_tns(mask_path, mask)
    faults = oracles.dataset_faults(root, (130.0, 800.0))
    assert [bool(f) for f in faults] == [False, False, True, False]
    assert "counts" in faults[2]


def test_dataset_faults_flags_lesion_hu_outside_range(phantom):
    faults = oracles.dataset_faults(phantom, (130.0, 140.0))
    assert all("lesion HU" in f for f in faults)


@pytest.mark.parametrize("epoch", range(40))
@pytest.mark.parametrize("warmup,period,scale", [(1, 8, 0.5), (0, 6, 1.0), (5, 50, 0.5)])
def test_lr_schedule_equals_program(epoch, warmup, period, scale):
    cfg = training.TrainConfig(init_lr=1e-12, max_lr=2e-3, warmup_epochs=warmup,
                               first_restart_epochs=period, restart_lr_scale=scale)
    want = oracles.lr_schedule(epoch, 1e-12, 2e-3, period, warmup, scale)
    assert training.lr_at(epoch, cfg) == want


def test_lr_schedule_flags_shifted_epoch():
    cfg = training.TrainConfig(init_lr=1e-12, max_lr=2e-3, warmup_epochs=1,
                               first_restart_epochs=8)
    shifted = [training.lr_at(e + 1, cfg) for e in range(16)]
    assert sum(shifted[e] != oracles.lr_schedule(e, 1e-12, 2e-3, 8, 1, 0.5)
               for e in range(16)) == 16


def test_lesion_dice_matches_program_and_flags_one_pixel():
    rng = np.random.default_rng(0)
    true = rng.integers(0, 6, size=(3, 16, 16))
    pred = true.copy()
    pred[rng.random(pred.shape) < 0.2] = 3
    report = evaluation.dice_per_class(pred, true)
    assert oracles.lesion_dice(pred, true) == report.dice[2:6].tolist()
    flipped = pred.copy()
    flipped[1, 4, 4] = 5 if flipped[1, 4, 4] != 5 else 2
    assert oracles.lesion_dice(flipped, true) != report.dice[2:6].tolist()


def test_lesion_dice_empty_class_is_one():
    z = np.zeros((4, 4), int)
    assert oracles.lesion_dice(z, z) == [1.0, 1.0, 1.0, 1.0]


def test_components4_separates_diagonal_neighbours():
    region = np.array([[1, 0, 0],
                       [0, 1, 1],
                       [0, 0, 1]], bool)
    sizes = sorted(len(c) for c in oracles.components4(region))
    assert sizes == [1, 3]


def _hand_built():
    """A mask whose per-vessel score is worked out by hand below."""
    mask = np.zeros((12, 12), np.uint8)
    hu = np.full((12, 12), 50.0, np.float32)
    mask[1, 1:4] = 3            # LAD, 3 px, peak 250 -> weight 2
    hu[1, 1:4] = (140, 250, 180)
    mask[5, 5] = 3              # LAD, 1 px = 0.5 mm², under 1 mm² -> dropped
    hu[5, 5] = 500
    mask[8:10, 8:10] = 2        # LM, 4 px, peak 120 < 130 -> dropped
    hu[8:10, 8:10] = 120
    mask[3, 8] = mask[4, 9] = 4  # LCX, two diagonal px: two 1-px components
    hu[3, 8] = hu[4, 9] = 450
    mask[6:8, 1:3] = 5          # RCA, 4 px, peak 410 -> weight 4
    hu[6:8, 1:3] = 410
    mask[10, 0:2] = 5           # RCA, 2 px, peak 300 -> weight 3
    hu[10, 0:2] = 300
    want = {"lm": 0.0, "lad": 3 * 0.5 * 2, "lcx": 0.0, "rca": 4 * 0.5 * 4 + 2 * 0.5 * 3}
    return mask, hu, want


def test_calcium_scores_hand_built_mask():
    mask, hu, want = _hand_built()
    assert oracles.calcium_scores(mask, hu, 0.5) == want
    assert evaluation.agatston_per_lesion(mask, hu, 0.5).scores == want


def test_calcium_scores_flag_one_flipped_pixel():
    mask, hu, want = _hand_built()
    mask[4, 8] = 4  # joins the two LCX pixels into one 1.5 mm² component
    got = oracles.calcium_scores(mask, hu, 0.5)
    assert got["lcx"] == 3 * 0.5 * 4 and got != want


def test_read_ppm_decodes_program_overlay(tmp_path):
    logits = np.zeros((6, 5, 7), np.float32)
    logits[3, 2, 4] = 1.0
    mask_path, ppm_path = evaluation.export_prediction(logits, tmp_path / "s",
                                                       hu_image=np.zeros((1, 5, 7)))
    rgb = oracles.read_ppm(ppm_path)
    assert rgb.shape == (5, 7, 3)
    assert oracles.read_tns(mask_path)[2, 4] == 3


def test_read_ppm_rejects_truncated(tmp_path):
    p = tmp_path / "bad.ppm"
    p.write_bytes(b"P6\n4 4\n255\n" + bytes(47))
    with pytest.raises(ValueError):
        oracles.read_ppm(p)
