"""Per-class Dice, per-vessel Agatston-style scoring, prediction export.

Dice uses global-count aggregation by default: intersections and pixel
counts are pooled over the whole evaluation set before dividing, which
keeps the metric defined when a class is missing from individual slices.
A per-slice mean mode is available and labeled as such.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import LESION_CLASSES, NUM_CLASSES, VESSELS, check_labels, hu_normalize
from .errors import ConfigError, DimensionError
from .params import save_tns, write_ppm

# class -> RGB for overlays: background, bone, LM red, LAD amber,
# LCX green, RCA blue
PALETTE = np.array([
    (0, 0, 0),
    (205, 205, 205),
    (230, 40, 40),
    (250, 200, 40),
    (60, 200, 70),
    (60, 120, 255),
], dtype=np.uint8)

AGATSTON_HU_THRESHOLD = 130.0
# density weight 1/2/3/4 for peak HU in [130,200) / [200,300) / [300,400) / >=400
_AGATSTON_EDGES = (200.0, 300.0, 400.0)
MIN_COMPONENT_MM2 = 1.0

_IS_LESION = np.isin(np.arange(NUM_CLASSES), LESION_CLASSES)


@dataclass
class DiceReport:
    dice: np.ndarray          # (6,) in [0,1]
    pred_pixels: np.ndarray   # (6,) int64
    true_pixels: np.ndarray   # (6,) int64
    intersection: np.ndarray  # (6,) int64
    both_absent: np.ndarray   # (6,) bool; Dice reported as 1 by convention


def _check_masks(pred: np.ndarray, true: np.ndarray):
    pred = check_labels(pred, "prediction").astype(np.int64, copy=False)
    true = check_labels(true, "target").astype(np.int64, copy=False)
    if pred.shape != true.shape:
        raise DimensionError(
            f"prediction shape {pred.shape} does not match target {true.shape}"
        )
    return pred.ravel(), true.ravel()


def _report(pred_px, true_px, inter) -> DiceReport:
    """Dice from per-class pixel counts; classes absent from both sides score 1."""
    denom = pred_px + true_px
    both_absent = denom == 0
    dice = np.where(both_absent, 1.0, 2.0 * inter / np.maximum(denom, 1))
    return DiceReport(dice=dice.astype(np.float64),
                      pred_pixels=pred_px.astype(np.int64),
                      true_pixels=true_px.astype(np.int64),
                      intersection=inter.astype(np.int64),
                      both_absent=both_absent)


def dice_per_class(pred_mask, true_mask) -> DiceReport:
    """Global-count Dice per class.

    Accepts single masks or stacked sets of any matching shape; counts
    are pooled over everything passed in. Classes absent from both sides
    report Dice 1 and are flagged.
    """
    pred, true = _check_masks(pred_mask, true_mask)
    return _report(np.bincount(pred, minlength=NUM_CLASSES),
                   np.bincount(true, minlength=NUM_CLASSES),
                   np.bincount(true[pred == true], minlength=NUM_CLASSES))


def dice_global(pairs) -> np.ndarray:
    """Per-class Dice with counts pooled over all (prediction, target) pairs."""
    # rows: predicted pixels, true pixels, intersection
    counts = np.zeros((3, NUM_CLASSES), dtype=np.int64)
    for pred, true in pairs:
        r = dice_per_class(pred, true)
        counts += (r.pred_pixels, r.true_pixels, r.intersection)
    return _report(*counts).dice


def dice_per_slice_mean(pairs) -> np.ndarray:
    """Mean of per-slice Dice (the alternative aggregation, labeled)."""
    acc = np.zeros(NUM_CLASSES)
    n = 0
    for pred, true in pairs:
        acc += dice_per_class(pred, true).dice
        n += 1
    if n == 0:
        raise DimensionError("dice_per_slice_mean needs at least one pair")
    return acc / n


@dataclass
class LesionScoreReport:
    scores: dict  # vessel name -> score

    @property
    def total(self) -> float:
        return float(sum(self.scores.values()))

    def rows(self) -> list[tuple[str, float]]:
        out = [(name, self.scores[name]) for name in VESSELS]
        out.append(("total", self.total))
        return out


def _hu_plane(hu_image, shape: tuple) -> np.ndarray:
    """The (H,W) plane of an (H,W) or (1,H,W) HU image whose mask has `shape`."""
    hu = np.asarray(hu_image)
    if hu.ndim == 3 and hu.shape[0] == 1:
        hu = hu[0]
    if hu.shape != shape:
        raise DimensionError(f"HU image shape {hu.shape} does not match mask {shape}")
    return hu


def _density_weight(peak_hu: float) -> int:
    w = 1
    for edge in _AGATSTON_EDGES:
        if peak_hu >= edge:
            w += 1
    return w


def _label_components(classes: np.ndarray) -> tuple:
    """4-connected components of equal nonzero values in an (H,W) array.

    Returns (labels, n): `labels` numbers the components 1..n in raster
    order of each component's first pixel, as `ndimage.label` does, and is
    0 where `classes` is. Horizontal runs are joined across rows by
    hooking the larger root under the smaller, then compressing paths.
    """
    h, w = classes.shape
    fg = classes != 0
    start = fg.copy()
    start[:, 1:] &= classes[:, 1:] != classes[:, :-1]
    run = np.cumsum(start.ravel()) - 1             # run of each pixel, raster order
    # one (below, above) pair per stretch where the same two runs touch
    touch = fg[1:] & (classes[1:] == classes[:-1])
    touch[:, 1:] &= ~(touch[:, :-1] & ~start[1:, 1:] & ~start[:-1, 1:])
    touch = touch.ravel()
    below, above = run[w:][touch], run[:-w][touch]
    root = np.arange(run[-1] + 1 if run.size else 0)
    while True:
        rb, ra = root[below], root[above]
        split = rb != ra
        if not split.any():
            break
        np.minimum.at(root, np.maximum(rb, ra)[split], np.minimum(rb, ra)[split])
        while True:
            nxt = root[root]
            if np.array_equal(nxt, root):
                break
            root = nxt
    is_root = root == np.arange(root.size)
    number = np.cumsum(is_root)[root]              # roots in raster order
    labels = np.zeros(h * w, dtype=np.int64)
    flat = fg.ravel()
    labels[flat] = number[run[flat]]
    return labels.reshape(h, w), int(is_root.sum())


def agatston_per_lesion(mask, hu_image, pixel_area_mm2: float) -> LesionScoreReport:
    """Area-times-density score per vessel.

    Connected components (4-connectivity) of each vessel class whose peak
    HU reaches 130 contribute area_mm2 * weight, with the clinical weight
    bins 1..4. Components below MIN_COMPONENT_MM2 are ignored. Each
    vessel sums its components in raster order of their first pixel. The
    mask must be (H,W); the HU image (H,W) or (1,H,W).
    """
    if pixel_area_mm2 <= 0:
        raise ConfigError(f"pixel_area_mm2 must be > 0, got {pixel_area_mm2}")
    mask = check_labels(mask).astype(np.intp, copy=False)
    if mask.ndim != 2:
        raise DimensionError(f"mask must be (H,W), got shape {mask.shape}")
    hu = _hu_plane(hu_image, mask.shape)
    lesion = np.where(_IS_LESION[mask], mask, 0)
    rows = np.flatnonzero(lesion.any(axis=1))
    cols = np.flatnonzero(lesion.any(axis=0))
    box = (slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1)) if rows.size else \
        (slice(0, 0), slice(0, 0))
    labels, n = _label_components(lesion[box])
    labels = labels.ravel()
    area = np.bincount(labels, minlength=n + 1)
    peak = np.full(n + 1, -np.inf)
    np.maximum.at(peak, labels, hu[box].astype(np.float64).ravel())
    comp_class = np.zeros(n + 1, dtype=lesion.dtype)
    comp_class[labels] = lesion[box].ravel()
    scores = {}
    for cls, name in zip(LESION_CLASSES, VESSELS):
        total = 0.0
        for comp in np.flatnonzero(comp_class == cls):
            if peak[comp] < AGATSTON_HU_THRESHOLD:
                continue
            area_mm2 = float(area[comp]) * pixel_area_mm2
            if area_mm2 < MIN_COMPONENT_MM2:
                continue
            total += area_mm2 * _density_weight(float(peak[comp]))
        scores[name] = total
    return LesionScoreReport(scores=scores)


# -- prediction export -----------------------------------------------------


def logits_to_mask(logits: np.ndarray) -> np.ndarray:
    """Argmax over the class axis of one slice's (6,H,W) logits."""
    if logits.ndim != 3 or logits.shape[0] != NUM_CLASSES:
        raise DimensionError(
            f"logits must be ({NUM_CLASSES},H,W), got shape {logits.shape}"
        )
    return logits.argmax(axis=0).astype(np.uint8)


def export_prediction(logits, dest_stem, hu_image=None) -> tuple:
    """Write the argmax mask as TNS1 u8 plus a PPM overlay.

    With an HU image the overlay blends class colors over the windowed
    grayscale slice; otherwise it is the bare palette image.
    """
    mask = logits_to_mask(logits)
    mask_path = str(dest_stem) + ".tns"
    ppm_path = str(dest_stem) + ".ppm"
    save_tns(mask_path, mask)
    color = PALETTE[mask]
    if hu_image is not None:
        gray = (hu_normalize(_hu_plane(hu_image, mask.shape)) * 255.0).astype(np.uint8)
        rgb = np.repeat(gray[..., None], 3, axis=2).astype(np.float32)
        fg = mask > 0
        rgb[fg] = 0.45 * rgb[fg] + 0.55 * color[fg].astype(np.float32)
        color = rgb.astype(np.uint8)
    write_ppm(ppm_path, color)
    return mask_path, ppm_path
