"""Per-class Dice, per-vessel Agatston-style scoring, prediction export.

Dice uses global-count aggregation by default: intersections and pixel
counts are pooled over the whole evaluation set before dividing, which
keeps the metric defined when a class is missing from individual slices.
A per-slice mean mode is available and labeled as such.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .data import CLASS_NAMES, NUM_CLASSES, hu_normalize
from .errors import ConfigError, DataIOError, DimensionError, LabelError
from .tensor import Tensor, save_tns

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

_FOUR_CONN = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=int)


@dataclass
class DiceReport:
    dice: np.ndarray          # (6,) in [0,1]
    pred_pixels: np.ndarray   # (6,) int64
    true_pixels: np.ndarray   # (6,) int64
    intersection: np.ndarray  # (6,) int64
    both_absent: np.ndarray   # (6,) bool; Dice reported as 1 by convention


def _check_masks(pred: np.ndarray, true: np.ndarray):
    pred = np.asarray(pred)
    true = np.asarray(true)
    if pred.shape != true.shape:
        raise DimensionError(
            f"prediction shape {pred.shape} does not match target {true.shape}"
        )
    for name, m in (("prediction", pred), ("target", true)):
        if m.size and (m.min() < 0 or m.max() >= NUM_CLASSES):
            raise LabelError(
                f"{name} mask holds values outside 0..{NUM_CLASSES - 1}"
            )
    return pred.astype(np.int64).ravel(), true.astype(np.int64).ravel()


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
        out = [(name, self.scores[name]) for name in ("lm", "lad", "lcx", "rca")]
        out.append(("total", self.total))
        return out


def _density_weight(peak_hu: float) -> int:
    w = 1
    for edge in _AGATSTON_EDGES:
        if peak_hu >= edge:
            w += 1
    return w


def agatston_per_lesion(mask, hu_image, pixel_area_mm2: float) -> LesionScoreReport:
    """Area-times-density score per vessel.

    Connected components (4-connectivity) of each vessel class whose peak
    HU reaches 130 contribute area_mm2 * weight, with the clinical weight
    bins 1..4. Components below MIN_COMPONENT_MM2 are ignored.
    """
    if pixel_area_mm2 <= 0:
        raise ConfigError(f"pixel_area_mm2 must be > 0, got {pixel_area_mm2}")
    mask = np.asarray(mask)
    hu = np.asarray(hu_image)
    if hu.ndim == 3 and hu.shape[0] == 1:
        hu = hu[0]
    if mask.shape != hu.shape:
        raise DimensionError(
            f"mask shape {mask.shape} does not match HU image {hu.shape}"
        )
    scores = {}
    for cls, name in ((2, "lm"), (3, "lad"), (4, "lcx"), (5, "rca")):
        total = 0.0
        labeled, n = ndimage.label(mask == cls, structure=_FOUR_CONN)
        for comp in range(1, n + 1):
            sel = labeled == comp
            peak = float(hu[sel].max())
            if peak < AGATSTON_HU_THRESHOLD:
                continue
            area = float(sel.sum()) * pixel_area_mm2
            if area < MIN_COMPONENT_MM2:
                continue
            total += area * _density_weight(peak)
        scores[name] = total
    return LesionScoreReport(scores=scores)


# -- prediction export -----------------------------------------------------


def logits_to_mask(logits) -> np.ndarray:
    """Argmax over the class axis; accepts (6,H,W) or (1,6,H,W)."""
    arr = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    if arr.ndim == 4:
        if arr.shape[0] != 1:
            raise DimensionError("export expects a single slice of logits")
        arr = arr[0]
    if arr.ndim != 3 or arr.shape[0] != NUM_CLASSES:
        raise DimensionError(
            f"logits must be ({NUM_CLASSES},H,W), got shape {arr.shape}"
        )
    return arr.argmax(axis=0).astype(np.uint8)


def write_ppm(path, rgb: np.ndarray) -> None:
    if rgb.ndim != 3 or rgb.shape[2] != 3 or rgb.dtype != np.uint8:
        raise DimensionError("PPM payload must be uint8 (H,W,3)")
    h, w = rgb.shape[:2]
    try:
        with open(path, "wb") as f:
            f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
            f.write(rgb.tobytes(order="C"))
    except OSError as e:
        raise DataIOError(f"cannot write {path}: {e}") from e


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
        hu = np.asarray(hu_image)
        if hu.ndim == 3 and hu.shape[0] == 1:
            hu = hu[0]
        if hu.shape != mask.shape:
            raise DimensionError(
                f"HU image shape {hu.shape} does not match mask {mask.shape}"
            )
        gray = (hu_normalize(hu) * 255.0).astype(np.uint8)
        rgb = np.repeat(gray[..., None], 3, axis=2).astype(np.float32)
        fg = mask > 0
        rgb[fg] = 0.45 * rgb[fg] + 0.55 * color[fg].astype(np.float32)
        color = rgb.astype(np.uint8)
    write_ppm(ppm_path, color)
    return mask_path, ppm_path


def dice_report_tsv(dice: np.ndarray) -> str:
    """TSV rendering of a per-class Dice vector, metrics-log column naming."""
    header = "\t".join(f"dice_{name}" for name in CLASS_NAMES)
    values = "\t".join(f"{dice[i]:.6f}" for i in range(NUM_CLASSES))
    return header + "\n" + values + "\n"
