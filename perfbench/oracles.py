"""Independent computations the benchmark checks the program's outputs against.

Nothing here calls into cacseg: the file formats are decoded from their
documented layouts, the schedule is the documented formula, and Dice and
the calcium score are counted pixel by pixel.
"""

from __future__ import annotations

import math
import struct
from collections import deque
from pathlib import Path

import numpy as np

LESIONS = ((2, "lm"), (3, "lad"), (4, "lcx"), (5, "rca"))
NUM_CLASSES = 6


# -- file formats -------------------------------------------------------------


def read_tns(path) -> np.ndarray:
    """TNS1: magic, u8 dtype code (0 f32, 1 u8), u8 rank, u32 LE extents, payload."""
    raw = Path(path).read_bytes()
    if raw[:4] != b"TNS1":
        raise ValueError(f"{path}: not a TNS1 file")
    code, rank = raw[4], raw[5]
    dims = struct.unpack_from(f"<{rank}I", raw, 6)
    dtype = {0: "<f4", 1: "u1"}[code]
    payload = raw[6 + 4 * rank:]
    if len(payload) != math.prod(dims) * np.dtype(dtype).itemsize:
        raise ValueError(f"{path}: payload size does not match {dims}")
    return np.frombuffer(payload, dtype=dtype).reshape(dims)


def read_ppm(path) -> np.ndarray:
    """Binary P6 with maxval 255 -> (H, W, 3) uint8."""
    raw = Path(path).read_bytes()
    fields = raw.split(maxsplit=4)
    if fields[0] != b"P6" or fields[3] != b"255":
        raise ValueError(f"{path}: not an 8-bit P6 file")
    w, h = int(fields[1]), int(fields[2])
    pixels = fields[4] if len(fields) > 4 else b""
    if len(pixels) != w * h * 3:
        raise ValueError(f"{path}: {len(pixels)} payload bytes for {w}x{h}")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(h, w, 3)


def read_tsv(path) -> list[dict]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0].split("\t")
    return [dict(zip(header, ln.split("\t"))) for ln in lines[1:] if ln]


# -- data set -------------------------------------------------------------------


def dataset_faults(root, hu_cac: tuple[float, float]) -> list[str]:
    """One entry per manifest row: '' if it holds, else what is wrong.

    The row's pixel counts must equal the bincount of its mask file, and
    every lesion pixel's HU must lie in `hu_cac`.
    """
    root = Path(root)
    out = []
    for row in read_tsv(root / "manifest.tsv"):
        mask = read_tns(root / row["mask_path"])
        hu = read_tns(root / row["image_path"])[0]
        counts = np.bincount(mask.ravel(), minlength=NUM_CLASSES)
        listed = [int(row[k]) for k in ("n_background", "n_bone", "n_lm",
                                        "n_lad", "n_lcx", "n_rca")]
        lesion = hu[mask >= 2]
        if counts.tolist() != listed:
            out.append(f"{row['mask_path']}: counts {counts.tolist()} != manifest {listed}")
        elif lesion.size and not (hu_cac[0] <= lesion.min() and lesion.max() <= hu_cac[1]):
            out.append(f"{row['image_path']}: lesion HU {lesion.min()}..{lesion.max()} "
                       f"outside {hu_cac}")
        else:
            out.append("")
    return out


# -- schedule -------------------------------------------------------------------


def lr_schedule(epoch: int, init_lr: float, max_lr: float, period: int,
                warmup: int, restart_scale: float) -> float:
    """Warm-restart schedule at a whole epoch, constant cycle length.

    Cycle k = epoch // period peaks at max_lr * restart_scale^k. Its first
    `warmup` epochs rise linearly from init_lr; the rest fall along half a
    cosine from the peak towards init_lr.
    """
    cycle, t = divmod(epoch, period)
    peak = max_lr * restart_scale ** cycle
    if t < warmup:
        return init_lr + (peak - init_lr) * (t / warmup)
    if t == warmup:
        return peak
    frac = (t - warmup) / (period - warmup)
    return init_lr + 0.5 * (peak - init_lr) * (1.0 + math.cos(math.pi * frac))


# -- Dice -----------------------------------------------------------------------


def lesion_dice(pred: np.ndarray, true: np.ndarray) -> list[float]:
    """Per lesion class 2*|P&T| / (|P|+|T|) over every pixel given; 1 when both empty."""
    out = []
    for cls, _ in LESIONS:
        p = pred == cls
        t = true == cls
        denom = int(p.sum()) + int(t.sum())
        out.append(1.0 if denom == 0 else 2.0 * int((p & t).sum()) / denom)
    return out


# -- calcium score ------------------------------------------------------------------


def components4(region: np.ndarray) -> list[list[tuple[int, int]]]:
    """4-connected components of a boolean image, by breadth-first search."""
    h, w = region.shape
    seen = np.zeros_like(region, dtype=bool)
    comps = []
    for r0, c0 in zip(*np.nonzero(region)):
        if seen[r0, c0]:
            continue
        seen[r0, c0] = True
        comp = []
        queue = deque([(int(r0), int(c0))])
        while queue:
            r, c = queue.popleft()
            comp.append((r, c))
            for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                if 0 <= rr < h and 0 <= cc < w and region[rr, cc] and not seen[rr, cc]:
                    seen[rr, cc] = True
                    queue.append((rr, cc))
        comps.append(comp)
    return comps


def density_weight(peak_hu: float) -> int:
    """Agatston weight: 1 for [130,200), 2 for [200,300), 3 for [300,400), 4 above."""
    if peak_hu >= 400:
        return 4
    if peak_hu >= 300:
        return 3
    if peak_hu >= 200:
        return 2
    return 1


def calcium_scores(mask: np.ndarray, hu: np.ndarray, pixel_area_mm2: float,
                   min_area_mm2: float = 1.0, threshold_hu: float = 130.0) -> dict:
    """Per vessel: sum over components with peak HU >= 130 and area >= 1 mm²
    of area_mm2 * density weight."""
    scores = {}
    for cls, name in LESIONS:
        total = 0.0
        for comp in components4(mask == cls):
            peak = max(float(hu[r, c]) for r, c in comp)
            area = len(comp) * pixel_area_mm2
            if peak >= threshold_hu and area >= min_area_mm2:
                total += area * density_weight(peak)
        scores[name] = total
    return scores
