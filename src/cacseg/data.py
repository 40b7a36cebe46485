"""Slice preprocessing, on-the-fly augmentation, dataset container format,
and the synthetic chest-CT phantom generator.

The phantom stands in for private clinical data. Each slice holds an
elliptical soft-tissue body with lung fields, a heart region, spine /
sternum / rib bone structures (class 1), and per-vessel calcium blobs
with HU in the clinical calcium range placed in class-specific anatomical
zones, so the lesion class is spatially learnable. Per-slice lesion
probabilities default to the clinical imbalance (LM rarest at 1.3% of
slices, RCA most common at 7.4%), and LM lesions can be as small as 5
pixels.

Dataset directory layout: manifest.tsv (image path, mask path, per-class
pixel counts) plus TNS1 files; images are raw HU (integers stored as f32,
shape 1xHxW), masks are u8 (HxW) with labels {0 background, 1 bone,
2 LM, 3 LAD, 4 LCX, 5 RCA}.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataIOError, LabelError
from .params import load_tns, save_tns, write_atomic

HU_LO = -150.0
HU_HI = 230.0
HU_WINDOW = HU_HI - HU_LO  # clinical heart window: width 380, level 40
HU_AIR = -1000.0

# The label set: every other module reads the classes, the vessels and the
# mask check from here.
CLASS_NAMES = ("background", "bone", "lm", "lad", "lcx", "rca")
NUM_CLASSES = len(CLASS_NAMES)
LESION_CLASSES = (2, 3, 4, 5)
VESSELS = CLASS_NAMES[2:]       # the names of LESION_CLASSES, in order

MANIFEST_NAME = "manifest.tsv"
MANIFEST_COLUMNS = ("image_path", "mask_path", *(f"n_{name}" for name in CLASS_NAMES))


def check_labels(mask, what: str = "mask") -> np.ndarray:
    """`mask` as an array, not copied, once every value is a class label.
    LabelError names `what` and, for a value outside 0..NUM_CLASSES-1, the
    first such value as given and its position."""
    mask = np.asarray(mask)
    if (not np.issubdtype(mask.dtype, np.integer)
            and not np.array_equal(np.rint(mask), mask)):
        raise LabelError(f"{what} contains non-integer values")
    bad = (mask < 0) | (mask >= NUM_CLASSES)
    if bad.any():
        pos = tuple(int(i) for i in np.argwhere(bad)[0])
        raise LabelError(
            f"{what} value {mask[pos].item()} at position {pos} outside 0..{NUM_CLASSES - 1}"
        )
    return mask


@dataclass
class SliceSample:
    """One 2D CT slice: raw HU image (1,H,W) and its 6-class label mask."""

    image: np.ndarray
    mask: np.ndarray
    slice_id: str = ""

    def validate(self) -> None:
        if self.image.ndim != 3 or self.image.shape[0] != 1:
            raise DataIOError(f"slice image must be (1,H,W), got {self.image.shape}")
        if self.mask.shape != self.image.shape[1:]:
            raise DataIOError(
                f"mask shape {self.mask.shape} does not match image {self.image.shape[1:]}"
            )
        check_labels(self.mask, f"{self.slice_id} mask".lstrip())


def preprocess(sample: SliceSample) -> np.ndarray:
    """Window raw HU to [-150, 230] and scale into [0, 1]; shape (1,H,W)."""
    return hu_normalize(sample.image)


def hu_normalize(hu: np.ndarray) -> np.ndarray:
    clipped = np.clip(hu.astype(np.float32), HU_LO, HU_HI)
    return (clipped - HU_LO) / HU_WINDOW


def _check_range(name: str, values: tuple) -> None:
    if len(values) != 2:
        raise ConfigError(f"{name} must be a (lo, hi) range of 2 values, got {len(values)}")


# -- augmentation -------------------------------------------------------------


@dataclass
class AugmentConfig:
    enabled: bool = True
    prob: float = 0.5                       # applied independently per transform
    rot_degrees: tuple = (5.0, 10.0)        # magnitudes; sign drawn at random
    crop_sides: tuple = (300, 400)
    blur_sigma: tuple = (0.5, 1.0)
    noise_sigma: float = 0.01               # in post-normalization units
    sp_rate: float = 0.002

    def validate(self) -> None:
        if not 0.0 <= self.prob <= 1.0:
            raise ConfigError(f"augment prob must be in [0,1], got {self.prob}")
        if not self.rot_degrees or not self.crop_sides:
            raise ConfigError("rotation magnitudes and crop sides need at least one value each")
        _check_range("blur_sigma", self.blur_sigma)
        if any(s <= 0 for s in self.blur_sigma):
            raise ConfigError(f"blur_sigma values must be > 0, got {self.blur_sigma}")
        if any(d <= 0 for d in self.rot_degrees):
            raise ConfigError("rotation magnitudes must be positive")
        if any(s < 2 for s in self.crop_sides):
            raise ConfigError("crop sides must be >= 2 pixels")
        if self.noise_sigma < 0 or self.sp_rate < 0 or self.sp_rate > 1:
            raise ConfigError("noise parameters out of range")


def _edge(index: np.ndarray, n: int) -> np.ndarray:
    """Integer indices clipped to 0..n-1."""
    index = np.maximum(index, 0)
    return np.minimum(index, n - 1, out=index)


def _sample(img: np.ndarray, rows, cols, order: int) -> np.ndarray:
    """`img` read at the points (rows, cols), which broadcast to the output
    shape: `ndimage.map_coordinates` with mode "nearest", bit for bit.

    Order 0 takes pixel floor(c + 0.5). Order 1 sums, from 0.0 and in raster
    order of the four neighbours, (value * row weight) * column weight in
    float64, with weights (1 - t, 1 - (1 - t)) for t = c - floor(c).
    Neighbours past the edge repeat the edge pixel; the coordinates
    themselves are not clamped.
    """
    h, w = img.shape
    flat = img.ravel()
    if order == 0:
        r = _edge(np.floor(rows + 0.5).astype(np.intp), h)
        c = _edge(np.floor(cols + 0.5).astype(np.intp), w)
        return flat.take(r * w + c)
    r0 = np.floor(rows)
    c0 = np.floor(cols)
    wr = 1.0 - (rows - r0)
    wc = 1.0 - (cols - c0)
    r0 = r0.astype(np.intp)
    c0 = c0.astype(np.intp)
    row_terms = ((_edge(r0, h) * w, wr), (_edge(r0 + 1, h) * w, 1.0 - wr))
    col_terms = ((_edge(c0, w), wc), (_edge(c0 + 1, w), 1.0 - wc))
    out = 0.0
    for ri, rwt in row_terms:
        for ci, cwt in col_terms:
            out = out + flat.take(ri + ci) * rwt * cwt
    return out.astype(img.dtype)


def _resize_image(img: np.ndarray, out_hw: tuple, order: int) -> np.ndarray:
    """Resample to an exact output size with half-pixel-centered coordinates."""
    h, w = img.shape
    oh, ow = out_hw
    rows = (np.arange(oh) + 0.5) * (h / oh) - 0.5
    cols = (np.arange(ow) + 0.5) * (w / ow) - 0.5
    return _sample(img, rows[:, None], cols[None, :], order)


def _rotate(img: np.ndarray, mask: np.ndarray, angle: float) -> tuple:
    """Image (order 1) and mask (order 0) rotated by `angle` degrees about
    the centre: `ndimage.rotate` with reshape=False and mode "constant",
    bit for bit. Output pixel o reads the input at off + m[:, 0] o0 +
    m[:, 1] o1, with off = centre - m @ centre; a point outside [0, n-1] in
    either coordinate reads HU_AIR in the image and 0 in the mask."""
    a = np.deg2rad(angle)
    c, s = np.cos(a), np.sin(a)
    m = np.array([[c, s], [-s, c]])
    centre = (np.asarray(img.shape) - 1) / 2
    off = centre - m @ centre
    o0 = np.arange(img.shape[0], dtype=np.float64)[:, None]
    o1 = np.arange(img.shape[1], dtype=np.float64)[None, :]
    rows = off[0] + m[0, 0] * o0 + m[0, 1] * o1
    cols = off[1] + m[1, 0] * o0 + m[1, 1] * o1
    h, w = img.shape
    outside = (rows < 0) | (rows > h - 1) | (cols < 0) | (cols > w - 1)
    img = _sample(img, rows, cols, 1)
    mask = _sample(mask, rows, cols, 0)
    img[outside] = HU_AIR
    mask[outside] = 0
    return img, mask


def _gaussian_blur(img: np.ndarray, sigma: float) -> np.ndarray:
    """`ndimage.gaussian_filter(img, sigma)`, bit for bit.

    Weights exp(-x^2 / 2 sigma^2) over x in -r..r, r = int(4 sigma + 0.5),
    divided by their sum. Each axis in turn reads a float64 line with
    half-sample mirrored edges and sums x[i] w[r] + (x[i-j] + x[i+j]) w[r-j]
    for j = r..1, then casts back to the image dtype.
    """
    r = int(4.0 * float(sigma) + 0.5)
    x = np.arange(-r, r + 1)
    wts = np.exp(-0.5 / (sigma * sigma) * x ** 2)
    wts = wts / wts.sum()
    out = img
    for _ in range(2):  # down the columns, then (transposed) along the rows
        n = out.shape[0]
        idx = np.arange(-r, n + r) % (2 * n)
        line = out.astype(np.float64)[np.minimum(idx, 2 * n - 1 - idx)]
        acc = line[r:r + n] * wts[r]
        pair = np.empty_like(acc)
        for j in range(r, 0, -1):
            np.add(line[r - j:r - j + n], line[r + j:r + j + n], out=pair)
            pair *= wts[r - j]
            acc += pair
        out = acc.astype(img.dtype).T
    return np.ascontiguousarray(out)


def salt_pepper(img: np.ndarray, rng: np.random.Generator, rate: float) -> np.ndarray:
    """Flip pixels to the window extremes, each side at rate/2."""
    u = rng.random(img.shape)
    return np.where(u < rate / 2, HU_HI,
                    np.where(u < rate, HU_LO, img))


def augment(sample: SliceSample, rng: np.random.Generator,
            cfg: AugmentConfig) -> SliceSample:
    """Randomized geometric and noise transforms, deterministic per stream.

    The caller derives `rng` from (seed, sample index, epoch). Images are
    interpolated bilinearly and masks by nearest neighbor, so mask values
    never leave the source label set. Noise touches the image only.
    """
    img = sample.image[0].astype(np.float32)
    mask = sample.mask.astype(np.uint8)
    h, w = img.shape

    if rng.random() < cfg.prob:  # rotation
        mag = float(rng.choice(cfg.rot_degrees))
        angle = mag if rng.random() < 0.5 else -mag
        img, mask = _rotate(img, mask, angle)

    if rng.random() < cfg.prob:  # center crop, resized back to native extent
        side = int(rng.choice(cfg.crop_sides))
        if side > min(h, w):
            raise ConfigError(
                f"crop side {side} exceeds image extent {min(h, w)}"
            )
        top = (h - side) // 2
        left = (w - side) // 2
        img_c = img[top:top + side, left:left + side]
        mask_c = mask[top:top + side, left:left + side]
        img = _resize_image(img_c, (h, w), order=1)
        mask = _resize_image(mask_c, (h, w), order=0).astype(np.uint8)

    if rng.random() < cfg.prob:  # Gaussian blur
        sigma = rng.uniform(*cfg.blur_sigma)
        img = _gaussian_blur(img, sigma)

    if rng.random() < cfg.prob:  # Gaussian noise (sigma given in [0,1] units)
        img = img + rng.normal(0.0, cfg.noise_sigma * HU_WINDOW, img.shape)

    if rng.random() < cfg.prob:  # salt and pepper at the window extremes
        img = salt_pepper(img, rng, cfg.sp_rate)

    return SliceSample(image=img.astype(np.float32)[None],
                       mask=mask.astype(np.uint8),
                       slice_id=sample.slice_id)


# -- phantom generator ---------------------------------------------------------


@dataclass
class PhantomSpec:
    slices: int = 1000
    size: int = 512
    rng_seed: int = 0
    # per-slice lesion probabilities; LM and RCA defaults match the
    # clinical training-set imbalance, LAD/LCX sit in between
    p_lesion: dict = field(default_factory=lambda: {
        "lm": 0.013, "lad": 0.060, "lcx": 0.045, "rca": 0.074})
    # lesion pixel-count ranges, inclusive
    px_range: dict = field(default_factory=lambda: {
        "lm": (5, 60), "lad": (15, 200), "lcx": (15, 200), "rca": (20, 300)})
    hu_cac: tuple = (130.0, 800.0)
    hu_bone: tuple = (700.0, 1200.0)
    hu_background: float = 40.0

    def validate(self) -> None:
        if self.slices < 1:
            raise ConfigError(f"slices must be >= 1, got {self.slices}")
        if self.size < 16:
            raise ConfigError(f"size must be >= 16, got {self.size}")
        for name in VESSELS:
            p = self.p_lesion[name]
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"p_{name} must be in [0,1], got {p}")
            _check_range(f"px_{name}", self.px_range[name])
            lo, hi = self.px_range[name]
            if lo < 1 or hi < lo:
                raise ConfigError(f"px_{name} range ({lo},{hi}) invalid")
        _check_range("hu_cac", self.hu_cac)
        _check_range("hu_bone", self.hu_bone)
        if self.hu_cac[0] >= self.hu_cac[1] or self.hu_bone[0] >= self.hu_bone[1]:
            raise ConfigError("HU ranges must be increasing")


# fixed anatomy in unit coordinates (x right, y down, origin top-left)
_BODY = (0.50, 0.50, 0.45, 0.42)           # cx, cy, rx, ry
_LUNGS = ((0.24, 0.42, 0.12, 0.19), (0.76, 0.42, 0.13, 0.20))
_HEART = (0.44, 0.47, 0.17, 0.15)
_SPINE = (0.50, 0.82, 0.065)
_STERNUM = (0.50, 0.115, 0.095, 0.028)
_RIB_SECTORS = ((-25.0, 25.0), (155.0, 205.0), (45.0, 70.0), (110.0, 135.0))
# vessel-specific lesion zones: LM near image center-left, the others in
# distinct sectors around the heart
_ZONES = {"lm": (0.460, 0.415), "lad": (0.385, 0.315),
          "lcx": (0.345, 0.545), "rca": (0.565, 0.535)}
_ZONE_JITTER = 0.018


def _ellipse(u, v, cx, cy, rx, ry):
    return ((u - cx) / rx) ** 2 + ((v - cy) / ry) ** 2 <= 1.0


def phantom_slice(spec: PhantomSpec, index: int) -> SliceSample:
    """Build one phantom slice deterministically from (rng_seed, index)."""
    rng = np.random.default_rng(np.random.SeedSequence(spec.rng_seed,
                                                       spawn_key=(index,)))
    s = spec.size
    ax = (np.arange(s) + 0.5) / s
    u = ax[None, :]
    v = ax[:, None]

    hu = np.full((s, s), HU_AIR, dtype=np.float64)
    mask = np.zeros((s, s), dtype=np.uint8)

    body = _ellipse(u, v, *_BODY)
    tissue = np.full((s, s), spec.hu_background, dtype=np.float64)
    for _ in range(3):  # smooth low-frequency texture
        bx, by = rng.uniform(0.25, 0.75, 2)
        amp = rng.uniform(-25.0, 25.0)
        sig = rng.uniform(0.10, 0.20)
        tissue += amp * np.exp(-(((u - bx) ** 2) + ((v - by) ** 2)) / (2 * sig ** 2))
    hu[body] = tissue[body]

    for lung in _LUNGS:
        zone = _ellipse(u, v, *lung) & body
        hu[zone] = rng.uniform(-800.0, -700.0)

    heart = _ellipse(u, v, *_HEART) & body
    hu[heart] += 25.0

    bone_lo, bone_hi = spec.hu_bone
    spine = ((u - _SPINE[0]) ** 2 + (v - _SPINE[1]) ** 2) <= _SPINE[2] ** 2
    sternum = _ellipse(u, v, *_STERNUM)
    re = np.sqrt(((u - _BODY[0]) / _BODY[2]) ** 2 + ((v - _BODY[1]) / _BODY[3]) ** 2)
    theta = np.degrees(np.arctan2(v - _BODY[1], u - _BODY[0]))
    ribs = np.zeros((s, s), dtype=bool)
    band = (re >= 0.88) & (re <= 0.96)
    for lo, hi in _RIB_SECTORS:
        sector = ((theta - lo) % 360.0) <= (hi - lo)
        ribs |= band & sector
        mirrored = ((-theta - lo) % 360.0) <= (hi - lo)
        ribs |= band & mirrored
    bone = (spine | sternum | ribs) & body
    hu[bone] = rng.uniform(bone_lo, (bone_lo + bone_hi) / 2) + \
        rng.uniform(0.0, (bone_hi - bone_lo) / 2, (s, s))[bone]
    mask[bone] = 1

    hu[body] += rng.normal(0.0, 4.0, (s, s))[body]

    cac_lo, cac_hi = spec.hu_cac
    for cls, name in zip(LESION_CLASSES, VESSELS):
        if rng.random() >= spec.p_lesion[name]:
            continue
        lo_px, hi_px = spec.px_range[name]
        target = int(rng.integers(lo_px, hi_px + 1))
        zx, zy = _ZONES[name]
        cx = zx + float(np.clip(rng.normal(0.0, _ZONE_JITTER), -0.035, 0.035))
        cy = zy + float(np.clip(rng.normal(0.0, _ZONE_JITTER), -0.035, 0.035))
        q = rng.uniform(0.45, 1.0)
        ang = rng.uniform(0.0, np.pi)
        a_px = np.sqrt(target / (np.pi * q))
        b_px = q * a_px
        dx = (u - cx) * s
        dy = (v - cy) * s
        xr = dx * np.cos(ang) + dy * np.sin(ang)
        yr = -dx * np.sin(ang) + dy * np.cos(ang)
        metric = (xr / a_px) ** 2 + (yr / b_px) ** 2
        eligible = body & (mask == 0) & (metric <= 9.0)
        flat = np.flatnonzero(eligible)
        if flat.size == 0:
            continue
        order = np.argsort(metric.ravel()[flat], kind="stable")
        chosen = flat[order[:target]]
        base = rng.uniform(cac_lo + 20.0, cac_hi - 60.0)
        values = np.clip(base * (1.0 + rng.uniform(-0.12, 0.12, chosen.size)),
                         cac_lo, cac_hi)
        hu.ravel()[chosen] = values
        mask.ravel()[chosen] = cls

    image = np.rint(hu).astype(np.float32)[None]
    return SliceSample(image=image, mask=mask,
                       slice_id=f"slice_{index:05d}")


def generate_phantom(spec: PhantomSpec, out_dir) -> Path:
    """Write `spec.slices` phantom slices plus the manifest; returns its path."""
    spec.validate()
    root = Path(out_dir)
    try:
        (root / "images").mkdir(parents=True, exist_ok=True)
        (root / "masks").mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise DataIOError(f"cannot create dataset directory {root}: {e}") from e
    rows = []
    for i in range(spec.slices):
        sample = phantom_slice(spec, i)
        img_rel = os.path.join("images", f"{sample.slice_id}.tns")
        mask_rel = os.path.join("masks", f"{sample.slice_id}.tns")
        save_tns(root / img_rel, sample.image)
        save_tns(root / mask_rel, sample.mask)
        counts = np.bincount(sample.mask.ravel(), minlength=NUM_CLASSES)
        rows.append((img_rel, mask_rel, *counts.tolist()))
    manifest = root / MANIFEST_NAME
    lines = ["\t".join(MANIFEST_COLUMNS)] + ["\t".join(str(x) for x in row) for row in rows]
    write_atomic(manifest, ("\n".join(lines) + "\n").encode("utf-8"))
    return manifest


# -- dataset access -------------------------------------------------------------


class Dataset:
    """Reader over a dataset directory written by `generate_phantom`."""

    def __init__(self, root):
        self.root = Path(root)
        manifest = self.root / MANIFEST_NAME
        if not manifest.is_file():
            raise DataIOError(f"no {MANIFEST_NAME} in {self.root}")
        try:
            with open(manifest, "r", encoding="utf-8") as f:
                lines = [(no, ln.rstrip("\n")) for no, ln in enumerate(f, 1) if ln.strip()]
        except UnicodeDecodeError as e:
            raise DataIOError(f"{manifest} is not UTF-8 text: {e}") from e
        if not lines or lines[0][1].split("\t") != list(MANIFEST_COLUMNS):
            raise DataIOError(f"{manifest} has an unexpected header")
        self.rows = []
        for no, ln in lines[1:]:
            parts = ln.split("\t")
            if len(parts) != len(MANIFEST_COLUMNS):
                raise DataIOError(f"{manifest}: malformed row {ln!r}")
            try:
                counts = np.array([int(x) for x in parts[2:]], dtype=np.int64)
            except (ValueError, OverflowError):
                counts = None
            if counts is None or (counts < 0).any():
                raise DataIOError(
                    f"{manifest} line {no}: pixel counts must be non-negative integers, "
                    f"got {parts[2:]}")
            self.rows.append((parts[0], parts[1], counts))
        if not self.rows:
            raise DataIOError(f"{manifest} lists no slices")

    def __len__(self) -> int:
        return len(self.rows)

    def sample(self, i: int) -> SliceSample:
        img_rel, mask_rel, _ = self.rows[i]
        image = load_tns(self.root / img_rel)
        mask = load_tns(self.root / mask_rel)
        s = SliceSample(image=image, mask=mask, slice_id=Path(img_rel).stem)
        s.validate()
        return s

    def pixel_counts(self) -> np.ndarray:
        """Per-class pixel totals as recorded in the manifest."""
        total = np.zeros(NUM_CLASSES, dtype=np.int64)
        for _, _, counts in self.rows:
            total += counts
        return total
