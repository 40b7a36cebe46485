"""The weighted Focal LogDice loss and its ablation family.

One loss, `combo_loss`, over 6-class logits: w_focal * focal + w_dice * a
Dice term, mean_i (-ln Dice_i)^gamma_d or, for FocalDice, 1 - mean soft
Dice. A term whose weight is 0 is not built. Each variant is a preset of
this one loss, set once by `resolve_variant`:

* CE            - focal alone (w_focal=1, w_dice=0) at gamma 0, unit weights
* Focal         - class-weighted focal alone (w_focal=1, w_dice=0)
* FocalDice     - the configured weights
* FocalLogDice  - the configured weights, scaled once to sum to 1

The Dice term alone is FocalLogDice at w_focal=0, w_dice=1. One mask check,
softmax and one-hot, and one `probs * onehot` serve both the focal p_t and
the Dice intersection. Soft Dice is per class over the whole batch, as the
evaluation module's global counts are. Class weights from pixel counts are
Wong et al.'s (arXiv:1809.00076) square-root inverse frequencies, scaled to
mean 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .data import NUM_CLASSES, check_labels
from .errors import ConfigError
from .tensor import Tensor, softmax_channel

VARIANTS = ("CE", "Focal", "FocalDice", "FocalLogDice")

# Backward-pass guard for (-ln d)^g with g < 1: the forward value is
# exact, the derivative is evaluated no closer to zero than this.
_POW_GRAD_FLOOR = 1e-12


@dataclass
class LossConfig:
    variant: str = "FocalLogDice"
    w_focal: float = 0.4
    w_dice: float = 0.6
    focal_gamma: float = 2.0
    dice_gamma: float = 0.3
    smooth_eps: float = 1e-5
    class_weights: np.ndarray = field(default_factory=lambda: np.ones(NUM_CLASSES))

    def __post_init__(self):
        self.class_weights = np.asarray(self.class_weights, dtype=np.float64)

    def validate(self) -> None:
        """Raise ConfigError on a setting no loss can use; self is left as it is."""
        if self.variant not in VARIANTS:
            raise ConfigError(
                f"unknown loss variant {self.variant!r}; valid variants: {', '.join(VARIANTS)}"
            )
        for name in ("w_focal", "w_dice", "focal_gamma", "dice_gamma", "smooth_eps",
                     "class_weights"):
            if not np.isfinite(getattr(self, name)).all():
                raise ConfigError(f"loss.{name} must be finite, got {getattr(self, name)}")
        if self.focal_gamma < 0:
            raise ConfigError(f"focal_gamma must be >= 0, got {self.focal_gamma}")
        if self.dice_gamma <= 0:
            raise ConfigError(f"dice_gamma must be > 0, got {self.dice_gamma}")
        if self.smooth_eps <= 0:
            raise ConfigError(f"smooth_eps must be > 0, got {self.smooth_eps}")
        w = self.class_weights
        if w.shape != (NUM_CLASSES,):
            got = len(w) if w.ndim == 1 else f"shape {w.shape}"
            raise ConfigError(f"loss.class_weights needs {NUM_CLASSES} entries, got {got}")
        if (w <= 0).any():
            raise ConfigError("class_weights must all be positive")
        if self.w_focal < 0 or self.w_dice < 0 or self.w_focal + self.w_dice == 0:
            raise ConfigError("combo weights must be non-negative and not both zero")


def class_weights_from_counts(counts) -> np.ndarray:
    """Wong's (sum_k f_k / f_l)^0.5 per class, scaled to mean 1; a count of 0 counts as 1."""
    w = np.maximum(np.asarray(counts, dtype=np.float64), 1.0) ** -0.5
    return w / w.mean()


def _onehot(target: np.ndarray, dtype) -> np.ndarray:
    oh = np.eye(NUM_CLASSES, dtype=dtype)[target]      # (N,H,W,C)
    return np.ascontiguousarray(np.moveaxis(oh, -1, 1))


def _focal(hit: Tensor, target: np.ndarray, cfg: LossConfig) -> Tensor:
    p_true = hit.sum(axis=1).clip(cfg.smooth_eps, 1.0)      # (N,H,W)
    alpha = cfg.class_weights.astype(hit.dtype.type)[target]
    term = p_true.log() * alpha
    if cfg.focal_gamma != 0.0:
        term = term * (1.0 - p_true).pow(cfg.focal_gamma)
    return -term.mean()


def _soft_dice(probs: Tensor, onehot: np.ndarray, hit: Tensor, eps: float) -> Tensor:
    inter = hit.sum(axis=(0, 2, 3))
    p_sum = probs.sum(axis=(0, 2, 3))
    t_sum = onehot.sum(axis=(0, 2, 3))
    return (inter * 2.0 + eps) / (p_sum + t_sum + eps)


def _dice_term(dice: Tensor, cfg: LossConfig) -> Tensor:
    if cfg.variant == "FocalDice":
        return 1.0 - dice.mean()
    # clip guards against d landing one ulp above 1 from float rounding
    neg_log = (-dice.log()).clip(0.0, None)
    return neg_log.pow(cfg.dice_gamma, grad_floor=_POW_GRAD_FLOOR).mean()


def combo_loss(logits: Tensor, target: np.ndarray, cfg: LossConfig) -> Tensor:
    """w_focal * focal + w_dice * cfg.variant's Dice term over one
    `probs * onehot`, for cfg as `resolve_variant` returns it; a term whose
    weight is 0 is not built."""
    target = check_labels(target).astype(np.int64, copy=False)
    probs = softmax_channel(logits)
    onehot = _onehot(target, probs.dtype.type)
    hit = probs * onehot
    loss = _focal(hit, target, cfg) * cfg.w_focal if cfg.w_focal else None
    if not cfg.w_dice:
        return loss
    dice = _dice_term(_soft_dice(probs, onehot, hit, cfg.smooth_eps), cfg) * cfg.w_dice
    return dice if loss is None else loss + dice


def resolve_variant(cfg: LossConfig) -> LossConfig:
    """A new config with the settings of cfg.variant's preset (see the module
    docstring); cfg is checked and left as it is."""
    cfg.validate()
    if cfg.variant == "CE":
        return replace(cfg, w_focal=1.0, w_dice=0.0, focal_gamma=0.0,
                       class_weights=np.ones(NUM_CLASSES))
    if cfg.variant == "Focal":
        return replace(cfg, w_focal=1.0, w_dice=0.0)
    if cfg.variant == "FocalLogDice":
        total = cfg.w_focal + cfg.w_dice
        return replace(cfg, w_focal=cfg.w_focal / total, w_dice=cfg.w_dice / total)
    return replace(cfg)


def loss_by_variant(cfg: LossConfig):
    """Return the (logits, target) -> scalar loss of cfg.variant's preset."""
    cfg = resolve_variant(cfg)
    return lambda logits, target: combo_loss(logits, target, cfg)
