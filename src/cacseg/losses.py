"""The weighted Focal LogDice loss and its ablation family.

Four variants over 6-class logits:

* CE            - plain cross-entropy (focal with gamma=0, unit weights)
* Focal         - class-weighted focal loss
* FocalDice     - w_f * focal + w_d * (1 - mean soft Dice)
* FocalLogDice  - w_f * focal + w_d * mean_i (-ln Dice_i)^gamma_d

Each is one call into `_combo`: one mask check, softmax and one-hot, and
one `probs * onehot` for both the focal p_t and the Dice intersection.
Soft Dice is per class over the whole batch, as the evaluation module's
global counts are. Class weights from pixel counts are Wong et al.'s
(arXiv:1809.00076) square-root inverse frequencies, scaled to mean 1.
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
        if self.variant not in VARIANTS:
            raise ConfigError(
                f"unknown loss variant {self.variant!r}; valid variants: {', '.join(VARIANTS)}"
            )
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
        if self.variant == "FocalLogDice":
            # keep the combo weights a convex pair
            total = self.w_focal + self.w_dice
            if total != 1.0:
                self.w_focal /= total
                self.w_dice /= total


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


def _log_pow_dice(dice: Tensor, cfg: LossConfig) -> Tensor:
    # clip guards against d landing one ulp above 1 from float rounding
    neg_log = (-dice.log()).clip(0.0, None)
    return neg_log.pow(cfg.dice_gamma, grad_floor=_POW_GRAD_FLOOR).mean()


def _linear_dice(dice: Tensor, cfg: LossConfig) -> Tensor:
    return 1.0 - dice.mean()


def _combo(logits: Tensor, target: np.ndarray, cfg: LossConfig, focal: bool,
           dice_term) -> Tensor:
    """w_focal * focal + w_dice * dice_term(soft Dice), or either term alone
    (`focal` false, `dice_term` None), unweighted, over one `probs * onehot`."""
    target = check_labels(target).astype(np.int64, copy=False)
    probs = softmax_channel(logits)
    onehot = _onehot(target, probs.dtype.type)
    hit = probs * onehot
    if dice_term is None:
        return _focal(hit, target, cfg)
    dice = dice_term(_soft_dice(probs, onehot, hit, cfg.smooth_eps), cfg)
    return _focal(hit, target, cfg) * cfg.w_focal + dice * cfg.w_dice if focal else dice


def weighted_focal(logits: Tensor, target: np.ndarray, cfg: LossConfig) -> Tensor:
    """Mean over pixels of -alpha_c * (1 - p_c)^gamma * ln(p_c)."""
    return _combo(logits, target, cfg, focal=True, dice_term=None)


def exp_log_dice(logits: Tensor, target: np.ndarray, cfg: LossConfig) -> Tensor:
    """Mean over classes of (-ln Dice_i)^gamma_d with batch-level Dice."""
    return _combo(logits, target, cfg, focal=False, dice_term=_log_pow_dice)


def focal_logdice(logits: Tensor, target: np.ndarray, cfg: LossConfig) -> Tensor:
    """w_focal * focal + w_dice * exponential log Dice (one fused addition)."""
    return _combo(logits, target, cfg, focal=True, dice_term=_log_pow_dice)


def focal_dice(logits: Tensor, target: np.ndarray, cfg: LossConfig) -> Tensor:
    """w_focal * focal + w_dice * (1 - mean soft Dice)."""
    return _combo(logits, target, cfg, focal=True, dice_term=_linear_dice)


_BY_VARIANT = {"CE": weighted_focal, "Focal": weighted_focal,
               "FocalDice": focal_dice, "FocalLogDice": focal_logdice}


def resolve_variant(cfg: LossConfig) -> LossConfig:
    """The validated settings cfg.variant's loss computes with: CE is the
    focal loss at gamma 0 with unit class weights."""
    cfg.validate()
    if cfg.variant == "CE":
        return replace(cfg, focal_gamma=0.0, class_weights=np.ones(NUM_CLASSES))
    return cfg


def loss_by_variant(cfg: LossConfig):
    """Return the (logits, target) -> scalar loss for cfg.variant."""
    cfg = resolve_variant(cfg)
    loss = _BY_VARIANT[cfg.variant]
    return lambda logits, target: loss(logits, target, cfg)
