"""Coordinate attention.

The attention module factorizes spatial attention into two 1D encodings:
the feature map is average-pooled along each spatial axis, the pooled
maps are fused through a shared bottleneck conv, split back, and turned
into per-axis sigmoid gates that multiply the input. The residual block
that runs it on its skip path (RICA) lives in `cacseg.network`, which
builds every conv-BN pair of the net with this module's `conv_bn`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError
from .params import ParameterStore, kaiming_conv
from .tensor import (
    Tensor,
    batchnorm2d,
    concat,
    conv2d,
    directional_avgpool,
    fold_batchnorm,
    relu,
    sigmoid,
)

ACTIVATIONS = ("relu", "hardswish")


@dataclass
class CAConfig:
    """Bottleneck sizing and nonlinearity of the attention module."""

    reduction_ratio: int = 32
    min_mid_channels: int = 8
    activation: str = "relu"

    def validate(self) -> None:
        if self.reduction_ratio < 1:
            raise ConfigError(f"reduction_ratio must be >= 1, got {self.reduction_ratio}")
        if self.min_mid_channels < 1:
            raise ConfigError(f"min_mid_channels must be >= 1, got {self.min_mid_channels}")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(
                f"activation must be one of {ACTIVATIONS}, got {self.activation!r}"
            )

    def mid_channels(self, channels: int) -> int:
        return max(channels // self.reduction_ratio, self.min_mid_channels, 1)


@dataclass
class AttentionMaps:
    """Height gate (N,C,H,1) and width gate (N,C,1,W), both in (0,1)."""

    a_h: Tensor
    a_w: Tensor


def _hardswish(x: Tensor) -> Tensor:
    return x * (x + 3.0).clip(0.0, 6.0) * (1.0 / 6.0)


def _nonlinear(x: Tensor, cfg: CAConfig) -> Tensor:
    if cfg.activation == "hardswish":
        return _hardswish(x)
    return relu(x)


def conv_bn(x: Tensor, store: ParameterStore, weight: str, bn: str, training: bool,
            padding: int = 0) -> Tensor:
    """Bias-free conv with weight `weight`, then batch norm `bn`.

    Training mode runs the two ops. Eval mode folds the stored moments and
    the affine into the conv (`fold_batchnorm`) and runs one conv with a
    bias, so no batch-norm pass touches the activation.
    """
    w = store.param(weight)
    gamma, beta = store.param(f"{bn}.gamma"), store.param(f"{bn}.beta")
    state = store.moments(bn)
    if training:
        return batchnorm2d(conv2d(x, w, padding=padding), gamma, beta, state, True)
    return conv2d(x, *fold_batchnorm(w, gamma, beta, state), padding=padding)


def init_ca(store: ParameterStore, prefix: str, channels: int, cfg: CAConfig,
            rng: np.random.Generator) -> None:
    """Add the attention module's parameters under `prefix`."""
    mid = cfg.mid_channels(channels)
    store.add_param(f"{prefix}.conv1.weight", kaiming_conv(rng, mid, channels, 1, 1))
    store.add_param(f"{prefix}.bn.gamma", np.ones(mid, np.float32))
    store.add_param(f"{prefix}.bn.beta", np.zeros(mid, np.float32))
    store.add_moments(f"{prefix}.bn", mid)
    store.add_param(f"{prefix}.convh.weight", kaiming_conv(rng, channels, mid, 1, 1))
    store.add_param(f"{prefix}.convw.weight", kaiming_conv(rng, channels, mid, 1, 1))


def ca_forward(x: Tensor, store: ParameterStore, prefix: str, cfg: CAConfig,
               training: bool, attention_hook=None, return_maps: bool = False):
    """Gate `x` by its height and width attention maps.

    Pipeline: pool each spatial axis away, concatenate the two pooled
    maps along the collapsed axis, fuse (1x1 conv, BN, nonlinearity),
    split, per-branch 1x1 conv, sigmoid, then multiply both gates onto
    the input. Output shape equals input shape.

    `attention_hook`, when given, receives (a_h, a_w) after the sigmoid
    and returns replacements; it exists so tests can bypass the gates.
    """
    w1 = store.param(f"{prefix}.conv1.weight")
    if x.ndim != 4:
        raise DimensionError(f"attention input must be 4D, got shape {x.shape}")
    n, c, h, w = x.shape
    if c != w1.shape[1]:
        raise DimensionError(
            f"attention module built for {w1.shape[1]} channels, input has {c}"
        )
    pooled_h = directional_avgpool(x, "width")            # N,C,H,1
    pooled_w = directional_avgpool(x, "height")           # N,C,1,W
    y = concat([pooled_h, pooled_w.transpose((0, 1, 3, 2))], axis=2)  # N,C,H+W,1
    y = _nonlinear(conv_bn(y, store, f"{prefix}.conv1.weight", f"{prefix}.bn", training), cfg)
    part_h = y.narrow(2, 0, h)                            # N,mid,H,1
    part_w = y.narrow(2, h, w).transpose((0, 1, 3, 2))    # N,mid,1,W
    a_h = sigmoid(conv2d(part_h, store.param(f"{prefix}.convh.weight")))
    a_w = sigmoid(conv2d(part_w, store.param(f"{prefix}.convw.weight")))
    if attention_hook is not None:
        a_h, a_w = attention_hook(a_h, a_w)
    out = x * a_w * a_h
    if return_maps:
        return out, AttentionMaps(a_h=a_h, a_w=a_w)
    return out
