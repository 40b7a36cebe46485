"""Network assembly: RICA-block encoder, CA-augmented decoder, 6-class head.

The same builder produces the full attention network and, with
ca_enabled=False, the plain U-Net baseline (RICA skip paths and decoder
attention modules removed, strictly fewer parameters).

Encoder level k is a RICA block with base*2^k output channels: two
conv-BN-ReLU layers plus a skip path of coordinate attention and a 1x1
conv-BN projection. Level `levels` is the bottleneck. Decoder level k
upsamples, applies a standalone attention module, concatenates the
encoder skip, and runs two conv-BN-ReLU layers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .attention import CAConfig, ca_forward, conv_bn, init_ca, init_conv_bn
from .data import NUM_CLASSES
from .errors import ConfigError, ContractError, DimensionError
from .params import ParameterStore, kaiming_conv, load_checkpoint
# batchnorm2d runs inside attention.conv_bn; the name stays importable here
# because perfbench's per-layer tracer wraps the ops at this module.
from .tensor import (  # noqa: F401
    Tensor,
    batchnorm2d,
    concat_channels,
    conv2d,
    maxpool2,
    relu,
    upsample_bilinear2,
)

IN_CHANNELS = 1      # one HU channel per slice


@dataclass
class ArchConfig:
    levels: int = 4
    base_channels: int = 64
    ca_enabled: bool = True
    ca: CAConfig = field(default_factory=CAConfig)

    def validate(self) -> None:
        for name in ("levels", "base_channels"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise ConfigError(f"{name} must be a positive integer, got {v!r}")
        self.ca.validate()


def _init_conv_bn(store: ParameterStore, prefix: str, cin: int, cout: int, k: int,
                  rng: np.random.Generator) -> None:
    init_conv_bn(store, f"{prefix}.conv.weight", f"{prefix}.bn", cin, cout, k, rng)


def _conv_bn(x: Tensor, store: ParameterStore, prefix: str, training: bool,
             padding: int = 1) -> Tensor:
    return conv_bn(x, store, f"{prefix}.conv.weight", f"{prefix}.bn", training, padding)


def init_rica(store: ParameterStore, prefix: str, cin: int, cout: int,
              cfg: CAConfig, rng: np.random.Generator, ca_enabled: bool = True) -> None:
    """Add a RICA block's parameters under `prefix`.

    With ca_enabled=False only the two-conv main path is created (the
    plain U-Net double-conv block used by the ablated baseline).
    """
    _init_conv_bn(store, f"{prefix}.f1", cin, cout, 3, rng)
    _init_conv_bn(store, f"{prefix}.f2", cout, cout, 3, rng)
    if ca_enabled:
        init_ca(store, f"{prefix}.ca", cin, cfg, rng)
        _init_conv_bn(store, f"{prefix}.pjs", cin, cout, 1, rng)


def rica_forward(x: Tensor, store: ParameterStore, prefix: str, cfg: CAConfig,
                 training: bool, ca_enabled: bool = True) -> Tensor:
    """Main path conv-BN-ReLU x2 plus the attention/projection skip path."""
    main = relu(_conv_bn(x, store, f"{prefix}.f1", training))
    main = relu(_conv_bn(main, store, f"{prefix}.f2", training))
    if not ca_enabled:
        return main
    skip = ca_forward(x, store, f"{prefix}.ca", cfg, training)
    skip = _conv_bn(skip, store, f"{prefix}.pjs", training, padding=0)
    if skip.shape != main.shape:
        raise ContractError(
            f"skip path shape {skip.shape} diverged from main path {main.shape}"
        )
    return main + skip


def build(arch: ArchConfig, rng_seed: int) -> ParameterStore:
    """Create a freshly initialized parameter store for `arch`.

    Conv weights use fan-in scaled normal init, biases start at zero, BN
    affine at one/zero. Deterministic: the same seed gives a bit-identical
    store.
    """
    return _build(arch, np.random.default_rng(np.random.SeedSequence(rng_seed)))


class _NoDraw:
    """Stands in for the generator of `_build` when every weight is about
    to be overwritten: it hands out zeros and draws nothing."""

    @staticmethod
    def standard_normal(shape) -> np.ndarray:
        return np.zeros(shape, np.float32)


def _build(arch: ArchConfig, rng) -> ParameterStore:
    """The store layout of `arch`, every conv weight drawn from `rng`."""
    arch.validate()
    store = ParameterStore()
    store.arch = arch

    cin = IN_CHANNELS
    for k in range(arch.levels + 1):
        cout = arch.base_channels * (2 ** k)
        init_rica(store, f"enc{k}.rica", cin, cout, arch.ca, rng, arch.ca_enabled)
        cin = cout

    for k in reversed(range(arch.levels)):
        c_up = arch.base_channels * (2 ** (k + 1))
        c_skip = arch.base_channels * (2 ** k)
        if arch.ca_enabled:
            init_ca(store, f"dec{k}.ca", c_up, arch.ca, rng)
        _init_conv_bn(store, f"dec{k}.c1", c_up + c_skip, c_skip, 3, rng)
        _init_conv_bn(store, f"dec{k}.c2", c_skip, c_skip, 3, rng)

    store.add_param("head.conv.weight",
                    kaiming_conv(rng, NUM_CLASSES, arch.base_channels, 1, 1))
    store.add_param("head.conv.bias", np.zeros(NUM_CLASSES, np.float32))
    return store


def forward(store: ParameterStore, batch: Tensor, training: bool = False) -> Tensor:
    """Run the network; returns logits spatially aligned with the input."""
    arch: ArchConfig = store.arch
    if arch is None:
        raise ConfigError("parameter store has no attached ArchConfig")
    if batch.ndim != 4:
        raise DimensionError(f"batch must be 4D (N,C,H,W), got shape {batch.shape}")
    n, c, h, w = batch.shape
    if c != IN_CHANNELS:
        raise DimensionError(f"batch has {c} channels, expected {IN_CHANNELS}")
    required = 2 ** arch.levels
    if h % required or w % required:
        raise DimensionError(
            f"spatial extents must be multiples of {required}, got {h}x{w}"
        )

    skips = []
    x = batch
    for k in range(arch.levels + 1):
        x = rica_forward(x, store, f"enc{k}.rica", arch.ca, training, arch.ca_enabled)
        if k < arch.levels:
            skips.append(x)
            x = maxpool2(x)

    for k in reversed(range(arch.levels)):
        x = upsample_bilinear2(x)
        if arch.ca_enabled:
            x = ca_forward(x, store, f"dec{k}.ca", arch.ca, training)
        x = concat_channels(x, skips.pop())
        x = relu(_conv_bn(x, store, f"dec{k}.c1", training))
        x = relu(_conv_bn(x, store, f"dec{k}.c2", training))

    return conv2d(x, store.param("head.conv.weight"), store.param("head.conv.bias"))


def load_model(path, arch: ArchConfig) -> tuple[ParameterStore, dict[str, np.ndarray]]:
    """Rebuild a store for `arch` and fill it from a checkpoint file.

    The layout comes from `build`'s declaration, but no weight is drawn:
    every entry is overwritten by the checkpoint's. Returns the store plus
    any extra entries (optimizer state etc.) the checkpoint carried.
    """
    entries = load_checkpoint(path)
    store = _build(arch, _NoDraw())
    store.load_entries(entries, path)
    known = set(store.state_entries())
    extra = {k: v for k, v in entries.items() if k not in known}
    return store, extra
