"""Flat `key = value` configuration with namespaced keys.

One registry declares every valid key with its type and default; unknown
keys are rejected with the full valid-key list. Command-line overrides
(`--set key=value`) take precedence over file values, which take
precedence over defaults. Every CLI run dumps the resolved configuration
so results can be reproduced bit-exactly from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .attention import CAConfig
from .data import AugmentConfig, PhantomSpec
from .errors import ConfigError
from .losses import VARIANTS, LossConfig, class_weights_from_counts
from .network import ArchConfig
from .params import write_atomic
from .training import TrainConfig

RESOLVED_NAME = "resolved.cfg"


@dataclass(frozen=True)
class _Key:
    kind: str            # int | float | bool | str | floats | ints
    default: object
    choices: tuple = ()


_REGISTRY: dict[str, _Key] = {
    # architecture
    "arch.levels": _Key("int", 4),
    "arch.base_channels": _Key("int", 64),
    "arch.in_channels": _Key("int", 1),
    "arch.num_classes": _Key("int", 6),
    "arch.ca_enabled": _Key("bool", True),
    "arch.ca_reduction": _Key("int", 32),
    "arch.ca_min_mid": _Key("int", 8),
    "arch.ca_activation": _Key("str", "relu", ("relu", "hardswish")),
    # loss
    "loss.variant": _Key("str", "FocalLogDice", VARIANTS),
    "loss.w_focal": _Key("float", 0.4),
    "loss.w_dice": _Key("float", 0.6),
    "loss.focal_gamma": _Key("float", 2.0),
    "loss.dice_gamma": _Key("float", 0.3),
    "loss.smooth_eps": _Key("float", 1e-5),
    "loss.class_weights": _Key("str", "auto"),   # "auto" or 6 comma-separated reals
    # training
    "train.epochs": _Key("int", 100),
    "train.batch_size": _Key("int", 16),
    "train.init_lr": _Key("float", 1e-12),
    "train.max_lr": _Key("float", 1e-4),
    "train.first_restart_epochs": _Key("int", 50),
    "train.warmup_epochs": _Key("int", 5),
    "train.restart_lr_scale": _Key("float", 0.5),
    "train.restart_period_multiplier": _Key("float", 1.0),
    "train.adam_beta1": _Key("float", 0.9),
    "train.adam_beta2": _Key("float", 0.999),
    "train.adam_eps": _Key("float", 1e-8),
    "train.seed": _Key("int", 0),
    "train.resume": _Key("str", ""),
    # data locations
    "data.train_dir": _Key("str", ""),
    "data.val_dir": _Key("str", ""),
    "data.test_dir": _Key("str", ""),
    # augmentation
    "data.augment": _Key("bool", True),
    "data.aug_prob": _Key("float", 0.5),
    "data.rot_degrees": _Key("floats", (5.0, 10.0)),
    "data.crop_sizes": _Key("ints", (300, 400)),
    "data.blur_sigma": _Key("floats", (0.5, 1.0)),
    "data.noise_sigma": _Key("float", 0.01),
    "data.sp_rate": _Key("float", 0.002),
    # phantom generator
    "data.phantom.slices": _Key("int", 1000),
    "data.phantom.size": _Key("int", 512),
    "data.phantom.seed": _Key("int", 0),
    "data.phantom.p_lm": _Key("float", 0.013),
    "data.phantom.p_lad": _Key("float", 0.060),
    "data.phantom.p_lcx": _Key("float", 0.045),
    "data.phantom.p_rca": _Key("float", 0.074),
    "data.phantom.px_lm": _Key("ints", (5, 60)),
    "data.phantom.px_lad": _Key("ints", (15, 200)),
    "data.phantom.px_lcx": _Key("ints", (15, 200)),
    "data.phantom.px_rca": _Key("ints", (20, 300)),
    "data.phantom.hu_cac": _Key("floats", (130.0, 800.0)),
    "data.phantom.hu_bone": _Key("floats", (700.0, 1200.0)),
    "data.phantom.hu_background": _Key("float", 40.0),
    # evaluation / inference / scoring
    "eval.checkpoint": _Key("str", ""),
    "eval.per_slice": _Key("bool", False),
    "infer.checkpoint": _Key("str", ""),
    "infer.input_dir": _Key("str", ""),
    "infer.limit": _Key("int", 0),            # 0 = all slices
    "score.image": _Key("str", ""),
    "score.mask": _Key("str", ""),
    "score.pixel_area_mm2": _Key("float", 1.0),
    # gradient checking
    "gradcheck.seed": _Key("int", 0),
}


def _parse_value(key: str, spec: _Key, raw: str):
    raw = raw.strip()
    try:
        if spec.kind == "int":
            return int(raw)
        if spec.kind == "float":
            return float(raw)
        if spec.kind == "bool":
            low = raw.lower()
            if low in ("true", "1", "yes"):
                return True
            if low in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if spec.kind == "floats":
            return tuple(float(x) for x in raw.split(",") if x.strip())
        if spec.kind == "ints":
            return tuple(int(x) for x in raw.split(",") if x.strip())
        return raw
    except ValueError:
        raise ConfigError(f"cannot parse {key} = {raw!r} as {spec.kind}") from None


def _format_value(spec: _Key, value) -> str:
    if spec.kind == "bool":
        return "true" if value else "false"
    if spec.kind in ("floats", "ints"):
        return ",".join(repr(v) if spec.kind == "floats" else str(v) for v in value)
    if spec.kind == "float":
        return repr(float(value))
    return str(value)


class Config:
    """Resolved key -> value mapping over the registry."""

    def __init__(self):
        self._values = {k: spec.default for k, spec in _REGISTRY.items()}

    def __getitem__(self, key: str):
        try:
            return self._values[key]
        except KeyError:
            raise ConfigError(self._unknown_key_message(key)) from None

    def set(self, key: str, raw: str) -> None:
        if key not in _REGISTRY:
            raise ConfigError(self._unknown_key_message(key))
        spec = _REGISTRY[key]
        value = _parse_value(key, spec, raw)
        if spec.choices and value not in spec.choices:
            raise ConfigError(
                f"invalid value {value!r} for {key}; valid values: "
                + ", ".join(str(c) for c in spec.choices)
            )
        self._values[key] = value

    @staticmethod
    def _unknown_key_message(key: str) -> str:
        return (f"unknown config key {key!r}; valid keys:\n  "
                + "\n  ".join(sorted(_REGISTRY)))

    def load_file(self, path) -> None:
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file {p} does not exist")
        for lineno, line in enumerate(p.read_text(encoding="utf-8").splitlines(), 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{p}:{lineno}: expected 'key = value', got {line!r}")
            key, _, raw = stripped.partition("=")
            self.set(key.strip(), raw.strip())

    def apply_overrides(self, pairs) -> None:
        for pair in pairs:
            if "=" not in pair:
                raise ConfigError(f"--set expects key=value, got {pair!r}")
            key, _, raw = pair.partition("=")
            self.set(key.strip(), raw)

    def dump(self, path) -> None:
        lines = [f"{k} = {_format_value(_REGISTRY[k], self._values[k])}"
                 for k in sorted(_REGISTRY)]
        write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))

    # -- builders ---------------------------------------------------------

    def arch(self) -> ArchConfig:
        cfg = ArchConfig(
            levels=self["arch.levels"],
            base_channels=self["arch.base_channels"],
            in_channels=self["arch.in_channels"],
            num_classes=self["arch.num_classes"],
            ca_enabled=self["arch.ca_enabled"],
            ca=CAConfig(reduction_ratio=self["arch.ca_reduction"],
                        min_mid_channels=self["arch.ca_min_mid"],
                        activation=self["arch.ca_activation"]),
        )
        cfg.validate()
        return cfg

    def loss(self, pixel_counts=None) -> LossConfig:
        raw = self["loss.class_weights"]
        if raw == "auto":
            if pixel_counts is None:
                weights = np.ones(self["arch.num_classes"])
            else:
                weights = class_weights_from_counts(pixel_counts)
        else:
            try:
                weights = np.array([float(x) for x in raw.split(",")])
            except ValueError:
                raise ConfigError(
                    f"loss.class_weights must be 'auto' or comma-separated reals, got {raw!r}"
                ) from None
            if len(weights) != self["arch.num_classes"]:
                raise ConfigError(
                    f"loss.class_weights needs {self['arch.num_classes']} entries, got {len(weights)}"
                )
        cfg = LossConfig(
            variant=self["loss.variant"],
            w_focal=self["loss.w_focal"],
            w_dice=self["loss.w_dice"],
            focal_gamma=self["loss.focal_gamma"],
            dice_gamma=self["loss.dice_gamma"],
            smooth_eps=self["loss.smooth_eps"],
            class_weights=weights,
        )
        cfg.validate()
        return cfg

    def record_class_weights(self, weights) -> None:
        """Freeze computed 'auto' weights into the resolved config."""
        self._values["loss.class_weights"] = ",".join(repr(float(w)) for w in weights)

    def train(self) -> TrainConfig:
        cfg = TrainConfig(
            epochs=self["train.epochs"],
            batch_size=self["train.batch_size"],
            init_lr=self["train.init_lr"],
            max_lr=self["train.max_lr"],
            first_restart_epochs=self["train.first_restart_epochs"],
            warmup_epochs=self["train.warmup_epochs"],
            restart_lr_scale=self["train.restart_lr_scale"],
            restart_period_multiplier=self["train.restart_period_multiplier"],
            adam_beta1=self["train.adam_beta1"],
            adam_beta2=self["train.adam_beta2"],
            adam_eps=self["train.adam_eps"],
            seed=self["train.seed"],
        )
        cfg.validate()
        return cfg

    def augment(self) -> AugmentConfig:
        cfg = AugmentConfig(
            enabled=self["data.augment"],
            prob=self["data.aug_prob"],
            rot_degrees=self["data.rot_degrees"],
            crop_sides=self["data.crop_sizes"],
            blur_sigma=self["data.blur_sigma"],
            noise_sigma=self["data.noise_sigma"],
            sp_rate=self["data.sp_rate"],
        )
        cfg.validate()
        return cfg

    def phantom(self) -> PhantomSpec:
        spec = PhantomSpec(
            slices=self["data.phantom.slices"],
            size=self["data.phantom.size"],
            rng_seed=self["data.phantom.seed"],
            p_lesion={"lm": self["data.phantom.p_lm"],
                      "lad": self["data.phantom.p_lad"],
                      "lcx": self["data.phantom.p_lcx"],
                      "rca": self["data.phantom.p_rca"]},
            px_range={"lm": tuple(self["data.phantom.px_lm"]),
                      "lad": tuple(self["data.phantom.px_lad"]),
                      "lcx": tuple(self["data.phantom.px_lcx"]),
                      "rca": tuple(self["data.phantom.px_rca"])},
            hu_cac=tuple(self["data.phantom.hu_cac"]),
            hu_bone=tuple(self["data.phantom.hu_bone"]),
            hu_background=self["data.phantom.hu_background"],
        )
        spec.validate()
        return spec


def load_config(path=None, overrides=()) -> Config:
    cfg = Config()
    if path is not None:
        cfg.load_file(path)
    cfg.apply_overrides(overrides)
    return cfg
