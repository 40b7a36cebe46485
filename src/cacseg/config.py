"""Flat `key = value` configuration with namespaced keys.

Each field of the kit's config dataclasses is one key, `<section>.<field>`
unless renamed, whose kind and default are the field's default; only the
keys with no such field are declared here. Unknown keys are rejected with
the full valid-key list. Command-line overrides (`--set key=value`) take
precedence over file values, which take precedence over defaults. Every
CLI run dumps the resolved configuration so results can be reproduced
bit-exactly from it.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from .attention import ACTIVATIONS, CAConfig
from .data import NUM_CLASSES, AugmentConfig, PhantomSpec
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
    cls: type | None = None      # the dataclass whose `field` this key fills
    field: str = ""


_CHOICES = {"loss.variant": VARIANTS, "arch.ca_activation": ACTIVATIONS}


def _kind(value) -> str:
    if isinstance(value, tuple):
        return "ints" if all(isinstance(v, int) for v in value) else "floats"
    return {bool: "bool", int: "int", float: "float", str: "str"}[type(value)]


def _section(prefix: str, cls, **renames: str) -> dict[str, _Key]:
    """A key `prefix + field` (or `renames[field]`) per field of `cls` with a
    plain default; fields built by a factory are filled by their builder."""
    keys = {}
    for f in fields(cls):
        if f.default is not MISSING:
            key = renames.get(f.name, prefix + f.name)
            keys[key] = _Key(_kind(f.default), f.default, _CHOICES.get(key, ()), cls, f.name)
    return keys


_PHANTOM = PhantomSpec()

_REGISTRY: dict[str, _Key] = {
    **_section("arch.", ArchConfig),
    **_section("arch.ca_", CAConfig, reduction_ratio="arch.ca_reduction",
               min_mid_channels="arch.ca_min_mid"),
    **_section("loss.", LossConfig),
    "loss.class_weights": _Key("str", "auto"),   # "auto" or 6 comma-separated reals
    **_section("train.", TrainConfig),
    "train.resume": _Key("str", ""),
    "data.train_dir": _Key("str", ""),
    "data.val_dir": _Key("str", ""),
    "data.test_dir": _Key("str", ""),
    **_section("data.", AugmentConfig, enabled="data.augment", prob="data.aug_prob",
               crop_sides="data.crop_sizes"),
    **_section("data.phantom.", PhantomSpec, rng_seed="data.phantom.seed"),
    # one lesion rate and pixel-count range per vessel, PhantomSpec's dicts
    **{f"data.phantom.p_{v}": _Key("float", p) for v, p in _PHANTOM.p_lesion.items()},
    **{f"data.phantom.px_{v}": _Key("ints", r) for v, r in _PHANTOM.px_range.items()},
    "eval.checkpoint": _Key("str", ""),
    "eval.per_slice": _Key("bool", False),
    "infer.checkpoint": _Key("str", ""),
    "infer.input_dir": _Key("str", ""),
    "infer.limit": _Key("int", 0),            # 0 = all slices
    "score.image": _Key("str", ""),
    "score.mask": _Key("str", ""),
    "score.pixel_area_mm2": _Key("float", 1.0),
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
        if spec.kind in ("floats", "ints"):
            items = raw.split(",") if raw else []
            if any(not x.strip() for x in items):
                raise ConfigError(f"{key} = {raw!r} has an empty list item")
            parse = float if spec.kind == "floats" else int
            return tuple(parse(x) for x in items)
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

    def _fields(self, cls) -> dict:
        return {spec.field: self._values[k] for k, spec in _REGISTRY.items()
                if spec.cls is cls}

    def _build(self, cls, **given):
        """A validated `cls` from its keys' values plus `given` fields."""
        cfg = cls(**self._fields(cls), **given)
        cfg.validate()
        return cfg

    def arch(self) -> ArchConfig:
        return self._build(ArchConfig, ca=CAConfig(**self._fields(CAConfig)))

    def loss(self, pixel_counts=None) -> LossConfig:
        raw = self["loss.class_weights"]
        if raw == "auto":
            if pixel_counts is None:
                weights = np.ones(NUM_CLASSES)
            else:
                weights = class_weights_from_counts(pixel_counts)
        else:
            try:
                weights = np.array([float(x) for x in raw.split(",")])
            except ValueError:
                raise ConfigError(
                    f"loss.class_weights must be 'auto' or comma-separated reals, got {raw!r}"
                ) from None
            if len(weights) != NUM_CLASSES:
                raise ConfigError(
                    f"loss.class_weights needs {NUM_CLASSES} entries, got {len(weights)}")
        return self._build(LossConfig, class_weights=weights)

    def record_loss(self, resolved: LossConfig) -> None:
        """Freeze the class weights and focal gamma a run trains with into
        the resolved config: computed 'auto' weights, and CE's unit
        weights and gamma 0."""
        self._values["loss.class_weights"] = ",".join(
            repr(float(w)) for w in resolved.class_weights)
        self._values["loss.focal_gamma"] = float(resolved.focal_gamma)

    def train(self) -> TrainConfig:
        return self._build(TrainConfig)

    def augment(self) -> AugmentConfig:
        return self._build(AugmentConfig)

    def phantom(self) -> PhantomSpec:
        return self._build(
            PhantomSpec,
            p_lesion={v: self[f"data.phantom.p_{v}"] for v in _PHANTOM.p_lesion},
            px_range={v: self[f"data.phantom.px_{v}"] for v in _PHANTOM.px_range})


def load_config(path=None, overrides=()) -> Config:
    cfg = Config()
    if path is not None:
        cfg.load_file(path)
    cfg.apply_overrides(overrides)
    return cfg
