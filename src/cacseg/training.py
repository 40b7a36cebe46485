"""Adam, warmup + cosine-annealing warm-restart schedule, training loop.

All randomness in a run flows from one seed: shuffling uses the stream
(seed, 0, epoch) and per-sample augmentation (seed, 1, epoch, index), so
a run resumed from its last checkpoint continues bit-exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import data as D
from .errors import ConfigError, ContractError, DimensionError, NumericError
from .evaluation import dice_global
from .losses import LossConfig, loss_by_variant
from .network import ArchConfig, build, forward, load_model
from .params import ParameterStore, save_checkpoint, take_entry, write_atomic
from .tensor import Tensor, no_grad

METRICS_NAME = "metrics.tsv"
METRICS_HEADER = "\t".join(("epoch", "lr", "train_loss", *(f"dice_{v}" for v in D.VESSELS)))
BEST_CHECKPOINT = "best.rckp"
LAST_CHECKPOINT = "last.rckp"

_SHUFFLE_TAG = 0
_AUGMENT_TAG = 1


@dataclass
class TrainConfig:
    epochs: int = 100
    batch_size: int = 16
    init_lr: float = 1e-12
    max_lr: float = 1e-4
    first_restart_epochs: int = 50
    warmup_epochs: int = 5
    restart_lr_scale: float = 0.5
    restart_period_multiplier: float = 1.0
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0

    def validate(self) -> None:
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")
        if not 0.0 < self.init_lr <= self.max_lr:
            raise ConfigError(
                f"need 0 < init_lr <= max_lr, got {self.init_lr} and {self.max_lr}"
            )
        # adam_step takes the step size as a float32
        largest = float(np.finfo(np.float32).max)
        if self.max_lr > largest:
            raise ConfigError(
                f"max_lr must be <= {largest:.4e} (float32's largest value), got {self.max_lr}"
            )
        if not 0 <= self.warmup_epochs < self.first_restart_epochs:
            raise ConfigError(
                f"warmup_epochs {self.warmup_epochs} must be < "
                f"first_restart_epochs {self.first_restart_epochs}"
            )
        if not 0.0 < self.restart_lr_scale <= 1.0:
            raise ConfigError("restart_lr_scale must be in (0,1]")
        if self.restart_period_multiplier < 1.0:
            raise ConfigError("restart_period_multiplier must be >= 1")
        for name in ("adam_beta1", "adam_beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must be in [0,1), got {getattr(self, name)}")
        if self.adam_eps <= 0.0:
            raise ConfigError(f"adam_eps must be > 0, got {self.adam_eps}")


def lr_at(epoch_fraction: float, cfg: TrainConfig) -> float:
    """Learning rate at a (possibly fractional) epoch position.

    Cycle k peaks at max_lr * restart_lr_scale^k. The first
    `warmup_epochs` of every cycle interpolate linearly from init_lr to
    the peak; the remainder decays along a cosine back to init_lr.
    Cycle lengths stay constant unless restart_period_multiplier > 1.
    """
    if epoch_fraction < 0:
        raise ContractError(f"epoch_fraction must be >= 0, got {epoch_fraction}")
    t = float(epoch_fraction)
    cycle = 0
    length = float(cfg.first_restart_epochs)
    while t >= length:
        t -= length
        cycle += 1
        length = cfg.first_restart_epochs * cfg.restart_period_multiplier ** cycle
    peak = cfg.max_lr * cfg.restart_lr_scale ** cycle
    if t < cfg.warmup_epochs:
        return cfg.init_lr + (peak - cfg.init_lr) * (t / cfg.warmup_epochs)
    frac = (t - cfg.warmup_epochs) / (length - cfg.warmup_epochs)
    if frac == 0.0:
        return peak
    return cfg.init_lr + 0.5 * (peak - cfg.init_lr) * (1.0 + math.cos(math.pi * frac))


@dataclass
class AdamState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step: int = 0


def adam_init(store: ParameterStore) -> AdamState:
    state = AdamState()
    for name, t in store.items():
        state.m[name] = np.zeros_like(t.data)
        state.v[name] = np.zeros_like(t.data)
    return state


def adam_step(store: ParameterStore, state: AdamState, lr: float,
              cfg: TrainConfig) -> None:
    """One bias-corrected Adam update over every trainable parameter.

    Raises NumericError naming the first parameter the update leaves
    non-finite, so no checkpoint of a diverged step is written."""
    state.step += 1
    t = state.step
    b1, b2, eps = cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    for name, p in store.items():
        g = p.grad
        if g is None:
            raise ContractError(f"missing gradient for parameter {name}")
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        update = (m / c1) / (np.sqrt(v / c2) + eps)
        p.data -= np.float32(lr) * update
        if not np.isfinite(p.data).all():
            raise NumericError(
                f"Adam step {t} at lr {lr:.3e} left parameter {name} non-finite")


# -- batching -----------------------------------------------------------


def _epoch_rng(seed: int, tag: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(tag, *key)))


def _batches(n: int, batch_size: int, perm: np.ndarray):
    if n >= batch_size:
        usable = (n // batch_size) * batch_size
        for start in range(0, usable, batch_size):
            yield perm[start:start + batch_size]
    else:
        yield perm


def _assemble(samples) -> tuple[Tensor, np.ndarray]:
    first = samples[0]
    odd = next((s for s in samples if s.image.shape != first.image.shape), None)
    if odd is not None:
        raise DimensionError(
            f"a training batch needs one slice size: {odd.slice_id} is "
            f"{odd.image.shape[1:]}, {first.slice_id} is {first.image.shape[1:]}"
        )
    images = np.stack([D.preprocess(s) for s in samples])
    targets = np.stack([s.mask for s in samples]).astype(np.int64, copy=False)
    return Tensor(images), targets


def predict(store: ParameterStore, dataset: D.Dataset, batch_size: int,
            count: int | None = None):
    """Eval-mode logits (C,H,W) and sample of each of the first `count`
    slices (all when None), forwarded up to `batch_size` at a time.

    A batch ends early where the slice size changes. A slice's logits do
    not depend on the batch it ran in.
    """
    samples = map(dataset.sample, range(len(dataset) if count is None else count))
    for _, run in itertools.groupby(samples, key=lambda s: s.image.shape):
        while batch := list(itertools.islice(run, batch_size)):
            with no_grad():
                logits = forward(store, Tensor(np.stack([D.preprocess(s) for s in batch])),
                                 training=False)
            yield from zip(logits.data, batch)


def evaluate_dice(store: ParameterStore, dataset: D.Dataset,
                  batch_size: int = 16) -> np.ndarray:
    """Eval-mode per-class Dice over a dataset, global counts."""
    return dice_global((logits.argmax(axis=0), s.mask)
                       for logits, s in predict(store, dataset, batch_size))


@dataclass
class TrainResult:
    metrics_path: Path
    best_checkpoint: Path
    last_checkpoint: Path
    best_epoch: int
    best_score: float
    rows: list


def _write_metrics(path, rows) -> None:
    lines = [METRICS_HEADER]
    lines += ["\t".join([str(epoch)] + [repr(v) for v in values])
              for epoch, *values in rows]
    write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))


def _save_training_state(path, store: ParameterStore, state: AdamState,
                         next_epoch: int, best_score: float,
                         best_epoch: int) -> None:
    entries = store.state_entries()
    for name, arr in state.m.items():
        entries[f"opt.m.{name}"] = arr
    for name, arr in state.v.items():
        entries[f"opt.v.{name}"] = arr
    entries["opt.step"] = np.array([state.step], dtype=np.float32)
    entries["opt.epoch"] = np.array([next_epoch], dtype=np.float32)
    entries["opt.best_score"] = np.array([best_score], dtype=np.float32)
    entries["opt.best_epoch"] = np.array([best_epoch], dtype=np.float32)
    save_checkpoint(path, entries)


def _restore_training_state(path, arch: ArchConfig):
    def error(what):
        return ConfigError(f"checkpoint {path} lacks optimizer entry {what}")
    store, extra = load_model(path, arch)

    def whole_number(key):
        value = take_entry(extra, f"opt.{key}", np.zeros(1), error).item()
        if not value.is_integer() or value < 0:
            raise error(f"opt.{key} holding a whole number >= 0 (it holds {value!r})")
        return int(value)
    state = AdamState()
    for name, t in store.items():
        state.m[name] = take_entry(extra, f"opt.m.{name}", t.data, error)
        state.v[name] = take_entry(extra, f"opt.v.{name}", t.data, error)
        if (state.v[name] < 0).any():
            raise error(f"opt.v.{name} with no negative value")
    state.step = whole_number("step")
    start_epoch = whole_number("epoch")
    best_score = take_entry(extra, "opt.best_score", np.zeros(1), error).item()
    return store, state, start_epoch, best_score, whole_number("best_epoch")


def train(arch: ArchConfig, train_ds: D.Dataset, val_ds: D.Dataset,
          loss_cfg: LossConfig, train_cfg: TrainConfig, out_dir,
          aug_cfg: D.AugmentConfig | None = None,
          resume_from=None) -> TrainResult:
    """Deterministic training loop with per-epoch validation.

    Writes metrics.tsv (epoch, lr, train loss, per-lesion validation
    Dice; every value in repr form, so it parses back to the exact
    float), the best-validation checkpoint (selected by mean lesion-class
    Dice), and a resumable last checkpoint carrying optimizer state.
    metrics.tsv and the last checkpoint are rewritten at the end of every
    epoch, so a run that stops early leaves the epochs it finished.
    metrics.tsv holds the epochs of this call only, also on resume.
    """
    train_cfg.validate()
    loss_cfg.validate()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    aug_cfg = aug_cfg if aug_cfg is not None else D.AugmentConfig()

    if resume_from is not None:
        store, state, start_epoch, best_score, best_epoch = \
            _restore_training_state(resume_from, arch)
    else:
        store = build(arch, rng_seed=train_cfg.seed)
        state = adam_init(store)
        start_epoch = 0
        best_score = -1.0
        best_epoch = -1

    loss_fn = loss_by_variant(loss_cfg)
    n = len(train_ds)
    rows = []
    metrics_path = out / METRICS_NAME
    _write_metrics(metrics_path, rows)

    for epoch in range(start_epoch, train_cfg.epochs):
        lr = lr_at(epoch, train_cfg)
        perm = _epoch_rng(train_cfg.seed, _SHUFFLE_TAG, epoch).permutation(n)
        loss_sum = 0.0
        batches = 0
        for batch_idx in _batches(n, train_cfg.batch_size, perm):
            samples = []
            for i in batch_idx:
                s = train_ds.sample(int(i))
                if aug_cfg.enabled:
                    rng = _epoch_rng(train_cfg.seed, _AUGMENT_TAG, epoch, int(i))
                    s = D.augment(s, rng, aug_cfg)
                samples.append(s)
            x, targets = _assemble(samples)
            # drop the previous step's grads first, so the forward peak does not hold them
            store.zero_grads()
            logits = forward(store, x, training=True)
            loss = loss_fn(logits, targets)
            val = loss.item()
            if not math.isfinite(val):
                raise NumericError(
                    f"non-finite loss at epoch {epoch}, batch {batches}, lr {lr:.3e}"
                )
            loss.backward()
            adam_step(store, state, lr, train_cfg)
            loss_sum += val
            batches += 1
        mean_loss = loss_sum / max(batches, 1)

        dice = evaluate_dice(store, val_ds, train_cfg.batch_size)
        lesion = dice[list(D.LESION_CLASSES)]
        rows.append((epoch, lr, mean_loss, *lesion.tolist()))
        score = float(lesion.mean())
        if score > best_score:
            best_score = score
            best_epoch = epoch
            save_checkpoint(out / BEST_CHECKPOINT, store.state_entries())
        _save_training_state(out / LAST_CHECKPOINT, store, state, epoch + 1,
                             best_score, best_epoch)
        _write_metrics(metrics_path, rows)

    return TrainResult(metrics_path=metrics_path,
                       best_checkpoint=out / BEST_CHECKPOINT,
                       last_checkpoint=out / LAST_CHECKPOINT,
                       best_epoch=best_epoch, best_score=best_score, rows=rows)
