"""The benchmark's workloads: set-up, one timed round, output checks.

A workload's `setup(root)` builds everything the timed phase needs under
`root` and ends with one untimed warm-up round. `round()` runs the main
path once and returns the slices it completed. `checks()` compares the
program's outputs with the independent computations in `oracles` and
returns one (name, fault) pair per check; an empty fault means it held.

Every program function is reached through its module attribute
(`training.train`, `data.generate_phantom`, ...), so the traced run sees
the same calls the untraced run makes.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from cacseg import cli, config, data, evaluation, network, tensor, training

import oracles

HU_CAC = (130.0, 800.0)
# Lesion pixel ranges of configs/desk64-phantom.cfg, for 64x64 slices.
DESK64_PX = {"lm": (5, 14), "lad": (10, 40), "lcx": (10, 40), "rca": (12, 45)}
LESION_RATES = {"lm": 0.013, "lad": 0.06, "lcx": 0.045, "rca": 0.074}

# configs/desk64-train.cfg, restated so that an edit to the config file
# does not silently change the benchmark.
DESK64_TRAIN = ("arch.levels=2", "arch.base_channels=8", "arch.ca_enabled=true",
                "loss.variant=FocalLogDice", "loss.class_weights=auto",
                "train.batch_size=16", "train.init_lr=1e-12", "train.max_lr=2e-3",
                "train.first_restart_epochs=8", "train.warmup_epochs=1",
                "data.augment=true", "data.crop_sizes=48,56")
DEEP128_TRAIN = DESK64_TRAIN + ("arch.levels=4", "arch.base_channels=16",
                                "train.batch_size=4", "data.augment=false")

# infer-desk64 scores exported masks at this pixel area, so components of
# one pixel fall under the 1 mm² minimum and are dropped.
PIXEL_AREA_MM2 = 0.5
# The checkpoint infer-desk64 serves is trained on a fixed phantom set,
# whatever --seed is: only the test slices vary with the seed. The recipe
# (36 unweighted-CE steps at batch 4) is the cheapest tried that leaves a
# net labelling most pixels background with a few lesion components per
# slice; the desk64 recipe at this length still labels most pixels LCX.
CHECKPOINT_SEED = 1_000_000
CHECKPOINT_SLICES = 24
CHECKPOINT_VAL_SLICES = 4
CHECKPOINT_EPOCHS = 6
CHECKPOINT_KEYS = ("arch.levels=2", "arch.base_channels=8", "loss.variant=CE",
                   "train.batch_size=4", "train.max_lr=1e-2", "train.warmup_epochs=0",
                   f"train.first_restart_epochs={CHECKPOINT_EPOCHS}",
                   f"train.epochs={CHECKPOINT_EPOCHS}", "data.augment=false")


def _config(*overrides: str) -> config.Config:
    return config.load_config(None, list(overrides))


def synth(root: Path, seed: int, slices: int, size: int, scale: int = 1) -> data.Dataset:
    """Phantom set with the desk64 lesion rates; lesion areas scale with `scale`."""
    keys = [f"data.phantom.size={size}", f"data.phantom.slices={slices}",
            f"data.phantom.seed={seed}"]
    keys += [f"data.phantom.p_{k}={p}" for k, p in LESION_RATES.items()]
    keys += [f"data.phantom.px_{k}={lo * scale},{hi * scale}"
             for k, (lo, hi) in DESK64_PX.items()]
    data.generate_phantom(_config(*keys).phantom(), root)
    return data.Dataset(root)


def _dataset_checks(tag: str, ds: data.Dataset) -> list[tuple[str, str]]:
    faults = oracles.dataset_faults(ds.root, HU_CAC)
    return [(f"{tag}.manifest.{i}", f) for i, f in enumerate(faults)]


def _eval_argmax(store, ds: data.Dataset, batch: int) -> np.ndarray:
    """Eval-mode predictions of every slice, forwarded `batch` at a time."""
    preds = []
    for start in range(0, len(ds), batch):
        images = [data.preprocess(ds.sample(i))
                  for i in range(start, min(start + batch, len(ds)))]
        with tensor.no_grad():
            logits = network.forward(store, tensor.Tensor(np.stack(images)), training=False)
        preds.append(logits.data.argmax(axis=1))
    return np.concatenate(preds)


class TrainWorkload:
    """`training.train`, one epoch per round, resumed from the last checkpoint.

    A round is what a user waits for per epoch: checkpoint load, the
    epoch's steps, validation, checkpoint writes and the metrics log.
    """

    def __init__(self, seed: int, train_keys: tuple, size: int, scale: int,
                 n_train: int, n_val: int):
        self.seed = seed
        self.train_keys = train_keys + (f"train.seed={seed}",)
        self.size, self.scale = size, scale
        self.n_train, self.n_val = n_train, n_val

    def setup(self, root: Path) -> None:
        self.train_ds = synth(root / "train", 2 * self.seed, self.n_train,
                              self.size, self.scale)
        self.val_ds = synth(root / "val", 2 * self.seed + 1, self.n_val,
                            self.size, self.scale)
        cfg = _config(*self.train_keys)
        self.arch = cfg.arch()
        self.loss_cfg = cfg.loss(pixel_counts=self.train_ds.pixel_counts())
        self.train_cfg = cfg.train()
        self.aug_cfg = cfg.augment()
        self.out = root / "run"
        self.rows: list[dict] = []
        self.round()  # warm-up: epoch 0 from a freshly built model

    def round(self) -> int:
        resume = self.out / training.LAST_CHECKPOINT if self.rows else None
        cfg = replace(self.train_cfg, epochs=len(self.rows) + 1)
        self.result = training.train(self.arch, self.train_ds, self.val_ds,
                                     self.loss_cfg, cfg, self.out,
                                     aug_cfg=self.aug_cfg, resume_from=resume)
        self.rows += oracles.read_tsv(self.result.metrics_path)
        batch = self.train_cfg.batch_size
        return (self.n_train // batch) * batch if self.n_train >= batch else self.n_train

    def checks(self) -> list[tuple[str, str]]:
        out = _dataset_checks("train", self.train_ds) + _dataset_checks("val", self.val_ds)
        c = self.train_cfg
        for i, row in enumerate(self.rows):
            want = oracles.lr_schedule(i, c.init_lr, c.max_lr, c.first_restart_epochs,
                                       c.warmup_epochs, c.restart_lr_scale)
            got = float(row["lr"])
            out.append((f"lr.{i}", "" if int(row["epoch"]) == i and got == want
                        else f"epoch {row['epoch']} logged lr {got!r}, schedule {want!r}"))
            loss = float(row["train_loss"])
            out.append((f"loss.{i}", "" if math.isfinite(loss) else f"loss {loss!r}"))

        best = self.result.best_epoch
        store, _ = network.load_model(self.result.best_checkpoint, self.arch)
        pred = _eval_argmax(store, self.val_ds, c.batch_size)
        true = np.stack([oracles.read_tns(self.val_ds.root / r[1]) for r in self.val_ds.rows])
        want = oracles.lesion_dice(pred, true)
        got = [float(self.rows[best][f"dice_{n}"]) for _, n in oracles.LESIONS]
        out.append(("best.dice", "" if got == want
                    else f"epoch {best} logged lesion Dice {got}, best.rckp gives {want}"))
        return out


class InferWorkload:
    """`cacseg infer` over a test set, then a calcium score per exported mask."""

    def __init__(self, seed: int, n_test: int):
        self.seed = seed
        self.n_test = n_test

    def setup(self, root: Path) -> None:
        fit_ds = synth(root / "fit", CHECKPOINT_SEED, CHECKPOINT_SLICES, 64)
        fit_val = synth(root / "fit-val", CHECKPOINT_SEED + 1, CHECKPOINT_VAL_SLICES, 64)
        self.test_ds = synth(root / "test", 2 * self.seed, self.n_test, 64)
        cfg = _config(*CHECKPOINT_KEYS)
        self.arch = cfg.arch()
        fit = training.train(self.arch, fit_ds, fit_val,
                             cfg.loss(pixel_counts=fit_ds.pixel_counts()),
                             cfg.train(), root / "fit-run", aug_cfg=cfg.augment())
        self.checkpoint = fit.last_checkpoint
        self.out = root / "predictions"
        self.argv = ["infer", "--out", str(self.out),
                     "--set", "arch.levels=2", "--set", "arch.base_channels=8",
                     "--set", f"infer.checkpoint={self.checkpoint}",
                     "--set", f"infer.input_dir={self.test_ds.root}"]
        self.round()  # warm-up

    def round(self) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(self.argv)
        if code != 0:
            raise RuntimeError(f"cacseg infer exited with {code}")
        scores = []
        for i in range(len(self.test_ds)):
            s = self.test_ds.sample(i)
            mask = tensor.load_tns(self.out / f"{s.slice_id}.tns")
            scores.append(evaluation.agatston_per_lesion(mask, s.image, PIXEL_AREA_MM2).scores)
        self.scores = scores
        return len(self.test_ds)

    def checks(self) -> list[tuple[str, str]]:
        out = _dataset_checks("test", self.test_ds)
        store, _ = network.load_model(self.checkpoint, self.arch)
        batched = _eval_argmax(store, self.test_ds, 16)
        for i, (img_rel, _, _) in enumerate(self.test_ds.rows):
            stem = self.out / Path(img_rel).stem
            mask = oracles.read_tns(stem.with_suffix(".tns"))
            hu = oracles.read_tns(self.test_ds.root / img_rel)[0]
            want = oracles.calcium_scores(mask, hu, PIXEL_AREA_MM2)
            out.append((f"score.{i}", "" if self.scores[i] == want
                        else f"slice {i}: scores {self.scores[i]}, oracle {want}"))
            diff = int((mask != batched[i]).sum())
            out.append((f"batch.{i}", "" if diff == 0
                        else f"slice {i}: {diff} pixels differ from the batched forward"))
            shape = oracles.read_ppm(stem.with_suffix(".ppm")).shape
            out.append((f"overlay.{i}", "" if shape == mask.shape + (3,)
                        else f"slice {i}: overlay shape {shape}"))
        return out


def make(name: str, seed: int):
    """The workload called `name`, with its inputs drawn from `seed`."""
    if name == "train-desk64":
        return TrainWorkload(seed, DESK64_TRAIN, size=64, scale=1, n_train=64, n_val=32)
    if name == "train-deep128":
        return TrainWorkload(seed, DEEP128_TRAIN, size=128, scale=4, n_train=8, n_val=4)
    if name == "infer-desk64":
        return InferWorkload(seed, n_test=64)
    raise KeyError(name)
