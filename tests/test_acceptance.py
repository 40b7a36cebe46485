"""Acceptance criteria, one test per criterion, each printing a verdict line.

The two trend criteria (loss ablation and attention ablation) are not
implemented yet; ROADMAP direction 5 adds them. The overfit smoke test
(criterion 6) and the gradient table (criterion 1) take most of the
runtime.
"""

import time

import numpy as np
import pytest

from cacseg import data as D
from cacseg import gradcheck as G
from cacseg import losses as L
from cacseg import training as TR
from cacseg.attention import CAConfig, ca_forward, init_ca
from cacseg.evaluation import agatston_per_lesion, dice_per_class
from cacseg.network import ArchConfig, build, forward, load_model
from cacseg.params import ParameterStore, load_tns, save_checkpoint, save_tns
from cacseg.tensor import Tensor, softmax_channel


def verdict(criterion: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status} — {detail}")
    assert passed, f"{criterion}: {detail}"


# -- 1. gradient integrity ---------------------------------------------------


def test_criterion_1_gradient_integrity():
    t0 = time.perf_counter()
    results, _ = G.run_all(seed=0)
    elapsed = time.perf_counter() - t0
    worst = max(results, key=lambda r: r.max_rel / r.tol)
    ok = all(r.passed for r in results) and elapsed < 120.0
    verdict("1 gradient integrity", ok,
            f"{len(results)} checks, worst {worst.name} "
            f"rel {worst.max_rel:.2e} (tol {worst.tol:g}), {elapsed:.0f}s < 120s")


# -- 2. shape/range invariants ------------------------------------------------


def test_criterion_2_attention_shape_and_range():
    rng = np.random.default_rng(2)
    cfg = CAConfig(reduction_ratio=8, min_mid_channels=4)
    worst_margin = 1.0
    for draw in range(100):
        n = int(rng.integers(1, 3))
        c = int(rng.integers(1, 9))
        h = int(rng.integers(1, 13))
        w = int(rng.integers(1, 13))
        store = ParameterStore()
        init_ca(store, "ca", c, cfg, np.random.default_rng(1000 + draw))
        x = Tensor((rng.standard_normal((n, c, h, w)) * 3).astype(np.float32))
        gates = []

        def keep(a_h, a_w):
            gates.extend((a_h, a_w))
            return a_h, a_w

        y = ca_forward(x, store, "ca", cfg, training=(n * (h + w) >= 2),
                       attention_hook=keep)
        a_h, a_w = gates
        assert y.shape == x.shape
        assert a_h.shape == (n, c, h, 1)
        assert a_w.shape == (n, c, 1, w)
        for m in (a_h.data, a_w.data):
            assert (m > 0.0).all() and (m < 1.0).all()
            worst_margin = min(worst_margin, float(m.min()), float(1.0 - m.max()))
    logits = Tensor((np.random.default_rng(3).standard_normal((4, 6, 16, 16)) * 5)
                    .astype(np.float32))
    sums = softmax_channel(logits).data.sum(axis=1)
    softmax_err = float(np.abs(sums - 1.0).max())
    ok = softmax_err < 1e-6
    verdict("2 shape/range invariants", ok,
            f"100 attention draws in (0,1) (margin {worst_margin:.2e}), "
            f"softmax sum err {softmax_err:.2e} < 1e-6")


# -- 3. combo-loss arithmetic --------------------------------------------------


def test_criterion_3_combo_arithmetic():
    rng = np.random.default_rng(33)
    cfg = L.LossConfig()
    combo_fn = L.loss_by_variant(cfg)
    focal_fn = L.loss_by_variant(L.LossConfig(variant="Focal"))
    dice_fn = L.loss_by_variant(L.LossConfig(w_focal=0.0, w_dice=1.0))  # Dice-only preset
    exact = 0
    for _ in range(50):
        logits = Tensor(rng.standard_normal((2, 6, 6, 6)).astype(np.float32))
        target = rng.integers(0, 6, (2, 6, 6))
        combo = combo_fn(logits, target).item()
        f = focal_fn(logits, target)
        d = dice_fn(logits, target)
        exact += combo == (f * cfg.w_focal + d * cfg.w_dice).item()
    # CE reduction vs a textbook oracle, 64-bit path
    ce_err = 0.0
    for _ in range(10):
        logits64 = rng.standard_normal((2, 6, 5, 5))
        target = rng.integers(0, 6, (2, 5, 5))
        loss = L.loss_by_variant(L.LossConfig(variant="CE"))(Tensor(logits64), target)
        e = np.exp(logits64 - logits64.max(axis=1, keepdims=True))
        p = e / e.sum(axis=1, keepdims=True)
        pt = np.take_along_axis(p, target[:, None], axis=1)[:, 0]
        oracle = float(-np.log(np.clip(pt, cfg.smooth_eps, 1.0)).mean())
        ce_err = max(ce_err, abs(loss.item() - oracle))
    ok = exact == 50 and ce_err < 1e-9
    verdict("3 combo-loss arithmetic", ok,
            f"{exact}/50 batches exactly 0.4*focal + 0.6*logdice, "
            f"CE vs textbook max err {ce_err:.2e} < 1e-9")


# -- 4. scheduler trace ---------------------------------------------------------


def test_criterion_4_scheduler_trace(tmp_path):
    sched = TR.TrainConfig()
    pins = (TR.lr_at(0.0, sched) == 1e-12,
            TR.lr_at(5.0, sched) == 1e-4,
            TR.lr_at(55.0, sched) == 5e-5)

    spec = D.PhantomSpec(slices=8, size=16, rng_seed=4,
                         p_lesion={"lm": 1.0, "lad": 1.0, "lcx": 1.0, "rca": 1.0},
                         px_range={"lm": (5, 6), "lad": (5, 8),
                                   "lcx": (5, 8), "rca": (5, 8)})
    D.generate_phantom(spec, tmp_path)
    ds = D.Dataset(tmp_path)
    arch = ArchConfig(levels=2, base_channels=2,
                      ca=CAConfig(reduction_ratio=4, min_mid_channels=2))
    cfg = TR.TrainConfig(epochs=100, batch_size=8, seed=4)
    result = TR.train(arch, ds, ds, L.LossConfig(), cfg, tmp_path / "run",
                      aug_cfg=D.AugmentConfig(enabled=False))
    rows = result.metrics_path.read_text().splitlines()[1:]
    matches = sum(float(row.split("\t")[1]) == TR.lr_at(int(row.split("\t")[0]), cfg)
                  for row in rows)
    ok = all(pins) and matches == 100
    verdict("4 scheduler trace", ok,
            f"pins (1e-12, 1e-4, 5e-5) {'hit' if all(pins) else 'MISSED'}, "
            f"logged lr matches lr_at on {matches}/100 epochs")


# -- 5. dice oracle --------------------------------------------------------------


def brute_force(pred, true):
    out = np.zeros(6)
    for c in range(6):
        p = int((pred == c).sum())
        t = int((true == c).sum())
        i = int(((pred == c) & (true == c)).sum())
        out[c] = 1.0 if p + t == 0 else 2.0 * i / (p + t)
    return out


def test_criterion_5_dice_oracle():
    rng = np.random.default_rng(5)
    agree = 0
    for _ in range(1000):
        pred = rng.integers(0, 6, (8, 8))
        true = rng.integers(0, 6, (8, 8))
        if np.array_equal(dice_per_class(pred, true).dice, brute_force(pred, true)):
            agree += 1
    verdict("5 dice oracle", agree == 1000,
            f"exact agreement with brute-force counting on {agree}/1000 mask pairs")


# -- 6. overfit smoke test --------------------------------------------------------


OVERFIT_SPEC = dict(slices=8, size=64, rng_seed=1,
                    p_lesion={"lm": 1.0, "lad": 1.0, "lcx": 1.0, "rca": 1.0},
                    px_range={"lm": (5, 14), "lad": (10, 40),
                              "lcx": (10, 40), "rca": (12, 45)})


def test_criterion_6_overfit_smoke(tmp_path):
    t0 = time.perf_counter()
    D.generate_phantom(D.PhantomSpec(**OVERFIT_SPEC), tmp_path)
    ds = D.Dataset(tmp_path)
    arch = ArchConfig(levels=2, base_channels=8)
    cfg = TR.TrainConfig(epochs=300, batch_size=8, max_lr=3e-3,
                         first_restart_epochs=300, warmup_epochs=5, seed=0)
    loss_cfg = L.LossConfig(
        class_weights=L.class_weights_from_counts(ds.pixel_counts()))
    result = TR.train(arch, ds, ds, loss_cfg, cfg, tmp_path / "run",
                      aug_cfg=D.AugmentConfig(enabled=False))
    store, _ = load_model(result.last_checkpoint, arch)
    dice = TR.evaluate_dice(store, ds, batch_size=8)
    fg = float(dice[2:6].mean())
    elapsed = time.perf_counter() - t0
    ok = fg > 0.9 and elapsed < 600.0
    per_class = ", ".join(f"{name} {d:.4f}"
                          for name, d in zip(("LM", "LAD", "LCX", "RCA"), dice[2:6]))
    verdict("6 overfit smoke", ok,
            f"mean foreground dice {fg:.4f} > 0.9 after 300 steps "
            f"({per_class}), {elapsed:.0f}s < 600s")
