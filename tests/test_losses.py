"""Loss family tests: formula oracles, reductions, invariants, gradients."""

import itertools
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from cacseg import losses as L
from cacseg.errors import ConfigError, LabelError
from cacseg.gradcheck import OP_TOL, check_gradients
from cacseg.tensor import Tensor, softmax_channel


def perfect_logits(target: np.ndarray, margin: float = 60.0) -> np.ndarray:
    """Logits whose softmax saturates to an exact one-hot in float arithmetic."""
    n, h, w = target.shape
    logits = np.zeros((n, 6, h, w), np.float64)
    for c in range(6):
        logits[:, c][target == c] = margin
    return logits


def softmax_np(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


# The Dice term alone: the FocalLogDice preset with the focal weight at 0.
DICE_ONLY = {"variant": "FocalLogDice", "w_focal": 0.0, "w_dice": 1.0}


def variant_loss(logits, target, cfg=None) -> Tensor:
    """The loss of cfg's preset (default settings when cfg is None)."""
    return L.loss_by_variant(cfg or L.LossConfig())(logits, target)


def focal(logits, target, cfg=None) -> Tensor:
    """The focal term alone: the Focal preset of cfg's other settings."""
    return variant_loss(logits, target, replace(cfg or L.LossConfig(), variant="Focal"))


def log_dice(logits, target, cfg=None) -> Tensor:
    """The exponential log Dice term alone, with cfg's other settings."""
    return variant_loss(logits, target, replace(cfg or L.LossConfig(), **DICE_ONLY))


class TestWeightedFocal:
    def test_perfect_prediction_is_zero(self):
        rng = np.random.default_rng(0)
        target = rng.integers(0, 6, (2, 4, 4))
        loss = focal(Tensor(perfect_logits(target)), target)
        assert loss.item() == 0.0

    def test_single_pixel_half_probability(self):
        # p_true = 0.5, gamma = 2, alpha = 1  ->  0.25 * ln 2
        logits = np.log(np.array([0.5, 0.1, 0.1, 0.1, 0.1, 0.1], np.float64))
        logits = logits.reshape(1, 6, 1, 1)
        target = np.zeros((1, 1, 1), np.int64)
        loss = focal(Tensor(logits), target)
        assert abs(loss.item() - 0.25 * np.log(2.0)) < 1e-9

    def test_gamma_zero_unit_weights_is_cross_entropy(self):
        rng = np.random.default_rng(1)
        logits = rng.standard_normal((2, 6, 4, 4))
        target = rng.integers(0, 6, (2, 4, 4))
        cfg = L.LossConfig(focal_gamma=0.0, class_weights=np.ones(6))
        loss = focal(Tensor(logits), target, cfg)
        p = softmax_np(logits)
        pt = np.take_along_axis(p, target[:, None], axis=1)[:, 0]
        oracle = float(-np.log(np.clip(pt, cfg.smooth_eps, 1.0)).mean())
        assert abs(loss.item() - oracle) < 1e-9

    def test_monotone_in_true_class_probability(self):
        rng = np.random.default_rng(2)
        logits = rng.standard_normal((1, 6, 3, 3))
        target = rng.integers(0, 6, (1, 3, 3))
        cfg = L.LossConfig()
        base = focal(Tensor(logits), target, cfg).item()
        for y in range(3):
            for x in range(3):
                bumped = logits.copy()
                bumped[0, target[0, y, x], y, x] += 0.5
                after = focal(Tensor(bumped), target, cfg).item()
                assert after <= base + 1e-12

    def test_out_of_range_label_reports_value_and_position(self):
        logits = np.zeros((1, 6, 2, 2), np.float32)
        target = np.zeros((1, 2, 2), np.int64)
        target[0, 1, 0] = 7
        with pytest.raises(LabelError, match=r"7 at position \(0, 1, 0\)"):
            focal(Tensor(logits), target)


# inverse-frequency weights of a lesion-sparse set (background ~0.001)
SPARSE_WEIGHTS = L.class_weights_from_counts([30000, 2500, 40, 120, 110, 150])


class TestFocalWeighting:
    def test_sparse_weights_match_plain_mean_oracle(self):
        rng = np.random.default_rng(10)
        logits = rng.standard_normal((2, 6, 4, 4))
        target = rng.integers(0, 6, (2, 4, 4))
        cfg = L.LossConfig(class_weights=SPARSE_WEIGHTS)
        loss = focal(Tensor(logits), target, cfg).item()
        pt = np.take_along_axis(softmax_np(logits), target[:, None], axis=1)[:, 0]
        pt = np.clip(pt, cfg.smooth_eps, 1.0)
        alpha = SPARSE_WEIGHTS[target]
        oracle = float((-alpha * (1.0 - pt) ** 2 * np.log(pt)).mean())
        assert abs(loss - oracle) < 1e-12

    def test_sparse_weights_pass_finite_differences(self):
        rng = np.random.default_rng(12)
        target = rng.integers(0, 6, (1, 4, 4))
        cfg = L.LossConfig(class_weights=SPARSE_WEIGHTS)
        for make in (focal, variant_loss):
            logits = Tensor(rng.standard_normal((1, 6, 4, 4)), requires_grad=True)
            res = check_gradients(make.__name__, lambda: make(logits, target, cfg),
                                  {"logits": logits}, tol=OP_TOL)
            assert res.passed, res.row()


def soft_dice(probs: Tensor, target: np.ndarray, cfg: L.LossConfig) -> Tensor:
    """Per-class soft Dice over the batch, shape (NUM_CLASSES,), as the Dice
    losses form it."""
    onehot = L._onehot(target, probs.dtype.type)
    return L._soft_dice(probs, onehot, probs * onehot, cfg.smooth_eps)


class TestExpLogDice:
    def test_perfect_prediction_below_1e6(self):
        target = np.tile(np.arange(6, dtype=np.int64).reshape(1, 6, 1), (1, 1, 4))
        loss = log_dice(Tensor(perfect_logits(target)), target)
        assert 0.0 <= loss.item() < 1e-6

    def test_empty_class_contributes_nothing(self):
        # class absent from both prediction mass and target smooths to 1
        probs = np.zeros((1, 6, 2, 2), np.float64)
        probs[:, 0] = 1.0
        target = np.zeros((1, 2, 2), np.int64)
        dice = soft_dice(Tensor(probs), target, L.LossConfig())
        np.testing.assert_allclose(dice.data[1:], 1.0)
        term = (-np.log(dice.data)) ** 0.3
        np.testing.assert_allclose(term[1:], 0.0)

    def test_half_probability_toy(self):
        # 2x2, one true class at p=0.5: Dice = (2*0.5*4 + eps) / (0.5*4 + 4 + eps)
        logits = np.log(np.array([0.5, 0.1, 0.1, 0.1, 0.1, 0.1], np.float64))
        logits = np.broadcast_to(logits.reshape(1, 6, 1, 1), (1, 6, 2, 2)).copy()
        target = np.zeros((1, 2, 2), np.int64)
        cfg = L.LossConfig()
        dice = soft_dice(Tensor(logits).exp() / Tensor(logits).exp().sum(axis=1, keepdims=True),
                         target, cfg)
        eps = cfg.smooth_eps
        expected = (2 * 0.5 * 4 + eps) / (0.5 * 4 + 4 + eps)
        assert abs(dice.data[0] - expected) < 1e-9
        assert abs(expected - 2.0 / 3.0) < 1e-5
        loss = log_dice(Tensor(logits), target, cfg)
        per_class = soft_dice(Tensor(softmax_np(logits)), target, cfg).data
        oracle = float(np.mean((-np.log(per_class)) ** cfg.dice_gamma))
        assert abs(loss.item() - oracle) < 1e-9


class TestCombos:
    def test_linear_combination_is_exact(self):
        rng = np.random.default_rng(3)
        cfg = L.LossConfig()
        for _ in range(10):
            logits = Tensor(rng.standard_normal((2, 6, 4, 4)).astype(np.float32))
            target = rng.integers(0, 6, (2, 4, 4))
            combo = variant_loss(logits, target, cfg).item()
            f = focal(logits, target, cfg)
            d = log_dice(logits, target, cfg)
            recombined = (f * cfg.w_focal + d * cfg.w_dice).item()
            assert combo == recombined

    def test_weighted_sum_arithmetic(self):
        assert abs(0.4 * 1.0 + 0.6 * 0.5 - 0.7) < 1e-15

    def test_gradient_linearity(self):
        rng = np.random.default_rng(4)
        cfg = L.LossConfig()
        logits_np = rng.standard_normal((1, 6, 4, 4))
        target = rng.integers(0, 6, (1, 4, 4))

        def grad_of(fn):
            t = Tensor(logits_np.copy(), requires_grad=True)
            fn(t).backward()
            return t.grad

        g_combo = grad_of(lambda t: variant_loss(t, target, cfg))
        g_focal = grad_of(lambda t: focal(t, target, cfg))
        g_dice = grad_of(lambda t: log_dice(t, target, cfg))
        np.testing.assert_allclose(g_combo, 0.4 * g_focal + 0.6 * g_dice,
                                   rtol=1e-9, atol=1e-12)

    def test_focal_dice_and_logdice_agree_at_perfect(self):
        rng = np.random.default_rng(5)
        target = rng.integers(0, 6, (1, 6, 6))
        for c in range(6):  # make every class present
            target[0, c, 0] = c
        logits = Tensor(perfect_logits(target))
        a = variant_loss(logits, target, L.LossConfig(variant="FocalDice")).item()
        b = variant_loss(logits, target).item()
        assert abs(a) < 1e-6 and abs(b) < 1e-6

    def test_logdice_penalizes_harder_than_plain_dice(self):
        gamma_d = 0.3
        for d in np.arange(0.1, 0.95, 0.1):
            assert (-np.log(d)) ** gamma_d > (1.0 - d)


NON_FINITE = [("w_focal", np.nan), ("w_dice", np.inf), ("focal_gamma", np.inf),
              ("dice_gamma", np.nan), ("smooth_eps", np.inf),
              ("class_weights", [1.0, 1.0, np.nan, 1.0, 1.0, 1.0])]


class TestVariants:
    def test_ce_matches_textbook(self):
        rng = np.random.default_rng(6)
        logits = rng.standard_normal((2, 6, 4, 4))
        target = rng.integers(0, 6, (2, 4, 4))
        # CE must ignore configured gamma and weights
        cfg = L.LossConfig(variant="CE", focal_gamma=2.0,
                           class_weights=np.arange(1.0, 7.0))
        loss = L.loss_by_variant(cfg)(Tensor(logits), target)
        p = softmax_np(logits)
        pt = np.take_along_axis(p, target[:, None], axis=1)[:, 0]
        oracle = float(-np.log(np.clip(pt, cfg.smooth_eps, 1.0)).mean())
        assert abs(loss.item() - oracle) < 1e-9

    def test_unknown_variant_lists_valid_ones(self):
        with pytest.raises(ConfigError, match="CE, Focal, FocalDice, FocalLogDice"):
            L.loss_by_variant(L.LossConfig(variant="bogus"))

    def test_all_variants_nonnegative_and_zero_at_perfect(self):
        rng = np.random.default_rng(7)
        target = rng.integers(0, 6, (1, 6, 6))
        for c in range(6):
            target[0, c, 1] = c
        perfect = Tensor(perfect_logits(target))
        random_logits = Tensor(rng.standard_normal((1, 6, 6, 6)))
        for variant in L.VARIANTS:
            fn = L.loss_by_variant(L.LossConfig(variant=variant))
            assert fn(random_logits, target).item() >= 0.0
            assert fn(perfect, target).item() < 1e-6

    @pytest.mark.parametrize("shape, got", [((5,), "got 5"), ((7,), "got 7"),
                                            ((2, 3), r"got shape \(2, 3\)")])
    def test_class_weights_of_another_class_count_rejected(self, shape, got):
        with pytest.raises(ConfigError, match=f"loss.class_weights needs 6 entries, {got}"):
            L.LossConfig(class_weights=np.ones(shape)).validate()

    def test_logdice_weights_normalized(self):
        cfg = L.LossConfig(w_focal=1.0, w_dice=1.5)
        resolved = L.resolve_variant(cfg)
        assert abs(resolved.w_focal - 0.4) < 1e-12 and abs(resolved.w_dice - 0.6) < 1e-12
        assert (cfg.w_focal, cfg.w_dice) == (1.0, 1.5)

    def test_loss_independent_of_earlier_validations(self):
        rng = np.random.default_rng(8)
        logits = rng.standard_normal((2, 6, 4, 4))
        target = rng.integers(0, 6, (2, 4, 4))
        got = set()
        for validations in range(3):
            cfg = L.LossConfig(w_focal=0.1, w_dice=0.3)
            for _ in range(validations):
                cfg.validate()
            got.add(_loss_and_grad_bytes(L.loss_by_variant(cfg), logits, target))
        assert len(got) == 1

    @pytest.mark.parametrize("field, value", NON_FINITE, ids=[f for f, _ in NON_FINITE])
    def test_non_finite_setting_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"loss.{field} must be finite"):
            L.LossConfig(**{field: value}).validate()


class TestClassWeights:
    def test_inverse_frequency_mean_one(self):
        counts = np.array([1000, 500, 10, 50, 40, 80])
        w = L.class_weights_from_counts(counts)
        assert abs(w.mean() - 1.0) < 1e-12
        assert w[2] == w.max()  # rarest class gets the largest weight

    def test_zero_count_treated_as_one(self):
        w = L.class_weights_from_counts([100, 0, 100, 100, 100, 100])
        assert np.isfinite(w).all() and w[1] == w.max()


# -- the loss core against the terms computed one by one ---------------------
#
# The oracle below is the loss as it was before the shared core: every term
# builds its own one-hot and its own `probs * onehot`, and each combo adds the
# two terms over one softmax. The core must give the same bytes.

def _oracle_onehot(target, dtype):
    return np.ascontiguousarray(np.moveaxis(np.eye(6, dtype=dtype)[target], -1, 1))


def _oracle_focal(probs, target, cfg):
    p_true = (probs * _oracle_onehot(target, probs.dtype.type)).sum(axis=1)
    p_true = p_true.clip(cfg.smooth_eps, 1.0)
    term = p_true.log() * cfg.class_weights.astype(probs.dtype.type)[target]
    if cfg.focal_gamma != 0.0:
        term = term * (1.0 - p_true).pow(cfg.focal_gamma)
    return -term.mean()


def _oracle_dice(probs, target, cfg):
    onehot = _oracle_onehot(target, probs.dtype.type)
    inter = (probs * onehot).sum(axis=(0, 2, 3))
    p_sum = probs.sum(axis=(0, 2, 3))
    t_sum = onehot.sum(axis=(0, 2, 3))
    return (inter * 2.0 + cfg.smooth_eps) / (p_sum + t_sum + cfg.smooth_eps)


def _oracle_logdice(probs, target, cfg):
    neg_log = (-_oracle_dice(probs, target, cfg).log()).clip(0.0, None)
    return neg_log.pow(cfg.dice_gamma, grad_floor=L._POW_GRAD_FLOOR).mean()


def _oracle_plain_dice(probs, target, cfg):
    return 1.0 - _oracle_dice(probs, target, cfg).mean()


def _oracle_combo(dice):
    def loss(logits, target, cfg):
        probs = softmax_channel(logits)
        return (_oracle_focal(probs, target, cfg) * cfg.w_focal
                + dice(probs, target, cfg) * cfg.w_dice)
    return loss


ORACLE = {
    "weighted_focal": lambda lg, t, cfg: _oracle_focal(softmax_channel(lg), t, cfg),
    "exp_log_dice": lambda lg, t, cfg: _oracle_logdice(softmax_channel(lg), t, cfg),
    "focal_logdice": _oracle_combo(_oracle_logdice),
    "focal_dice": _oracle_combo(_oracle_plain_dice),
}
ORACLE_OF_VARIANT = {"CE": "weighted_focal", "Focal": "weighted_focal",
                     "FocalDice": "focal_dice", "FocalLogDice": "focal_logdice"}
ENTRIES = [*L.VARIANTS, "DiceOnly"]
CORE_SHAPES = [(1, 1, 1), (1, 1, 7), (1, 5, 1), (2, 3, 4), (3, 6, 2), (4, 4, 5)]


def _loss_fn(name, weights):
    """The loss under test: a variant's preset or the Dice-only one, through
    loss_by_variant."""
    settings = DICE_ONLY if name == "DiceOnly" else {"variant": name}
    return L.loss_by_variant(L.LossConfig(**settings, class_weights=weights))


def _oracle_fn(name, weights):
    if name == "DiceOnly":
        cfg = L.LossConfig(class_weights=weights)
        return lambda logits, target: ORACLE["exp_log_dice"](logits, target, cfg)
    cfg = L.LossConfig(variant=name, class_weights=weights)
    cfg.validate()
    if name == "CE":
        cfg = replace(cfg, focal_gamma=0.0, class_weights=np.ones(6))
    return lambda logits, target: ORACLE[ORACLE_OF_VARIANT[name]](logits, target, cfg)


def _loss_and_grad_bytes(fn, logits_np, target):
    logits = Tensor(logits_np.copy(), requires_grad=True)
    loss = fn(logits, target)
    loss.backward()
    return loss.data.tobytes(), logits.grad.tobytes()


class TestLossCore:
    @pytest.mark.parametrize("name", ENTRIES)
    def test_core_matches_separate_terms_bytewise(self, name):
        rng = np.random.default_rng(20)
        for (n, h, w), dtype, weights in itertools.product(
                CORE_SHAPES, (np.float32, np.float64), (np.ones(6), SPARSE_WEIGHTS)):
            logits = (3.0 * rng.standard_normal((n, 6, h, w))).astype(dtype)
            target = rng.integers(0, 6, (n, h, w))
            got = _loss_and_grad_bytes(_loss_fn(name, weights), logits, target)
            want = _loss_and_grad_bytes(_oracle_fn(name, weights), logits, target)
            assert got == want, (name, (n, h, w), dtype.__name__, weights[0])

    def test_one_check_softmax_and_onehot_per_call(self, monkeypatch):
        calls = Counter()
        for attr in ("check_labels", "softmax_channel", "_onehot"):
            def counted(*args, _orig=getattr(L, attr), _attr=attr):
                calls[_attr] += 1
                return _orig(*args)
            monkeypatch.setattr(L, attr, counted)
        rng = np.random.default_rng(21)
        logits = Tensor(rng.standard_normal((2, 6, 3, 3)))
        target = rng.integers(0, 6, (2, 3, 3))
        for name in ENTRIES:
            calls.clear()
            _loss_fn(name, np.ones(6))(logits, target)
            assert calls == {"check_labels": 1, "softmax_channel": 1, "_onehot": 1}, name

    def test_term_of_weight_zero_not_built(self, monkeypatch):
        built = Counter()
        for attr in ("_focal", "_soft_dice"):
            def counted(*args, _orig=getattr(L, attr), _attr=attr):
                built[_attr] += 1
                return _orig(*args)
            monkeypatch.setattr(L, attr, counted)
        rng = np.random.default_rng(23)
        logits = Tensor(rng.standard_normal((2, 6, 3, 3)))
        target = rng.integers(0, 6, (2, 3, 3))
        both = {"_focal": 1, "_soft_dice": 1}
        want = {"CE": {"_focal": 1}, "Focal": {"_focal": 1}, "FocalDice": both,
                "FocalLogDice": both, "DiceOnly": {"_soft_dice": 1}}
        for name in ENTRIES:
            built.clear()
            _loss_fn(name, np.ones(6))(logits, target)
            assert built == want[name], name


class TestTargetCheck:
    @pytest.mark.parametrize("value,shown", [(np.inf, "inf"), (-np.inf, "-inf"),
                                             (1e30, "1e+30")])
    def test_unrepresentable_label_named_as_given_without_warning(self, value, shown):
        target = np.zeros((1, 2, 2))
        target[0, 1, 1] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(LabelError) as info:
                focal(Tensor(np.zeros((1, 6, 2, 2))), target)
        assert f"mask value {shown} at position (0, 1, 1)" in str(info.value)
        assert str(np.iinfo(np.int64).min) not in str(info.value)

    @pytest.mark.parametrize("value", [2.5, np.nan])
    def test_non_integer_label_rejected(self, value):
        target = np.zeros((1, 2, 2))
        target[0, 0, 1] = value
        with pytest.raises(LabelError, match="non-integer"):
            variant_loss(Tensor(np.zeros((1, 6, 2, 2))), target)

    def test_integral_float_mask_matches_int_mask_bytewise(self):
        rng = np.random.default_rng(22)
        logits = rng.standard_normal((2, 6, 3, 4))
        target = rng.integers(0, 6, (2, 3, 4))
        for name, dtype in itertools.product(ENTRIES, (np.float32, np.float64)):
            fn = _loss_fn(name, SPARSE_WEIGHTS)
            assert (_loss_and_grad_bytes(fn, logits, target.astype(dtype))
                    == _loss_and_grad_bytes(fn, logits, target)), (name, dtype)
