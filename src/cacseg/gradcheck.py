"""Central finite-difference gradient verification.

Everything here runs on a 64-bit shadow of the computation: inputs and
parameters are float64 tensors, the step is 1e-3, and analytic gradients
are compared elementwise as |a - n| / max(|a|, |n|, floor).

Perturbing across a relu/clip boundary or a maxpool argmax flip makes the
numeric quotient meaningless, so each perturbed evaluation records those
branching decisions and elements whose +h/-h traces differ are excluded
from the comparison.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from . import losses as L
from . import network, tensor as T
from .attention import CAConfig, ca_forward, init_ca
from .data import NUM_CLASSES
from .network import ArchConfig, init_rica, rica_forward
from .params import ParameterStore
from .tensor import Tensor, record_switches

DEFAULT_STEP = 1e-3
DEFAULT_FLOOR = 1e-3
OP_TOL = 1e-4
NET_TOL = 1e-3


@dataclass
class CheckResult:
    name: str
    max_rel: float
    tol: float
    checked: int
    excluded: int

    @property
    def passed(self) -> bool:
        return self.max_rel < self.tol

    def row(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{self.name:<28} {self.max_rel:>12.3e} {self.tol:>8.0e} "
                f"{self.checked:>7} {self.excluded:>4}  {status}")


def _same_switches(a: list, b: list) -> bool:
    if len(a) != len(b):
        return False
    return all(np.array_equal(x, y) for x, y in zip(a, b))


def numerical_gradient(f: Callable[[], Tensor], leaf: Tensor,
                       step: float = DEFAULT_STEP):
    """Central differences of f with respect to every element of `leaf`.

    Returns (gradient, excluded) where `excluded` marks elements whose
    perturbation crossed a non-differentiable point.
    """
    flat = leaf.data.reshape(-1)
    num = np.zeros(flat.shape, dtype=np.float64)
    excluded = np.zeros(flat.shape, dtype=bool)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        with record_switches() as s_plus:
            fp = f().item()
        flat[i] = orig - step
        with record_switches() as s_minus:
            fm = f().item()
        flat[i] = orig
        num[i] = (fp - fm) / (2.0 * step)
        if not _same_switches(s_plus, s_minus):
            excluded[i] = True
    return num.reshape(leaf.shape), excluded.reshape(leaf.shape)


def check_gradients(name: str, f: Callable[[], Tensor], leaves: Dict[str, Tensor],
                    tol: float = OP_TOL, step: float = DEFAULT_STEP,
                    floor: float = DEFAULT_FLOOR) -> CheckResult:
    """Compare one backward pass of f against finite differences."""
    for t in leaves.values():
        if t.dtype != np.float64:
            raise ValueError("gradient checks must run on float64 tensors")
        t.grad = None
    out = f()
    out.backward()
    max_rel = 0.0
    checked = 0
    excluded_total = 0
    for t in leaves.values():
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        numeric, excluded = numerical_gradient(f, t, step)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
        rel = np.abs(analytic - numeric) / denom
        rel[excluded] = 0.0
        if rel.size:
            max_rel = max(max_rel, float(rel.max()))
        checked += rel.size - int(excluded.sum())
        excluded_total += int(excluded.sum())
    return CheckResult(name, max_rel, tol, checked, excluded_total)


# -- the check table -------------------------------------------------------


@dataclass(frozen=True)
class Check:
    """One row of the table: `setup(seed)` draws the operands and returns
    (f, leaves), the scalar to differentiate and its float64 leaves."""

    setup: Callable[[int], tuple]
    tol: float = OP_TOL


def _normal(*shape, scale=1.0):
    return lambda rng: rng.standard_normal(shape) * scale


def _uniform(lo, hi, *shape):
    return lambda rng: rng.uniform(lo, hi, shape)


def _op(offset: int, leaves: tuple, op: Callable[..., Tensor],
        readout_offset: Optional[int] = None) -> Check:
    """An op check on draws from `default_rng(seed + offset)`.

    The `leaves` (name, draw) pairs are drawn first, in order, and are
    differentiated. The readout weights come last, shaped like the op's
    output, from the same stream or, when `readout_offset` is set, from
    `default_rng(seed + readout_offset)`.
    """
    def setup(seed):
        rng = np.random.default_rng(seed + offset)
        xs = {k: Tensor(draw(rng), requires_grad=True) for k, draw in leaves}
        out_shape = op(**xs).shape
        if readout_offset is not None:
            rng = np.random.default_rng(seed + readout_offset)
        r = Tensor(rng.standard_normal(out_shape))
        return lambda: (op(**xs) * r).sum(), xs
    return Check(setup)


def _module(fwd: Callable[[Tensor], Tensor], store: ParameterStore,
            x: np.ndarray, r: np.ndarray) -> tuple:
    """sum(fwd(x) * r), differentiated for the input and every parameter."""
    x, r = Tensor(x, requires_grad=True), Tensor(r)
    return lambda: (fwd(x) * r).sum(), {"input": x, **dict(store.items())}


_CA = CAConfig(reduction_ratio=4, min_mid_channels=2)


def _ca(rng: np.random.Generator) -> tuple:
    store = ParameterStore()
    init_ca(store, "ca", 3, _CA, rng)
    store = store.to_double()
    return _module(lambda x: ca_forward(x, store, "ca", _CA, training=True), store,
                   rng.standard_normal((1, 3, 8, 8)), rng.standard_normal((1, 3, 8, 8)))


def _rica(seed: int) -> tuple:
    rng = np.random.default_rng(seed)
    _ca(rng)   # this row draws after the ca_forward row's draws
    store = ParameterStore()
    init_rica(store, "blk", 3, 8, _CA, rng)
    store = store.to_double()
    return _module(lambda x: rica_forward(x, store, "blk", _CA, training=True), store,
                   rng.standard_normal((1, 3, 8, 8)), rng.standard_normal((1, 8, 8, 8)))


def _network(seed: int) -> tuple:
    """A 2-level, base-2-channel network on 16x16, end to end."""
    arch = ArchConfig(levels=2, base_channels=2, ca=_CA)
    store = network.build(arch, rng_seed=seed).to_double()
    rng = np.random.default_rng(seed + 100)
    return _module(lambda x: network.forward(store, x, training=True), store,
                   rng.standard_normal((1, 1, 16, 16)),
                   rng.standard_normal((1, NUM_CLASSES, 16, 16)))


def _loss(**preset) -> Check:
    """A loss preset through the softmax on random 1x6x4x4 logits and labels."""
    def setup(seed):
        target = np.random.default_rng(seed).integers(0, NUM_CLASSES, size=(1, 4, 4))
        logits = Tensor(np.random.default_rng(seed + 1).standard_normal((1, NUM_CLASSES, 4, 4)),
                        requires_grad=True)
        loss = L.loss_by_variant(L.LossConfig(**preset))
        return lambda: loss(logits, target), {"logits": logits}
    return Check(setup)


_BINARY = (("a", _normal(2, 3, 4, 4)), ("b", _normal(1, 3, 1, 4)))  # broadcasts b
_CONV = (("input", _normal(2, 3, 8, 8)), ("weight", _normal(4, 3, 3, 3, scale=0.5)),
         ("bias", _normal(4)))
_BN = (("input", _normal(2, 3, 4, 4)), ("gamma", _uniform(0.5, 1.5, 3)),
       ("beta", _normal(3)))
_POOL_IN = (("x", _normal(1, 2, 4, 4)),)

CHECKS: dict[str, Check] = {
    "add": _op(1, _BINARY, lambda a, b: a + b),
    "sub": _op(1, _BINARY, lambda a, b: a - b),
    "mul": _op(1, _BINARY, lambda a, b: a * b),
    "div": _op(2, (("a", _normal(2, 3, 4, 4)), ("b", _uniform(0.5, 2.0, 1, 3, 1, 4))),
               lambda a, b: a / b),
    "pow": _op(3, (("x", _uniform(0.3, 2.0, 3, 5)),), lambda x: x.pow(1.7)),
    "exp": _op(4, (("x", _normal(3, 5)),), lambda x: x.exp()),
    "log": _op(5, (("x", _uniform(0.2, 3.0, 3, 5)),), lambda x: x.log()),
    "sqrt": _op(6, (("x", _uniform(0.2, 3.0, 3, 5)),), lambda x: x.sqrt()),
    "clip": _op(7, (("x", _uniform(-2.0, 2.0, 4, 6)),), lambda x: x.clip(-0.9, 1.1)),
    "sum": _op(8, (("x", _normal(2, 3, 4)),), lambda x: x.sum(axis=1)),
    "mean": _op(9, (("x", _normal(2, 3, 4)),), lambda x: x.mean(axis=1, keepdims=True)),
    "reshape": _op(10, (("x", _normal(2, 3, 4)),), lambda x: x.reshape(6, 4)),
    "transpose": _op(11, (("x", _normal(2, 3, 4, 5)),), lambda x: x.transpose((0, 1, 3, 2))),
    "narrow": _op(12, (("x", _normal(2, 3, 6, 2)),), lambda x: x.narrow(2, 1, 3)),
    "concat_channels": _op(13, (("a", _normal(2, 3, 4, 4)), ("b", _normal(2, 2, 4, 4))),
                           T.concat_channels),
    "relu": _op(14, (("x", _normal(4, 8)),), T.relu),
    "sigmoid": _op(15, (("x", _normal(4, 8, scale=2.0)),), T.sigmoid),
    "softmax_channel": _op(16, (("x", _normal(2, 6, 3, 3)),), T.softmax_channel),
    "conv2d": _op(17, _CONV, lambda input, weight, bias:
                  T.conv2d(input, weight, bias, padding=1)),
    "batchnorm2d_train": _op(19, _BN, lambda input, gamma, beta: T.batchnorm2d(
        input, gamma, beta, T.RunningMoments(3, dtype=np.float64))),
    "maxpool2": _op(21, (("x", _normal(1, 2, 8, 8)),), T.maxpool2),
    "upsample_bilinear2": _op(22, _POOL_IN, T.upsample_bilinear2),
    "directional_avgpool_h": _op(23, _POOL_IN, lambda x: T.directional_avgpool(x, "height"),
                                 readout_offset=24),
    "directional_avgpool_w": _op(23, _POOL_IN, lambda x: T.directional_avgpool(x, "width"),
                                 readout_offset=24),
    "gate": _op(25, (("x", _normal(2, 3, 4, 5)), ("a", _normal(2, 3, 1, 5)),
                     ("b", _normal(2, 3, 4, 1))), T.gate),
    "ca_forward": Check(lambda seed: _ca(np.random.default_rng(seed)), NET_TOL),
    "rica_forward": Check(_rica, NET_TOL),
    "loss_weighted_focal": _loss(variant="Focal"),
    "loss_exp_log_dice": _loss(w_focal=0.0, w_dice=1.0),
    "loss_focal_logdice": _loss(),
    "loss_focal_dice": _loss(variant="FocalDice"),
    "loss_ce": _loss(variant="CE"),
    "network_end_to_end": Check(_network, NET_TOL),
}


def check(name: str, seed: int = 0) -> CheckResult:
    """Finite-difference check of one CHECKS row."""
    spec = CHECKS[name]
    f, leaves = spec.setup(seed)
    return check_gradients(name, f, leaves, tol=spec.tol)


def run_all(seed: int = 0) -> tuple[list[CheckResult], float]:
    """Every CHECKS row in order; returns (results, elapsed seconds)."""
    t0 = time.perf_counter()
    results = [check(name, seed) for name in CHECKS]
    return results, time.perf_counter() - t0


def format_table(results: list[CheckResult]) -> str:
    header = (f"{'operation':<28} {'max_rel_err':>12} {'tol':>8} "
              f"{'checked':>7} {'excl':>4}  status")
    lines = [header, "-" * len(header)]
    lines.extend(r.row() for r in results)
    return "\n".join(lines)
