"""Plain-form reference ops that more than one test module holds the
engine to, and the bound that folded batch norm keeps to them."""

import numpy as np


def batchnorm2d_plain(x, gamma, beta, state, training, g, momentum=0.1, eps=1e-5):
    """Reference batchnorm in the plain form: (out, dx, dgamma, dbeta).

    Training mode normalizes with numpy's batch ``mean`` and ``var`` and
    updates `state`, as `batchnorm2d` does. Eval mode applies the stored
    moments in two ops, the pair that `fold_batchnorm` folds into a conv.
    """
    n, c, h, w = x.shape
    g_d = gamma.reshape(1, c, 1, 1)
    if training:
        m = n * h * w
        mean = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
        ivar = 1.0 / np.sqrt(var + eps)
        xhat = (x - mean.reshape(1, c, 1, 1)) * ivar.reshape(1, c, 1, 1)
        state.mean[:] = (1.0 - momentum) * state.mean + momentum * mean
        state.var[:] = (1.0 - momentum) * state.var + momentum * var * (m / (m - 1))
        dxhat = g * g_d
        s1 = dxhat.mean(axis=(0, 2, 3), keepdims=True)
        s2 = (dxhat * xhat).mean(axis=(0, 2, 3), keepdims=True)
        dx = ivar.reshape(1, c, 1, 1) * (dxhat - s1 - xhat * s2)
    else:
        ivar = (1.0 / np.sqrt(state.var + eps)).astype(x.dtype).reshape(1, c, 1, 1)
        xhat = (x - state.mean.astype(x.dtype).reshape(1, c, 1, 1)) * ivar
        dx = g * g_d * ivar
    out = g_d * xhat + beta.reshape(1, c, 1, 1)
    return out, dx, (g * xhat).sum(axis=(0, 2, 3)), g.sum(axis=(0, 2, 3))


def lerp_matrix_plain(length: int, dtype) -> np.ndarray:
    """The (2L, L) bilinear doubling matrix, one row at a time: half-pixel
    centers, edges clamped, ``1 - t`` added before ``t``."""
    m = np.zeros((2 * length, length), dtype=np.float64)
    for i in range(2 * length):
        src = (i + 0.5) / 2.0 - 0.5
        j0 = int(np.floor(src))
        t = src - j0
        m[i, min(max(j0, 0), length - 1)] += 1.0 - t
        m[i, min(max(j0 + 1, 0), length - 1)] += t
    return m.astype(dtype)


def fold_tolerance(y: np.ndarray) -> float:
    """The documented bound on |folded - unfused|: 32 machine epsilons of
    the dtype times the largest output magnitude."""
    return 32 * np.finfo(y.dtype).eps * float(np.abs(y).max())
