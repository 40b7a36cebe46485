"""Dense float tensors with reverse-mode automatic differentiation.

Layout is fixed to N,C,H,W row-major. Compute is float32 by default; the
same ops run unchanged on float64 tensors, which is how the gradient
checker builds its 64-bit reference path. Gradients are accumulated
additively across fan-out, so ``y = x + x`` yields ``grad(x) == 2``.

The recorded graph lives in the tensors themselves: each op output keeps
references to its inputs plus a backward closure. ``Tensor.backward``
topologically sorts that record and visits every op exactly once in
reverse execution order. It releases the graph as it goes: once an op's
closure has run, that op's output drops its gradient, its closure and its
inputs, so intermediate outputs and closure buffers are freed as soon as
their last consumer is done. When ``backward`` returns only leaf grads
remain, and a second ``backward`` through the released graph raises
``ContractError``.
"""

from __future__ import annotations

import math
import struct
from contextlib import contextmanager
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    ContractError,
    DataIOError,
    DegenerateBatchError,
    DimensionError,
    NumericError,
)

__all__ = [
    "Tensor",
    "RunningMoments",
    "no_grad",
    "record_switches",
    "concat",
    "concat_channels",
    "relu",
    "sigmoid",
    "softmax_channel",
    "conv2d",
    "conv2d_forward_direct",
    "maxpool2",
    "upsample_bilinear2",
    "directional_avgpool",
    "batchnorm2d",
    "fold_batchnorm",
    "save_tns",
    "load_tns",
    "tns_encode",
    "tns_decode",
]

_grad_enabled = True

# When not None, relu sign masks and maxpool argmax indices are appended
# here during forward.  The gradient checker compares these records across
# perturbed evaluations to detect (and exclude) non-differentiable points.
_switch_trace: Optional[list] = None


@contextmanager
def no_grad():
    """Disable graph recording; outputs become constants."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


@contextmanager
def record_switches():
    """Collect relu/maxpool branching decisions of every forward run inside."""
    global _switch_trace
    prev = _switch_trace
    _switch_trace = []
    try:
        yield _switch_trace
    finally:
        _switch_trace = prev


def _released(grad: np.ndarray) -> None:
    """Closure of a node whose graph an earlier backward() has released."""
    raise ContractError(
        "backward through a graph already released by an earlier backward()"
    )


def _trace(arr: np.ndarray) -> None:
    if _switch_trace is not None:
        _switch_trace.append(arr)


class Tensor:
    """N-dimensional float array with an optional gradient slot."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False, dtype=None, check: bool = True):
        if isinstance(data, Tensor):
            data = data.data
        preserve = (dtype is None and isinstance(data, np.ndarray)
                    and data.dtype in (np.float32, np.float64))
        arr = np.asarray(data, dtype=dtype)
        if not preserve and dtype is None and arr.dtype != np.float32:
            arr = arr.astype(np.float32)
        if check and not np.isfinite(arr).all():
            raise NumericError("tensor construction received non-finite values")
        self.data: np.ndarray = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._backward_fn: Optional[Callable[[np.ndarray], None]] = None

    @classmethod
    def _make(cls, data: np.ndarray, parents: tuple, backward_fn) -> "Tensor":
        out = cls.__new__(cls)
        out.data = data
        out.grad = None
        req = _grad_enabled and any(p.requires_grad for p in parents)
        out.requires_grad = req
        if req:
            out._parents = parents
            out._backward_fn = backward_fn
        else:
            out._parents = ()
            out._backward_fn = None
        return out

    # -- introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def to_double(self) -> "Tensor":
        return Tensor(self.data.astype(np.float64), requires_grad=self.requires_grad)

    def __repr__(self) -> str:
        req = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{req})"

    # -- backward ------------------------------------------------------

    def backward(self) -> None:
        """Populate grad slots of every requires_grad leaf reachable from self.

        The graph is released as the pass runs. After a non-leaf node's
        closure has run, the node drops its ``grad``, its closure and its
        parents, so its buffers are freed once no later closure needs them.
        Leaves (``_backward_fn is None``) keep their grads. A later backward
        through any released node raises ``ContractError``.
        """
        if self.data.size != 1:
            raise ContractError(
                f"backward requires a scalar loss, got shape {self.data.shape}"
            )
        if not self.requires_grad:
            return
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, emitted = stack.pop()
            if emitted:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            fn = node._backward_fn
            if fn is None:
                continue
            if node.grad is not None:
                fn(node.grad)
            node.grad = None
            node._backward_fn = _released
            node._parents = ()

    def _accum(self, g: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = g.copy() if g.base is not None or g is self.data else g
        else:
            self.grad = self.grad + g

    # -- elementwise arithmetic (broadcasting) --------------------------

    def _coerce(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return Tensor(np.asarray(other, dtype=self.dtype), check=False)

    def __add__(self, other):
        b = self._coerce(other)
        out_data = self.data + b.data

        def bw(g):
            self._accum(_unbroadcast(g, self.shape))
            b._accum(_unbroadcast(g, b.shape))

        return Tensor._make(out_data, (self, b), bw)

    __radd__ = __add__

    def __sub__(self, other):
        b = self._coerce(other)
        out_data = self.data - b.data

        def bw(g):
            self._accum(_unbroadcast(g, self.shape))
            b._accum(_unbroadcast(-g, b.shape))

        return Tensor._make(out_data, (self, b), bw)

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        b = self._coerce(other)
        out_data = self.data * b.data
        a_d, b_d = self.data, b.data

        def bw(g):
            self._accum(_unbroadcast(g * b_d, self.shape))
            b._accum(_unbroadcast(g * a_d, b.shape))

        return Tensor._make(out_data, (self, b), bw)

    __rmul__ = __mul__

    def __truediv__(self, other):
        b = self._coerce(other)
        out_data = self.data / b.data
        a_d, b_d = self.data, b.data

        def bw(g):
            self._accum(_unbroadcast(g / b_d, self.shape))
            b._accum(_unbroadcast(-g * a_d / (b_d * b_d), b.shape))

        return Tensor._make(out_data, (self, b), bw)

    def __rtruediv__(self, other):
        return self._coerce(other).__truediv__(self)

    def __neg__(self):
        def bw(g):
            self._accum(-g)

        return Tensor._make(-self.data, (self,), bw)

    def pow(self, exponent: float, grad_floor: float = 0.0) -> "Tensor":
        """Elementwise power with a real exponent.

        ``grad_floor`` bounds the base away from zero inside the backward
        formula only; the forward value is exact. Needed when an exponent
        below one meets a base that can reach zero (the derivative there
        is unbounded).
        """
        d = self.data
        out_data = d ** exponent

        def bw(g):
            base = np.maximum(d, grad_floor) if grad_floor > 0.0 else d
            self._accum(g * exponent * base ** (exponent - 1.0))

        return Tensor._make(out_data, (self,), bw)

    def __pow__(self, exponent: float) -> "Tensor":
        return self.pow(exponent)

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def bw(g):
            self._accum(g * out_data)

        return Tensor._make(out_data, (self,), bw)

    def log(self) -> "Tensor":
        d = self.data

        def bw(g):
            self._accum(g / d)

        return Tensor._make(np.log(d), (self,), bw)

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)

        def bw(g):
            self._accum(g * 0.5 / out_data)

        return Tensor._make(out_data, (self,), bw)

    def clip(self, lo: Optional[float], hi: Optional[float]) -> "Tensor":
        d = self.data
        out_data = np.clip(d, lo, hi)
        inside = np.ones_like(d, dtype=bool)
        if lo is not None:
            inside &= d >= lo
        if hi is not None:
            inside &= d <= hi
        _trace(inside)

        def bw(g):
            self._accum(g * inside)

        return Tensor._make(out_data, (self,), bw)

    # -- reductions ------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        in_shape = self.shape
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def bw(g):
            self._accum(_spread(g, in_shape, axis, keepdims))

        return Tensor._make(out_data, (self,), bw)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        in_shape = self.shape
        out_data = self.data.mean(axis=axis, keepdims=keepdims)
        count = self.data.size // max(out_data.size, 1)

        def bw(g):
            self._accum(_spread(g, in_shape, axis, keepdims) / count)

        return Tensor._make(out_data, (self,), bw)

    # -- shape ops -------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        in_shape = self.shape
        out_data = self.data.reshape(shape)

        def bw(g):
            self._accum(g.reshape(in_shape))

        return Tensor._make(out_data, (self,), bw)

    def transpose(self, axes: Sequence[int]) -> "Tensor":
        axes = tuple(axes)
        inv = tuple(np.argsort(axes))
        out_data = self.data.transpose(axes)

        def bw(g):
            self._accum(g.transpose(inv))

        return Tensor._make(out_data, (self,), bw)

    def narrow(self, axis: int, start: int, length: int) -> "Tensor":
        idx = [slice(None)] * self.ndim
        idx[axis] = slice(start, start + length)
        idx = tuple(idx)
        in_shape = self.shape
        out_data = self.data[idx]

        def bw(g):
            full = np.zeros(in_shape, dtype=g.dtype)
            full[idx] = g
            self._accum(full)

        return Tensor._make(out_data, (self,), bw)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum g down to `shape`, undoing numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _spread(g: np.ndarray, in_shape: tuple, axis, keepdims: bool) -> np.ndarray:
    """Broadcast a reduction gradient back to the input shape."""
    if axis is not None and not keepdims:
        ax = (axis,) if isinstance(axis, int) else tuple(axis)
        ax = tuple(a % len(in_shape) for a in ax)
        kshape = tuple(1 if i in ax else s for i, s in enumerate(in_shape))
        g = g.reshape(kshape)
    return np.broadcast_to(g, in_shape)


# -- activations ---------------------------------------------------------


def relu(x: Tensor) -> Tensor:
    """max(x, 0). The sign mask is built only when a backward can use it or
    ``record_switches`` is open."""
    out_data = np.maximum(x.data, 0)
    if not (_grad_enabled and x.requires_grad) and _switch_trace is None:
        return Tensor._make(out_data, (x,), None)
    mask = x.data > 0
    _trace(mask)

    def bw(g):
        x._accum(g * mask)

    return Tensor._make(out_data, (x,), bw)


def sigmoid(x: Tensor) -> Tensor:
    """Logistic function from exp(-|x|), which cannot overflow."""
    d = x.data
    e = np.exp(-np.abs(d))
    den = 1.0 + e
    out_data = np.where(d >= 0, 1.0 / den, e / den)

    def bw(g):
        x._accum(g * out_data * (1.0 - out_data))

    return Tensor._make(out_data, (x,), bw)


def softmax_channel(x: Tensor) -> Tensor:
    """Softmax across axis 1; every pixel's channel vector sums to 1."""
    if x.ndim < 2:
        raise DimensionError("softmax_channel requires a channel axis (ndim >= 2)")
    d = x.data
    shifted = d - d.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=1, keepdims=True)

    def bw(g):
        dot = (g * p).sum(axis=1, keepdims=True)
        x._accum(p * (g - dot))

    return Tensor._make(p, (x,), bw)


# -- concatenation ---------------------------------------------------------


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    ref = tensors[0].shape
    for i, t in enumerate(tensors[1:], start=1):
        for a, (s0, s1) in enumerate(zip(ref, t.shape)):
            if a != axis % len(ref) and s0 != s1:
                raise DimensionError(
                    f"concat operand {i} has extent {s1} on axis {a}, expected {s0}"
                )
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]

    def bw(g):
        start = 0
        for t, s in zip(tensors, sizes):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(start, start + s)
            t._accum(g[tuple(idx)])
            start += s

    return Tensor._make(out_data, tuple(tensors), bw)


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    return concat([a, b], axis=1)


# -- convolution -----------------------------------------------------------


def conv2d_forward_direct(x: np.ndarray, w: np.ndarray, b: Optional[np.ndarray],
                          stride: int = 1, padding: int = 0) -> np.ndarray:
    """Plain-loop cross-correlation; the correctness-defining form.

    Test-scale only: the Tensor op below uses a shift-and-accumulate GEMM
    kernel whose output must match this function bit-for-bit modulo
    summation order.
    """
    n, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    hout = (h + 2 * padding - kh) // stride + 1
    wout = (wd + 2 * padding - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((n, cout, hout, wout), dtype=x.dtype)
    for ni in range(n):
        for co in range(cout):
            for i in range(hout):
                for j in range(wout):
                    patch = xp[ni, :, i * stride:i * stride + kh, j * stride:j * stride + kw]
                    out[ni, co, i, j] = np.sum(patch * w[co])
            if b is not None:
                out[ni, co] += b[co]
    return out


def _tap_product(w_tap: np.ndarray, x_tap: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = w_tap @ x_tap for one image and one kernel tap.

    With one input channel the product is an outer product, which numpy's
    matmul runs about ten times slower than the broadcast multiply; both
    form each element as the same single product.
    """
    if w_tap.shape[1] == 1:
        return np.multiply(w_tap, x_tap, out=out)
    return np.matmul(w_tap, x_tap, out=out)


def conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """2D cross-correlation over N,C,H,W with gradients for all operands.

    Shift-and-accumulate kernel (MEC, Cho & Brand 2017): with the padded
    input flattened to (N, C, Hp*Wp), the input of kernel tap (i, j) for
    every output pixel is the one slice starting at i*Wp + j, and output
    pixel (r, c) sits at r*Wp + c. So each tap is one GEMM per image,
    ``W[:, :, i, j] @ slice``, accumulated into an output of row pitch Wp
    whose last Wp - Wout columns per row are junk and dropped. Backward
    uses the same slices: grad-w of a tap is ``g @ slice.T`` summed over
    the batch, and grad-x adds ``W[:, :, i, j].T @ g`` into the slice of a
    zeroed padded buffer. No column buffer is built; the backward closure
    holds the padded input and the weight only.

    The taps of one image run back to back, so its accumulator stays in
    cache, and an image's output does not depend on the batch it came in.
    A stride above one subsamples the unit-stride result (no caller in
    the network uses one).
    """
    if x.ndim != 4:
        raise DimensionError(f"conv2d input must be 4D, got shape {x.shape}")
    if weight.ndim != 4:
        raise DimensionError(f"conv2d weight must be 4D, got shape {weight.shape}")
    n, cin, h, w = x.shape
    cout, cin_w, kh, kw = weight.shape
    if cin != cin_w:
        raise DimensionError(
            f"conv2d input has {cin} channels but weight expects {cin_w}"
        )
    if stride < 1:
        raise DimensionError(f"conv2d stride must be >= 1, got {stride}")
    if kh > h + 2 * padding or kw > w + 2 * padding:
        raise DimensionError(
            f"conv2d kernel {kh}x{kw} exceeds padded input {h + 2 * padding}x{w + 2 * padding}"
        )
    if bias is not None and bias.shape != (cout,):
        raise DimensionError(
            f"conv2d bias has shape {bias.shape}, expected ({cout},)"
        )
    hp, wp = h + 2 * padding, w + 2 * padding
    hout = (hp - kh) // stride + 1
    wout = (wp - kw) // stride + 1
    # Unit-stride output rows, and the flat length from the first output
    # pixel to the last: tap (i, j) reads x_flat[..., off:off + span].
    rows = hp - kh + 1
    span = rows * wp - kw + 1
    taps = [(i, j, i * wp + j) for i in range(kh) for j in range(kw)]
    keep = (slice(None), slice(None),
            slice(0, (hout - 1) * stride + 1, stride),
            slice(0, (wout - 1) * stride + 1, stride))

    if padding:
        xp = np.zeros((n, cin, hp, wp), dtype=x.dtype)
        xp[:, :, padding:padding + h, padding:padding + w] = x.data
    else:
        xp = np.ascontiguousarray(x.data)
    x_flat = xp.reshape(n, cin, hp * wp)
    w_taps = np.ascontiguousarray(weight.data.transpose(2, 3, 0, 1))

    acc = np.empty((n, cout, rows * wp), dtype=x.dtype)
    tmp = np.empty((cout, span), dtype=x.dtype)
    for b in range(n):
        acc_b = acc[b, :, :span]
        for t, (i, j, off) in enumerate(taps):
            x_tap = x_flat[b, :, off:off + span]
            if t == 0:
                _tap_product(w_taps[i, j], x_tap, acc_b)
            else:
                acc_b += _tap_product(w_taps[i, j], x_tap, tmp)
    out_view = acc.reshape(n, cout, rows, wp)[keep]
    if bias is not None:
        out_data = out_view + bias.data.reshape(1, cout, 1, 1)
    else:
        out_data = np.ascontiguousarray(out_view)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def bw(g):
        if bias is not None and bias.requires_grad:
            bias._accum(g.sum(axis=(0, 2, 3)))
        if (hout, wout) == (rows, wp):
            g_flat = np.ascontiguousarray(g).reshape(n, cout, span)
        else:
            g_wide = np.zeros((n, cout, rows, wp), dtype=g.dtype)
            g_wide[keep] = g
            g_flat = g_wide.reshape(n, cout, rows * wp)[:, :, :span]
        if weight.requires_grad:
            gw = np.empty((kh, kw, cin, cout), dtype=g.dtype)
            g_flat_t = g_flat.transpose(0, 2, 1)
            for i, j, off in taps:
                np.matmul(x_flat[:, :, off:off + span], g_flat_t).sum(axis=0, out=gw[i, j])
            weight._accum(gw.transpose(3, 2, 0, 1))
        if x.requires_grad:
            gx = np.zeros((n, cin, hp, wp), dtype=g.dtype)
            gx_flat = gx.reshape(n, cin, hp * wp)
            g_tap = np.empty((cin, span), dtype=g.dtype)
            for b in range(n):
                for i, j, off in taps:
                    gx_flat[b, :, off:off + span] += np.matmul(w_taps[i, j].T, g_flat[b], out=g_tap)
            if padding:
                gx = gx[:, :, padding:padding + h, padding:padding + w]
            x._accum(gx)

    return Tensor._make(out_data, parents, bw)


# -- pooling / resampling ----------------------------------------------------


def _pool_taps(a: np.ndarray) -> tuple:
    """The four stride-2 views of 2x2 windows, in scan order."""
    return (a[:, :, 0::2, 0::2], a[:, :, 0::2, 1::2],
            a[:, :, 1::2, 0::2], a[:, :, 1::2, 1::2])


def _pool_routes(taps: tuple, out: np.ndarray):
    """One boolean mask per tap, in scan order, marking the windows whose
    first element equal to `out` is that tap."""
    free = np.ones(out.shape, dtype=bool)
    for tap in taps[:3]:
        hit = free & (tap == out)
        free ^= hit
        yield hit
    yield free


def maxpool2(x: Tensor) -> Tensor:
    """2x2 max pooling, stride 2. Ties route gradient to the first window
    element in scan order.

    Output, gradient and switch record have the same bytes as the plain
    form: ``argmax`` over each window, ``take_along_axis`` forward and
    ``put_along_axis`` backward. ``np.maximum`` returns its second operand
    on ties (``-0.0`` against ``0.0`` included), so the operand order below
    keeps the first window element, as ``argmax`` does. The backward
    closure holds no index: it routes each gradient to the first window
    element equal to the output, from the input and output the graph
    already keeps. The routing index is built in forward only inside
    ``record_switches``. For finite inputs only; a NaN window routes to
    its last element.
    """
    if x.ndim != 4:
        raise DimensionError(f"maxpool2 input must be 4D, got shape {x.shape}")
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise DimensionError(f"maxpool2 requires even H and W, got {h}x{w}")
    taps = _pool_taps(x.data)
    out_data = np.maximum(np.maximum(taps[3], taps[2]), np.maximum(taps[1], taps[0]))
    if _switch_trace is not None:
        idx = np.zeros(out_data.shape, dtype=np.intp)
        for k, hit in enumerate(_pool_routes(taps, out_data)):
            idx[hit] = k
        _trace(idx)

    def bw(g):
        gx = np.zeros((n, c, h, w), dtype=g.dtype)
        for g_tap, hit in zip(_pool_taps(gx), _pool_routes(taps, out_data)):
            np.copyto(g_tap, g, where=hit)
        x._accum(gx)

    return Tensor._make(out_data, (x,), bw)


_lerp_cache: dict = {}


def _lerp_matrix(length: int, dtype) -> np.ndarray:
    """(2L, L) doubling matrix: bilinear, half-pixel centers, edges clamped."""
    key = (length, np.dtype(dtype).str)
    m = _lerp_cache.get(key)
    if m is None:
        m = np.zeros((2 * length, length), dtype=np.float64)
        for i in range(2 * length):
            src = (i + 0.5) / 2.0 - 0.5
            j0 = int(np.floor(src))
            t = src - j0
            m[i, min(max(j0, 0), length - 1)] += 1.0 - t
            m[i, min(max(j0 + 1, 0), length - 1)] += t
        m = m.astype(dtype)
        _lerp_cache[key] = m
    return m


def upsample_bilinear2(x: Tensor) -> Tensor:
    """Double H and W by bilinear interpolation (half-pixel convention,
    same as common align_corners=False).

    Two matmuls per image and channel, ``Mh @ x @ Mw.T``, backward
    ``Mh.T @ (g @ Mw)``: each writes a contiguous result, so no transpose
    or copy follows, and each image's GEMMs have the same shapes in any
    batch, so its output does not depend on the batch it came in.
    """
    if x.ndim != 4:
        raise DimensionError(f"upsample_bilinear2 input must be 4D, got shape {x.shape}")
    n, c, h, w = x.shape
    mh = _lerp_matrix(h, x.dtype)
    mw = _lerp_matrix(w, x.dtype)
    out_data = np.matmul(np.matmul(mh, x.data), mw.T)

    def bw(g):
        x._accum(np.matmul(mh.T, np.matmul(g, mw)))

    return Tensor._make(out_data, (x,), bw)


def directional_avgpool(x: Tensor, axis: str) -> Tensor:
    """Average away one spatial axis, keeping it with extent 1.

    axis="width" collapses W (output N,C,H,1); axis="height" collapses H
    (output N,C,1,W). These are the two 1D positional encodings that feed
    the coordinate-attention branches.
    """
    if x.ndim != 4:
        raise DimensionError(f"directional_avgpool input must be 4D, got shape {x.shape}")
    if axis == "width":
        ax = 3
    elif axis == "height":
        ax = 2
    else:
        raise DimensionError(f"directional_avgpool axis must be 'height' or 'width', got {axis!r}")
    extent = x.shape[ax]
    out_data = x.data.sum(axis=ax, keepdims=True) / extent

    def bw(g):
        x._accum(np.broadcast_to(g / extent, x.shape))

    return Tensor._make(out_data, (x,), bw)


# -- batch normalization -------------------------------------------------


class RunningMoments:
    """Per-channel EMA of batch mean/variance (the non-trainable BN state)."""

    __slots__ = ("mean", "var")

    def __init__(self, channels: int, dtype=np.float32):
        self.mean = np.zeros(channels, dtype=dtype)
        self.var = np.ones(channels, dtype=dtype)

    def copy(self) -> "RunningMoments":
        m = RunningMoments.__new__(RunningMoments)
        m.mean = self.mean.copy()
        m.var = self.var.copy()
        return m

    def to_double(self) -> "RunningMoments":
        m = RunningMoments.__new__(RunningMoments)
        m.mean = self.mean.astype(np.float64)
        m.var = self.var.astype(np.float64)
        return m


def _channel_sum(a: np.ndarray) -> np.ndarray:
    """Per-channel sum of an N,C,H,W array over N, H and W.

    Bit for bit equal to ``a.sum(axis=(0, 2, 3))``, and divided by N*H*W to
    numpy's ``mean`` and ``var`` over those axes: both reduce each
    contiguous H*W row pairwise, then add the rows of the batch in order.
    ``tests/test_tensor.py`` checks this on the shapes the nets use.
    """
    n, c = a.shape[:2]
    return a.reshape(n, c, -1).sum(axis=2).sum(axis=0)


def _eval_moments(state: RunningMoments, dtype, eps: float) -> tuple:
    """The stored mean and ``1 / sqrt(var + eps)`` in `dtype`, as eval-mode
    batch norm applies them."""
    return state.mean.astype(dtype), (1.0 / np.sqrt(state.var + eps)).astype(dtype)


def fold_batchnorm(weight: Tensor, gamma: Tensor, beta: Tensor, state: RunningMoments,
                   eps: float = 1e-5) -> tuple[Tensor, Tensor]:
    """Weight and bias of the one conv that computes conv -> eval-mode BN.

    With ``scale = gamma * ivar`` (``ivar`` as eval-mode ``batchnorm2d``
    computes it), ``w' = w * scale`` per output channel and
    ``b' = beta - mean * scale`` (Jacob et al., arXiv:1712.05877 §3.2).
    The product is rounded in another order than the unfused pair, so the
    conv output agrees with it to a tolerance, not to the byte. Built from
    Tensor ops, so gradients reach `weight`, `gamma` and `beta`.
    """
    mean, ivar = _eval_moments(state, weight.dtype, eps)
    scale = gamma * Tensor(ivar, check=False)
    w = weight * scale.reshape(-1, 1, 1, 1)
    b = beta - Tensor(mean, check=False) * scale
    return w, b


def batchnorm2d(x: Tensor, gamma: Tensor, beta: Tensor, state: RunningMoments,
                training: bool, momentum: float = 0.1, eps: float = 1e-5) -> Tensor:
    """Per-channel normalization with affine transform.

    Training mode normalizes with batch statistics and updates `state` by
    EMA (variance stored unbiased); eval mode uses the stored moments.

    Every output, gradient and running moment has the same bytes as the
    plain form ``xhat = (x - mean) * ivar``, ``out = gamma * xhat + beta``
    with numpy's ``mean``/``var`` over (N, H, W), and backward
    ``ivar * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat))``: the same
    operations run in the same order, in place in fresh buffers. A forward
    allocates two activation-sized arrays, ``xhat`` and the output, and the
    backward closure holds ``xhat`` only; a backward allocates two more.
    Nothing is written in place into ``x.data`` or the incoming gradient.
    """
    if x.ndim != 4:
        raise DimensionError(f"batchnorm2d input must be 4D, got shape {x.shape}")
    n, c, h, w = x.shape
    if gamma.shape != (c,) or beta.shape != (c,):
        raise DimensionError(
            f"batchnorm2d affine params must have shape ({c},), got {gamma.shape} and {beta.shape}"
        )
    d = x.data
    g_d = gamma.data.reshape(1, c, 1, 1)
    beta_d = beta.data.reshape(1, c, 1, 1)

    if training:
        m = n * h * w
        if m < 2:
            raise DegenerateBatchError(
                f"batch statistics need N*H*W >= 2, got {m}"
            )
        mean = _channel_sum(d) / m
        xhat = d - mean.reshape(1, c, 1, 1)
        out_data = np.multiply(xhat, xhat)
        var = _channel_sum(out_data) / m
        ivar = (1.0 / np.sqrt(var + eps)).reshape(1, c, 1, 1)
        xhat *= ivar
        np.multiply(g_d, xhat, out=out_data)
        out_data += beta_d
        state.mean[:] = (1.0 - momentum) * state.mean + momentum * mean
        unbias = m / (m - 1)
        state.var[:] = (1.0 - momentum) * state.var + momentum * var * unbias

        def bw(g):
            if beta.requires_grad:
                beta._accum(_channel_sum(g))
            scratch = np.multiply(g, xhat)
            if gamma.requires_grad:
                gamma._accum(_channel_sum(scratch))
            if x.requires_grad:
                dxhat = np.multiply(g, g_d)
                s1 = (_channel_sum(dxhat) / m).reshape(1, c, 1, 1)
                np.multiply(dxhat, xhat, out=scratch)
                s2 = (_channel_sum(scratch) / m).reshape(1, c, 1, 1)
                dxhat -= s1
                np.multiply(xhat, s2, out=scratch)
                dxhat -= scratch
                dxhat *= ivar
                x._accum(dxhat)

        return Tensor._make(out_data, (x, gamma, beta), bw)

    mean, ivar = _eval_moments(state, d.dtype, eps)
    ivar = ivar.reshape(1, c, 1, 1)
    xhat = d - mean.reshape(1, c, 1, 1)
    xhat *= ivar
    out_data = np.multiply(g_d, xhat)
    out_data += beta_d

    def bw_eval(g):
        if beta.requires_grad:
            beta._accum(_channel_sum(g))
        if gamma.requires_grad:
            gamma._accum(_channel_sum(g * xhat))
        if x.requires_grad:
            gx = np.multiply(g, g_d)
            gx *= ivar
            x._accum(gx)

    return Tensor._make(out_data, (x, gamma, beta), bw_eval)


# -- tensor container file (TNS1) -------------------------------------------

_TNS_MAGIC = b"TNS1"
_DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("u1")}


def tns_encode(arr: np.ndarray) -> bytes:
    """Serialize an array to TNS1 bytes: magic, dtype code, rank, u32 LE
    extents, row-major payload."""
    arr = np.ascontiguousarray(arr)
    if arr.dtype.kind == "f":
        payload = arr.astype("<f4", copy=False)
        code = 0
    elif arr.dtype.kind in ("u", "i"):
        if arr.dtype != np.uint8 and arr.size and (arr.min() < 0 or arr.max() > 255):
            raise DataIOError("integer payload out of u8 range")
        payload = arr.astype("u1", copy=False)
        code = 1
    else:
        raise DataIOError(f"unsupported dtype {arr.dtype}")
    if arr.ndim > 255:
        raise DataIOError("rank exceeds format limit")
    head = _TNS_MAGIC + struct.pack("<BB", code, arr.ndim)
    head += struct.pack(f"<{arr.ndim}I", *arr.shape)
    return head + payload.tobytes(order="C")


def tns_decode(buf: bytes, offset: int = 0) -> tuple[np.ndarray, int]:
    """Parse one TNS1 record starting at `offset`; returns (array, end).

    Every read is bounds-checked: a short or corrupt record raises
    DataIOError, never a struct or numpy error.
    """
    if buf[offset:offset + 4] != _TNS_MAGIC:
        raise DataIOError("not a TNS1 container")
    head = offset + 6
    if head > len(buf):
        raise DataIOError("TNS1 header truncated")
    code, rank = struct.unpack_from("<BB", buf, offset + 4)
    if code not in _DTYPE_CODES:
        raise DataIOError(f"unknown dtype code {code}")
    start = head + 4 * rank
    if start > len(buf):
        raise DataIOError("TNS1 extents truncated")
    dims = struct.unpack_from(f"<{rank}I", buf, head)
    dtype = _DTYPE_CODES[code]
    count = math.prod(dims)
    end = start + count * dtype.itemsize
    if end > len(buf):
        raise DataIOError("TNS1 payload truncated")
    arr = np.frombuffer(buf, dtype=dtype, count=count, offset=start).reshape(dims)
    if code == 0:
        arr = arr.astype(np.float32)
    else:
        arr = arr.copy()
    return arr, end


def save_tns(path, arr: np.ndarray) -> None:
    """Write an array as a TNS1 container file (bit-exact round trip)."""
    try:
        with open(path, "wb") as f:
            f.write(tns_encode(arr))
    except OSError as e:
        raise DataIOError(f"cannot write {path}: {e}") from e


def load_tns(path) -> np.ndarray:
    """Read a TNS1 container file; f32 payloads are checked for finiteness."""
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as e:
        raise DataIOError(f"cannot read {path}: {e}") from e
    try:
        arr, end = tns_decode(raw, 0)
    except DataIOError as e:
        raise DataIOError(f"{path}: {e.args[0] if e.args else e}") from e
    if end != len(raw):
        raise DataIOError(f"{path} has {len(raw) - end} trailing bytes")
    if arr.dtype.kind == "f" and not np.isfinite(arr).all():
        raise NumericError(f"{path} contains non-finite values")
    return arr
