"""Dense float tensors with reverse-mode automatic differentiation.

Layout is fixed to N,C,H,W row-major. Compute is float32 by default; the
same ops run unchanged on float64 tensors, which is how the gradient
checker builds its 64-bit reference path. Gradients are accumulated
additively across fan-out, so ``y = x + x`` yields ``grad(x) == 2``.

The recorded graph is made of nodes, not values. Every tensor owns one
node, which holds its gradient slot, its backward closure, the nodes of
its inputs and its shape; the tensor itself holds only ``data``. Most
ops record through one of two helpers, given the output and a gradient
function per input: ``_record`` for a one-input op, ``Tensor._binary``
for a broadcasting two-input op, which sums each gradient down to its
operand's shape. Six keep hand-written closures: ``relu`` and
``maxpool2`` keep their switches as packed bits, and ``gate``,
``concat``, ``conv2d`` and ``batchnorm2d`` fill several inputs'
gradients in one pass. A closure, with the gradient functions it holds,
captures its inputs' nodes plus only what its backward cannot rebuild
cheaply: the weight's data, the normalized BN input ``xhat`` (batch
norm's constants are ``BN_MOMENTUM`` and ``BN_EPS``), the ReLU sign mask
as packed bits (1 bit per element), the max-pool route as two packed
bit planes (2 bits per window, no input or output), both operands of a
product or a quotient, the output of ``exp``, ``sqrt`` and ``sigmoid``,
the input of ``log``, the two gates of ``gate``, and the input of a
conv or a gate when it has no rebuild.
A node may also carry a rebuild, which writes one image of its data
back, byte for byte, from state the graph keeps anyway: the output of
batch norm has one (``gamma * xhat + beta``) and so has every gate's;
a relu or an upsample has one when its input has, and so have a sum of
two same-shaped tensors and a channel concat when all their operands
have one. A conv or a gate reads its input back one image at a time
through ``_reader``, which is the input's rebuild when it has one, so
the input is not kept, else a copy from the stored input. This relies
on no parameter being written between a forward and its backward, as
every closure that reads a parameter's data does. So an op output that
no closure saved is freed as soon as the forward drops its tensor, and
so is an op input that only a relu, a max-pool, a directional pool or an
op fed through a rebuild read. No rebuild closure holds its op's output.
``Tensor.backward`` topologically sorts the nodes and visits every op
exactly once in reverse execution order. It releases the graph as it
goes: once a node's closure has run, the node drops its gradient, its
closure, its inputs and its rebuild, so saved arrays are freed as soon
as their last consumer is done. When ``backward`` returns only leaf
grads remain, and a second ``backward`` through the released graph
raises ``ContractError``. The file formats live in ``params``.
"""

from __future__ import annotations

import weakref
from contextlib import contextmanager
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    ContractError,
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
    "gate",
    "conv2d",
    "conv2d_forward_direct",
    "maxpool2",
    "upsample_bilinear2",
    "directional_avgpool",
    "batchnorm2d",
    "fold_batchnorm",
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


def _ref(data) -> Callable[[], object]:
    """A weak reference to `data`; numpy scalars take none and are held."""
    if isinstance(data, np.ndarray):
        return weakref.ref(data)
    return lambda: data


class _Node:
    """One tensor's place in the graph: gradient slot, backward closure,
    input nodes and shape, plus a weak reference to the tensor's data."""

    __slots__ = ("grad", "requires_grad", "_parents", "_backward_fn", "rebuild", "shape",
                 "_data")

    def __init__(self, data, requires_grad: bool, parents: tuple = (),
                 backward_fn: Optional[Callable[[np.ndarray], None]] = None,
                 rebuild: Optional[Callable[[int, np.ndarray], np.ndarray]] = None):
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward_fn = backward_fn
        # rebuild(b, out) writes image b of the tensor's data into `out`,
        # byte for byte, from state the graph keeps anyway, until this
        # node's own closure has run.
        self.rebuild = rebuild
        self.shape = data.shape
        self._data = _ref(data)

    @property
    def data(self):
        """The tensor's data while something still holds it, else an empty
        array."""
        arr = self._data()
        return np.empty(0, np.float32) if arr is None else arr

    def accum(self, g: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = g.copy() if g.base is not None or g is self._data() else g
        else:
            self.grad = self.grad + g


class Tensor:
    """N-dimensional float array with an optional gradient slot.

    ``grad``, ``requires_grad``, ``_parents`` and ``_backward_fn`` live on
    the tensor's graph node; ``grad`` and ``_backward_fn`` may be set.
    """

    __slots__ = ("_data", "_node")

    def __init__(self, data, requires_grad: bool = False, check: bool = True):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if not (arr.dtype == np.float32
                or isinstance(data, np.ndarray) and arr.dtype == np.float64):
            arr = arr.astype(np.float32)
        if check and not np.isfinite(arr).all():
            raise NumericError("tensor construction received non-finite values")
        self._data: np.ndarray = arr
        self._node = _Node(arr, bool(requires_grad))

    @classmethod
    def _make(cls, data: np.ndarray, parents: tuple, backward_fn,
              rebuild=None) -> "Tensor":
        """The output of an op whose inputs have the nodes `parents`; a
        recorded output carries `rebuild` (see `_Node`)."""
        out = cls.__new__(cls)
        out._data = data
        if _grad_enabled and any(p.requires_grad for p in parents):
            out._node = _Node(data, True, parents, backward_fn, rebuild)
        else:
            out._node = _Node(data, False)
        return out

    @property
    def data(self) -> np.ndarray:
        return self._data

    @data.setter
    def data(self, arr: np.ndarray) -> None:
        self._data = arr
        self._node.shape = arr.shape
        self._node._data = _ref(arr)

    @property
    def grad(self) -> Optional[np.ndarray]:
        return self._node.grad

    @grad.setter
    def grad(self, g: Optional[np.ndarray]) -> None:
        self._node.grad = g

    @property
    def requires_grad(self) -> bool:
        return self._node.requires_grad

    @property
    def _parents(self) -> tuple:
        return self._node._parents

    @property
    def _backward_fn(self):
        return self._node._backward_fn

    @_backward_fn.setter
    def _backward_fn(self, fn) -> None:
        self._node._backward_fn = fn

    # -- introspection -------------------------------------------------

    @property
    def shape(self):
        return self._data.shape

    @property
    def ndim(self) -> int:
        return self._data.ndim

    @property
    def size(self) -> int:
        return self._data.size

    @property
    def dtype(self):
        return self._data.dtype

    def item(self) -> float:
        return float(self._data)

    def __repr__(self) -> str:
        req = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self._data.shape}, dtype={self._data.dtype}{req})"

    # -- backward ------------------------------------------------------

    def backward(self) -> None:
        """Populate grad slots of every requires_grad leaf reachable from self.

        Walks the nodes recorded behind this tensor and runs each op's
        closure once, outputs before inputs. The closures read only the
        input nodes and the arrays they saved in forward; op outputs that
        no closure saved are gone by now. The graph is released as the
        pass runs: after a node's closure has run, the node drops its
        ``grad``, its closure, its parents and its rebuild, so the arrays
        that closure saved are freed once no later closure needs them.
        Leaves (no closure) keep their grads. A later backward through any
        released node raises ``ContractError``.
        """
        if self._data.size != 1:
            raise ContractError(
                f"backward requires a scalar loss, got shape {self._data.shape}"
            )
        root = self._node
        if not root.requires_grad:
            return
        topo: list[_Node] = []
        seen: set[int] = set()
        stack: list[tuple[_Node, bool]] = [(root, False)]
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
        root.grad = np.ones_like(self._data)
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
            node.rebuild = None

    # -- elementwise arithmetic (broadcasting) --------------------------

    def _coerce(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return Tensor(np.asarray(other, dtype=self.dtype), check=False)

    def _binary(self, other: "Tensor", out_data: np.ndarray, grad_a, grad_b,
                rebuild=None) -> "Tensor":
        """`out_data` recorded as a broadcasting op of `self` and `other`:
        backward accumulates ``grad_a(g)`` into `self` and ``grad_b(g)``
        into `other`, each summed down to its operand's shape."""
        an, bn = self._node, other._node

        def bw(g):
            an.accum(_unbroadcast(grad_a(g), an.shape))
            bn.accum(_unbroadcast(grad_b(g), bn.shape))

        return Tensor._make(out_data, (an, bn), bw, rebuild)

    def __add__(self, other):
        """Broadcasting sum. When both operands carry a rebuild and have
        the output's shape and dtype, the output carries one too: the
        first operand's image, then the second's added to it."""
        b = self._coerce(other)
        out_data = self.data + b.data
        an, bn = self._node, b._node
        rebuild = None
        if (an.rebuild is not None and bn.rebuild is not None
                and an.shape == bn.shape == out_data.shape and self.dtype == b.dtype):
            rebuild_a, rebuild_b = an.rebuild, bn.rebuild

            def rebuild(i, out):
                rebuild_a(i, out)
                out += rebuild_b(i, np.empty(out.shape, out.dtype))
                return out

        return self._binary(b, out_data, lambda g: g, lambda g: g, rebuild)

    __radd__ = __add__

    def __sub__(self, other):
        b = self._coerce(other)
        return self._binary(b, self.data - b.data, lambda g: g, lambda g: -g)

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        b = self._coerce(other)
        a_d, b_d = self.data, b.data
        return self._binary(b, a_d * b_d, lambda g: g * b_d, lambda g: g * a_d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        b = self._coerce(other)
        a_d, b_d = self.data, b.data
        return self._binary(b, a_d / b_d, lambda g: g / b_d,
                            lambda g: -g * a_d / (b_d * b_d))

    def __rtruediv__(self, other):
        return self._coerce(other).__truediv__(self)

    def __neg__(self):
        return _record(self, -self.data, lambda g: -g)

    def pow(self, exponent: float, grad_floor: float = 0.0) -> "Tensor":
        """Elementwise power with a real exponent.

        ``grad_floor`` bounds the base away from zero inside the backward
        formula only; the forward value is exact. Needed when an exponent
        below one meets a base that can reach zero (the derivative there
        is unbounded).
        """
        d = self.data

        def grad(g):
            base = np.maximum(d, grad_floor) if grad_floor > 0.0 else d
            return g * exponent * base ** (exponent - 1.0)

        return _record(self, d ** exponent, grad)

    def __pow__(self, exponent: float) -> "Tensor":
        return self.pow(exponent)

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)
        return _record(self, out_data, lambda g: g * out_data)

    def log(self) -> "Tensor":
        d = self.data
        return _record(self, np.log(d), lambda g: g / d)

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)
        return _record(self, out_data, lambda g: g * 0.5 / out_data)

    def clip(self, lo: Optional[float], hi: Optional[float]) -> "Tensor":
        d = self.data
        inside = np.ones_like(d, dtype=bool)
        if lo is not None:
            inside &= d >= lo
        if hi is not None:
            inside &= d <= hi
        _trace(inside)
        return _record(self, np.clip(d, lo, hi), lambda g: g * inside)

    # -- reductions ------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        shape = self.shape
        return _record(self, self.data.sum(axis=axis, keepdims=keepdims),
                       lambda g: _spread(g, shape, axis, keepdims))

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.mean(axis=axis, keepdims=keepdims)
        count = self.data.size // max(out_data.size, 1)
        shape = self.shape
        return _record(self, out_data, lambda g: _spread(g, shape, axis, keepdims) / count)

    # -- shape ops -------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        in_shape = self.shape
        return _record(self, self.data.reshape(shape), lambda g: g.reshape(in_shape))

    def transpose(self, axes: Sequence[int]) -> "Tensor":
        axes = tuple(axes)
        inv = tuple(np.argsort(axes))
        return _record(self, self.data.transpose(axes), lambda g: g.transpose(inv))

    def narrow(self, axis: int, start: int, length: int) -> "Tensor":
        idx = [slice(None)] * self.ndim
        idx[axis] = slice(start, start + length)
        idx = tuple(idx)
        shape = self.shape

        def grad(g):
            full = np.zeros(shape, dtype=g.dtype)
            full[idx] = g
            return full

        return _record(self, self.data[idx], grad)


def _record(x: Tensor, out_data: np.ndarray, grad, rebuild=None) -> Tensor:
    """`out_data` recorded as a one-input op of `x`: backward accumulates
    ``grad(g)`` into `x`. The output carries `rebuild` (see `_Node`)."""
    xn = x._node

    def bw(g):
        xn.accum(grad(g))

    return Tensor._make(out_data, (xn,), bw, rebuild)


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
    ``record_switches`` is open; the switch record is the bool mask. The
    closure keeps the mask as ``np.packbits`` bits, one bit per element,
    and unpacks them in backward. When the input's node carries a rebuild,
    the output's node carries one too: the input's, then ``np.maximum``
    with 0, as in forward."""
    out_data = np.maximum(x.data, 0)
    xn = x._node
    grad = _grad_enabled and xn.requires_grad
    if grad or _switch_trace is not None:
        mask = x.data > 0
        _trace(mask)
    if not grad:
        return Tensor._make(out_data, (xn,), None)
    bits = np.packbits(mask, axis=None)
    shape, size = mask.shape, mask.size

    def bw(g):
        xn.accum(g * np.unpackbits(bits, count=size).view(bool).reshape(shape))

    rebuild = None
    if xn.rebuild is not None:
        rebuild_x = xn.rebuild

        def rebuild(b, out):
            return np.maximum(rebuild_x(b, out), 0, out=out)

    return Tensor._make(out_data, (xn,), bw, rebuild)


def sigmoid(x: Tensor) -> Tensor:
    """Logistic function from exp(-|x|), which cannot overflow."""
    d = x.data
    e = np.exp(-np.abs(d))
    den = 1.0 + e
    out_data = np.where(d >= 0, 1.0 / den, e / den)
    return _record(x, out_data, lambda g: g * out_data * (1.0 - out_data))


def softmax_channel(x: Tensor) -> Tensor:
    """Softmax across axis 1; every pixel's channel vector sums to 1."""
    if x.ndim < 2:
        raise DimensionError("softmax_channel requires a channel axis (ndim >= 2)")
    d = x.data
    shifted = d - d.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=1, keepdims=True)

    def grad(g):
        dot = (g * p).sum(axis=1, keepdims=True)
        return p * (g - dot)

    return _record(x, p, grad)


def _reader(t: Tensor) -> Callable[[int, np.ndarray], np.ndarray]:
    """How a backward reads image `i` of its input `t` into a buffer `out`:
    `t`'s rebuild when its node carries one (see `_Node`), so `t.data` is
    not kept, else a copy of ``t.data[i]`` from the `t.data` it holds.
    Either way the bytes are those of ``t.data[i]``."""
    if t._node.rebuild is not None:
        return t._node.rebuild
    d = t.data

    def read(i, out):
        out[...] = d[i]
        return out

    return read


def _fits_per_image(x_shape: tuple, shape: tuple) -> bool:
    """Whether a 4-D `shape` has the batch extent of `x_shape` and
    broadcasts to it image by image."""
    return (len(shape) == 4 and shape[0] == x_shape[0]
            and all(s in (1, e) for s, e in zip(shape[1:], x_shape[1:])))


def gate(x: Tensor, a: Tensor, b: Tensor) -> Tensor:
    """``x * a * b``, multiplied in that order, for a 4-D `x` and gates `a`
    and `b` of its dtype and batch extent that broadcast to its shape.

    Output and gradients have the same bytes as the two-product chain
    ``x * a * b``. No closure saves the output or the intermediate
    ``x * a`` (recompute over store, Chen et al., arXiv:1604.06174). The
    closure and the output's rebuild, ``x[i] * a[i]`` then ``*= b[i]``,
    hold the two gates and `x`'s reader (`_reader`): `x`'s own rebuild,
    or a copy of ``x.data[i]`` when `x` has none. Backward runs one image
    at a time: it reads image `i` of `x`, rebuilds ``x[i] * a[i]`` for the
    gradient of `b`, and sums each gate's gradient over the gate's unit
    axes per image, which gives the bytes of the whole-batch sum.
    """
    if x.ndim != 4 or not (_fits_per_image(x.shape, a.shape)
                           and _fits_per_image(x.shape, b.shape)):
        raise DimensionError(
            f"gate shapes {a.shape} and {b.shape} do not broadcast per image "
            f"to the input {x.shape}"
        )
    if not a.dtype == b.dtype == x.dtype:
        raise ContractError(
            f"gate dtypes {a.dtype} and {b.dtype} differ from the input's {x.dtype}"
        )
    a_d, b_d = a.data, b.data
    out_data = x.data * a_d
    out_data *= b_d
    xn, an, bn = x._node, a._node, b._node
    read_x = _reader(x)
    x_shape, dtype = x.shape, x.dtype
    # the axes of one image that each gate's gradient is summed over; with
    # none it is not summed, as a sum over no axis turns -0.0 into 0.0
    a_axes = tuple(k - 1 for k in range(1, 4) if a.shape[k] == 1 != x_shape[k])
    b_axes = tuple(k - 1 for k in range(1, 4) if b.shape[k] == 1 != x_shape[k])

    def image(i, out):
        np.multiply(read_x(i, out), a_d[i], out=out)
        out *= b_d[i]
        return out

    def bw(g):
        gx = np.empty(x_shape, g.dtype) if xn.requires_grad else None
        ga = np.empty(an.shape, g.dtype) if an.requires_grad else None
        gb = np.empty(bn.shape, g.dtype) if bn.requires_grad else None
        need_x = ga is not None or gb is not None
        x_buf = np.empty(x_shape[1:], dtype)
        for i in range(x_shape[0]):
            if need_x:
                x_i = read_x(i, x_buf)
            if gb is not None:
                xa = x_i * a_d[i]
                xa *= g[i]
                gb[i] = xa.sum(axis=b_axes, keepdims=True) if b_axes else xa
            if gx is not None or ga is not None:
                g_xa = g[i] * b_d[i]
                if gx is not None:
                    np.multiply(g_xa, a_d[i], out=gx[i])
                if ga is not None:
                    g_xa *= x_i
                    ga[i] = g_xa.sum(axis=a_axes, keepdims=True) if a_axes else g_xa
        for node, grad in ((bn, gb), (xn, gx), (an, ga)):
            if grad is not None:
                node.accum(grad)

    return Tensor._make(out_data, (xn, an, bn), bw, image)


# -- concatenation ---------------------------------------------------------


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    """Join tensors along `axis`. When the operands are 4-D, joined on the
    channel axis, all of one dtype and each carrying a rebuild, the output
    carries one too: each operand's rebuild writes its channel slice of
    the given image, so no consumer need store the output."""
    ref = tensors[0].shape
    for i, t in enumerate(tensors[1:], start=1):
        for a, (s0, s1) in enumerate(zip(ref, t.shape)):
            if a != axis % len(ref) and s0 != s1:
                raise DimensionError(
                    f"concat operand {i} has extent {s1} on axis {a}, expected {s0}"
                )
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    nodes = tuple(t._node for t in tensors)

    def bw(g):
        start = 0
        for node in nodes:
            s = node.shape[axis]
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(start, start + s)
            node.accum(g[tuple(idx)])
            start += s

    rebuild = None
    parts = [node.rebuild for node in nodes]
    if (len(ref) == 4 and axis % 4 == 1 and None not in parts
            and all(t.dtype == tensors[0].dtype for t in tensors)):
        widths = [node.shape[1] for node in nodes]

        def rebuild(i, out):
            start = 0
            for part, c in zip(parts, widths):
                part(i, out[start:start + c])
                start += c
            return out

    return Tensor._make(out_data, nodes, bw, rebuild)


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    return concat([a, b], axis=1)


# -- convolution -----------------------------------------------------------


def conv2d_forward_direct(x: np.ndarray, w: np.ndarray, b: Optional[np.ndarray],
                          padding: int = 0) -> np.ndarray:
    """Plain-loop cross-correlation at unit stride; the correctness-defining
    form.

    Test-scale only: the tests check that the Tensor op below, a
    shift-and-accumulate GEMM kernel, agrees with it to 1e-5.
    """
    n, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    hout = h + 2 * padding - kh + 1
    wout = wd + 2 * padding - kw + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((n, cout, hout, wout), dtype=x.dtype)
    for ni in range(n):
        for co in range(cout):
            for i in range(hout):
                for j in range(wout):
                    out[ni, co, i, j] = np.sum(xp[ni, :, i:i + kh, j:j + kw] * w[co])
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


def _zero_border(buf: np.ndarray, padding: int) -> None:
    """Zero the outer `padding` rows and columns of each channel of `buf`."""
    if padding:
        buf[:, :padding] = 0
        buf[:, -padding:] = 0
        buf[:, :, :padding] = 0
        buf[:, :, -padding:] = 0


def conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
           padding: int = 0) -> Tensor:
    """2D cross-correlation over N,C,H,W with gradients for all operands.

    Shift-and-accumulate kernel (MEC, Cho & Brand 2017): with an image
    padded and flattened to (C, Hp*Wp), the input of kernel tap (i, j) for
    every output pixel is the one slice starting at i*Wp + j, and output
    pixel (r, c) sits at r*Wp + c. So each tap is one GEMM per image,
    ``W[:, :, i, j] @ slice``, accumulated into a (Cout, Hout, Wp) scratch
    whose first Wout columns are copied out; the last Wp - Wout columns
    per row are junk. Backward uses the same slices: grad-w of a tap is
    ``slice @ g.T``, summed over the images in batch order, and grad-x adds
    ``W[:, :, i, j].T @ g`` into the slice of one image's zeroed padded
    buffer, whose interior is then copied into grad-x. `g` is widened to
    row pitch Wp one image at a time.

    Every pass works one image at a time, on the same path at every
    padding and kernel size, a 1x1 conv included. The forward writes each
    image into one zero-bordered (Cin, Hp, Wp) scratch. The backward has
    one such scratch too: per image its border is zeroed and the input's
    reader (`_reader`) fills its interior for grad-w, then it is zeroed
    whole and accumulates grad-x. No full-batch padded copy, accumulator
    or widened gradient is built, and no column buffer either. The
    backward closure holds the weight's data, whose transposed taps
    backward builds again, and the reader: the input's rebuild when its
    node carries one (see `_Node`), so no input is kept (recompute over
    store, Chen et al., arXiv:1604.06174), else a copy from the stored
    unpadded input. Either way the bytes are those the forward read.

    The taps of one image run back to back, so its accumulator stays in
    cache, and an image's output does not depend on the batch it came in.
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
    if kh > h + 2 * padding or kw > w + 2 * padding:
        raise DimensionError(
            f"conv2d kernel {kh}x{kw} exceeds padded input {h + 2 * padding}x{w + 2 * padding}"
        )
    if bias is not None and bias.shape != (cout,):
        raise DimensionError(
            f"conv2d bias has shape {bias.shape}, expected ({cout},)"
        )
    hp, wp = h + 2 * padding, w + 2 * padding
    hout, wout = hp - kh + 1, wp - kw + 1
    # The flat length from the first output pixel to the last: tap (i, j)
    # reads an image's x_flat[:, off:off + span].
    span = hout * wp - kw + 1
    taps = [(i, j, i * wp + j) for i in range(kh) for j in range(kw)]
    w_taps = np.ascontiguousarray(weight.data.transpose(2, 3, 0, 1))

    dtype = x.dtype if bias is None else np.result_type(x.dtype, bias.dtype)
    out_data = np.empty((n, cout, hout, wout), dtype=dtype)
    buf = np.zeros((cin, hp, wp), dtype=x.dtype)
    x_flat = buf.reshape(cin, hp * wp)
    wide = np.empty((cout, hout, wp), dtype=x.dtype)
    acc = wide.reshape(cout, hout * wp)[:, :span]
    tmp = np.empty((cout, span), dtype=x.dtype)
    for b in range(n):
        buf[:, padding:padding + h, padding:padding + w] = x.data[b]
        for t, (i, j, off) in enumerate(taps):
            x_tap = x_flat[:, off:off + span]
            if t == 0:
                _tap_product(w_taps[i, j], x_tap, acc)
            else:
                acc += _tap_product(w_taps[i, j], x_tap, tmp)
        out_data[b] = wide[..., :wout]
        if bias is not None:
            out_data[b] += bias.data.reshape(cout, 1, 1)

    xn, wn = x._node, weight._node
    bn = None if bias is None else bias._node
    parents = (xn, wn) if bn is None else (xn, wn, bn)
    read_x = _reader(x)
    w_d = weight.data

    def bw(g):
        if bn is not None and bn.requires_grad:
            bn.accum(g.sum(axis=(0, 2, 3)))
        if wn.requires_grad:
            gw = np.empty((kh, kw, cin, cout), dtype=g.dtype)
            prod = np.empty((cin, cout), dtype=g.dtype)
        if xn.requires_grad:
            # built here, not kept from forward, so the closure holds the weight only
            w_taps = np.ascontiguousarray(w_d.transpose(2, 3, 0, 1))
            # grad-x owns its memory, so accum keeps it without a copy
            gx = np.empty((n, cin, h, w), dtype=g.dtype)
            g_tap = np.empty((cin, span), dtype=g.dtype)
        pad = np.empty((cin, hp, wp), dtype=g.dtype)
        pad_flat = pad.reshape(cin, hp * wp)
        interior = pad[:, padding:padding + h, padding:padding + w]
        g_wide = np.zeros((cout, hout, wp), dtype=g.dtype)
        g_flat = g_wide.reshape(cout, hout * wp)[:, :span]
        g_flat_t = g_flat.T
        for b in range(n):
            g_wide[..., :wout] = g[b]
            if wn.requires_grad:
                # grad-x left its sums in the border; the input fills the interior
                _zero_border(pad, padding)
                read_x(b, interior)
                for i, j, off in taps:
                    # images summed in batch order, as .sum(axis=0) of their stack is
                    if b == 0:
                        np.matmul(pad_flat[:, off:off + span], g_flat_t, out=gw[i, j])
                    else:
                        gw[i, j] += np.matmul(pad_flat[:, off:off + span], g_flat_t, out=prod)
            if xn.requires_grad:
                pad.fill(0)
                for i, j, off in taps:
                    pad_flat[:, off:off + span] += np.matmul(w_taps[i, j].T, g_flat, out=g_tap)
                gx[b] = interior
        if wn.requires_grad:
            wn.accum(gw.transpose(3, 2, 0, 1))
        if xn.requires_grad:
            xn.accum(gx)

    return Tensor._make(out_data, parents, bw)


# -- pooling / resampling ----------------------------------------------------


def _pool_taps(a: np.ndarray) -> tuple:
    """The four stride-2 views of 2x2 windows, in scan order."""
    return (a[:, :, 0::2, 0::2], a[:, :, 0::2, 1::2],
            a[:, :, 1::2, 0::2], a[:, :, 1::2, 1::2])


def _pool_route(taps: tuple, out: np.ndarray) -> np.ndarray:
    """Per window, the scan-order index (0..3) of the first element equal to
    `out`, as uint8: the count of leading elements that differ from it."""
    miss = np.not_equal(taps[0], out)
    route = miss.astype(np.uint8)
    for tap in taps[1:3]:
        miss &= np.not_equal(tap, out)
        route += miss
    return route


def maxpool2(x: Tensor) -> Tensor:
    """2x2 max pooling, stride 2. Ties route gradient to the first window
    element in scan order.

    Output, gradient and switch record have the same bytes as the plain
    form: ``argmax`` over each window, ``take_along_axis`` forward and
    ``put_along_axis`` backward. ``np.maximum`` returns its second operand
    on ties (``-0.0`` against ``0.0`` included), so the operand order below
    keeps the first window element, as ``argmax`` does. The route of a
    window is the index of its first element equal to the output, the
    ``argmax``; it is built only when a backward can use it or
    ``record_switches`` is open, and recorded there as an ``intp`` index.
    The backward closure keeps neither the input nor the output, only the
    route as two ``np.packbits`` bit planes, 2 bits per window.
    For finite inputs only; a NaN window routes to its last element.
    """
    if x.ndim != 4:
        raise DimensionError(f"maxpool2 input must be 4D, got shape {x.shape}")
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise DimensionError(f"maxpool2 requires even H and W, got {h}x{w}")
    taps = _pool_taps(x.data)
    out_data = np.maximum(np.maximum(taps[3], taps[2]), np.maximum(taps[1], taps[0]))
    xn = x._node
    grad = _grad_enabled and xn.requires_grad
    if grad or _switch_trace is not None:
        route = _pool_route(taps, out_data)
        if _switch_trace is not None:
            _trace(route.astype(np.intp))
    if not grad:
        return Tensor._make(out_data, (xn,), None)
    low = np.packbits(route & 1, axis=None)
    high = np.packbits(route >> 1, axis=None)
    shape, size = route.shape, route.size

    def bw(g):
        route = np.unpackbits(high, count=size).reshape(shape)
        route <<= 1
        route |= np.unpackbits(low, count=size).reshape(shape)
        # Every element of gx is written once, by its tap: the bit pattern
        # of g where the route picks that tap, else all zero bits (+0.0).
        gx = np.empty((n, c, h, w), dtype=g.dtype)
        bits = np.dtype(f"u{g.dtype.itemsize}")
        for k, g_tap in enumerate(_pool_taps(gx.view(bits))):
            np.multiply(g.view(bits), route == k, out=g_tap)
        xn.accum(gx)

    return Tensor._make(out_data, (xn,), bw)


def _lerp_matrix(length: int, dtype) -> np.ndarray:
    """(2L, L) doubling matrix: bilinear, half-pixel centers, edges clamped.
    Row i adds ``1 - t`` then ``t`` at the clamped pixels either side of
    ``(i + 0.5) / 2 - 0.5``, as the loop in ``tests/plain_forms.py`` does."""
    rows = np.arange(2 * length)
    src = (rows + 0.5) / 2.0 - 0.5
    j0 = np.floor(src)
    t = src - j0
    m = np.zeros((2 * length, length), dtype=np.float64)
    np.add.at(m, (rows, np.clip(j0, 0, length - 1).astype(np.intp)), 1.0 - t)
    np.add.at(m, (rows, np.clip(j0 + 1, 0, length - 1).astype(np.intp)), t)
    return m.astype(dtype)


def upsample_bilinear2(x: Tensor) -> Tensor:
    """Double H and W by bilinear interpolation (half-pixel convention,
    same as common align_corners=False).

    Two matmuls per image and channel, ``Mh @ x @ Mw.T``, backward
    ``Mh.T @ (g @ Mw)``: each writes a contiguous result, so no transpose
    or copy follows, and each image's GEMMs have the same shapes in any
    batch, so its output does not depend on the batch it came in. When
    the input's node carries a rebuild, the output's node carries one
    too: the input's image, then the same two matmuls on it alone.
    """
    if x.ndim != 4:
        raise DimensionError(f"upsample_bilinear2 input must be 4D, got shape {x.shape}")
    n, c, h, w = x.shape
    mh = _lerp_matrix(h, x.dtype)
    mw = _lerp_matrix(w, x.dtype)
    out_data = np.matmul(np.matmul(mh, x.data), mw.T)
    rebuild = None
    if x._node.rebuild is not None:
        rebuild_x, dtype = x._node.rebuild, x.dtype

        def rebuild(i, out):
            x_i = rebuild_x(i, np.empty((c, h, w), dtype))
            out[...] = np.matmul(np.matmul(mh, x_i), mw.T)
            return out

    return _record(x, out_data, lambda g: np.matmul(mh.T, np.matmul(g, mw)), rebuild)


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
    shape = x.shape
    return _record(x, out_data, lambda g: np.broadcast_to(g / extent, shape))


# -- batch normalization -------------------------------------------------


# batch norm's running-moment rate and variance floor, training and folded alike
BN_MOMENTUM = 0.1
BN_EPS = 1e-5


class RunningMoments:
    """Per-channel EMA of batch mean/variance (the non-trainable BN state)."""

    __slots__ = ("mean", "var")

    def __init__(self, channels: int, dtype=np.float32):
        self.mean = np.zeros(channels, dtype=dtype)
        self.var = np.ones(channels, dtype=dtype)


def fold_batchnorm(weight: Tensor, gamma: Tensor, beta: Tensor,
                   state: RunningMoments) -> tuple[Tensor, Tensor]:
    """Weight and bias of the one conv that computes conv -> eval-mode BN.

    With ``scale = gamma * ivar``, where ``ivar = 1 / sqrt(var + BN_EPS)`` is
    formed from the stored variance in its own dtype and then cast to the
    weight's, ``w' = w * scale`` per output channel and
    ``b' = beta - mean * scale`` (Jacob et al., arXiv:1712.05877 §3.2).
    The product is rounded in another order than the unfused pair, so the
    conv output agrees with it to a tolerance, not to the byte. Built from
    Tensor ops, so gradients reach `weight`, `gamma` and `beta`.
    """
    mean = Tensor(state.mean.astype(weight.dtype), check=False)
    ivar = Tensor((1.0 / np.sqrt(state.var + BN_EPS)).astype(weight.dtype), check=False)
    scale = gamma * ivar
    w = weight * scale.reshape(-1, 1, 1, 1)
    b = beta - mean * scale
    return w, b


def batchnorm2d(x: Tensor, gamma: Tensor, beta: Tensor, state: RunningMoments) -> Tensor:
    """Per-channel normalization with batch statistics and an affine
    transform; updates `state` by EMA at rate ``BN_MOMENTUM`` (variance
    stored unbiased).

    This is the training-mode op only. Eval mode never normalizes an
    activation: `fold_batchnorm` folds the stored moments and the affine
    into the preceding conv.

    Every output, gradient and running moment has the same bytes as the
    plain form ``xhat = (x - mean) * ivar`` with
    ``ivar = 1 / sqrt(var + BN_EPS)``, ``out = gamma * xhat + beta``
    with numpy's ``mean``/``var`` over (N, H, W), and backward
    ``ivar * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat))``: the same
    operations run in the same order, in place in fresh buffers. Each
    mean is numpy's channel sum ``a.sum(axis=(0, 2, 3))`` divided by
    N*H*W, which is bit for bit numpy's ``mean`` and ``var`` (checked in
    ``tests/test_tensor.py`` on the shapes the nets use). A forward
    allocates two activation-sized arrays, ``xhat`` and the output, and the
    backward closure holds ``xhat`` only; a backward allocates two more.
    Nothing is written in place into ``x.data`` or the incoming gradient.
    The output's node carries a rebuild, which writes image `b` of the
    output into a given buffer from ``xhat``, gamma and beta, with the
    forward's two operations in their order, so a conv fed by this output
    (or a relu of it) need not store its input.
    """
    if x.ndim != 4:
        raise DimensionError(f"batchnorm2d input must be 4D, got shape {x.shape}")
    n, c, h, w = x.shape
    if gamma.shape != (c,) or beta.shape != (c,):
        raise DimensionError(
            f"batchnorm2d affine params must have shape ({c},), got {gamma.shape} and {beta.shape}"
        )
    m = n * h * w
    if m < 2:
        raise DegenerateBatchError(f"batch statistics need N*H*W >= 2, got {m}")
    d = x.data
    g_d = gamma.data.reshape(1, c, 1, 1)
    xn, gn, bn = x._node, gamma._node, beta._node
    axes = (0, 2, 3)
    mean = d.sum(axis=axes) / m
    xhat = d - mean.reshape(1, c, 1, 1)
    out_data = np.multiply(xhat, xhat)
    var = out_data.sum(axis=axes) / m
    ivar = (1.0 / np.sqrt(var + BN_EPS)).reshape(1, c, 1, 1)
    xhat *= ivar
    np.multiply(g_d, xhat, out=out_data)
    beta_d = beta.data.reshape(1, c, 1, 1)
    out_data += beta_d
    state.mean[:] = (1.0 - BN_MOMENTUM) * state.mean + BN_MOMENTUM * mean
    unbias = m / (m - 1)
    state.var[:] = (1.0 - BN_MOMENTUM) * state.var + BN_MOMENTUM * var * unbias

    def rebuild(b, out):
        np.multiply(g_d[0], xhat[b], out=out)
        out += beta_d[0]
        return out

    def bw(g):
        if bn.requires_grad:
            bn.accum(g.sum(axis=axes))
        scratch = np.multiply(g, xhat)
        if gn.requires_grad:
            gn.accum(scratch.sum(axis=axes))
        if xn.requires_grad:
            dxhat = np.multiply(g, g_d)
            s1 = (dxhat.sum(axis=axes) / m).reshape(1, c, 1, 1)
            np.multiply(dxhat, xhat, out=scratch)
            s2 = (scratch.sum(axis=axes) / m).reshape(1, c, 1, 1)
            dxhat -= s1
            np.multiply(xhat, s2, out=scratch)
            dxhat -= scratch
            dxhat *= ivar
            xn.accum(dxhat)

    return Tensor._make(out_data, (xn, gn, bn), bw, rebuild)


# perfbench reads these two names here; ROADMAP direction 4's benchmark change
# deletes this line. It comes last as params imports Tensor from this module.
from .params import load_tns, save_tns  # noqa: E402,F401
