"""Span tracer for the traced run.

The program carries no probe. Instead the traced run replaces public
functions of the cacseg modules, at the module attribute where their
callers look them up (``cacseg.network.conv2d``, ``cacseg.training.forward``,
``Tensor.__add__`` ...), with wrappers that open a span around the call.

A span's self time is its duration minus the durations of the spans
opened directly inside it. Backward time is attributed through the
backward closure an op's output carries: the wrapper swaps that closure
for a timed one, which also charges its time to every block (attention
prefix, loss) that was open when the op ran forward.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2 ** 20


def resident_mb() -> float:
    """Current resident set of this process, in MB."""
    with open("/proc/self/statm", "rb") as f:
        return int(f.read().split()[1]) * _PAGE_MB


class Tracer:
    """Spans kept in memory as per-name totals; nothing is written out."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.enabled = False
        self.reset()
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.total = defaultdict(float)      # name -> seconds inside the span
        self.self_time = defaultdict(float)  # name -> seconds minus child spans
        self.calls = defaultdict(int)
        self.counters = defaultdict(float)
        self.peaks = defaultdict(float)
        self.blocks: list[str] = []          # blocks open in forward order
        self._open: list[list] = []          # [name, start, child seconds]

    # -- spans ---------------------------------------------------------

    def begin(self, name: str) -> None:
        self._open.append([name, self.clock(), 0.0])

    def end(self) -> float:
        name, start, child = self._open.pop()
        dur = self.clock() - start
        self.total[name] += dur
        self.self_time[name] += dur - child
        self.calls[name] += 1
        if self._open:
            self._open[-1][2] += dur
        return dur

    @contextmanager
    def span(self, name: str):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    @contextmanager
    def block(self, name: str):
        """A span whose ops' backward time is also charged to `name`.bwd."""
        self.blocks.append(name)
        try:
            with self.span(name + ".fwd"):
                yield
        finally:
            self.blocks.pop()

    def peak(self, name: str, value: float) -> None:
        self.peaks[name] = max(self.peaks[name], value)

    # -- backward attribution ---------------------------------------------

    def time_backward(self, out, op: str, flop: float = 0.0) -> None:
        """Swap the backward closure `out` carries for a timed one."""
        fn = getattr(out, "_backward_fn", None)
        if fn is None or getattr(fn, "traced", False):
            return
        blocks = tuple(self.blocks)
        name = f"tensor.{op}.bwd"

        def timed(g):
            if not self.enabled:
                return fn(g)
            self.begin(name)
            try:
                fn(g)
            finally:
                dur = self.end()
            for b in blocks:
                self.total[b + ".bwd"] += dur
            self.counters[name + ".flop"] += flop

        timed.traced = True
        out._backward_fn = timed

    # -- installing wrappers ------------------------------------------------

    def _resolve(self, path: str):
        """'pkg.mod:attr' or 'pkg.mod:Class.attr' -> (owner, attr, value)."""
        mod_name, _, dotted = path.partition(":")
        try:
            owner = importlib.import_module(mod_name)
            *parents, attr = dotted.split(".")
            for p in parents:
                owner = getattr(owner, p)
            return owner, attr, getattr(owner, attr)
        except (ImportError, AttributeError):
            self.missing.append(path)
            print(f"trace: {path} not found, its metric reads 0", file=sys.stderr)
            return None

    def install(self, path: str, make_wrapper) -> None:
        found = self._resolve(path)
        if found is None:
            return
        owner, attr, orig = found
        self._undo.append((owner, attr, orig))
        setattr(owner, attr, make_wrapper(orig))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def wrap_span(self, path: str, name: str, count=None) -> None:
        """Time every call of `path` as span `name`; `count(args)` adds to a counter."""
        def make(orig):
            def wrapper(*args, **kwargs):
                if not self.enabled:
                    return orig(*args, **kwargs)
                if count is not None:
                    self.counters[name] += count(args)
                with self.span(name):
                    return orig(*args, **kwargs)
            return wrapper
        self.install(path, make)

    def wrap_op(self, path: str, op: str, flop=None) -> None:
        """Time forward as span tensor.<op>.fwd and backward through the closure.

        `flop(args, out)` returns (forward flop, backward flop) for counting.
        """
        name = f"tensor.{op}.fwd"

        def make(orig):
            def wrapper(*args, **kwargs):
                if not self.enabled:
                    return orig(*args, **kwargs)
                self.begin(name)
                try:
                    out = orig(*args, **kwargs)
                finally:
                    self.end()
                fwd, bwd = flop(args, out) if flop is not None else (0.0, 0.0)
                self.counters[name + ".flop"] += fwd
                self.time_backward(out, op, bwd)
                return out
            return wrapper
        self.install(path, make)

    def wrap_block(self, path: str, name_of) -> None:
        """Open block `name_of(args, kwargs)` around every call of `path`."""
        def make(orig):
            def wrapper(*args, **kwargs):
                if not self.enabled:
                    return orig(*args, **kwargs)
                with self.block(name_of(args, kwargs)):
                    return orig(*args, **kwargs)
            return wrapper
        self.install(path, make)


def conv_flop(args, out):
    """Multiply-adds of a conv2d counted as 2 flop, from the operand shapes."""
    x, w = args[0], args[1]
    n, cout, ho, wo = out.shape
    fwd = 2.0 * n * cout * ho * wo * w.shape[1] * w.shape[2] * w.shape[3]
    grads = int(x.requires_grad) + int(w.requires_grad)
    return fwd, fwd * grads if out.requires_grad else 0.0


_OPS = {
    "cacseg.network": ("conv2d", "batchnorm2d", "relu", "maxpool2",
                       "upsample_bilinear2", "concat_channels"),
    "cacseg.attention": ("conv2d", "batchnorm2d", "relu", "sigmoid",
                         "directional_avgpool", "concat"),
    "cacseg.losses": ("softmax_channel",),
}
# Tensor methods, timed together as tensor.elementwise: arithmetic, unary
# math, clip, reductions and the view ops.
_ELEMENTWISE = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "pow",
                "__pow__", "exp", "log", "sqrt", "clip", "sum", "mean",
                "reshape", "transpose", "narrow")

OPS = ("conv2d", "batchnorm2d", "relu", "maxpool2", "upsample_bilinear2",
       "concat", "directional_avgpool", "sigmoid", "softmax_channel", "elementwise")


def _prefix(args, kwargs):
    return "attention." + (kwargs["prefix"] if "prefix" in kwargs else args[2])


def _graph_size(root):
    """(nodes, MB of node outputs) of the graph recorded behind `root`."""
    seen = {id(root)}
    stack = [root]
    nbytes = 0
    while stack:
        node = stack.pop()
        nbytes += node.data.nbytes
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen), nbytes / 2 ** 20


def instrument(tracer: Tracer) -> None:
    """Install every wrapper of the traced run."""
    for module, names in _OPS.items():
        for attr in names:
            op = "concat" if attr == "concat_channels" else attr
            tracer.wrap_op(f"{module}:{attr}", op,
                           flop=conv_flop if op == "conv2d" else None)
    for attr in _ELEMENTWISE:
        tracer.wrap_op(f"cacseg.tensor:Tensor.{attr}", "elementwise")

    def make_backward(orig):
        def backward(self):
            if not tracer.enabled:
                return orig(self)
            nodes, mb = _graph_size(self)
            tracer.counters["tensor.graph_nodes"] += nodes
            tracer.counters["tensor.graph_mb"] += mb
            tracer.peak("process.step_peak_mb", resident_mb())
            with tracer.span("tensor.backward"):
                return orig(self)
        return backward
    tracer.install("cacseg.tensor:Tensor.backward", make_backward)

    for path in ("cacseg.network:rica_forward", "cacseg.network:ca_forward",
                 "cacseg.attention:ca_forward"):
        tracer.wrap_block(path, _prefix)

    def make_forward(orig):
        def forward(*args, **kwargs):
            if not tracer.enabled:
                return orig(*args, **kwargs)
            with tracer.span("network.forward"):
                out = orig(*args, **kwargs)
            tracer.peak("process.step_peak_mb", resident_mb())
            return out
        return forward
    for path in ("cacseg.training:forward", "cacseg.cli:forward"):
        tracer.install(path, make_forward)

    def make_loss_by_variant(orig):
        def loss_by_variant(*args, **kwargs):
            fn = orig(*args, **kwargs)

            def loss(*a, **k):
                if not tracer.enabled:
                    return fn(*a, **k)
                with tracer.block("losses"):
                    return fn(*a, **k)
            return loss
        return loss_by_variant
    tracer.install("cacseg.training:loss_by_variant", make_loss_by_variant)

    for path, name, count in (
        ("cacseg.training:adam_step", "training.adam", None),
        ("cacseg.training:evaluate_dice", "training.validate", None),
        ("cacseg.data:Dataset.sample", "data.sample", None),
        ("cacseg.data:augment", "data.augment", None),
        ("cacseg.data:preprocess", "data.preprocess", None),
        ("cacseg.data:generate_phantom", "data.phantom", lambda a: a[0].slices),
        ("cacseg.training:save_checkpoint", "params.save_checkpoint", None),
        ("cacseg.network:load_checkpoint", "params.load_checkpoint", None),
        ("cacseg.evaluation:agatston_per_lesion", "evaluation.agatston", None),
        ("cacseg.cli:export_prediction", "evaluation.export", None),
    ):
        tracer.wrap_span(path, name, count)
