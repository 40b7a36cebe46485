"""What the backward closures of one training step hold when backward starts.

For a desk64-shaped step (L2, base 8, batch 16, 64x64) and a deep128-shaped
step (L4, base 16, batch 4, 128x128), both FocalLogDice with
inverse-frequency weights of a sparse mask, this runs forward and the loss
under tracemalloc, then walks the recorded graph from the loss. Every
array a closure captures, directly or in a tuple or list, is charged to
its underlying buffer (a view counts as the array it views), and each
buffer once: to the first op, in backward order, whose closure holds it.
A recorder's closure (`_record`, `Tensor._binary`) is named after the
op whose gradient functions it holds (`log`, `__mul__`, `sigmoid`, ...),
and what those functions hold counts as held directly. A closure also
holds what the other functions in its cells hold (a conv's rebuild of
its input), followed to any depth; a buffer reached only that way is
charged after every directly held one, so it lands on the op that holds
it directly when there is one. No buffer of a parameter is
charged, since the store holds those anyway. It prints, per op, the closures
counted and the MiB they hold, then the total, the traced memory when
backward starts, the traced peak of the forward and loss above their
start and the traced peak of the backward pass above its start. Last,
after one Adam step, it saves the training state (the store plus Adam's
moments, as each epoch's checkpoint holds them) and prints the traced
peak of that save above its start, with the file's size and its largest
entry.

    python3 tools/saved_state.py <checkout>

`<checkout>` is the root of a cacseg tree; its `src/` is imported, so two
checkouts give two comparable tables.
"""

from __future__ import annotations

import sys
import tempfile
import tracemalloc
from collections import defaultdict
from pathlib import Path
from types import FunctionType

import numpy as np

MIB = 2 ** 20

# name: (levels, base channels, batch, image side)
STEPS = {"desk64": (2, 8, 16, 64), "deep128": (4, 16, 4, 128)}


def _buffer(arr: np.ndarray) -> np.ndarray:
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def _arrays(value, functions: list):
    """The arrays in `value`; the functions met are appended to `functions`."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays(item, functions)
    elif isinstance(value, FunctionType):
        functions.append(value)


def _cells(fn):
    return [cell.cell_contents for cell in fn.__closure__ or ()]


def _op_name(fn) -> str:
    return fn.__qualname__.split(".<locals>")[0].removeprefix("Tensor.")


def _closure(fn) -> tuple[str, list]:
    """(op, values held) of the backward closure `fn`. The closure of a
    recorder (`_record`, `Tensor._binary`) is named by the gradient
    functions it holds, and holds what they hold as its own."""
    op, cells = _op_name(fn), _cells(fn)
    if op not in ("_record", "_binary"):
        return op, cells
    grads = [c for c in cells if isinstance(c, FunctionType)]
    held = [c for c in cells if not isinstance(c, FunctionType)]
    return _op_name(grads[0]), held + [c for g in grads for c in _cells(g)]


def saved_state(root, params) -> tuple[dict, dict]:
    """({op: MiB}, {op: closures}) of the graph behind the node `root`,
    charging none of the arrays `params`."""
    held, closures = defaultdict(float), defaultdict(int)
    seen_nodes, seen_buffers = set(), {id(_buffer(arr)) for arr in params}
    indirect = []   # (op, function) met in a closure cell, in backward order

    def charge(op, values, functions):
        for arr in _arrays(values, functions):
            buf = _buffer(arr)
            if id(buf) not in seen_buffers:
                seen_buffers.add(id(buf))
                held[op] += buf.nbytes / MIB

    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen_nodes:
            continue
        seen_nodes.add(id(node))
        fn = node._backward_fn
        if fn is None:
            continue
        op, values = _closure(fn)
        closures[op] += 1
        functions = []
        charge(op, values, functions)
        indirect += [(op, f) for f in functions]
        stack.extend(reversed(node._parents))
    seen_functions = set()
    for op, fn in indirect:
        functions = [fn]
        while functions:
            fn = functions.pop()
            if id(fn) not in seen_functions:
                seen_functions.add(id(fn))
                charge(op, _cells(fn), functions)
    return held, closures


def step(levels: int, base: int, batch: int, side: int) -> None:
    from cacseg.losses import LossConfig, class_weights_from_counts, loss_by_variant
    from cacseg.network import ArchConfig, build, forward
    from cacseg.tensor import Tensor
    from cacseg.training import TrainConfig, _save_training_state, adam_init, adam_step

    rng = np.random.default_rng(5)
    store = build(ArchConfig(levels=levels, base_channels=base), 0)
    x = Tensor(rng.standard_normal((batch, 1, side, side)).astype(np.float32))
    target = np.zeros((batch, side, side), np.int64)
    lesion = side // 10
    for i in range(batch):
        r, c = rng.integers(4, side - lesion - 2, size=2)
        target[i, r:r + lesion, c:c + lesion] = 1 + i % 4
    counts = np.bincount(target.ravel(), minlength=6)
    loss_fn = loss_by_variant(LossConfig(class_weights=class_weights_from_counts(counts)))

    tracemalloc.start()
    try:
        base_mem = tracemalloc.get_traced_memory()[0]
        loss = loss_fn(forward(store, x, training=True), target)
        start, forward_peak = tracemalloc.get_traced_memory()
        held, closures = saved_state(loss._node, [t.data for _, t in store.items()])
        tracemalloc.reset_peak()
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    print(f"{'op':<22} {'closures':>8} {'MiB held':>9}")
    for op in sorted(closures, key=lambda op: held[op], reverse=True):
        print(f"{op:<22} {closures[op]:>8} {held[op]:>9.1f}")
    print(f"{'total':<22} {sum(closures.values()):>8} {sum(held.values()):>9.1f}")
    print(f"traced memory when backward starts: {(start - base_mem) / MIB:.1f} MiB")
    print(f"forward and loss traced peak above their start: {(forward_peak - base_mem) / MIB:.1f} MiB")
    print(f"backward traced peak above its start: {(peak - start) / MIB:.1f} MiB")

    state = adam_init(store)
    adam_step(store, state, 1e-3, TrainConfig())
    largest = max(t.data.nbytes for _, t in store.items())
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "last.rckp"
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            _save_training_state(path, store, state, 1, 0.0, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
    print(f"save_checkpoint traced peak above its start: {(peak - start) / MIB:.2f} MiB "
          f"(file {size / MIB:.1f} MiB, largest entry {largest / MIB:.1f} MiB)")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(f"usage: {Path(sys.argv[0]).name} <checkout>", file=sys.stderr)
        return 2
    src = Path(argv[0]).resolve() / "src"
    if not (src / "cacseg").is_dir():
        print(f"{src} holds no cacseg package", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    for name, shape in STEPS.items():
        levels, base, batch, side = shape
        print(f"== {name}: L{levels}, base {base}, batch {batch}, {side}x{side}")
        step(*shape)
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
