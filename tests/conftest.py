"""Fixtures shared by the test modules."""

from pathlib import Path

import pytest

from cacseg import data as D
from cacseg import params


class HalfWriter:
    """File object that writes half of what it is given, then fails."""

    def __init__(self, f):
        self.f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, data):
        self.f.write(data[:len(data) // 2])
        raise OSError(28, "No space left on device")


@pytest.fixture
def fail_atomic_writes(monkeypatch):
    """Call the returned function to make every later `params.write_atomic` fail
    half-way through its write, as a full disk would. Given a file name, only
    the writes of files of that name fail. Reads are left alone."""
    real_open = open

    def arm(name=None):
        def failing_open(file, mode="r", *args, **kwargs):
            f = real_open(file, mode, *args, **kwargs)
            if "w" in mode and name in (None, Path(file).name.removesuffix(".tmp")):
                return HalfWriter(f)
            return f
        monkeypatch.setattr(params, "open", failing_open, raising=False)
    return arm


@pytest.fixture(scope="module")
def mixed_dataset(tmp_path_factory):
    """Five slices of sizes 32, 32, 16, 16, 32 in manifest order, each with
    its own slice id: slice i is slice i of a phantom of its size."""
    root = tmp_path_factory.mktemp("mixed-data")
    sizes = (32, 32, 16, 16, 32)
    for size in set(sizes):
        D.generate_phantom(D.PhantomSpec(slices=len(sizes), size=size, rng_seed=size),
                           root / f"s{size}")
    lines = ["\t".join(D.MANIFEST_COLUMNS)]
    for i, size in enumerate(sizes):
        img_rel, mask_rel, counts = D.Dataset(root / f"s{size}").rows[i]
        lines.append("\t".join([f"s{size}/{img_rel}", f"s{size}/{mask_rel}",
                                *map(str, counts)]))
    (root / D.MANIFEST_NAME).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return root
