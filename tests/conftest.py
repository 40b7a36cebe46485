"""Fixtures shared by the test modules."""

import pytest

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
    half-way through its write, as a full disk would."""
    real_open = open

    def arm():
        monkeypatch.setattr(params, "open", lambda *a, **k: HalfWriter(real_open(*a, **k)),
                            raising=False)
    return arm
