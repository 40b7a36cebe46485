"""Named, ordered parameter collection plus checkpoint serialization.

A ParameterStore maps unique names to trainable tensors and holds the
batch-norm running moments separately. Iteration order is insertion
order, which the builders keep deterministic, so a fixed seed always
produces a bit-identical store.

Checkpoint container (RCKP): magic "RCKP", u32 version, u32 entry count,
then per entry a u16 name length, the UTF-8 name, and an embedded TNS1
tensor. Round trips are bit-exact.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import ContractError, DataIOError
from .tensor import RunningMoments, Tensor, tns_decode, tns_encode

_RCKP_MAGIC = b"RCKP"
_RCKP_VERSION = 1

_MEAN_SUFFIX = ".running_mean"
_VAR_SUFFIX = ".running_var"


def kaiming_conv(rng: np.random.Generator, cout: int, cin: int, kh: int, kw: int,
                 dtype=np.float32) -> np.ndarray:
    """Fan-in scaled normal init for conv weights feeding a ReLU."""
    fan_in = cin * kh * kw
    std = np.sqrt(2.0 / fan_in)
    return (rng.standard_normal((cout, cin, kh, kw)) * std).astype(dtype)


class ParameterStore:
    """Ordered name -> tensor map with attached batch-norm state."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._moments: dict[str, RunningMoments] = {}
        self.arch = None  # set by the network builder / checkpoint loader

    def add_param(self, name: str, array: np.ndarray) -> Tensor:
        if name in self._params:
            raise ContractError(f"duplicate parameter name {name!r}")
        t = Tensor(array, requires_grad=True)
        self._params[name] = t
        return t

    def add_moments(self, name: str, channels: int) -> RunningMoments:
        if name in self._moments:
            raise ContractError(f"duplicate moments name {name!r}")
        m = RunningMoments(channels)
        self._moments[name] = m
        return m

    def param(self, name: str) -> Tensor:
        try:
            return self._params[name]
        except KeyError:
            raise ContractError(f"unknown parameter {name!r}") from None

    def moments(self, name: str) -> RunningMoments:
        try:
            return self._moments[name]
        except KeyError:
            raise ContractError(f"unknown moments {name!r}") from None

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def moments_items(self):
        return self._moments.items()

    def total_parameters(self) -> int:
        return sum(t.size for t in self._params.values())

    def zero_grads(self) -> None:
        for t in self._params.values():
            t.grad = None

    def clone(self) -> "ParameterStore":
        out = ParameterStore()
        for name, t in self._params.items():
            out.add_param(name, t.data.copy())
        for name, m in self._moments.items():
            out._moments[name] = m.copy()
        out.arch = self.arch
        return out

    def to_double(self) -> "ParameterStore":
        """64-bit shadow copy for the gradient checker's reference path."""
        out = ParameterStore()
        for name, t in self._params.items():
            out._params[name] = t.to_double()
        for name, m in self._moments.items():
            out._moments[name] = m.to_double()
        out.arch = self.arch
        return out

    # -- serialization -------------------------------------------------

    def state_entries(self) -> dict[str, np.ndarray]:
        """All persistent arrays: parameters plus running moments."""
        entries: dict[str, np.ndarray] = {}
        for name, t in self._params.items():
            entries[name] = t.data
        for name, m in self._moments.items():
            entries[name + _MEAN_SUFFIX] = m.mean
            entries[name + _VAR_SUFFIX] = m.var
        return entries

    def load_entries(self, entries: dict[str, np.ndarray]) -> None:
        """Fill parameters and moments in place from checkpoint entries.

        Every parameter and moments array must be present with a matching
        shape; extra entries (e.g. optimizer state) are ignored.
        """
        for name, t in self._params.items():
            if name not in entries:
                raise DataIOError(f"checkpoint is missing parameter {name!r}")
            arr = entries[name]
            if tuple(arr.shape) != tuple(t.shape):
                raise DataIOError(
                    f"checkpoint entry {name!r} has shape {arr.shape}, expected {t.shape}"
                )
            t.data = arr.astype(t.dtype, copy=True)
        for name, m in self._moments.items():
            for suffix, target in ((_MEAN_SUFFIX, "mean"), (_VAR_SUFFIX, "var")):
                key = name + suffix
                if key not in entries:
                    raise DataIOError(f"checkpoint is missing moments entry {key!r}")
                arr = entries[key]
                if arr.shape != getattr(m, target).shape:
                    raise DataIOError(
                        f"checkpoint entry {key!r} has shape {arr.shape}, "
                        f"expected {getattr(m, target).shape}"
                    )
                setattr(m, target, arr.astype(np.float32, copy=True))


def save_checkpoint(path, entries: dict[str, np.ndarray]) -> None:
    """Write named arrays as an RCKP container."""
    blob = bytearray()
    blob += _RCKP_MAGIC
    blob += struct.pack("<II", _RCKP_VERSION, len(entries))
    for name, arr in entries.items():
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise DataIOError(f"entry name too long: {name[:32]!r}...")
        blob += struct.pack("<H", len(encoded))
        blob += encoded
        blob += tns_encode(np.asarray(arr))
    try:
        with open(path, "wb") as f:
            f.write(bytes(blob))
    except OSError as e:
        raise DataIOError(f"cannot write {path}: {e}") from e


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read an RCKP container back into an ordered name -> array dict.

    Every read is bounds-checked: a short or corrupt file raises
    DataIOError, never a struct or decode error.
    """
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as e:
        raise DataIOError(f"cannot read {path}: {e}") from e
    if raw[:4] != _RCKP_MAGIC:
        raise DataIOError(f"{path} is not an RCKP checkpoint")
    if len(raw) < 12:
        raise DataIOError(f"{path} has a truncated header")
    version, count = struct.unpack_from("<II", raw, 4)
    if version != _RCKP_VERSION:
        raise DataIOError(f"{path} has unsupported version {version}")
    offset = 12
    entries: dict[str, np.ndarray] = {}
    for index in range(count):
        if offset + 2 > len(raw):
            raise DataIOError(f"{path} is truncated at entry {index} of {count}")
        (nlen,) = struct.unpack_from("<H", raw, offset)
        offset += 2
        if offset + nlen > len(raw):
            raise DataIOError(f"{path} is truncated in the name of entry {index}")
        try:
            name = raw[offset:offset + nlen].decode("utf-8")
        except UnicodeDecodeError as e:
            raise DataIOError(f"{path}: the name of entry {index} is not UTF-8") from e
        if name in entries:
            raise DataIOError(f"{path} has a second entry named {name!r}")
        offset += nlen
        try:
            arr, offset = tns_decode(raw, offset)
        except DataIOError as e:
            raise DataIOError(f"{path}, entry {name!r}: {e.args[0]}") from e
        entries[name] = arr
    if offset != len(raw):
        raise DataIOError(f"{path} has {len(raw) - offset} trailing bytes")
    return entries
