"""Named, ordered parameter collection, plus the kit's file formats.

A ParameterStore maps unique names to trainable tensors and holds the
batch-norm running moments separately. Iteration order is insertion
order, which the builders keep deterministic, so a fixed seed always
produces a bit-identical store.

The kit's file formats live here too: TNS1 tensors (see `tns_encode`),
RCKP checkpoints, PPM overlays and tab-separated tables (`write_tsv`,
`read_tsv`), each written through the one atomic writer, `write_atomic`,
as is every other output file. Checkpoint container (RCKP): magic
"RCKP", u32 version, u32 entry count, then per entry a u16 name length,
the UTF-8 name, and an embedded TNS1 tensor. A checkpoint is streamed to
disk entry by entry, never built whole in memory. TNS1 and RCKP round
trips are bit-exact.
"""

from __future__ import annotations

import math
import os
import struct
from contextlib import suppress

import numpy as np

from .errors import ContractError, DataIOError, DimensionError, NumericError
from .tensor import RunningMoments, Tensor

_TNS_MAGIC = b"TNS1"
_DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("u1")}
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

    def to_double(self) -> "ParameterStore":
        """64-bit shadow copy for the gradient checker's reference path."""
        out = ParameterStore()
        for name, t in self._params.items():
            out.add_param(name, t.data.astype(np.float64))
        for name, m in self._moments.items():
            moments = out.add_moments(name, m.mean.size)
            moments.mean, moments.var = m.mean.astype(np.float64), m.var.astype(np.float64)
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

    def load_entries(self, entries: dict[str, np.ndarray], path) -> None:
        """Fill parameters and moments in place from the entries of
        checkpoint `path`, each read through `take_entry`; extra entries
        (e.g. optimizer state) are ignored.
        """
        def error(what):
            return DataIOError(f"checkpoint {path} lacks model entry {what}")
        for name, t in self._params.items():
            t.data = take_entry(entries, name, t.data, error)
        for name, m in self._moments.items():
            m.mean = take_entry(entries, name + _MEAN_SUFFIX, m.mean, error)
            m.var = take_entry(entries, name + _VAR_SUFFIX, m.var, error)


def take_entry(entries: dict[str, np.ndarray], key: str, like: np.ndarray,
               error) -> np.ndarray:
    """A copy of `entries[key]` in the dtype of `like`.

    Raises `error(what)`, with `what` naming the entry and its fault, when
    the entry is missing, is not shaped like `like`, or holds a non-finite
    value.
    """
    if key not in entries:
        raise error(key)
    arr = entries[key]
    if arr.shape != like.shape:
        raise error(f"{key} of shape {like.shape} (it has shape {arr.shape})")
    bad = arr.size - np.count_nonzero(np.isfinite(arr))
    if bad:
        raise error(f"{key} with finite values ({bad} of {arr.size} are not)")
    return arr.astype(like.dtype, copy=True)


# -- file formats ------------------------------------------------------------


def write_atomic(path, data) -> None:
    """Write `data`, bytes or an iterable of bytes-like chunks, to
    `<path>.tmp`, then rename it over `path`.

    Whatever fails, the write leaves `path` as it was and removes the
    temporary file: an `OSError` is raised as `DataIOError`, any other
    exception, such as one raised while the chunks are produced, as it is.
    """
    chunks = (data,) if isinstance(data, (bytes, bytearray, memoryview)) else data
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException as e:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        if isinstance(e, OSError):
            raise DataIOError(f"cannot write {path}: {e}") from e
        raise


def write_tsv(path, columns, rows) -> str:
    """Write a table through `write_atomic` and return its text: a header
    line of `columns`, then one line per row, each cell as ``str(cell)``,
    joined by tabs and ended by a newline, in UTF-8."""
    text = "".join("\t".join(map(str, cells)) + "\n" for cells in (columns, *rows))
    write_atomic(path, text.encode("utf-8"))
    return text


def read_tsv(path, columns) -> list[tuple[int, list[str]]]:
    """(line number, cells) of each non-blank row of the `write_tsv` table
    at `path`. Raises DataIOError when the file cannot be read, is not
    UTF-8, has a header other than `columns`, or has a row of another width."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = [(no, ln.rstrip("\n")) for no, ln in enumerate(f, 1) if ln.strip()]
    except UnicodeDecodeError as e:
        raise DataIOError(f"{path} is not UTF-8 text: {e}") from e
    except OSError as e:
        raise DataIOError(f"cannot read {path}: {e}") from e
    if not lines or lines[0][1].split("\t") != list(columns):
        raise DataIOError(f"{path} has an unexpected header")
    for _, ln in lines[1:]:
        if ln.count("\t") != len(columns) - 1:
            raise DataIOError(f"{path}: malformed row {ln!r}")
    return [(no, ln.split("\t")) for no, ln in lines[1:]]


def tns_encode(arr: np.ndarray) -> bytes:
    """Serialize an array to TNS1 bytes: magic, dtype code, rank, u32 LE
    extents, row-major payload."""
    head, payload = _tns_chunks(arr)
    return head + payload.tobytes()


def _tns_chunks(arr: np.ndarray) -> tuple[bytes, np.ndarray]:
    """The TNS1 record of `arr` as its header bytes and its payload as a
    flat u8 array, which views `arr` when it is a contiguous <f4 or u1
    array."""
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
    return head, payload.reshape(-1).view(np.uint8)


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
    write_atomic(path, tns_encode(arr))


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


def save_checkpoint(path, entries: dict[str, np.ndarray]) -> None:
    """Write named arrays as an RCKP container.

    The file is streamed entry by entry through `write_atomic`, each
    payload straight from its array, so no copy of the whole file is
    built. An entry that cannot be encoded leaves `path` as it was.
    """
    write_atomic(path, _rckp_chunks(entries))


def _rckp_chunks(entries: dict[str, np.ndarray]):
    """The RCKP container of `entries`, as chunks in file order."""
    yield _RCKP_MAGIC + struct.pack("<II", _RCKP_VERSION, len(entries))
    for name, arr in entries.items():
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise DataIOError(f"entry name too long: {name[:32]!r}...")
        head, payload = _tns_chunks(np.asarray(arr))
        yield struct.pack("<H", len(encoded)) + encoded + head
        yield payload


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


def write_ppm(path, rgb: np.ndarray) -> None:
    if rgb.ndim != 3 or rgb.shape[2] != 3 or rgb.dtype != np.uint8:
        raise DimensionError("PPM payload must be uint8 (H,W,3)")
    h, w = rgb.shape[:2]
    write_atomic(path, f"P6\n{w} {h}\n255\n".encode("ascii") + rgb.tobytes(order="C"))
