"""Corrupt TNS1 and RCKP bytes fail with DataIOError, never a raw error.

Truncations and bit flips are drawn by hypothesis; each one must either
raise DataIOError or decode cleanly. A clean load is possible: a flipped
payload bit still leaves a well-formed container.
"""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cacseg.cli import main
from cacseg.errors import DataIOError
from cacseg.params import load_checkpoint, save_checkpoint
from cacseg.tensor import tns_decode, tns_encode

FUZZ = settings(max_examples=300, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

TNS_BLOB = tns_encode(np.arange(12, dtype=np.float32).reshape(3, 4))
RCKP_ENTRIES = {
    "enc0.weight": np.linspace(-1.0, 1.0, 6, dtype=np.float32).reshape(1, 2, 3),
    "enc0.bn.running_var": np.ones(2, np.float32),
    "mask": np.arange(5, dtype=np.uint8),
}


@pytest.fixture(scope="module")
def rckp_blob(tmp_path_factory):
    path = tmp_path_factory.mktemp("rckp") / "model.rckp"
    save_checkpoint(path, RCKP_ENTRIES)
    return path.read_bytes()


def corrupt(blob: bytes, cut: int, flips: list) -> bytes:
    out = bytearray(blob[:cut])
    for pos, bit in flips:
        if pos < len(out):
            out[pos] ^= 1 << bit
    return bytes(out)


def damage(size: int):
    """(cut, flips): keep the first `cut` bytes, then flip some bits."""
    flips = st.lists(st.tuples(st.integers(0, size - 1), st.integers(0, 7)), max_size=3)
    return st.tuples(st.integers(0, size), flips)


class TestTnsDecode:
    @pytest.mark.parametrize("cut", [0, 3, 4, 5, 6, 9, 13, 14, len(TNS_BLOB) - 1])
    def test_truncation_raises_io_error(self, cut):
        with pytest.raises(DataIOError):
            tns_decode(TNS_BLOB[:cut])

    @FUZZ
    @given(damage(len(TNS_BLOB)))
    def test_corrupt_bytes_fail_cleanly(self, dmg):
        buf = corrupt(TNS_BLOB, *dmg)
        try:
            tns_decode(buf)
        except DataIOError:
            pass


class TestCheckpointDecode:
    @pytest.mark.parametrize("cut", [5, 8, 12, 13, 14, 20, 40])
    def test_truncation_raises_io_error(self, tmp_path, rckp_blob, cut):
        path = tmp_path / "cut.rckp"
        path.write_bytes(rckp_blob[:cut])
        with pytest.raises(DataIOError):
            load_checkpoint(path)

    def test_non_utf8_name_raises_io_error(self, tmp_path):
        blob = b"RCKP" + struct.pack("<IIH", 1, 1, 2) + b"\xff\xfe" + TNS_BLOB
        path = tmp_path / "name.rckp"
        path.write_bytes(blob)
        with pytest.raises(DataIOError, match="not UTF-8"):
            load_checkpoint(path)

    def test_duplicate_name_raises_io_error(self, tmp_path):
        entry = struct.pack("<H", 1) + b"a" + TNS_BLOB
        path = tmp_path / "dup.rckp"
        path.write_bytes(b"RCKP" + struct.pack("<II", 1, 2) + entry + entry)
        with pytest.raises(DataIOError, match="second entry"):
            load_checkpoint(path)

    @FUZZ
    @given(dmg=st.data())
    def test_corrupt_bytes_fail_cleanly(self, tmp_path, rckp_blob, dmg):
        buf = corrupt(rckp_blob, *dmg.draw(damage(len(rckp_blob))))
        path = tmp_path / "fuzz.rckp"
        path.write_bytes(buf)
        try:
            load_checkpoint(path)
        except DataIOError:
            pass

    def test_cli_reports_io_error_with_exit_code_2(self, tmp_path, rckp_blob, capsys):
        path = tmp_path / "cut.rckp"
        path.write_bytes(rckp_blob[:13])
        code = main(["eval", "--out", str(tmp_path / "report"),
                     "--set", f"eval.checkpoint={path}"])
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith("io error:") and "cut.rckp" in err, err
