"""Corrupt TNS1, RCKP and manifest bytes fail with DataIOError, never a
raw error.

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
from cacseg.data import MANIFEST_NAME, Dataset, PhantomSpec, generate_phantom
from cacseg.errors import DataIOError
from cacseg.params import load_checkpoint, save_checkpoint, tns_decode, tns_encode

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


@pytest.fixture(scope="module")
def phantom_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("phantom")
    generate_phantom(PhantomSpec(slices=3, size=64, rng_seed=5), root)
    return root


def write_manifest(root, blob: bytes):
    (root / MANIFEST_NAME).write_bytes(blob)
    return root


class TestManifest:
    @pytest.fixture
    def manifest_blob(self, phantom_dir):
        blob = (phantom_dir / MANIFEST_NAME).read_bytes()
        yield blob
        write_manifest(phantom_dir, blob)

    def test_intact_manifest_loads(self, phantom_dir, manifest_blob):
        ds = Dataset(phantom_dir)
        assert len(ds) == 3 and ds.sample(2).image.shape == (1, 64, 64)

    @pytest.mark.parametrize("count,reason", [("abc", "non-integer"), ("-4", "negative")])
    def test_bad_pixel_count_names_line(self, phantom_dir, manifest_blob, count, reason):
        lines = manifest_blob.decode().splitlines()
        fields = lines[2].split("\t")
        fields[3] = count
        lines[2] = "\t".join(fields)
        write_manifest(phantom_dir, ("\n".join(lines) + "\n").encode())
        with pytest.raises(DataIOError, match=f"{MANIFEST_NAME} line 3: pixel counts"):
            Dataset(phantom_dir)

    def test_undecodable_bytes_raise_io_error(self, phantom_dir, manifest_blob):
        write_manifest(phantom_dir, manifest_blob.replace(b"images", b"imag\xffs", 1))
        with pytest.raises(DataIOError, match="not UTF-8"):
            Dataset(phantom_dir)

    def test_header_only_manifest_fails_train_with_exit_code_2(
            self, tmp_path, phantom_dir, manifest_blob, capsys):
        write_manifest(phantom_dir, manifest_blob.splitlines(keepends=True)[0])
        code = main(["train", "--out", str(tmp_path / "run"),
                     "--set", f"data.train_dir={phantom_dir}",
                     "--set", f"data.val_dir={phantom_dir}"])
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith("io error:") and "lists no slices" in err, err

    @FUZZ
    @given(dmg=st.data())
    def test_corrupt_bytes_fail_cleanly(self, phantom_dir, manifest_blob, dmg):
        write_manifest(phantom_dir, corrupt(manifest_blob, *dmg.draw(damage(len(manifest_blob)))))
        try:
            ds = Dataset(phantom_dir)
            assert (ds.pixel_counts() >= 0).all()
            for i in range(len(ds)):
                ds.sample(i)
        except DataIOError:
            pass
