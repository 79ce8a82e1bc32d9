import struct

import numpy as np
import pytest

from occkit import gsdt


@pytest.mark.parametrize(
    "dtype", [np.float32, np.float64, np.uint8], ids=["f32", "f64", "u8"]
)
def test_round_trip(dtype):
    rng = np.random.default_rng(0)
    if dtype == np.uint8:
        arr = rng.integers(0, 256, (3, 4, 5)).astype(dtype)
    else:
        arr = rng.standard_normal((3, 4, 5)).astype(dtype)
    out = gsdt.loads(gsdt.dumps(arr))
    assert out.dtype == arr.dtype
    np.testing.assert_array_equal(out, arr)


def test_round_trip_file(tmp_path):
    arr = np.arange(24, dtype=np.float64).reshape(2, 3, 4)
    path = tmp_path / "t.gsdt"
    gsdt.write(path, arr)
    np.testing.assert_array_equal(gsdt.read(path), arr)


def test_header_layout():
    arr = np.zeros((2, 3), dtype=np.float32)
    data = gsdt.dumps(arr)
    assert data[:4] == b"GSDT"
    assert data[4] == 1  # version
    assert data[5] == 1  # f32 code
    assert data[6] == 2  # rank
    assert struct.unpack("<2Q", data[7:23]) == (2, 3)
    assert len(data) == 23 + 6 * 4


def test_dtype_codes():
    assert gsdt.dumps(np.zeros(1, dtype=np.float64))[5] == 2
    assert gsdt.dumps(np.zeros(1, dtype=np.uint8))[5] == 3


def test_payload_little_endian():
    arr = np.array([1.0], dtype=">f4")  # big-endian input
    data = gsdt.dumps(arr.astype(np.float32))
    assert data[-4:] == struct.pack("<f", 1.0)


def test_scalar_rank_zero():
    arr = np.float32(7.5).reshape(())
    out = gsdt.loads(gsdt.dumps(np.asarray(arr)))
    assert out.shape == ()
    assert out == np.float32(7.5)


def test_row_major_order():
    arr = np.arange(6, dtype=np.uint8).reshape(2, 3)
    data = gsdt.dumps(np.asfortranarray(arr))
    assert data[-6:] == bytes([0, 1, 2, 3, 4, 5])


def test_loaded_array_writable():
    out = gsdt.loads(gsdt.dumps(np.zeros(3, dtype=np.float32)))
    out[0] = 1.0  # must not raise


def test_rejects_bad_magic():
    data = gsdt.dumps(np.zeros(2, dtype=np.float32))
    with pytest.raises(gsdt.FormatError, match="magic"):
        gsdt.loads(b"XSDT" + data[4:])


def test_rejects_bad_version():
    data = bytearray(gsdt.dumps(np.zeros(2, dtype=np.float32)))
    data[4] = 9
    with pytest.raises(gsdt.FormatError, match="version"):
        gsdt.loads(bytes(data))


def test_rejects_unknown_dtype_code():
    data = bytearray(gsdt.dumps(np.zeros(2, dtype=np.float32)))
    data[5] = 77
    with pytest.raises(gsdt.FormatError, match="dtype code"):
        gsdt.loads(bytes(data))


def test_read_error_names_file(tmp_path):
    path = tmp_path / "bad.gsdt"
    path.write_bytes(b"XSDT" + gsdt.dumps(np.zeros(2, dtype=np.float32))[4:])
    with pytest.raises(gsdt.FormatError, match="magic") as err:
        gsdt.read(path)
    assert str(path) in str(err.value)


def test_rejects_truncated():
    data = gsdt.dumps(np.zeros((2, 2), dtype=np.float32))
    with pytest.raises(gsdt.FormatError):
        gsdt.loads(data[:5])
    with pytest.raises(gsdt.FormatError):
        gsdt.loads(data[:10])
    with pytest.raises(gsdt.FormatError, match="length mismatch"):
        gsdt.loads(data[:-1])
    with pytest.raises(gsdt.FormatError, match="length mismatch"):
        gsdt.loads(data + b"\x00")


def test_rejects_unsupported_dtype():
    with pytest.raises(gsdt.FormatError, match="no GSDT code"):
        gsdt.dumps(np.zeros(2, dtype=np.int32))
