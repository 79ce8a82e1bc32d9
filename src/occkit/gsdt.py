"""GSDT binary tensor format.

Layout: magic ``GSDT`` (4 bytes), version u8 = 1, dtype u8 (1 = f32,
2 = f64, 3 = u8), rank u8, extents as u64 little-endian, then the payload
row-major little-endian. Readers reject unknown magic, version, or dtype
codes and truncated payloads.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

MAGIC = b"GSDT"
VERSION = 1

_CODE_TO_DTYPE = {
    1: np.dtype("<f4"),
    2: np.dtype("<f8"),
    3: np.dtype("u1"),
}
_DTYPE_TO_CODE = {dtype: code for code, dtype in _CODE_TO_DTYPE.items()}


class FormatError(ValueError):
    """Raised when bytes do not parse as a valid GSDT tensor."""


def dumps(arr: np.ndarray) -> bytes:
    """Serialize an array. Only f32, f64, and u8 dtypes are representable."""
    code = _DTYPE_TO_CODE.get(arr.dtype)
    if code is None:
        raise FormatError(f"dtype {arr.dtype} has no GSDT code (use f32, f64, or u8)")
    if arr.ndim > 255:
        raise FormatError(f"rank {arr.ndim} exceeds the u8 rank field")
    header = MAGIC + struct.pack("<BBB", VERSION, code, arr.ndim)
    extents = struct.pack(f"<{arr.ndim}Q", *arr.shape)
    payload = np.ascontiguousarray(arr, dtype=_CODE_TO_DTYPE[code]).tobytes()
    return header + extents + payload


def loads(data: bytes) -> np.ndarray:
    if len(data) < 7:
        raise FormatError("truncated header")
    if data[:4] != MAGIC:
        raise FormatError(f"bad magic {data[:4]!r}")
    version, code, rank = struct.unpack("<BBB", data[4:7])
    if version != VERSION:
        raise FormatError(f"unsupported version {version}")
    dtype = _CODE_TO_DTYPE.get(code)
    if dtype is None:
        raise FormatError(f"unknown dtype code {code}")
    ext_end = 7 + 8 * rank
    if len(data) < ext_end:
        raise FormatError("truncated extents")
    shape = struct.unpack(f"<{rank}Q", data[7:ext_end])
    count = 1
    for n in shape:
        count *= n
    expected = ext_end + count * dtype.itemsize
    if len(data) != expected:
        raise FormatError(
            f"payload length mismatch: have {len(data) - ext_end} bytes, "
            f"need {count * dtype.itemsize}"
        )
    arr = np.frombuffer(data[ext_end:], dtype=dtype).reshape(shape)
    # native byte order, writable copy
    return arr.astype(dtype.newbyteorder("="), copy=True)


def write(path: str | Path, arr: np.ndarray) -> None:
    Path(path).write_bytes(dumps(arr))


def read(path: str | Path) -> np.ndarray:
    """Load a tensor file; a format error names the file."""
    try:
        return loads(Path(path).read_bytes())
    except FormatError as e:
        raise FormatError(f"{path}: {e}") from None
