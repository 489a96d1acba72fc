"""CRC-32 (IEEE 802.3 polynomial) implemented from scratch.

802.11 frames carry a 32-bit FCS computed with the same reflected polynomial
0xEDB88320 as Ethernet. We implement the table-driven byte-wise algorithm and
bit-array conveniences used by the framing layer. The one exception is
:func:`crc32_check_rows`, which checks a whole stack of frames per call:
it runs ``zlib``'s C implementation of the same checksum, since a Python
byte loop per row would dominate a batched decode.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.bits import as_bit_array, bits_from_bytes, bits_to_bytes

__all__ = ["crc32", "crc32_bits", "crc32_check", "crc32_check_rows",
           "append_crc32", "strip_crc32"]

_POLY = 0xEDB88320


def _build_table() -> list[int]:
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            if crc & 1:
                crc = (crc >> 1) ^ _POLY
            else:
                crc >>= 1
        table.append(crc)
    return table


_TABLE = _build_table()


def crc32(data: bytes | bytearray) -> int:
    """CRC-32 of *data* (init 0xFFFFFFFF, final XOR 0xFFFFFFFF)."""
    crc = 0xFFFFFFFF
    for byte in bytes(data):
        crc = (crc >> 8) ^ _TABLE[(crc ^ byte) & 0xFF]
    return crc ^ 0xFFFFFFFF


def crc32_bits(bits) -> np.ndarray:
    """CRC-32 over a bit array; returns the 32 checksum bits (MSB first).

    The bit array is padded with zero bits to a byte boundary before the
    byte-wise CRC runs, which keeps the implementation simple and is fine
    because both sides of the link apply the same convention.
    """
    arr = as_bit_array(bits)
    remainder = arr.size % 8
    if remainder:
        arr = np.concatenate([arr, np.zeros(8 - remainder, dtype=np.uint8)])
    value = crc32(bits_to_bytes(arr))
    return bits_from_bytes(value.to_bytes(4, "big"))


def append_crc32(bits) -> np.ndarray:
    """Return *bits* with their 32 CRC bits appended."""
    arr = as_bit_array(bits)
    return np.concatenate([arr, crc32_bits(arr)])


def strip_crc32(bits) -> tuple[np.ndarray, bool]:
    """Split payload and checksum; second element is True iff the CRC matches."""
    arr = as_bit_array(bits)
    if arr.size < 32:
        raise ConfigurationError("bit array shorter than a CRC-32 field")
    payload, checksum = arr[:-32], arr[-32:]
    return payload, bool(np.array_equal(crc32_bits(payload), checksum))


def crc32_check(bits) -> bool:
    """True iff the trailing 32 bits are the CRC of the preceding bits."""
    return strip_crc32(bits)[1]


def crc32_check_rows(rows) -> np.ndarray:
    """Row-wise :func:`crc32_check` over an ``(N, bits)`` stack.

    Rows shorter than 32 bits fail (``crc32_check`` would raise).
    """
    rows = np.asarray(rows, dtype=np.uint8)
    n, size = rows.shape
    if size < 32:
        return np.zeros(n, dtype=bool)
    # packbits zero-pads the last partial byte, like crc32_bits does.
    data = np.packbits(rows[:, :-32], axis=1)
    checks = np.packbits(rows[:, -32:], axis=1).view(">u4").ravel()
    return np.fromiter((zlib.crc32(row) == check
                        for row, check in zip(data, checks.tolist())),
                       dtype=bool, count=n)
