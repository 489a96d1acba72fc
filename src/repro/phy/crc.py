"""CRC-32 (IEEE 802.3 polynomial), the frame check sequence.

802.11 frames carry a 32-bit FCS computed with the same reflected polynomial
0xEDB88320 as Ethernet. Bit arrays are packed MSB-first into bytes, the
last partial byte zero-padded (both ends of the link apply the same
convention), and the checksum is ``zlib``'s C implementation: one call per
frame, whether a frame is being built or a whole ``(N, bits)`` stack of
decoded frames is being checked.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.utils.bits import as_bit_array

__all__ = ["append_crc32", "crc32_check", "crc32_check_rows"]


def append_crc32(bits) -> np.ndarray:
    """Return *bits* with their 32 CRC bits appended (MSB first)."""
    arr = as_bit_array(bits)
    value = np.array([zlib.crc32(np.packbits(arr).tobytes())], dtype=">u4")
    return np.concatenate([arr, np.unpackbits(value.view(np.uint8))])


def crc32_check(bits) -> bool:
    """True iff the trailing 32 bits are the CRC of the preceding bits."""
    return bool(crc32_check_rows(as_bit_array(bits)[None])[0])


def crc32_check_rows(rows) -> np.ndarray:
    """Row-wise :func:`crc32_check` over an ``(N, bits)`` stack.

    Rows shorter than 32 bits fail: they cannot hold a checksum.
    """
    rows = np.asarray(rows, dtype=np.uint8)
    n, size = rows.shape
    if size < 32:
        return np.zeros(n, dtype=bool)
    # packbits zero-pads the last partial byte, like append_crc32 does.
    data = np.packbits(rows[:, :-32], axis=1)
    checks = np.packbits(rows[:, -32:], axis=1).view(">u4").ravel()
    return np.fromiter((zlib.crc32(row) == check
                        for row, check in zip(data, checks.tolist())),
                       dtype=bool, count=n)
