"""Segment integrity: CRC32-framed durable blobs.

A recovery path must never decode a torn or bit-flipped flush silently:
every blob a store retains is framed with a CRC32 of its payload *and*
the payload length, and reads verify the frame before decoding.  The
length field lets :func:`verify` tell a torn flush (the frame is a
prefix of what was written — survivable by truncating to the last
consistent prefix and degrading to a coarser recovery mechanism) apart
from in-place corruption (checksum mismatch over a complete frame —
unsurvivable without a fallback source):

- a short or length-inconsistent frame raises
  :class:`~repro.errors.TornSegmentError`;
- a complete frame with a checksum mismatch raises
  :class:`~repro.errors.CorruptSegmentError`.

Callers pass ``context`` (which store, stream and segment the frame
belongs to) so a multi-stream recovery failure names the segment that
broke instead of only the checksum pair.
"""

from __future__ import annotations

import struct
from zlib import crc32

from repro.errors import CorruptSegmentError, TornSegmentError

#: Frame header: CRC32 of the payload, then the payload length.
_HEADER = struct.Struct(">II")

#: Bytes :func:`protect` puts in front of a payload.
FRAME_BYTES = _HEADER.size


def protect(payload: bytes) -> bytes:
    """Frame ``payload`` with its CRC32 checksum and length."""
    return _HEADER.pack(crc32(payload), len(payload)) + payload


def verify(framed: bytes, context: str = "") -> bytes:
    """Check the frame and return the payload.

    Raises :class:`TornSegmentError` when the frame is a prefix of what
    was written (truncated header or payload shorter than the recorded
    length) and :class:`CorruptSegmentError` on a checksum mismatch or
    trailing garbage.  ``context`` names the segment in the message.
    """
    where = f" in {context}" if context else ""
    if len(framed) < _HEADER.size:
        raise TornSegmentError(
            f"segment{where} too short to carry a checksum frame "
            f"({len(framed)} of {_HEADER.size} header bytes present)"
        )
    expected, length = _HEADER.unpack_from(framed)
    payload = framed[_HEADER.size :]
    if len(payload) < length:
        raise TornSegmentError(
            f"torn segment{where}: {len(payload)} of {length} payload "
            "bytes present — flush did not complete"
        )
    if len(payload) > length:
        raise CorruptSegmentError(
            f"segment{where} carries {len(payload) - length} trailing "
            "bytes beyond its recorded length — refusing to recover "
            "from corrupt data"
        )
    actual = crc32(payload)
    if actual != expected:
        raise CorruptSegmentError(
            f"segment{where} checksum mismatch: stored 0x{expected:08x}, "
            f"computed 0x{actual:08x} — refusing to recover from "
            "corrupt data"
        )
    return payload
