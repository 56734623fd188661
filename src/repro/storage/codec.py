"""Tagged binary codec for everything the system persists.

A compact, dependency-free, deterministic serialization format.  It
exists for two reasons:

1. *Honest durability.*  Recovery paths decode the same bytes a real
   engine would read back from disk; nothing recovers from live Python
   references.
2. *Honest I/O accounting.*  The storage device model charges virtual
   time per byte, so log-record sizes (the quantity DistDGCC inflates
   and MorphStreamR's selective logging shrinks) must be real.

Format: one tag byte followed by a payload.  Integers are
zig-zag + varint encoded, floats are IEEE-754 doubles, strings are
UTF-8 with a varint length prefix, containers are a varint count
followed by the elements.  Dict keys are sorted during encoding so the
output is deterministic regardless of insertion order.

Supported types: ``None``, ``bool``, ``int``, ``float``, ``str``,
``bytes``, ``tuple``, ``list``, ``dict`` (tuples decode as tuples and
lists as lists — the distinction is preserved).
"""

from __future__ import annotations

import struct
from typing import Any, List, Tuple

from repro.errors import StorageError

_TAG_NONE = 0x00
_TAG_FALSE = 0x01
_TAG_TRUE = 0x02
_TAG_INT = 0x03
_TAG_FLOAT = 0x04
_TAG_STR = 0x05
_TAG_BYTES = 0x06
_TAG_TUPLE = 0x07
_TAG_LIST = 0x08
_TAG_DICT = 0x09
#: The values of the tags that carry no payload, indexed by tag.
_CONSTANTS = (None, False, True)

_FLOAT = struct.Struct(">d")
_unpack_float = _FLOAT.unpack_from

#: What the decoder raises on bytes that are not a whole record: reads
#: past the end (``IndexError``, ``struct.error``), invalid UTF-8 and
#: unhashable dict keys.  :func:`decode` reports them as StorageError.
_MALFORMED = (IndexError, struct.error, UnicodeDecodeError, TypeError)


def _write_varint(out: bytearray, value: int) -> None:
    """Append an unsigned LEB128 varint."""
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_varint(data: bytes, pos: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise StorageError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def _wide_zigzag(value: int) -> int:
    # Zig-zag mapping for arbitrary-precision ints (Python ints are unbounded).
    return value << 1 if value >= 0 else ((-value) << 1) - 1


def _encode_into(out: bytearray, obj: Any) -> None:
    if obj is None:
        out.append(_TAG_NONE)
    elif obj is True:
        out.append(_TAG_TRUE)
    elif obj is False:
        out.append(_TAG_FALSE)
    elif isinstance(obj, int):
        out.append(_TAG_INT)
        _write_varint(out, _wide_zigzag(obj))
    elif isinstance(obj, float):
        out.append(_TAG_FLOAT)
        out.extend(_FLOAT.pack(obj))
    elif isinstance(obj, str):
        raw = obj.encode("utf-8")
        out.append(_TAG_STR)
        _write_varint(out, len(raw))
        out.extend(raw)
    elif isinstance(obj, (bytes, bytearray)):
        out.append(_TAG_BYTES)
        _write_varint(out, len(obj))
        out.extend(obj)
    elif isinstance(obj, tuple):
        out.append(_TAG_TUPLE)
        _write_varint(out, len(obj))
        for item in obj:
            _encode_into(out, item)
    elif isinstance(obj, list):
        out.append(_TAG_LIST)
        _write_varint(out, len(obj))
        for item in obj:
            _encode_into(out, item)
    elif isinstance(obj, dict):
        out.append(_TAG_DICT)
        _write_varint(out, len(obj))
        try:
            items = sorted(obj.items())
        except TypeError:
            # Mixed-type keys cannot be sorted; fall back to a
            # deterministic sort on the encoded key bytes.
            items = sorted(obj.items(), key=lambda kv: encode(kv[0]))
        for key, value in items:
            _encode_into(out, key)
            _encode_into(out, value)
    else:
        raise StorageError(f"cannot serialize object of type {type(obj).__name__}")


def encode(obj: Any) -> bytes:
    """Serialize ``obj`` into the tagged binary format."""
    out = bytearray()
    _encode_into(out, obj)
    return bytes(out)


def list_header(count: int) -> bytes:
    """The tag and count that precede the items of an encoded list.

    ``list_header(len(xs)) + b"".join(encode(x) for x in xs)`` equals
    ``encode(list(xs))`` byte for byte, so a store can keep items
    encoded one by one and still charge, write and frame exactly what
    encoding the whole list would produce.
    """
    out = bytearray((_TAG_LIST,))
    _write_varint(out, count)
    return bytes(out)


def _decode_items(data: bytes, pos: int, count: int) -> Tuple[List[Any], int]:
    """Decode ``count`` consecutive values; returns (values, next pos).

    Recovery decodes every event, view and snapshot it reloads.  Their
    values are mostly small ints, floats and short strings inside
    containers, so each value is decoded inline here and only a nested
    container costs a call.  Reads past the end raise ``IndexError`` or
    ``struct.error``, which :func:`decode` reports as StorageError.
    """
    items: List[Any] = []
    append = items.append
    for _ in range(count):
        tag = data[pos]
        if tag == _TAG_INT:
            byte = data[pos + 1]
            pos += 2
            raw = byte & 0x7F
            shift = 7
            while byte & 0x80:
                byte = data[pos]
                pos += 1
                raw |= (byte & 0x7F) << shift
                shift += 7
            append(-((raw + 1) >> 1) if raw & 1 else raw >> 1)
        elif tag == _TAG_FLOAT:
            append(_unpack_float(data, pos + 1)[0])
            pos += 9
        elif tag == _TAG_STR or tag == _TAG_BYTES:
            length = data[pos + 1]
            if length < 0x80:
                start = pos + 2
            else:
                length, start = _read_varint(data, pos + 1)
            pos = start + length
            if pos > len(data):
                raise StorageError("truncated string or bytes")
            raw_bytes = data[start:pos]
            append(raw_bytes.decode("utf-8") if tag == _TAG_STR else raw_bytes)
        elif tag == _TAG_TUPLE or tag == _TAG_LIST:
            length = data[pos + 1]
            if length < 0x80:
                pos += 2
            else:
                length, pos = _read_varint(data, pos + 1)
            values, pos = _decode_items(data, pos, length)
            append(tuple(values) if tag == _TAG_TUPLE else values)
        elif tag == _TAG_DICT:
            length, pos = _read_varint(data, pos + 1)
            flat, pos = _decode_items(data, pos, 2 * length)
            pairs = iter(flat)
            append(dict(zip(pairs, pairs)))
        elif tag <= _TAG_TRUE:
            append(_CONSTANTS[tag])
            pos += 1
        else:
            raise StorageError(f"unknown tag byte 0x{tag:02x}")
    return items, pos


def decode(data: bytes) -> Any:
    """Deserialize bytes produced by :func:`encode`.

    Raises :class:`~repro.errors.StorageError` on truncated, malformed
    or trailing bytes — a partial flush must never decode silently.
    """
    try:
        (obj,), pos = _decode_items(data, 0, 1)
    except _MALFORMED as exc:
        raise StorageError(f"truncated or malformed record ({exc})") from None
    if pos != len(data):
        raise StorageError(f"{len(data) - pos} trailing bytes after record")
    return obj


def split_list(data: bytes) -> List[bytes]:
    """The encoded items of an encoded list, in order.

    The inverse of :func:`list_header` plus concatenation; raises
    :class:`~repro.errors.StorageError` if ``data`` is not one whole
    encoded list.
    """
    if not data or data[0] != _TAG_LIST:
        raise StorageError("not an encoded list")
    items: List[bytes] = []
    try:
        count, pos = _read_varint(data, 1)
        for _ in range(count):
            _item, end = _decode_items(data, pos, 1)
            items.append(data[pos:end])
            pos = end
    except _MALFORMED as exc:
        raise StorageError(f"truncated or malformed record ({exc})") from None
    if pos != len(data):
        raise StorageError(f"{len(data) - pos} trailing bytes after record")
    return items
