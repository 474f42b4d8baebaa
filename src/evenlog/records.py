"""Log record wire format and stream parsers.

A record is a 16-byte header followed by the payload, zero-padded at its
tail to the next multiple of 4. Header layout, little-endian:

    [len u32][checksum u32][flags u32][reserved u32]

``len`` counts the whole record (header + padded payload), so it is
always >= 16, a multiple of 4, and never zero — the first word of a
record is therefore never an all-zero word, which is what lets recovery
distinguish records from padding.
"""

from __future__ import annotations

import re
import struct
import zlib
from typing import Iterator, NamedTuple

from .errors import CorruptRecord, MalformedHeader, RecordTooLarge, RecoveryCorruption, TruncatedRecord

HEADER_SIZE = 16
_HEADER = struct.Struct("<IIII")
_U32_MAX = 0xFFFFFFFF
# zero padding between records: whole 4-byte words, possibly none
_ZERO_WORDS = re.compile(rb"(?:\x00\x00\x00\x00)*")

# flags bitfield
FLAG_CHECKPOINT = 0x1


def _round_up4(n: int) -> int:
    return (n + 3) & ~3


def checksum(data: bytes) -> int:
    """32-bit CRC over the padded payload (zlib polynomial)."""
    return zlib.crc32(data) & _U32_MAX


def encoded_record_size(payload_len: int) -> int:
    """Total on-disk size of a record carrying ``payload_len`` bytes.

    Raises RecordTooLarge when the padded length cannot be represented
    in the 32-bit length field.
    """
    if payload_len < 0:
        raise ValueError("negative payload length")
    total = HEADER_SIZE + _round_up4(payload_len)
    if total > _U32_MAX:
        raise RecordTooLarge(f"payload of {payload_len} bytes does not fit a u32 record length")
    return total


class LogRecord(NamedTuple):
    """One decoded record. ``payload`` stays zero-padded to a multiple of
    4, as stored, so ``length`` (header plus payload) is derived: it
    equals the header's length field."""

    payload: bytes
    flags: int = 0

    @property
    def length(self) -> int:
        return HEADER_SIZE + len(self.payload)

    @property
    def is_checkpoint(self) -> bool:
        return bool(self.flags & FLAG_CHECKPOINT)


class Lsn(NamedTuple):
    """Log sequence number: (file_id, byte offset in the record stream)."""

    file_id: int
    offset: int


def encode_record(payload: bytes, flags: int = 0) -> bytes:
    """Encode one record. The payload tail is zero-padded to a multiple of 4."""
    if not payload and not flags:
        raise ValueError("data records require a non-empty payload")
    total = encoded_record_size(len(payload))
    padded = payload + b"\x00" * (total - HEADER_SIZE - len(payload))
    return _HEADER.pack(total, checksum(padded), flags, 0) + padded


def decode_record(buf, offset: int = 0) -> tuple[LogRecord, int]:
    """Decode the record starting at ``offset``; return (record, next offset).

    Raises MalformedHeader, TruncatedRecord or CorruptRecord.
    """
    if len(buf) - offset < HEADER_SIZE:
        raise TruncatedRecord(f"{len(buf) - offset} bytes left, header needs {HEADER_SIZE}")
    length, crc, flags, _ = _HEADER.unpack_from(buf, offset)
    if length < HEADER_SIZE or length % 4 != 0:
        raise MalformedHeader(f"record length {length} at offset {offset}")
    if len(buf) - offset < length:
        raise TruncatedRecord(f"record of {length} bytes truncated at offset {offset}")
    payload = bytes(buf[offset + HEADER_SIZE : offset + length])
    if checksum(payload) != crc:
        raise CorruptRecord(f"checksum mismatch at offset {offset}")
    return LogRecord(payload, flags), offset + length


def iter_records(buf) -> Iterator[LogRecord]:
    """Parse a gapless concatenation of records (the unsegmented stream)."""
    offset = 0
    while offset < len(buf):
        record, offset = decode_record(buf, offset)
        yield record


def scan_padded_stream(buf) -> list[LogRecord]:
    """Recovery scanner over a plaintext stream that may contain padding.

    Reads a record whenever the next 4-byte word is non-zero, and skips
    consecutive all-zero words between records (segment padding is
    always whole zero words because record and segment lengths are
    multiples of 4). A record whose declared length runs past the end of
    the stream, or whose checksum fails, is treated as a torn tail:
    scanning stops at the last good record. A non-zero word that cannot
    be a header is corruption, not padding, and raises.

    Padding is skipped by one regex match per gap: it matches whole zero
    words only, so it stops on a word boundary, and runs in C on the
    buffer without copying it. The record checks are ``decode_record``'s.
    """
    records: list[LogRecord] = []
    skip_zeros = _ZERO_WORDS.match
    unpack = _HEADER.unpack_from
    crc32 = zlib.crc32
    offset = 0
    n = len(buf)
    while True:
        offset = skip_zeros(buf, offset).end()
        if n - offset >= HEADER_SIZE:
            length, crc, flags, _ = unpack(buf, offset)
        elif n - offset >= 4:
            length = int.from_bytes(buf[offset : offset + 4], "little")  # a torn header
        else:
            break
        if length < HEADER_SIZE or length % 4 != 0:
            raise RecoveryCorruption(f"implausible record length {length}", offset)
        end = offset + length
        if end > n:
            break  # torn tail
        payload = bytes(buf[offset + HEADER_SIZE : end])
        if crc32(payload) != crc:
            break  # torn tail
        records.append(LogRecord(payload, flags))
        offset = end
    return records
