"""Log record wire format and the recovery scanner.

A record is a 16-byte header followed by the payload, zero-padded at its
tail to the next multiple of 4. Header layout, little-endian:

    [len u32][checksum u32][flags u32][reserved u32]

``len`` counts the whole record (header + padded payload), so it is
always >= 16, a multiple of 4, and never zero — the first word of a
record is therefore never an all-zero word, which is what lets recovery
distinguish records from padding.

``scan_padded_stream`` is the one record decoder. It takes a stream whole
or as its chunks in order, and tells a record that runs past the end of
a chunk (carried into the next one) from a torn tail (the stream ends
with it held, or its checksum fails). It works on a chunk in two passes:
a Python walk over the header words that notes where each record starts,
then one bulk step that slices, checksums and builds every noted record
with numpy and ``map``. The bulk step keeps the order of a record-by-record
scan: the first checksum failure is a torn tail and ends the stream, even
when the walk met an implausible header after it, because a scan that
checks each record as it goes never reaches that header.
"""

from __future__ import annotations

import re
import struct
import zlib
from typing import NamedTuple

import numpy as np

from .errors import RecordTooLarge, RecoveryCorruption

HEADER_SIZE = 16
_HEADER = struct.Struct("<IIII")
_U32_MAX = 0xFFFFFFFF
# a payload's tail padding, by its length
_PADS = (b"", b"\x00", b"\x00\x00", b"\x00\x00\x00")
# zero padding between records: whole 4-byte words, possibly none
_ZERO_WORDS = re.compile(rb"(?:\x00\x00\x00\x00)*")

# flags bitfield
FLAG_CHECKPOINT = 0x1


def _round_up4(n: int) -> int:
    return (n + 3) & ~3


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
    """Encode one record. The payload tail is zero-padded to a multiple of 4.

    The CRC of the padded payload is chained over the payload and then
    its padding, so the padded copy is never built."""
    if not payload and not flags:
        raise ValueError("data records require a non-empty payload")
    total = encoded_record_size(len(payload))
    pad = _PADS[total - HEADER_SIZE - len(payload)]
    return b"".join((_HEADER.pack(total, zlib.crc32(pad, zlib.crc32(payload)), flags, 0), payload, pad))


def scan_padded_stream(buf) -> list[LogRecord]:
    """Recovery scanner over a plaintext stream that may contain padding.

    ``buf`` is the whole stream as one bytes-like object, or an iterator
    over its chunks in order (one journal file, read and decrypted a
    chunk at a time); a bytes-like ``buf`` is the one-chunk case.

    Reads a record whenever the next 4-byte word is non-zero, and skips
    consecutive all-zero words between records (segment padding is
    always whole zero words because record and segment lengths are
    multiples of 4). A record whose declared length runs past the end of
    the stream, or whose checksum fails, is treated as a torn tail:
    scanning stops at the last good record, and no later chunk is taken
    from the iterator. A non-zero word that cannot be a header is
    corruption, not padding, and raises with its offset in the stream.
    """
    scan = _PaddedScan()
    chunks = (buf,) if isinstance(buf, (bytes, bytearray, memoryview)) else buf
    # all() stops at the first torn tail; map() holds no chunk between
    # calls, so only the carried bytes outlive the next read
    all(map(scan.feed, chunks))
    return scan.records


class _PaddedScan:
    """The state of one stream's scan between chunks.

    A record or header that runs past the end of a chunk is not yet a
    torn tail: its bytes are carried into the next chunk, and only a
    stream that ends with them held makes it one. Bytes are held, not
    re-joined, until the pending record's declared length is in hand, so
    a record many chunks long is joined and checked once.
    """

    __slots__ = ("records", "_parts", "_held", "_want", "_base")

    def __init__(self):
        self.records: list[LogRecord] = []
        self._parts: list = []  # unscanned bytes: the carried tail, then whole chunks
        self._held = 0  # total length of _parts
        self._want = 0  # bytes to hold before the scan can move on
        self._base = 0  # stream offset of the first held byte

    def feed(self, chunk) -> bool:
        """Scan ``chunk`` after the held bytes. Returns False at a torn
        tail (a checksum failure): the stream ends there.

        The scan makes two passes over the bytes in hand. The first walks
        the headers one 4-byte word at a time: a zero word is padding,
        and one regex match skips the whole gap (it matches whole zero
        words only, so it stops on a word boundary, and runs in C on the
        buffer without copying it); any other word is a record length,
        which must be plausible, and the record must end within the
        bytes in hand. It notes only where each record starts. The second
        pass takes every noted record at once: one numpy view of the
        header words gives the checksums and flags, and the payloads are
        sliced, checked and built into records by ``map``.

        The first record that fails its checksum wins over an implausible
        header the first pass met after it: it is a torn tail, the
        records before it are kept, and the header beyond it is never
        reached, exactly as a scan that checks each record as it walks.
        Such a header raises only when every record before it passed.
        """
        parts = self._parts
        parts.append(chunk)
        self._held += len(chunk)
        if self._held < self._want:
            return True
        buf = b"".join(parts)  # the one part itself when it is already bytes
        parts.clear()
        n = len(buf)
        table = np.frombuffer(buf, "<u4", n >> 2)  # the bytes in hand as words
        words = memoryview(table.astype("=u4", copy=False))  # a copy only on big-endian hosts
        count = len(words)
        skip_zeros = _ZERO_WORDS.match
        heads: list[int] = []  # the word index of each whole record
        bad = None
        at = 0
        while at < count:
            length = words[at]
            if not length:
                at = skip_zeros(buf, at << 2).end() >> 2
                continue
            if length < HEADER_SIZE or length % 4 != 0:
                bad = length
                break
            end = at + (length >> 2)
            if end > count:
                want = length  # runs past the bytes in hand
                break
            heads.append(at)
            at = end
        else:
            want = 4  # less than a word: padding or a header, the next bytes tell
        if heads:
            head = np.array(heads)
            start = head * 4
            ends = (start + table[head]).tolist()
            payloads = list(map(buf.__getitem__, map(slice, (start + HEADER_SIZE).tolist(), ends)))
            crcs = table[head + 1].tolist()
            got = list(map(zlib.crc32, payloads))
            good = len(got) if got == crcs else next(i for i, crc in enumerate(crcs) if got[i] != crc)
            self.records += map(LogRecord, payloads[:good], table[head[:good] + 2].tolist())
            if good < len(got):
                return False  # torn tail
        offset = at * 4
        if bad is not None:
            raise RecoveryCorruption(f"implausible record length {bad}", self._base + offset)
        self._base += offset
        self._want = want
        self._held = n - offset
        if self._held:
            parts.append(buf[offset:])
        return True
