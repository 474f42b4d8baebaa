"""Record codec and stream scanners."""

import random
import struct
import zlib
from itertools import pairwise

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evenlog.errors import RecordTooLarge, RecoveryCorruption
from evenlog.records import (
    FLAG_CHECKPOINT,
    HEADER_SIZE,
    encode_record,
    encoded_record_size,
    scan_padded_stream,
)
from evenlog.journal import PlainJournalBackend, recover_plain

from .conftest import CorruptRecord, MalformedHeader, TruncatedRecord, decode_record, iter_records, pad4


def format_encode(payload: bytes, flags: int = 0) -> bytes:
    """FORMAT.md's record, built the plain way: the payload padded to a
    multiple of 4, then the header with the CRC of the padded bytes."""
    padded = payload + b"\x00" * (-len(payload) % 4)
    return struct.pack("<IIII", HEADER_SIZE + len(padded), zlib.crc32(padded), flags, 0) + padded


@settings(max_examples=300, deadline=None)
@given(payload=st.binary(min_size=1, max_size=600) | st.binary(min_size=4090, max_size=4100),
       flags=st.sampled_from([0, FLAG_CHECKPOINT, 0xFFFFFFFF]),
       kind=st.sampled_from([bytes, bytearray]))
def test_encode_matches_the_format(payload, flags, kind):
    record = encode_record(kind(payload), flags)
    assert type(record) is bytes
    assert record == format_encode(payload, flags)


class TestEncode:
    def test_100_byte_payload_gives_116_byte_record(self):
        rec = encode_record(b"a" * 100)
        assert len(rec) == 116
        assert struct.unpack_from("<I", rec)[0] == 116

    def test_one_byte_payload_pads_to_20(self):
        rec = encode_record(b"z")
        assert len(rec) == 20
        record, _ = decode_record(rec)
        assert record.payload == b"z\x00\x00\x00"

    def test_800_byte_payload(self):
        assert len(encode_record(b"q" * 800)) == 16 + 800

    def test_length_field_is_little_endian_first_word(self):
        rec = encode_record(b"abcd")
        assert rec[:4] == (20).to_bytes(4, "little")

    def test_header_is_16_bytes_reserved_zero(self):
        rec = encode_record(b"abcd", flags=FLAG_CHECKPOINT)
        length, crc, flags, reserved = struct.unpack_from("<IIII", rec)
        assert length == len(rec) and flags == FLAG_CHECKPOINT and reserved == 0

    def test_empty_data_payload_rejected(self):
        with pytest.raises(ValueError):
            encode_record(b"")

    def test_checkpoint_record_may_carry_small_payload(self):
        rec = encode_record(struct.pack("<Q", 7), flags=FLAG_CHECKPOINT)
        record, _ = decode_record(rec)
        assert record.is_checkpoint
        assert struct.unpack("<Q", record.payload)[0] == 7

    def test_size_bound(self):
        assert encoded_record_size(0) == 16
        assert encoded_record_size(2**32 - 20) == 2**32 - 4  # largest encodable
        with pytest.raises(RecordTooLarge):
            encoded_record_size(2**32 - 19)  # would pad past the u32 ceiling
        with pytest.raises(RecordTooLarge):
            encoded_record_size(2**32)


class TestDecode:
    def test_length_13_is_malformed(self):
        buf = struct.pack("<IIII", 13, 0, 0, 0)
        with pytest.raises(MalformedHeader):
            decode_record(buf)

    def test_length_below_header_is_malformed(self):
        buf = struct.pack("<IIII", 12, 0, 0, 0)
        with pytest.raises(MalformedHeader):
            decode_record(buf)

    def test_truncated_by_four_bytes(self):
        rec = encode_record(b"m" * 64)
        with pytest.raises(TruncatedRecord):
            decode_record(rec[:-4])

    def test_corrupt_payload(self):
        rec = bytearray(encode_record(b"n" * 64))
        rec[HEADER_SIZE + 3] ^= 0xFF
        with pytest.raises(CorruptRecord):
            decode_record(bytes(rec))

    def test_decode_advances_cursor(self):
        buf = encode_record(b"one!") + encode_record(b"two!")
        first, offset = decode_record(buf)
        second, end = decode_record(buf, offset)
        assert (first.payload, second.payload) == (b"one!", b"two!")
        assert end == len(buf)


@settings(max_examples=200, deadline=None)
@given(payload=st.binary(min_size=1, max_size=4096), flags=st.sampled_from([0, FLAG_CHECKPOINT]))
def test_roundtrip_recovers_payload_up_to_tail_padding(payload, flags):
    record, offset = decode_record(encode_record(payload, flags))
    assert record.payload == pad4(payload)
    assert offset == encoded_record_size(len(payload))
    assert offset % 4 == 0


def test_roundtrip_one_mebibyte():
    payload = bytes(range(256)) * 4096 + b"xyz"
    record, _ = decode_record(encode_record(payload))
    assert record.payload == pad4(payload)


class TestIterRecords:
    def test_parses_concatenation_in_order(self):
        payloads = [b"a" * 5, b"b" * 700, b"c" * 16]
        stream = b"".join(encode_record(p) for p in payloads)
        assert [r.payload for r in iter_records(stream)] == [pad4(p) for p in payloads]

    def test_empty_stream(self):
        assert list(iter_records(b"")) == []


class TestScanPaddedStream:
    def test_skips_zero_words_between_records(self):
        stream = encode_record(b"left") + b"\x00" * 12 + encode_record(b"right") + b"\x00" * 4
        assert [r.payload for r in scan_padded_stream(stream)] == [b"left", pad4(b"right")]

    def test_all_zero_stream_is_empty(self):
        assert scan_padded_stream(b"\x00" * 640) == []

    def test_leading_padding_skipped(self):
        stream = b"\x00" * 8 + encode_record(b"data")
        assert [r.payload for r in scan_padded_stream(stream)] == [b"data"]

    def test_torn_tail_stops_at_last_good_record(self):
        good = encode_record(b"complete" * 4)
        torn = encode_record(b"unfinished" * 8)[:-12]
        records = scan_padded_stream(good + torn)
        assert [r.payload for r in records] == [b"complete" * 4]

    def test_corrupt_checksum_in_tail_stops_cleanly(self):
        good = encode_record(b"fine")
        bad = bytearray(encode_record(b"spoiled!"))
        bad[HEADER_SIZE] ^= 0x01
        assert [r.payload for r in scan_padded_stream(good + bytes(bad))] == [b"fine"]

    def test_implausible_nonzero_word_raises_with_offset(self):
        stream = encode_record(b"okay") + (13).to_bytes(4, "little") + b"\x00" * 16
        with pytest.raises(RecoveryCorruption) as exc_info:
            scan_padded_stream(stream)
        assert exc_info.value.offset == 20

    def test_sub_word_tail_ignored(self):
        stream = encode_record(b"done") + b"\x00\x00"
        assert len(scan_padded_stream(stream)) == 1

    def test_slot_sized_zero_run_between_records(self, tmp_path):
        slot = 128 * 1024
        backend = PlainJournalBackend(tmp_path, pad_to=slot, sync=False)
        backend.persist_slot(encode_record(b"first"))
        backend.persist_slot(encode_record(b"second", FLAG_CHECKPOINT))
        backend.close()
        assert recover_plain(tmp_path) == [(pad4(b"first"), 0), (pad4(b"second"), FLAG_CHECKPOINT)]


def reference_scan(buf):
    """The padded-stream scanner written out word by word, kept as the
    oracle: skip one all-zero word at a time, raise on an implausible
    length, stop at a record that runs past the end or fails its CRC."""
    records, offset = [], 0
    while offset + 4 <= len(buf):
        word = bytes(buf[offset : offset + 4])
        if word == b"\x00" * 4:
            offset += 4
            continue
        length = int.from_bytes(word, "little")
        if length < HEADER_SIZE or length % 4 != 0:
            raise RecoveryCorruption(f"implausible record length {length}", offset)
        if offset + length > len(buf):
            break
        try:
            record, offset = decode_record(buf, offset)
        except CorruptRecord:
            break
        records.append((record.payload, record.flags))
    return records


@st.composite
def padded_streams(draw):
    """Records (some 256 B multiples long, so their first byte is zero)
    with zero-word gaps of 0-31 words or over 4 KiB, a 0-3 byte tail, and
    at most one truncation, bit flip or inserted garbage word, or both
    faults at once: a flipped payload bit, then an implausible word after
    that record (the checksum failure must win)."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    parts = []
    for _ in range(draw(st.integers(0, 6))):
        parts.append(b"\x00" * 4 * draw(st.one_of(st.integers(0, 31), st.integers(1025, 1100))))
        size = draw(st.one_of(st.integers(1, 300), st.sampled_from([240, 496, 1008, 65520])))
        parts.append(encode_record(rng.randbytes(size), draw(st.sampled_from([0, FLAG_CHECKPOINT]))))
    fault = draw(st.sampled_from(["none", "truncate", "flip", "garbage", "flip-then-garbage"]))
    if fault == "flip-then-garbage" and parts:
        flipped = 2 * draw(st.integers(0, len(parts) // 2 - 1)) + 1  # a record, not a gap
        record = bytearray(parts[flipped])
        record[draw(st.integers(HEADER_SIZE, len(record) - 1))] ^= 1 << draw(st.integers(0, 7))
        parts[flipped] = bytes(record)
        # an odd length is never plausible; the word goes between parts, so on a word boundary
        parts.insert(draw(st.integers(flipped + 1, len(parts))), struct.pack("<I", rng.randrange(1, 2**32, 2)))
    parts.append(rng.randbytes(draw(st.integers(0, 3))))
    buf = bytearray(b"".join(parts))
    if buf and fault == "truncate":
        del buf[draw(st.integers(0, len(buf) - 1)):]
    elif buf and fault == "flip":
        buf[draw(st.integers(0, len(buf) - 1))] ^= 1 << draw(st.integers(0, 7))
    elif fault == "garbage":
        at = 4 * draw(st.integers(0, len(buf) // 4))
        buf[at:at] = rng.randbytes(4)
    return bytes(buf)


@settings(max_examples=300, deadline=None)
@given(stream=padded_streams(), kind=st.sampled_from([bytes, bytearray, memoryview]))
def test_scan_matches_word_by_word_reference(stream, kind):
    try:
        expected = reference_scan(stream)
    except RecoveryCorruption as exc:
        with pytest.raises(RecoveryCorruption) as exc_info:
            scan_padded_stream(kind(stream))
        assert (str(exc_info.value), exc_info.value.offset) == (str(exc), exc.offset)
        return
    records = scan_padded_stream(kind(stream))
    assert records == expected
    assert all(type(r.payload) is bytes for r in records)


def split_points(buf, rng):
    """Chunk boundaries the resumable scan must carry across: one inside
    each record header, one a byte before each record's end, and one
    inside each run of zero words, found by the reference walk."""
    points, offset, in_zeros = set(), 0, False
    while offset + 4 <= len(buf):
        if bytes(buf[offset : offset + 4]) == b"\x00" * 4:
            if not in_zeros:
                points.add(offset + rng.randrange(1, 4))
            in_zeros = True
            offset += 4
            continue
        in_zeros = False
        length = int.from_bytes(buf[offset : offset + 4], "little")
        if length < HEADER_SIZE or length % 4 != 0:
            break
        points.update((offset + rng.randrange(1, HEADER_SIZE), offset + length - 1))
        offset += length
    return points


@settings(max_examples=300, deadline=None)
@given(stream=padded_streams(), kind=st.sampled_from([bytes, bytearray, memoryview]),
       split=st.sampled_from(["landmarks", "every-byte"]), rng=st.randoms(use_true_random=False))
def test_chunked_scan_matches_one_call(stream, kind, split, rng):
    if split == "every-byte":
        cuts = range(1, len(stream))
    else:  # the landmarks plus a few random cuts
        extra = {rng.randrange(1, len(stream)) for _ in range(3)} if len(stream) > 1 else set()
        cuts = sorted((split_points(stream, rng) | extra) - {0, len(stream)})
    buf = kind(stream)
    chunks = [buf[a:b] for a, b in pairwise([0, *cuts, len(stream)])]
    try:
        expected = reference_scan(stream)
    except RecoveryCorruption as exc:
        with pytest.raises(RecoveryCorruption) as exc_info:
            scan_padded_stream(iter(chunks))
        assert (str(exc_info.value), exc_info.value.offset) == (str(exc), exc.offset)
        return
    assert scan_padded_stream(iter(chunks)) == expected == scan_padded_stream(buf)
