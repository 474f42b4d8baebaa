"""Fixed-size segmentation of slot flushes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evenlog.errors import InvalidSegmentSize
from evenlog.records import encode_record, scan_padded_stream
from evenlog.segmentation import padding_overhead, segment_slot

from .conftest import iter_records, pad4


class TestSegmentSlot:
    def test_300_bytes_at_128_gives_3_segments_with_84_zeros(self):
        segments = segment_slot(b"\x01" * 300, 128)
        assert len(segments) == 3
        assert all(len(s) == 128 for s in segments)
        assert segments[2][-84:] == b"\x00" * 84
        assert b"".join(segments)[:300] == b"\x01" * 300

    def test_exact_multiple_emits_no_padding_segment(self):
        segments = segment_slot(b"\x02" * 256, 128)
        assert len(segments) == 2
        assert b"".join(segments) == b"\x02" * 256

    def test_empty_slot_gives_empty_list(self):
        assert segment_slot(b"", 128) == []

    def test_invalid_sizes_rejected(self):
        for bad in (0, 4, 16, 31, 40, 100):
            with pytest.raises(InvalidSegmentSize):
                segment_slot(b"\x00" * 64, bad)


class TestPaddingOverhead:
    def test_values(self):
        assert padding_overhead(300, 128) == 84
        assert padding_overhead(200, 128) == 56
        assert padding_overhead(0, 128) == 0
        for k in (1, 2, 9):
            assert padding_overhead(k * 128, 128) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            padding_overhead(-1, 128)


@settings(max_examples=300, deadline=None)
@given(
    data=st.binary(max_size=3000).map(pad4),
    segment_size=st.sampled_from([32, 64, 128, 512]),
)
def test_segments_all_exactly_s_and_concat_is_input_plus_zeros(data, segment_size):
    segments = segment_slot(data, segment_size)
    assert len(segments) == -(-len(data) // segment_size)
    assert all(len(s) == segment_size for s in segments)
    joined = b"".join(segments)
    pad_len = len(joined) - len(data)
    assert joined[: len(data)] == data
    assert joined[len(data):] == b"\x00" * pad_len
    assert pad_len == padding_overhead(len(data), segment_size)
    assert pad_len % 4 == 0


@settings(max_examples=100, deadline=None)
@given(
    payloads=st.lists(st.binary(min_size=1, max_size=300), min_size=1, max_size=8),
    segment_size=st.sampled_from([32, 128]),
)
def test_segmenting_preserves_the_records(payloads, segment_size):
    # oracle: parse the unsegmented stream directly
    slot_bytes = b"".join(encode_record(p) for p in payloads)
    expected = [r.payload for r in iter_records(slot_bytes)]
    recovered = scan_padded_stream([b"".join(segment_slot(slot_bytes, segment_size))])
    assert [r.payload for r in recovered] == expected


def test_deterministic_and_order_preserving():
    data = pad4(bytes(range(256)) * 3)
    assert segment_slot(data, 64) == segment_slot(data, 64)
