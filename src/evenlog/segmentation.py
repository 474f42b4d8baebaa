"""Splitting a slot flush into fixed-size segments.

Every segment is exactly S bytes; the last one is zero-padded if the
slot does not divide evenly. When it does, no extra all-zero segment is
emitted. The padding is always whole 4-byte zero words (slot length and
S are both multiples of 4), which is what the recovery scanner skips.
"""

from __future__ import annotations

from .errors import InvalidSegmentSize

MIN_SEGMENT_SIZE = 32


def check_segment_size(size: int) -> int:
    """Validate a segment size for every layer that takes one; returns it."""
    # multiple of 16 so block-cipher encryption never expands a segment
    if size < MIN_SEGMENT_SIZE or size % 16 != 0:
        raise InvalidSegmentSize(f"segment size {size} (need >= {MIN_SEGMENT_SIZE}, multiple of 16)")
    return size


def padding_overhead(length: int, segment_size: int) -> int:
    """Zero bytes appended when ``length`` bytes are split into segments."""
    if length < 0:
        raise ValueError("negative length")
    if length == 0:
        return 0
    remainder = length % segment_size
    return 0 if remainder == 0 else segment_size - remainder


def pad_to_segments(slot_bytes: bytes, segment_size: int) -> bytes:
    """Return ``slot_bytes`` zero-padded to a whole number of segments."""
    check_segment_size(segment_size)
    return slot_bytes + b"\x00" * padding_overhead(len(slot_bytes), segment_size)


def segment_slot(slot_bytes: bytes, segment_size: int) -> list[bytes]:
    """Split a slot flush into ceil(len/S) segments of exactly S bytes each."""
    padded = pad_to_segments(slot_bytes, segment_size)
    return [padded[i : i + segment_size] for i in range(0, len(padded), segment_size)]
