"""Per-slot metadata arrays: which replicas acknowledged which segment.

An array holds a fixed number K of entries regardless of how many
segments the slot really produced, so every serialized array has the
same byte length and the metadata file leaks no segment counts. Each
entry is a triplet of replica ids (one element per replica of the
segment's quorum group, -1 until that replica acknowledges) plus the
SHA-256 digest of the plaintext segment.

Serialized layout, little-endian:

    [ssn u32] [K x (3 x i32 triplet + 32-byte digest)]

zero-padded to the cipher block size; encrypted at rest by the backend.

Triplet elements have single-writer ownership: element j of a segment's
triplet belongs to the sender serving replica j of that quorum, so
concurrent acknowledgement updates need no lock.
"""

from __future__ import annotations

import struct

import numpy as np

from ..crypto import DIGEST_SIZE

SENTINEL = -1
TRIPLET_LEN = 3
_ENTRY = struct.Struct("<iii32s")
_SSN = struct.Struct("<I")
_ZERO_DIGEST = b"\x00" * DIGEST_SIZE


def serialized_size(k_max: int) -> int:
    """Byte length of every serialized array for a given K (block aligned)."""
    raw = _SSN.size + k_max * _ENTRY.size
    return raw + (-raw) % 16


def array_dtype(k_max: int) -> np.dtype:
    """A numpy view of one serialized array: ``ssn``, then K ``entries`` of
    ``ids`` (the triplet) and ``digest``. The digest is raw ``V32``, not
    ``S32``, which would strip a digest's trailing NUL bytes."""
    entry = np.dtype([("ids", "<i4", (TRIPLET_LEN,)), ("digest", f"V{DIGEST_SIZE}")])
    return np.dtype({"names": ["ssn", "entries"], "formats": ["<u4", (entry, (k_max,))],
                     "offsets": [0, _SSN.size], "itemsize": serialized_size(k_max)})


class MetadataEntry:
    __slots__ = ("replica_ids", "digest", "quorum")

    def __init__(self, replica_ids=None, digest: bytes = _ZERO_DIGEST, quorum: tuple | None = None):
        self.replica_ids = list(replica_ids) if replica_ids is not None else [SENTINEL] * TRIPLET_LEN
        self.digest = digest
        self.quorum = quorum  # in-memory only: quorum assignment for ack routing

    @property
    def ack_count(self) -> int:
        return sum(1 for r in self.replica_ids if r != SENTINEL)

    def committed(self, write_quorum: int = 2) -> bool:
        return self.ack_count >= write_quorum

    def acked_replicas(self) -> list[int]:
        return [r for r in self.replica_ids if r != SENTINEL]


class MetadataArray:
    """Fixed-K array of triplet entries for one slot flush."""

    def __init__(self, ssn: int, k_max: int):
        self.ssn = ssn
        self.k_max = k_max
        self.entries = [MetadataEntry() for _ in range(k_max)]

    def assign(self, segment_index: int, quorum: tuple, digest: bytes) -> None:
        """Bind a real segment to its quorum group and record its digest."""
        entry = self.entries[segment_index]
        entry.quorum = quorum
        entry.digest = digest

    def update(self, segment_index: int, replica_id: int) -> MetadataEntry:
        """Record one acknowledgement.

        The (segment, replica) pair owns exactly one triplet element; a
        second write to the same element is a contract violation.
        """
        if segment_index >= self.k_max:
            raise IndexError(f"segment index {segment_index} out of range for K={self.k_max}")
        entry = self.entries[segment_index]
        if entry.quorum is None:
            raise ValueError(f"segment {segment_index} has no quorum assignment")
        element = entry.quorum.index(replica_id)
        assert entry.replica_ids[element] == SENTINEL, (
            f"element {element} of segment {segment_index} written twice"
        )
        entry.replica_ids[element] = replica_id
        return entry

    def to_bytes(self) -> bytes:
        parts = [_SSN.pack(self.ssn)]
        for entry in self.entries:
            parts.append(_ENTRY.pack(*entry.replica_ids, entry.digest))
        raw = b"".join(parts)
        return raw + b"\x00" * ((-len(raw)) % 16)

    @classmethod
    def from_bytes(cls, data: bytes, k_max: int) -> "MetadataArray":
        if len(data) != serialized_size(k_max):
            raise ValueError(f"array blob of {len(data)} bytes, expected {serialized_size(k_max)}")
        (ssn,) = _SSN.unpack_from(data, 0)
        array = cls(ssn, k_max)
        for i in range(k_max):
            a, b, c, digest = _ENTRY.unpack_from(data, _SSN.size + i * _ENTRY.size)
            array.entries[i] = MetadataEntry([a, b, c], digest)
        return array
