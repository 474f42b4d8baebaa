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
``array_dtype(K)`` is that layout as one numpy record: a ``MetadataArray``
is built in such a record and serialized as its bytes, and recovery
parses a run of blobs with the same dtype.

Triplet elements have single-writer ownership: element j of a segment's
triplet belongs to the sender serving replica j of that quorum, so
concurrent acknowledgement updates need no lock.
"""

from __future__ import annotations

import functools

import numpy as np

from ..crypto import DIGEST_SIZE

SENTINEL = -1
TRIPLET_LEN = 3
_SSN_SIZE = 4
_ENTRY_SIZE = TRIPLET_LEN * 4 + DIGEST_SIZE


def serialized_size(k_max: int) -> int:
    """Byte length of every serialized array for a given K (block aligned)."""
    raw = _SSN_SIZE + k_max * _ENTRY_SIZE
    return raw + (-raw) % 16


@functools.lru_cache(maxsize=16)
def array_dtype(k_max: int) -> np.dtype:
    """One serialized array as a numpy record: ``ssn``, then K ``entries``
    of ``ids`` (the triplet) and ``digest``. The digest is raw ``V32``,
    not ``S32``, which would strip a digest's trailing NUL bytes."""
    entry = np.dtype([("ids", "<i4", (TRIPLET_LEN,)), ("digest", f"V{DIGEST_SIZE}")])
    return np.dtype({"names": ["ssn", "entries"], "formats": ["<u4", (entry, (k_max,))],
                     "offsets": [0, _SSN_SIZE], "itemsize": serialized_size(k_max)})


class MetadataArray:
    """Fixed-K array of triplet entries for one slot flush, held as one
    ``array_dtype(K)`` record. ``ids`` (K x 3 int32) and ``digests`` (K
    raw 32-byte values) are writable views of that record. Each segment's
    quorum assignment routes its acknowledgements and is never
    serialized."""

    def __init__(self, ssn: int, k_max: int):
        self._bind(np.zeros((), array_dtype(k_max)))
        self.record["ssn"] = ssn
        self.ids[...] = SENTINEL

    def _bind(self, record: np.ndarray) -> None:
        self.record = record
        self.ids = record["entries"]["ids"]
        self.digests = record["entries"]["digest"]
        self._quorums: list[tuple | None] = [None] * len(self.ids)

    def assign(self, segment_index: int, quorum: tuple, digest: bytes) -> None:
        """Bind a real segment to its quorum group and record its digest."""
        self._quorums[segment_index] = quorum
        self.digests[segment_index] = digest

    def update(self, segment_index: int, replica_id: int) -> None:
        """Record one acknowledgement.

        The (segment, replica) pair owns exactly one triplet element; a
        second write to the same element is a contract violation.
        """
        quorum = self._quorums[segment_index]
        if quorum is None:
            raise ValueError(f"segment {segment_index} has no quorum assignment")
        element = quorum.index(replica_id)
        assert self.ids[segment_index, element] == SENTINEL, (
            f"element {element} of segment {segment_index} written twice"
        )
        self.ids[segment_index, element] = replica_id

    def to_bytes(self) -> bytes:
        return self.record.tobytes()

    @classmethod
    def from_bytes(cls, data: bytes, k_max: int) -> "MetadataArray":
        if len(data) != serialized_size(k_max):
            raise ValueError(f"array blob of {len(data)} bytes, expected {serialized_size(k_max)}")
        array = cls.__new__(cls)
        # copied as bytes: numpy's copy of a record skips its padding
        array._bind(np.frombuffer(bytearray(data), array_dtype(k_max)).reshape(()))
        return array
