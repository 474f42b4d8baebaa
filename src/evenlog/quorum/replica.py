"""Simulated cooperative replica: an in-memory segment store keyed by id.

A segment id is (fid, ssn, sn, reserved = 0): fid names the metadata
file of the slot, ssn the slot within it, sn the segment's position in
the slot. On the modelled wire (FORMAT.md) it is four little-endian u32
words, ``SID_SIZE`` bytes.
"""

from __future__ import annotations

from typing import KeysView, NamedTuple

from ..crypto import DIGEST_SIZE, IV_SIZE
from ..errors import SegmentNotFound
from .registry import Registry

SID_SIZE = 16


def store_frame_size(segment_size: int) -> int:
    """Bytes of one STORE frame: [len u32][type u8][sid][digest][unit]."""
    return 4 + 1 + SID_SIZE + DIGEST_SIZE + IV_SIZE + segment_size


class SegmentId(NamedTuple):
    fid: int
    ssn: int
    sn: int
    reserved: int = 0


class Replica:
    """One peer in the cooperative service.

    ``alive`` models process liveness: a dead replica neither stores nor
    serves; its ``store`` returns no acknowledgement. Stores are
    idempotent per segment id; a segment is dropped only when its
    client's checkpoint passes its epoch (``drop_before``).
    """

    def __init__(self, replica_id: int):
        self.replica_id = replica_id
        self.alive = True
        self._store: dict[SegmentId, tuple[bytes, bytes]] = {}  # sid -> (unit, digest)

    def __len__(self) -> int:
        return len(self._store)

    def store(self, sid: SegmentId, unit: bytes, digest: bytes) -> bool:
        """Hold a segment; returns the acknowledgement, which a dead
        replica never gives."""
        if not self.alive:
            return False
        if sid not in self._store:
            self._store[sid] = (unit, digest)
        return True

    def read(self, sid: SegmentId) -> bytes:
        if not self.alive:
            raise SegmentNotFound(f"replica {self.replica_id} is down")
        try:
            return self._store[sid][0]
        except KeyError:
            raise SegmentNotFound(f"replica {self.replica_id} has no segment {sid}") from None

    def has(self, sid: SegmentId) -> bool:
        return self.alive and sid in self._store

    @property
    def segment_ids(self) -> KeysView[SegmentId]:
        """A read-only view of the ids of the segments held, alive or not."""
        return self._store.keys()

    def corrupt(self, sid: SegmentId, flip_byte: int = 0) -> None:
        """Flip one ciphertext byte in a held unit (fault injection)."""
        unit, digest = self._store[sid]
        unit = bytearray(unit)
        unit[IV_SIZE + flip_byte] ^= 0xFF
        self._store[sid] = (bytes(unit), digest)

    def truncate(self, sid: SegmentId, size: int) -> None:
        """Cut a held unit to its first ``size`` bytes (fault injection)."""
        unit, digest = self._store[sid]
        self._store[sid] = (unit[:size], digest)

    def forget(self, sid: SegmentId) -> None:
        """Lose a held segment (fault injection)."""
        del self._store[sid]

    def kill(self) -> None:
        self.alive = False

    def revive(self) -> None:
        self.alive = True

    def drop_before(self, fid: int) -> None:
        """Drop every segment of a metadata file below ``fid``, once the
        client's checkpoint has committed file ``fid``. A dead replica
        ignores this, as it ignores ``store``."""
        if self.alive:
            self._store = {sid: held for sid, held in self._store.items() if sid.fid >= fid}


def build_cluster(n_replicas: int, client_id: str = "client-0"):
    """Registry plus n live replicas and the client, all registered at
    logical time 0."""
    registry = Registry()
    replicas = {rid: Replica(rid) for rid in range(n_replicas)}
    for rid in replicas:
        registry.register(rid, 0)
    registry.register(client_id, 0)
    return registry, replicas
