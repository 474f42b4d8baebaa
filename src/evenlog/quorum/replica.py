"""Simulated cooperative replica: an in-memory segment store keyed by id.

Segments are addressed by a 128-bit id packed from four little-endian
32-bit words:

    [fid u32][ssn u32][sn u32][reserved u32 = 0]

fid names the metadata-file epoch, ssn the slot within it, sn the
segment's position in the slot.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from ..crypto import IV_SIZE
from ..errors import SegmentNotFound
from .registry import Registry

_SID = struct.Struct("<IIII")
SID_SIZE = _SID.size


@dataclass(frozen=True, order=True)
class SegmentId:
    fid: int
    ssn: int
    sn: int
    reserved: int = 0

    def pack(self) -> bytes:
        return _SID.pack(self.fid, self.ssn, self.sn, self.reserved)

    @classmethod
    def unpack(cls, data: bytes) -> "SegmentId":
        return cls(*_SID.unpack(data))


@dataclass
class _Held:
    unit: bytes
    digest: bytes
    stored_at: float


class Replica:
    """One peer in the cooperative service.

    ``alive`` models process liveness: a dead replica neither stores nor
    serves, and the transport layer sees no response from it. Stores are
    idempotent per segment id.
    """

    def __init__(self, replica_id: int):
        self.replica_id = replica_id
        self.alive = True
        self._store: dict[SegmentId, _Held] = {}

    def __len__(self) -> int:
        return len(self._store)

    def store(self, sid: SegmentId, unit: bytes, digest: bytes, now: float = 0) -> bool:
        """Hold a segment; returns the acknowledgement. Dead replicas
        return nothing (the sender times out instead)."""
        if not self.alive:
            return False
        if sid not in self._store:
            self._store[sid] = _Held(unit, digest, now)
        return True

    def read(self, sid: SegmentId) -> bytes:
        if not self.alive:
            raise SegmentNotFound(f"replica {self.replica_id} is down")
        try:
            return self._store[sid].unit
        except KeyError:
            raise SegmentNotFound(f"replica {self.replica_id} has no segment {sid}") from None

    def has(self, sid: SegmentId) -> bool:
        return self.alive and sid in self._store

    def corrupt(self, sid: SegmentId, flip_byte: int = 0) -> None:
        """Flip one ciphertext byte in a held unit (fault injection)."""
        held = self._store[sid]
        unit = bytearray(held.unit)
        unit[IV_SIZE + flip_byte] ^= 0xFF
        held.unit = bytes(unit)

    def kill(self) -> None:
        self.alive = False

    def revive(self) -> None:
        self.alive = True

    def gc(self, t: float, registry: Registry, owner_id, interval: float = 60) -> int:
        """Drop segments older than one checkpoint interval, but only
        while the owning client is still alive in the registry; a dead
        client's segments are kept for its recovery."""
        if not self.alive or not registry.is_active(owner_id, t):
            return 0
        stale = [sid for sid, held in self._store.items() if t - held.stored_at >= interval]
        for sid in stale:
            del self._store[sid]
        return len(stale)


def build_cluster(n_replicas: int, client_id: str = "client-0", t: float = 0):
    """Registry plus n live replicas and the client, all freshly registered."""
    registry = Registry()
    replicas = {rid: Replica(rid) for rid in range(n_replicas)}
    for rid in replicas:
        registry.register(rid, t)
    registry.register(client_id, t)
    return registry, replicas
