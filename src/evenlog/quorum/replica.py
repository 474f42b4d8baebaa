"""Simulated cooperative replica: an in-memory store of units by file and id.

A segment id is (fid, ssn, sn, reserved = 0): fid names the metadata
file of the slot, ssn the slot within it, sn the segment's position in
the slot. On the modelled wire (FORMAT.md) it is four little-endian u32
words, ``SID_SIZE`` bytes.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

from ..crypto import DIGEST_SIZE, IV_SIZE
from ..errors import SegmentNotFound
from .registry import Registry

SID_SIZE = 16
READ_FRAME_SIZE = 4 + 1 + 4  # one READ: [len u32][type u8][fid u32]


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
    client's checkpoint passes its epoch (``drop_before``). No read returns
    the STORE digest, so only the unit is kept.
    """

    def __init__(self, replica_id: int):
        self.replica_id = replica_id
        self.alive = True
        self._store: dict[int, dict[SegmentId, bytes]] = {}  # fid -> sid -> unit

    def __len__(self) -> int:
        return sum(map(len, self._store.values()))

    def store(self, sid: SegmentId, unit: bytes, digest: bytes) -> bool:
        """Hold a segment; returns the acknowledgement, which a dead
        replica never gives."""
        if not self.alive:
            return False
        self._store.setdefault(sid.fid, {}).setdefault(sid, unit)
        return True

    def read(self, sid: SegmentId) -> bytes:
        if not self.alive:
            raise SegmentNotFound(f"replica {self.replica_id} is down")
        try:
            return self._store[sid.fid][sid]
        except KeyError:
            raise SegmentNotFound(f"replica {self.replica_id} has no segment {sid}") from None

    def segments(self, fid: int) -> Mapping[SegmentId, bytes]:
        """The units held of metadata file ``fid`` by segment id, not a
        copy: the answer to one READ (FORMAT.md)."""
        return self._store.get(fid, {})

    @property
    def segment_ids(self) -> list[SegmentId]:
        """The ids of the segments held, alive or not."""
        return [sid for held in self._store.values() for sid in held]

    def corrupt(self, sid: SegmentId, flip_byte: int = 0) -> None:
        """Flip one ciphertext byte in a held unit (fault injection)."""
        unit = bytearray(self._store[sid.fid][sid])
        unit[IV_SIZE + flip_byte] ^= 0xFF
        self._store[sid.fid][sid] = bytes(unit)

    def truncate(self, sid: SegmentId, size: int) -> None:
        """Cut a held unit to its first ``size`` bytes (fault injection)."""
        self._store[sid.fid][sid] = self._store[sid.fid][sid][:size]

    def forget(self, sid: SegmentId) -> None:
        """Lose a held segment (fault injection)."""
        del self._store[sid.fid][sid]

    def kill(self) -> None:
        self.alive = False

    def revive(self) -> None:
        self.alive = True

    def drop_before(self, fid: int) -> None:
        """Drop every segment of a metadata file below ``fid``, once the
        client's checkpoint has committed file ``fid``. A dead replica
        ignores this, as it ignores ``store``."""
        if self.alive:
            self._store = {held_fid: held for held_fid, held in self._store.items() if held_fid >= fid}


def build_cluster(n_replicas: int):
    """Registry plus n live replicas and the client (``client-0``, the
    ``QuorumBackend`` default), all registered at logical time 0."""
    registry = Registry()
    replicas = {rid: Replica(rid) for rid in range(n_replicas)}
    for rid in replicas:
        registry.register(rid, 0)
    registry.register("client-0", 0)
    return registry, replicas
