"""Quorum-replicated durability backend.

A slot flush is split into fixed-size segments; each real segment is
encrypted and sent to every replica of its own quorum group (no group
sees two segments of one write). The write commits once every real
segment holds a write quorum of acknowledgements — fake segments, sent
under the fixed-count scheme to equalize the number of groups touched,
are never awaited. One fixed-size encrypted metadata array per slot is
appended to the metadata file and synced before the commit is reported.

Replicas and the network are simulated in process: deliveries are
ordered by seeded pseudo-random latencies, so a run is reproducible
given its seed.

The metadata files are ``metadata.<fid>`` files on ``JournalFiles``, the
journals' epoch-file layer: a start opens a fresh file, a checkpoint
commits the ``CHECKPOINT`` sidecar and deletes the files below it, and
then has the replicas drop their segments below the new fid. A segment
id's fid names the metadata file of its slot and its ssn the slot's
place in that file, so no id is ever given out twice. Recovery reads
every metadata file from the sidecar on, a run of whole blobs at a time,
and fetches and scans each run's segments before it reads the next. The
metadata trace channel shows one fixed-size blob per slot and, at each
checkpoint, the 20-byte sidecar write: the checkpoint cadence, never a
record size.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping

from .. import crypto
from ..errors import CommitTimeout, IntegrityFailure, SegmentNotFound, UnrecoverableSegment
from ..journal import JournalFiles, _scan_files, epoch_filename, journal_files
from ..observe import StorageTrace
from ..records import LogRecord
from ..segmentation import check_segment_size, segment_slot
from ..slots import BackendStats, CheckpointMarker
from .metadata import MetadataArray, serialized_size
from .registry import Registry
from .replica import Replica, SegmentId
from .selection import GROUP_SIZE, SelectionScheme, form_quorums, select_quorums
from .transport import store_frame_size


@dataclass
class QuorumConfig:
    write_quorum: int = 2                 # acks required per real segment
    tolerable_failures: int = 1           # failures per group the commit survives
    segment_size: int = 128
    max_write_size: int = 1024            # bounds segments per write: K = MS / S

    @property
    def k_max(self) -> int:
        return self.max_write_size // self.segment_size

    def validate(self) -> "QuorumConfig":
        check_segment_size(self.segment_size)
        if self.write_quorum <= self.tolerable_failures:
            raise ValueError("write quorum must exceed tolerable failures")
        if self.write_quorum > GROUP_SIZE:
            raise ValueError("write quorum exceeds group size")
        if self.max_write_size % self.segment_size != 0:
            raise ValueError("max write size must be a multiple of the segment size")
        if self.k_max < 1:
            raise ValueError("max write size must cover at least one segment")
        return self


@dataclass
class CommitReceipt:
    ssn: int
    real_segments: int
    fake_segments: int
    commit_latency: float


class QuorumBackend(JournalFiles):
    """Durability backend persisting slots to quorums of replicas."""

    PREFIX = "metadata"
    CHANNEL = StorageTrace.METADATA

    def __init__(
        self,
        root: str | Path,
        key: crypto.ReplicaKey,
        replicas: Mapping[int, Replica],
        registry: Registry,
        config: QuorumConfig | None = None,
        scheme: SelectionScheme = SelectionScheme.VNOS,
        seed: int = 0,
        trace: StorageTrace | None = None,
        channels: Mapping[int, object] | None = None,  # default: the replicas, called in process
        client_id: str = "client-0",
        sync: bool = True,
    ):
        self.key = key
        self.replicas = dict(replicas)
        self.registry = registry
        self.config = (config or QuorumConfig(segment_size=128)).validate()
        self.scheme = scheme
        self.client_id = client_id
        self._rng = random.Random(seed)
        self._channels = dict(channels) if channels is not None else self.replicas

        # quorum groups are fixed for the life of this backend; per-write
        # selection draws from this candidate list. Members register at
        # logical time 0.
        active = registry.list_active(0.0) - {client_id}
        self.groups = form_quorums(active, self._rng)

        self._ssn = 0  # the next slot's place in the current metadata file
        self._blob_size = crypto.IV_SIZE + serialized_size(self.config.k_max)
        self.real_segments = 0
        self.fake_segments = 0
        super().__init__(root, trace, sync)

    @property
    def metadata_path(self) -> Path:
        return self.root / epoch_filename(self.PREFIX, self._fid)

    def stats(self) -> BackendStats:
        seg = self.config.segment_size
        units = self.real_segments + self.fake_segments
        return BackendStats(self.real_segments * seg, self.fake_segments * seg, units * crypto.IV_SIZE)

    # -- persistence ---------------------------------------------------------

    def persist_slot(self, slot_bytes: bytes) -> CommitReceipt:
        """Replicate one slot flush and durably record its metadata."""
        cfg = self.config
        if not slot_bytes:
            return CommitReceipt(self._ssn, 0, 0, 0.0)
        segments = segment_slot(slot_bytes, cfg.segment_size)
        n_real = len(segments)
        placements = select_quorums(self.scheme, n_real, self.groups, cfg.k_max, self._rng)

        # used up before delivery: replicas keep the first unit stored
        # under an id, so a write that fails after delivery must not lend
        # its ssn to the next one
        ssn = self._ssn
        self._ssn += 1
        fakes = [os.urandom(cfg.segment_size) for _ in range(len(placements) - n_real)]
        plaintexts = segments + fakes
        units = crypto.split_units(
            crypto.encrypt_stream(self.key, b"".join(plaintexts), cfg.segment_size),
            cfg.segment_size,
        )
        digests = [crypto.digest_segment(p) for p in plaintexts]

        array = MetadataArray(ssn, cfg.k_max)
        for i in range(n_real):
            array.assign(i, placements[i].quorum, digests[i])

        commit_latency = self._deliver(array, placements, units, digests, ssn, n_real)

        self._append(crypto.encrypt_segment(self.key, array.to_bytes()), self._blob_size)
        self.real_segments += n_real
        self.fake_segments += len(fakes)
        return CommitReceipt(ssn, n_real, len(fakes), commit_latency)

    def _deliver(self, array, placements, units, digests, ssn, n_real) -> float:
        """Simulated concurrent replication: one send per (segment, replica),
        delivered in seeded-latency order. Acknowledgements for real
        segments update the metadata array until every real segment is
        committed; fake-segment responses are never waited on. Returns
        the latency at which the last real segment committed."""
        cfg = self.config
        # (latency, send order, segment position, replica): the unique order settles ties
        deliveries = []
        for pos, placement in enumerate(placements):
            for replica_id in placement.quorum:
                deliveries.append((self._rng.random(), len(deliveries), pos, replica_id))
        deliveries.sort()
        sids = [SegmentId(self._fid, ssn, pos) for pos in range(len(placements))]

        msg_size = store_frame_size(cfg.segment_size)
        pending = set(range(n_real))
        committed_at = None
        for latency, _, pos, replica_id in deliveries:
            self.trace.record(StorageTrace.REPLICA, msg_size)
            acked = self._channels[replica_id].store(sids[pos], units[pos], digests[pos])
            if acked and pos < n_real and committed_at is None:  # placements past n_real are fake
                entry = array.update(pos, replica_id)
                if entry.committed(cfg.write_quorum):
                    pending.discard(pos)
                    if not pending:
                        committed_at = latency
        if pending:
            raise CommitTimeout(
                f"segments {sorted(pending)} of slot {ssn} never reached {cfg.write_quorum} acks"
            )
        return committed_at if committed_at is not None else 0.0

    # -- checkpointing: the one place anything is deleted ---------------------

    def checkpoint(self, ckpt_id: int) -> CheckpointMarker:
        """Commit the checkpoint on the metadata files (see
        ``JournalFiles.checkpoint``), then have every replica drop the
        segments below the new file.

        A dead replica ignores the drop, as it ignores a store; once
        revived, the next checkpoint collects its old segments. A client
        that never checkpoints keeps all of its segments. A segment id
        carries no client id, so this assumes one client per replica set.
        """
        marker = super().checkpoint(ckpt_id)
        self._ssn = 0
        for replica in self.replicas.values():
            replica.drop_before(marker.lsn.file_id)
        return marker

    # -- recovery --------------------------------------------------------------

    def _plaintext_files(self) -> Iterator[tuple[int, Iterator[bytes]]]:
        """(fid, plaintext runs) per metadata file from the last checkpoint
        on; a torn trailing blob is dropped by the reader."""
        for fid, chunks in journal_files(self.root, self._blob_size, self.PREFIX):
            yield fid, (assemble_stream(c, self.key, self.config, self._channels, fid) for c in chunks)

    def recover_assemble(self) -> bytes:
        """The padded plaintext stream of every metadata file from the last
        checkpoint on, rebuilt from the replicas."""
        return b"".join(run for _, runs in self._plaintext_files() for run in runs)

    def recover(self) -> list[LogRecord]:
        return _scan_files(self._plaintext_files(), self.PREFIX)


def assemble_stream(
    blobs: bytes,
    key: crypto.ReplicaKey,
    config: QuorumConfig,
    channels: Mapping[int, object],
    fid: int,
) -> bytes:
    """Decrypt a run of whole metadata blobs of file ``fid`` in file order
    and fetch each committed segment from one of its recorded replicas (a
    single replica suffices: only replicas that acknowledged the
    up-to-date unit are ever recorded, so there is nothing stale to read).
    Digests are verified before a segment is accepted. Returns the run's
    padded plaintext."""
    blob_size = crypto.IV_SIZE + serialized_size(config.k_max)
    parts: list[bytes] = []
    for off in range(0, len(blobs), blob_size):
        array = MetadataArray.from_bytes(crypto.decrypt_segment(key, blobs[off : off + blob_size]), config.k_max)
        for sn, entry in enumerate(array.entries):
            if not entry.committed(config.write_quorum):
                continue  # blank (fake/padding) or never-committed entry
            sid = SegmentId(fid, array.ssn, sn)
            parts.append(_fetch_verified(sid, entry, key, channels, config.segment_size))
    return b"".join(parts)


def _fetch_verified(sid, entry, key, channels, segment_size) -> bytes:
    saw_data = False
    for replica_id in entry.acked_replicas():
        channel = channels.get(replica_id)
        if channel is None or not channel.alive:
            continue
        try:
            unit = channel.read(sid)
        except SegmentNotFound:
            continue
        saw_data = True
        if len(unit) != crypto.IV_SIZE + segment_size:
            continue  # a bad copy, like one that fails its digest
        plaintext = crypto.decrypt_segment(key, unit)
        if crypto.digest_segment(plaintext) == entry.digest:
            return plaintext
    if saw_data:
        raise IntegrityFailure(f"no copy of segment {sid} passed its digest check")
    raise UnrecoverableSegment(f"all recorded replicas for segment {sid} are unreachable")
