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
given its seed. Time is a logical clock advanced only by the driver.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from .. import crypto
from ..errors import CommitTimeout, DurabilityError, IntegrityFailure, SegmentNotFound, UnrecoverableSegment
from ..journal import CheckpointMarker, epoch_filename, list_epoch_fids
from ..observe import StorageTrace
from ..records import LogRecord, Lsn, scan_padded_stream
from ..segmentation import check_segment_size, segment_slot
from ..slots import BackendStats
from .metadata import MetadataArray, serialized_size
from .registry import Registry
from .replica import Replica, SegmentId
from .selection import GROUP_SIZE, SelectionScheme, form_quorums, select_quorums
from .transport import store_frame_size


def metadata_filename(fid: int) -> str:
    return epoch_filename("metadata", fid)


class LogicalClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def advance(self, dt: float) -> float:
        self.now += dt
        return self.now


@dataclass
class QuorumConfig:
    write_quorum: int = 2                 # acks required per real segment
    tolerable_failures: int = 1           # failures per group the commit survives
    segment_size: int = 128
    max_write_size: int = 1024            # bounds segments per write: K = MS / S
    checkpoint_interval: float = 60.0     # logical seconds between checkpoints

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


class QuorumBackend:
    """Durability backend persisting slots to quorums of replicas."""

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
        clock: LogicalClock | None = None,
        channels: Mapping[int, object] | None = None,  # default: the replicas, called in process
        client_id: str = "client-0",
        sync: bool = True,
    ):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.key = key
        self.replicas = dict(replicas)
        self.registry = registry
        self.config = (config or QuorumConfig(segment_size=128)).validate()
        self.scheme = scheme
        self.trace = trace if trace is not None else StorageTrace()
        self.clock = clock or LogicalClock()
        self.client_id = client_id
        self.sync = sync
        self._rng = random.Random(seed)
        self._last_commit_latency = 0.0
        self._channels = dict(channels) if channels is not None else self.replicas

        # quorum groups are fixed for the life of this backend; per-write
        # selection draws from this candidate list
        active = registry.list_active(self.clock.now) - {client_id}
        self.groups = form_quorums(active, self._rng)

        existing = list_epoch_fids(self.root, "metadata")
        self._fid = existing[-1] if existing else 0
        self._ssn = 0
        self._array_blob_size = crypto.IV_SIZE + serialized_size(self.config.k_max)
        self._fh = None
        self._open_metadata(self._fid)
        self.real_segments = 0
        self.fake_segments = 0

    # -- metadata file -----------------------------------------------------

    def _open_metadata(self, fid: int) -> None:
        if self._fh is not None:
            self._fh.close()
        path = self.root / metadata_filename(fid)
        if path.exists():
            # drop any torn trailing blob before appending again
            size = path.stat().st_size
            keep = size - size % self._array_blob_size
            if keep != size:
                with open(path, "rb+") as f:
                    f.truncate(keep)
            self._ssn = keep // self._array_blob_size
        else:
            self._ssn = 0
        self._fid = fid
        self._fh = open(path, "ab")

    @property
    def current_file_id(self) -> int:
        return self._fid

    @property
    def metadata_path(self) -> Path:
        return self.root / metadata_filename(self._fid)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

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

        ssn = self._ssn
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

        self._deliver(array, placements, units, digests, ssn, n_real)

        blob = crypto.encrypt_segment(self.key, array.to_bytes())
        try:
            self._fh.write(blob)
            self._fh.flush()
            if self.sync:
                os.fdatasync(self._fh.fileno())
        except OSError as exc:
            raise DurabilityError(str(exc)) from exc
        self.trace.record(StorageTrace.METADATA, len(blob))
        self._ssn += 1
        self.real_segments += n_real
        self.fake_segments += len(fakes)
        return CommitReceipt(ssn, n_real, len(fakes), self._last_commit_latency)

    def _deliver(self, array, placements, units, digests, ssn, n_real) -> None:
        """Simulated concurrent replication: one send per (segment, replica),
        delivered in seeded-latency order. Acknowledgements for real
        segments update the metadata array until every real segment is
        committed; fake-segment responses are never waited on."""
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
            acked = self._channels[replica_id].store(sids[pos], units[pos], digests[pos], self.clock.now)
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
        self._last_commit_latency = committed_at if committed_at is not None else 0.0

    # -- checkpointing / gc ---------------------------------------------------

    last_checkpoint_id = current_file_id  # epoch n starts at checkpoint n

    def checkpoint(self, ckpt_id: int) -> CheckpointMarker:
        """Start a fresh metadata epoch; earlier epochs become garbage."""
        self._open_metadata(self._fid + 1)
        return CheckpointMarker(ckpt_id, Lsn(self._fid, 0))

    def sweep_old_epochs(self) -> int:
        old = [fid for fid in list_epoch_fids(self.root, "metadata") if fid < self._fid]
        for fid in old:
            (self.root / metadata_filename(fid)).unlink()
        return len(old)

    def run_replica_gc(self, t: float | None = None) -> int:
        """Each replica drops segments older than one checkpoint interval,
        unless the owning client has gone quiet (its segments are kept
        for recovery)."""
        now = self.clock.now if t is None else t
        return sum(
            rep.gc(now, self.registry, self.client_id, self.config.checkpoint_interval)
            for rep in self.replicas.values()
        )

    # -- recovery --------------------------------------------------------------

    def recover_assemble(self) -> bytes:
        """Rebuild the padded plaintext stream from replicas using the
        metadata file of the current epoch."""
        return assemble_stream(
            self.metadata_path, self.key, self.config, self._channels, self._fid
        )

    def recover(self) -> list[LogRecord]:
        return scan_padded_stream(self.recover_assemble())


def assemble_stream(
    metadata_path: str | Path,
    key: crypto.ReplicaKey,
    config: QuorumConfig,
    channels: Mapping[int, object],
    fid: int,
) -> bytes:
    """Read metadata arrays in file order and fetch each committed
    segment from one of its recorded replicas (a single replica
    suffices: only replicas that acknowledged the up-to-date unit are
    ever recorded, so there is nothing stale to read). Digests are
    verified before a segment is accepted."""
    metadata_path = Path(metadata_path)
    if not metadata_path.exists():
        return b""
    blob_size = crypto.IV_SIZE + serialized_size(config.k_max)
    data = metadata_path.read_bytes()
    data = data[: len(data) - len(data) % blob_size]

    parts: list[bytes] = []
    for off in range(0, len(data), blob_size):
        array = MetadataArray.from_bytes(crypto.decrypt_segment(key, data[off : off + blob_size]), config.k_max)
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
        plaintext = crypto.decrypt_segment(key, unit)
        if crypto.digest_segment(plaintext) == entry.digest:
            return plaintext
    if saw_data:
        raise IntegrityFailure(f"no copy of segment {sid} passed its digest check")
    raise UnrecoverableSegment(f"all recorded replicas for segment {sid} are unreachable")
