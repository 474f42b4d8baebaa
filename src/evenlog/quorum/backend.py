"""Quorum-replicated durability backend.

A slot flush is split into fixed-size segments; each real segment is
encrypted and sent to every replica of its own quorum group (no group
sees two segments of one write). The write commits once every real
segment holds a write quorum of acknowledgements — fake segments, sent
under the fixed-count scheme to equalize the number of groups touched,
are never awaited. One fixed-size encrypted metadata array per slot is
appended to the metadata file and synced before the commit is reported.

Replicas and the network are simulated in process. The backend calls
each ``Replica`` directly, and deliveries are ordered by seeded
pseudo-random latencies, so a run is reproducible given its seed. The
replica trace charges each STORE the size of its wire frame
(``store_frame_size``, FORMAT.md); no message crosses a socket.

The metadata files are ``metadata.<fid>`` files on ``JournalFiles``, the
journals' epoch-file layer: a start opens a fresh file, a checkpoint
commits the ``CHECKPOINT`` sidecar and deletes the files below it, and
then has the replicas drop their segments below the new fid. A segment
id's fid names the metadata file of its slot and its ssn the slot's
place in that file, so no id is ever given out twice. Recovery reads
every metadata file from the sidecar on, a run of whole blobs at a time,
and fetches and scans each run's segments before it reads the next. A
run is sized in slots: as many blobs as stand for at most ``READ_SIZE``
bytes of plaintext when full, so its memory does not grow with K. Per
run, one ``decrypt_stream`` call decrypts every blob and one numpy view
parses them, every committed segment is read from one replica, and one
more ``decrypt_stream`` call decrypts all of those copies; a blob whose
ssn does not rise or whose triplets name no known replica is reported
as corruption.

The metadata trace channel shows one fixed-size blob per slot and, at
each checkpoint, the 20-byte sidecar write: the checkpoint cadence,
never a record size.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar, Iterator, Mapping

import numpy as np

from .. import crypto
from ..errors import (
    CommitTimeout,
    IntegrityFailure,
    InvalidConfig,
    RecoveryCorruption,
    SegmentNotFound,
    UnrecoverableSegment,
)
from ..journal import READ_SIZE, JournalFiles, _scan_files, journal_files
from ..observe import StorageTrace
from ..records import LogRecord
from ..segmentation import check_segment_size, pad_to_segments
from ..slots import BackendStats, CheckpointMarker
from .metadata import SENTINEL, MetadataArray, array_dtype, serialized_size
from .registry import Registry
from .replica import Replica, SegmentId, store_frame_size
from .selection import GROUP_SIZE, SelectionScheme, form_quorums, select_quorums


@dataclass
class QuorumConfig:
    # a real segment commits at 2 of its group's 3 acks: one failure per group
    write_quorum: ClassVar[int] = 2
    tolerable_failures: ClassVar[int] = GROUP_SIZE - write_quorum
    segment_size: int = 128
    max_write_size: int = 1024            # bounds segments per write: K = MS / S

    @property
    def k_max(self) -> int:
        return self.max_write_size // self.segment_size

    def validate(self) -> "QuorumConfig":
        check_segment_size(self.segment_size)
        if self.max_write_size % self.segment_size != 0:
            raise InvalidConfig("max write size must be a multiple of the segment size")
        if self.k_max < 1:
            raise InvalidConfig("max write size must cover at least one segment")
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

    def stats(self) -> BackendStats:
        seg = self.config.segment_size
        units = self.real_segments + self.fake_segments
        return BackendStats(self.real_segments * seg, self.fake_segments * seg, units * crypto.IV_SIZE)

    # -- persistence ---------------------------------------------------------

    def persist_slot(self, slot_bytes: bytes) -> CommitReceipt:
        """Replicate one slot flush and durably record its metadata."""
        cfg = self.config
        seg = cfg.segment_size
        if not slot_bytes:
            return CommitReceipt(self._ssn, 0, 0, 0.0)
        padded = pad_to_segments(slot_bytes, seg)
        n_real = len(padded) // seg
        placements = select_quorums(self.scheme, n_real, self.groups, cfg.k_max, self._rng)

        # used up before delivery: replicas keep the first unit stored
        # under an id, so a write that fails after delivery must not lend
        # its ssn to the next one
        ssn = self._ssn
        self._ssn += 1
        n_fake = len(placements) - n_real
        plaintexts = memoryview(padded + os.urandom(n_fake * seg))
        units = crypto.split_units(crypto.encrypt_stream(self.key, plaintexts, seg), seg)
        digests = [crypto.digest_segment(plaintexts[i : i + seg]) for i in range(0, len(plaintexts), seg)]

        array = MetadataArray(ssn, cfg.k_max)
        for i in range(n_real):
            array.assign(i, placements[i].quorum, digests[i])

        commit_latency = self._deliver(array, placements, units, digests, ssn, n_real)

        self._append(crypto.encrypt_segment(self.key, array.to_bytes()), self._blob_size)
        self.real_segments += n_real
        self.fake_segments += n_fake
        return CommitReceipt(ssn, n_real, n_fake, commit_latency)

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

        self.trace.record(StorageTrace.REPLICA, store_frame_size(cfg.segment_size), len(deliveries))
        acks = [0] * n_real
        pending = n_real
        committed_at = None
        for latency, _, pos, replica_id in deliveries:
            acked = self.replicas[replica_id].store(sids[pos], units[pos], digests[pos])
            if acked and pos < n_real and committed_at is None:  # placements past n_real are fake
                array.update(pos, replica_id)
                acks[pos] += 1
                if acks[pos] == cfg.write_quorum:
                    pending -= 1
                    if not pending:
                        committed_at = latency
        if pending:
            short = [pos for pos, n in enumerate(acks) if n < cfg.write_quorum]
            raise CommitTimeout(f"segments {short} of slot {ssn} never reached {cfg.write_quorum} acks")
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
        on; a torn trailing blob is dropped by the reader. A run is as many
        whole blobs as hold at most ``READ_SIZE`` bytes of plaintext when
        every slot is full (at least one), so its memory is bounded in
        slots, not in metadata bytes."""
        cfg = self.config
        blobs_per_run = max(1, READ_SIZE // (cfg.k_max * cfg.segment_size))
        for fid, chunks in journal_files(self.root, self._blob_size, self.PREFIX,
                                         blobs_per_run * self._blob_size):
            yield fid, self._assemble_file(fid, chunks)

    def _assemble_file(self, fid: int, chunks: Iterator[bytes]) -> Iterator[bytes]:
        """The plaintext runs of one metadata file, carrying the last ssn
        and the file offset from one run of blobs to the next."""
        last_ssn, offset = -1, 0
        for blobs in chunks:
            run, last_ssn = assemble_stream(blobs, self.key, self.config, self.replicas, fid, last_ssn, offset)
            offset += len(blobs)
            yield run

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
    replicas: Mapping[int, Replica],
    fid: int,
    last_ssn: int = -1,
    offset: int = 0,
) -> tuple[bytes, int]:
    """Rebuild the padded plaintext of a run of whole metadata blobs of file
    ``fid``, which starts at file ``offset`` after a blob of ssn
    ``last_ssn``. Returns the plaintext and the run's last ssn.

    The run's blobs are decrypted in one call and parsed as one numpy
    array; every blob is checked (see ``_check_arrays``) before anything
    is fetched. Each committed segment is read from the first live replica
    its triplet records (a single replica suffices: only replicas that
    acknowledged the up-to-date unit are ever recorded, so there is
    nothing stale to read), and all of the run's copies are decrypted in
    one call. When every copy passes its digest, that decrypted run is the
    result. A segment whose first copy is missing, of the wrong size or
    fails its digest goes through ``_fetch_verified``, in file order, so
    the first such segment that no copy can serve decides the error."""
    seg, size = config.segment_size, serialized_size(config.k_max)
    arrays = np.frombuffer(crypto.decrypt_stream(key, blobs, size), array_dtype(config.k_max))
    ssns = arrays["ssn"].astype(np.int64)
    ids = arrays["entries"]["ids"]
    _check_arrays(ssns, ids, replicas, last_ssn, fid, offset, crypto.IV_SIZE + size)

    # committed entries in file order: blob by blob, segment by segment
    blob_ix, sns = np.nonzero((ids != SENTINEL).sum(axis=2) >= config.write_quorum)
    triplets = ids[blob_ix, sns].tolist()
    wanted = arrays["entries"]["digest"][blob_ix, sns].tobytes()
    sids = [SegmentId(fid, ssn, sn) for ssn, sn in zip(ssns[blob_ix].tolist(), sns.tolist())]

    unit_size = crypto.IV_SIZE + seg
    copies = [_first_copy(sid, triplet, replicas) for sid, triplet in zip(sids, triplets)]
    refetch = {j for j, unit in enumerate(copies) if len(unit) != unit_size}
    if refetch:
        blank = bytes(unit_size)
        copies = [blank if j in refetch else unit for j, unit in enumerate(copies)]
    plain = crypto.decrypt_stream(key, b"".join(copies), seg)
    view = memoryview(plain)
    got = b"".join([crypto.digest_segment(view[i : i + seg]) for i in range(0, len(plain), seg)])
    last_ssn = int(ssns[-1])
    if got == wanted and not refetch:
        return plain, last_ssn

    out = bytearray(plain)
    for j, sid in enumerate(sids):
        digest = slice(j * crypto.DIGEST_SIZE, (j + 1) * crypto.DIGEST_SIZE)
        if j in refetch or got[digest] != wanted[digest]:
            out[j * seg : (j + 1) * seg] = _fetch_verified(sid, triplets[j], wanted[digest], key, replicas, seg)
    return bytes(out), last_ssn


def _check_arrays(ssns, ids, replicas, last_ssn, fid, offset, blob_size) -> None:
    """Raise ``RecoveryCorruption`` at the first blob this client cannot
    have written: its ssn is not above the ssn of the blob before it in
    the file (a failed delivery uses up an ssn without a blob, so gaps are
    legal), or a triplet holds an id that is neither -1 nor a known
    replica. A blob decrypted under the wrong key fails this almost
    surely, instead of sending recovery after segments that never were."""
    known = np.append(np.fromiter(replicas, dtype=np.int64, count=len(replicas)), SENTINEL)
    bad_ssn = np.diff(ssns, prepend=last_ssn) <= 0
    bad_ids = ~np.isin(ids, known).all(axis=(1, 2))
    bad = np.flatnonzero(bad_ssn | bad_ids)
    if len(bad):
        i = int(bad[0])
        row = ids[i].ravel()
        why = (f"ssn {ssns[i]} does not follow ssn {ssns[i - 1] if i else last_ssn}" if bad_ssn[i]
               else f"unknown replica id {row[~np.isin(row, known)][0]}")
        raise RecoveryCorruption(f"corrupt metadata blob: {why} (was it written under another key?)",
                                 offset + i * blob_size, fid, prefix=QuorumBackend.PREFIX)


def _first_copy(sid, triplet, replicas) -> bytes:
    """The unit held by the first live replica ``triplet`` records, or
    b"" when there is none or it holds nothing under ``sid``."""
    for replica_id in triplet:
        if replica_id != SENTINEL and replicas[replica_id].alive:
            try:
                return replicas[replica_id].read(sid)
            except SegmentNotFound:
                return b""
    return b""


def _fetch_verified(sid, triplet, digest, key, replicas, segment_size) -> bytes:
    """The plaintext of the first copy, among the replicas ``triplet``
    records, that passes ``digest``."""
    saw_data = False
    for replica_id in triplet:
        replica = replicas.get(replica_id)  # None for SENTINEL
        if replica is None or not replica.alive:
            continue
        try:
            unit = replica.read(sid)
        except SegmentNotFound:
            continue
        saw_data = True
        if len(unit) != crypto.IV_SIZE + segment_size:
            continue  # a bad copy, like one that fails its digest
        plaintext = crypto.decrypt_segment(key, unit)
        if crypto.digest_segment(plaintext) == digest:
            return plaintext
    if saw_data:
        raise IntegrityFailure(f"no copy of segment {sid} passed its digest check")
    raise UnrecoverableSegment(f"all recorded replicas for segment {sid} are unreachable")
