"""Quorum-replicated durability backend.

A slot flush is split into fixed-size segments; each real segment is
encrypted and sent to every replica of its own quorum group (no group
sees two segments of one write). The write commits once every real
segment holds a write quorum of acknowledgements — fake segments, sent
under the fixed-count scheme to equalize the number of groups touched,
are never awaited. One fixed-size encrypted metadata array per slot is
appended to the metadata file and synced before the commit is reported.

Replicas and the network are simulated in process. The backend calls
each ``Replica`` directly, and acknowledgements are ordered by seeded
pseudo-random latencies, so a run is reproducible given its seed. The
replica trace charges each STORE the size of its wire frame
(``store_frame_size``, FORMAT.md); no message crosses a socket.

Only real segments are encrypted and hashed. A fake STORE carries a unit
of 16 + S uniformly random bytes and a digest of 32 uniformly random
bytes, both drawn from ``os.urandom``. To a replica, or anyone else
without the key, that is the STORE an encrypted and hashed random
segment would make:

* a unit is AES-CBC under an unpredictable IV, which is
  indistinguishable from random bytes of its length (IND$-CPA);
* the SHA-256 digest of a random segment that is never revealed is
  pseudorandom.

So a fake is stored by the three replicas of its group under a fresh
segment id, in a frame of the same size, as a real segment is, and no
keyless observer can tell its bytes from those of an encrypted and
hashed random segment. An observer holding
the key is out of scope: the key also decrypts the metadata blob, and
the blob names the real segments outright. A real segment's digest is
SHA-256 of its plaintext, so whoever can guess that plaintext can
confirm it; drawing fakes at random changes nothing there.

The metadata files are ``metadata.<fid>`` files on ``JournalFiles``, the
journals' epoch-file layer: a start opens a fresh file, a checkpoint
commits the ``CHECKPOINT`` sidecar and deletes the files below it, and
then has the replicas drop their segments below the new fid. A segment
id's fid names the metadata file of its slot and its ssn the slot's
place in that file, so no id is ever given out twice. Recovery reads
every metadata file from the sidecar on. It first asks each live replica
once for all it holds of the file, fakes included (one READ each, on the
replica-read trace channel), so its requests show no write's size, and
takes each committed segment's copy from those answers. A file is read
a run of whole blobs at a time, as many as stand for at most half of
``READ_SIZE`` bytes of plaintext when full, so memory does not grow with
K. Per run, one ``decrypt_stream`` call decrypts every blob and one
numpy view parses them, and one more decrypts every committed segment's
copy; a blob whose ssn does not rise or whose triplets name no known
replica is reported as corruption. A run's copies are picked and
fetched at once, with no Python call per segment; a segment whose
picked copy is missing, not of unit size or fails its digest is served
by the walk over its recorded replicas that verifies each copy, so it
takes the copy a segment-by-segment walk would.

The metadata trace channel shows one fixed-size blob per slot and, at
each checkpoint, the 20-byte sidecar write: the checkpoint cadence,
never a record size.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import ClassVar, Iterator, Mapping

import numpy as np

from .. import crypto
from ..errors import (
    CommitTimeout,
    IntegrityFailure,
    InvalidConfig,
    RecoveryCorruption,
    UnrecoverableSegment,
)
from ..journal import READ_SIZE, JournalFiles, _scan_files, journal_files
from ..observe import StorageTrace
from ..records import LogRecord
from ..segmentation import check_segment_size, pad_to_segments
from ..slots import BackendStats, CheckpointMarker
from .metadata import SENTINEL, MetadataArray, array_dtype, serialized_size
from .registry import Registry
from .replica import READ_FRAME_SIZE, Replica, SegmentId, store_frame_size
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
        if scheme is SelectionScheme.FNOS and self.config.k_max > len(self.groups):
            raise InvalidConfig(f"fixed count {self.config.k_max} exceeds the {len(self.groups)} quorum groups")

        self._ssn = 0  # the next slot's place in the current metadata file
        self._blob_size = crypto.IV_SIZE + serialized_size(self.config.k_max)
        self.real_segments = 0
        self.fake_segments = 0
        super().__init__(root, trace, sync)

    @property
    def max_flush(self) -> int:
        """A flush of at most K segments, one per group, is one quorum write."""
        return min(self.config.max_write_size, len(self.groups) * self.config.segment_size)

    def stats(self) -> BackendStats:
        seg = self.config.segment_size
        units = self.real_segments + self.fake_segments
        return BackendStats(self.real_segments * seg, self.fake_segments * seg, units * crypto.IV_SIZE)

    # -- persistence ---------------------------------------------------------

    def persist_slot(self, slot_bytes: bytes) -> CommitReceipt:
        """Replicate one slot flush and durably record its metadata."""
        self._refuse_if_closed()  # before delivery
        cfg = self.config
        seg = cfg.segment_size
        if not slot_bytes:
            return CommitReceipt(self._ssn, 0, 0, 0.0)
        padded = pad_to_segments(slot_bytes, seg)
        n_real = len(padded) // seg
        picks = select_quorums(self.scheme, n_real, self.groups, cfg.k_max, self._rng)

        # used up before delivery: replicas keep the first unit stored
        # under an id, so a write that fails after delivery must not lend
        # its ssn to the next one
        ssn = self._ssn
        self._ssn += 1
        n_fake = len(picks) - n_real
        view = memoryview(padded)
        digests = [crypto.digest_segment(view[i : i + seg]) for i in range(0, len(padded), seg)]
        units = crypto.encrypt_stream(self.key, padded, seg)
        if n_fake:
            # a fake's unit and digest are random bytes, as a real one's look
            # to a replica without the key (module docstring)
            fakes = os.urandom(n_fake * (crypto.IV_SIZE + seg + crypto.DIGEST_SIZE))
            cut = n_fake * (crypto.IV_SIZE + seg)
            units += fakes[:cut]
            digests += [fakes[i : i + crypto.DIGEST_SIZE] for i in range(cut, len(fakes), crypto.DIGEST_SIZE)]
        units = crypto.split_units(units, seg)

        triplets, commit_latency = self._deliver(picks, units, digests, ssn, n_real)
        array = MetadataArray(ssn, cfg.k_max)
        array.ids[:n_real] = triplets
        array.digests[:n_real] = np.frombuffer(b"".join(digests[:n_real]), array.digests.dtype)

        self._append(crypto.encrypt_segment(self.key, array.to_bytes()), self._blob_size)
        self.real_segments += n_real
        self.fake_segments += n_fake
        return CommitReceipt(ssn, n_real, n_fake, commit_latency)

    def _deliver(self, picks, units, digests, ssn, n_real) -> tuple[list, float]:
        """Simulated concurrent replication: one send per (segment, replica),
        each with a seeded latency, drawn segment by segment and, within a
        segment, in group order. Every send is stored as it is drawn: no
        (replica, segment id) pair repeats within a write and liveness
        does not change during it, so the order of the stores changes no
        replica's state. The acknowledged real sends are then taken in
        (latency, send order) order until every real segment holds a
        write quorum. Returns the real segments' triplets, holding those
        acks and no later one, and the latency of the last of them, the
        commit. Fake-segment responses are never waited on."""
        cfg = self.config
        replicas, groups, draw = self.replicas, self.groups, self._rng.random
        fid = self._fid
        self.trace.record(StorageTrace.REPLICA, store_frame_size(cfg.segment_size), GROUP_SIZE * len(picks))
        acked = []  # (latency, send order, segment position, triplet element, replica) per real ack
        for pos, pick in enumerate(picks):
            sid, unit, digest = SegmentId(fid, ssn, pos), units[pos], digests[pos]
            for element, replica_id in enumerate(groups[pick]):
                latency = draw()
                if replicas[replica_id].store(sid, unit, digest) and pos < n_real:  # picks past n_real are fake
                    acked.append((latency, GROUP_SIZE * pos + element, pos, element, replica_id))
        acked.sort()

        triplets = [[SENTINEL] * GROUP_SIZE for _ in range(n_real)]
        acks = [0] * n_real
        pending = n_real
        for latency, _, pos, element, replica_id in acked:
            triplets[pos][element] = replica_id
            acks[pos] += 1
            if acks[pos] == cfg.write_quorum:
                pending -= 1
                if not pending:
                    break
        else:
            short = [pos for pos, n in enumerate(acks) if n < cfg.write_quorum]
            raise CommitTimeout(f"segments {short} of slot {ssn} never reached {cfg.write_quorum} acks")
        return triplets, latency

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
        whole blobs as hold at most half of ``READ_SIZE`` bytes of plaintext
        when every slot is full (at least one), as its copies, their join
        and its plaintext are held at once: memory is bounded in slots."""
        cfg = self.config
        blobs_per_run = max(1, READ_SIZE // (2 * cfg.k_max * cfg.segment_size))
        for fid, chunks in journal_files(self.root, self._blob_size, self.PREFIX,
                                         blobs_per_run * self._blob_size):
            yield fid, self._assemble_file(fid, chunks)

    def _assemble_file(self, fid: int, chunks: Iterator[bytes]) -> Iterator[bytes]:
        """The plaintext runs of one metadata file, carrying the last ssn
        and the file offset from one run of blobs to the next, after one
        READ per live replica (a dead one and SENTINEL hold nothing).
        ``assemble_stream`` looks copies up with ``dict.get``, so an answer
        that is some other mapping is copied into a dict, once."""
        answers = ((rid, replica.segments(fid)) for rid, replica in self.replicas.items() if replica.alive)
        live = {rid: units if isinstance(units, dict) else dict(units) for rid, units in answers}
        self.trace.record(StorageTrace.REPLICA_READ, READ_FRAME_SIZE, len(live))
        held = {**dict.fromkeys([*self.replicas, SENTINEL], {}), **live}
        last_ssn, offset = -1, 0
        for blobs in chunks:
            run, last_ssn = assemble_stream(blobs, self.key, self.config, held, fid, last_ssn, offset)
            offset += len(blobs)
            yield run

    def recover(self) -> list[LogRecord]:
        return _scan_files(self._plaintext_files(), self.PREFIX)


def assemble_stream(
    blobs: bytes,
    key: crypto.ReplicaKey,
    config: QuorumConfig,
    held: Mapping[int, dict[SegmentId, bytes]],
    fid: int,
    last_ssn: int = -1,
    offset: int = 0,
) -> tuple[bytes, int]:
    """Rebuild the padded plaintext of a run of whole metadata blobs of file
    ``fid``, which starts at file ``offset`` after a blob of ssn
    ``last_ssn``, from ``held``: replica id (and SENTINEL) -> the units it
    holds of ``fid``. Returns the plaintext and the run's last ssn.

    The run's blobs are decrypted in one call and parsed as one numpy
    array; every blob is checked (see ``_check_arrays``) first. Each
    committed segment takes the first whole copy its triplet's replicas
    hold (a single copy suffices: only replicas that acknowledged the
    up-to-date unit are ever recorded, so nothing is stale), and all of
    the run's copies are decrypted in one call. The pick is made in bulk:
    one ``isin`` and one ``argmax`` over the triplets name, per segment,
    the first recorded replica that holds any unit of the file, and one
    ``map`` fetches its copy. The replicas before it hold nothing of the
    file, so a whole copy it holds is the first whole copy. A copy that
    is missing or not of unit size is replaced by a blank unit, which
    fails its digest. When every copy passes its digest, that decrypted
    run is the result. A segment whose copy fails goes through
    ``_fetch_verified``, in file order, which walks its triplet again and
    takes the first copy that passes; so the first segment that no copy
    can serve decides the error, whose message names a real
    ``SegmentId``."""
    seg, size = config.segment_size, serialized_size(config.k_max)
    arrays = np.frombuffer(crypto.decrypt_stream(key, blobs, size), array_dtype(config.k_max))
    ssns = arrays["ssn"].astype(np.int64)
    ids = arrays["entries"]["ids"]
    _check_arrays(ssns, ids, held, last_ssn, fid, offset, crypto.IV_SIZE + size)

    # committed entries in file order: blob by blob, segment by segment
    blob_ix, sns = np.nonzero((ids != SENTINEL).sum(axis=2) >= config.write_quorum)
    triplets = ids[blob_ix, sns]
    wanted = arrays["entries"]["digest"][blob_ix, sns].tobytes()
    at_ssn, at_sn = ssns[blob_ix].tolist(), sns.tolist()

    # the lookup keys are plain tuples, equal to the replicas' SegmentId keys
    # and hashed alike, made one at a time: none outlives its lookup
    answered = np.fromiter((rid for rid, units in held.items() if units), dtype=np.int64)
    first = triplets[np.arange(len(triplets)), np.isin(triplets, answered).argmax(axis=1)].tolist()
    keys = zip(repeat(fid), at_ssn, at_sn, repeat(0))
    copies = list(map(dict.get, map(held.__getitem__, first), keys, repeat(b"")))
    unit_size = crypto.IV_SIZE + seg
    blank = bytes(unit_size)  # stands in for a missing or short copy, and fails its digest
    for j in np.flatnonzero(np.fromiter(map(len, copies), np.int64, len(copies)) != unit_size).tolist():
        copies[j] = blank
    plain = crypto.decrypt_stream(key, b"".join(copies), seg)
    view = memoryview(plain)
    got = b"".join([crypto.digest_segment(view[i : i + seg]) for i in range(0, len(plain), seg)])
    last_ssn = int(ssns[-1])
    if got == wanted:
        return plain, last_ssn

    out = bytearray(plain)
    for j, (ssn, sn) in enumerate(zip(at_ssn, at_sn)):
        digest = slice(j * crypto.DIGEST_SIZE, (j + 1) * crypto.DIGEST_SIZE)
        if got[digest] != wanted[digest]:
            out[j * seg : (j + 1) * seg] = _fetch_verified(SegmentId(fid, ssn, sn), triplets[j].tolist(),
                                                           wanted[digest], key, held, seg)
    return bytes(out), last_ssn


def _check_arrays(ssns, ids, held, last_ssn, fid, offset, blob_size) -> None:
    """Raise ``RecoveryCorruption`` at the first blob this client cannot
    have written: its ssn is not above the ssn of the blob before it in
    the file (a failed delivery uses up an ssn without a blob, so gaps are
    legal), or a triplet holds an id that ``held`` lacks (neither a known
    replica nor -1). A blob decrypted under the wrong key fails this almost
    surely, instead of sending recovery after segments that never were."""
    known = np.fromiter(held, dtype=np.int64, count=len(held))
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


def _fetch_verified(sid, triplet, digest, key, held, segment_size) -> bytes:
    """The plaintext of the first copy, among the replicas ``triplet``
    records, that passes ``digest``."""
    saw_data = False
    for replica_id in triplet:
        unit = held[replica_id].get(sid)
        if unit is None:
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
