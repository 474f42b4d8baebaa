"""Batched quorum recovery against the per-blob, per-segment oracle.

``oracle_assemble`` is the recovery loop that the batched
``quorum.backend.assemble_stream`` replaced: it decrypts one metadata
blob at a time through ``MetadataArray.from_bytes``, walks its entries
one by one, applies its own commit test and fetches every committed
segment by itself, one ``Replica.read`` per copy (``fetch_verified``).
For any run of writes and any replica faults, ``QuorumBackend.recover``,
whose batched path asks each live replica once per metadata file,
returns the records of the oracle's stream or raises the same exception
class.
"""

import random
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evenlog.crypto import IV_SIZE, decrypt_segment, digest_segment
from evenlog.errors import CommitTimeout, IntegrityFailure, SegmentNotFound, UnrecoverableSegment, WalError
from evenlog.journal import journal_files
from evenlog.quorum import QuorumBackend, QuorumConfig, SegmentId, SelectionScheme
from evenlog.quorum import backend as backend_module
from evenlog.quorum.metadata import SENTINEL, MetadataArray, serialized_size
from evenlog.records import HEADER_SIZE, encode_record, scan_padded_stream

from .conftest import KEY, KINDS, build_cluster
REPLICAS = 15  # 5 groups: enough for fixed-count selection with K = 512 / 128
MAX_WRITE = 512

# a slot flush of one record of up to MAX_WRITE bytes (recovery decodes
# records), a dead/alive toggle of one replica while writing, or a
# restart onto a fresh metadata file
WRITE = st.tuples(st.just("write"), st.integers(1, MAX_WRITE - HEADER_SIZE))
TOGGLE = st.tuples(st.just("toggle"), st.integers(0, REPLICAS - 1))
RESTART = st.just(("restart",))
# faults after the writes; a copy is picked by index among the held copies
KILL = st.tuples(st.just("kill"), st.integers(0, REPLICAS - 1))
COPY_FAULT = st.tuples(st.sampled_from(["corrupt", "truncate", "delete"]), st.integers(0, 10**6))
# examples of the copy pick, with seed 1: each faults the copy that
# recovery reads first for a committed segment, and a later recorded
# replica serves it; the test checks both, under either scheme
PICK_STEPS = [("write", 400), ("write", 300), ("write", 200)]
PICK_FAULTS = [[("delete", 26)], [("truncate", 26)], [("corrupt", 26)]]


def fetch_verified(sid, triplet, digest, key, replicas, segment_size) -> bytes:
    """The plaintext of the first copy, among the live replicas ``triplet``
    records, that passes ``digest``, each copy read by itself."""
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
        if len(unit) != IV_SIZE + segment_size:
            continue  # a bad copy, like one that fails its digest
        plaintext = decrypt_segment(key, unit)
        if digest_segment(plaintext) == digest:
            return plaintext
    if saw_data:
        raise IntegrityFailure(f"no copy of segment {sid} passed its digest check")
    raise UnrecoverableSegment(f"all recorded replicas for segment {sid} are unreachable")


def oracle_assemble(backend) -> bytes:
    """The padded plaintext of every metadata file, one blob and one
    segment at a time."""
    cfg = backend.config
    blob_size = IV_SIZE + serialized_size(cfg.k_max)
    parts = []
    for fid, chunks in journal_files(backend.root, blob_size, "metadata"):
        for blobs in chunks:
            for off in range(0, len(blobs), blob_size):
                array = MetadataArray.from_bytes(decrypt_segment(backend.key, blobs[off : off + blob_size]),
                                                 cfg.k_max)
                for sn, (triplet, digest) in enumerate(zip(array.ids.tolist(), array.digests)):
                    if sum(rid != SENTINEL for rid in triplet) >= cfg.write_quorum:
                        sid = SegmentId(fid, int(array.record["ssn"]), sn)
                        parts.append(fetch_verified(sid, triplet, digest.tobytes(), backend.key,
                                                    backend.replicas, cfg.segment_size))
    return b"".join(parts)


def first_picks(backend) -> set:
    """(replica id, sid) of the copy that recovery reads first for each
    committed segment: its first recorded replica that is live and holds
    any unit of the segment's metadata file."""
    cfg = backend.config
    blob_size = IV_SIZE + serialized_size(cfg.k_max)
    picks = set()
    for fid, chunks in journal_files(backend.root, blob_size, "metadata"):
        answered = {rid for rid, rep in backend.replicas.items() if rep.alive and rep.segments(fid)}
        for blobs in chunks:
            for off in range(0, len(blobs), blob_size):
                array = MetadataArray.from_bytes(decrypt_segment(backend.key, blobs[off : off + blob_size]),
                                                 cfg.k_max)
                for sn, triplet in enumerate(array.ids.tolist()):
                    if sum(rid != SENTINEL for rid in triplet) >= cfg.write_quorum:
                        first = next((rid for rid in triplet if rid in answered), None)
                        picks.add((first, SegmentId(fid, int(array.record["ssn"]), sn)))
    return picks


def outcome(assemble):
    try:
        return assemble()
    except WalError as exc:
        return type(exc)


def apply_fault(replicas, fault, short):
    """Apply ``fault`` and return the (replica id, sid) of the copy it hit,
    if any; ``short`` holds the (replica id, sid) of every copy truncated
    so far."""
    kind, pick = fault
    if kind == "kill":
        replicas[pick].kill()
        return None
    # each copy takes at most one corrupt or truncate fault
    held = sorted((rid, sid) for rid, rep in replicas.items() for sid in rep.segment_ids
                  if kind == "delete" or (rid, sid) not in short)
    if not held:
        return None
    rid, sid = held[pick % len(held)]
    replica = replicas[rid]
    if kind == "corrupt":
        replica.corrupt(sid, pick % 128)
    elif kind == "truncate":
        replica.truncate(sid, pick % (IV_SIZE + 128))
        short.add((rid, sid))
    else:
        replica.forget(sid)
    return rid, sid


@pytest.mark.parametrize("scheme", [SelectionScheme.VNOS, SelectionScheme.FNOS])
@settings(max_examples=80, deadline=None)
@given(
    steps=st.lists(st.one_of(WRITE, WRITE, WRITE, TOGGLE, RESTART), max_size=30),
    faults=st.lists(st.one_of(KILL, COPY_FAULT), max_size=6),
    blobs_per_run=st.sampled_from([1, 2, 3, None]),
    seed=st.integers(0, 2**16),
)
@example(steps=PICK_STEPS, faults=PICK_FAULTS[0], blobs_per_run=None, seed=1)
@example(steps=PICK_STEPS, faults=PICK_FAULTS[1], blobs_per_run=None, seed=1)
@example(steps=PICK_STEPS, faults=PICK_FAULTS[2], blobs_per_run=None, seed=1)
def test_batched_recovery_matches_oracle(scheme, steps, faults, blobs_per_run, seed):
    rng = random.Random(seed)
    registry, replicas = build_cluster(REPLICAS)
    saved = backend_module.READ_SIZE
    if blobs_per_run is not None:  # runs of 1..3 blobs (each half a read); None keeps the slot-sized runs
        backend_module.READ_SIZE = 2 * blobs_per_run * MAX_WRITE
    try:
        with tempfile.TemporaryDirectory() as root:
            backend = QuorumBackend(root, KEY, replicas, registry,
                                    config=QuorumConfig(segment_size=128, max_write_size=MAX_WRITE),
                                    scheme=scheme, seed=seed, sync=False)
            for step in steps:
                if step[0] == "write":
                    try:
                        backend.persist_slot(encode_record(rng.randbytes(step[1])))
                    except CommitTimeout:
                        pass  # uses up its ssn and writes no blob
                elif step[0] == "toggle":
                    rep = replicas[step[1]]
                    rep.revive() if not rep.alive else rep.kill()
                else:
                    backend = KINDS[f"quorum-{scheme.value}"].reopen(backend, seed=rng.randrange(2**16))
            short = set()
            hits = [apply_fault(replicas, fault, short) for fault in faults]
            expected = outcome(lambda: scan_padded_stream([oracle_assemble(backend)]))
            if (steps, faults, seed) in [(PICK_STEPS, pick, 1) for pick in PICK_FAULTS]:
                assert hits[0] in first_picks(backend) and isinstance(expected, list)
            assert outcome(backend.recover) == expected
            backend.close()
    finally:
        backend_module.READ_SIZE = saved
