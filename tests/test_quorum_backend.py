"""End-to-end quorum backend: commit, fault tolerance, recovery, and
the checkpoint that collects old epochs. The properties every backend
shares run on quorum as kinds of the backend matrix (``conftest.KINDS``),
in ``test_journal.py`` and ``test_engine.py``."""

import hashlib
import os
import random
from types import MappingProxyType

import pytest

from evenlog import journal
from evenlog.crypto import IV_SIZE, StaticKeyProvider, decrypt_segment, decrypt_stream, encrypt_segment
from evenlog.engine import WalEngine
from evenlog.errors import (
    CommitTimeout,
    DurabilityError,
    IntegrityFailure,
    InvalidConfig,
    RecordTooLarge,
    RecoveryCorruption,
    SegmentNotFound,
    UnrecoverableSegment,
)
from evenlog.journal import SIDECAR_NAME
from evenlog.observe import StorageTrace
from evenlog.quorum import QuorumBackend, QuorumConfig, Replica, SegmentId, SelectionScheme
from evenlog.quorum import backend as backend_module
from evenlog.quorum.metadata import SENTINEL, MetadataArray, serialized_size
from evenlog.quorum.replica import READ_FRAME_SIZE, store_frame_size
from evenlog.records import encode_record

from .conftest import KINDS, build_cluster, current_file, holders, pad4

VNOS, FNOS = KINDS["quorum-vnos"], KINDS["quorum-fnos"]


def make_backend(tmp_path, key, n_replicas=15, scheme=SelectionScheme.VNOS, max_write_size=512, seed=0, **kw):
    """A quorum backend of a shape the backend matrix lacks (by default 5 groups, K = 4)."""
    registry, replicas = build_cluster(n_replicas)
    return QuorumBackend(tmp_path, key, replicas, registry, config=QuorumConfig(128, max_write_size),
                         scheme=scheme, seed=seed, **kw)


class Logged:
    """Stands in for a replica and logs each call made of it as (name, args)."""

    def __init__(self, replica, log):
        self._replica, self._log = replica, log

    def __getattr__(self, name):
        attr = getattr(self._replica, name)
        if not callable(attr):
            return attr

        def call(*args):
            self._log.append((name, args))
            return attr(*args)
        return call


class TestReplica:
    def test_store_frame_size_formula(self):
        # len u32 + type u8 + sid 16 + digest 32 + iv 16 + segment
        assert store_frame_size(128) == 4 + 1 + 16 + 32 + 16 + 128

    def test_store_then_read(self):
        rep = Replica(1)
        sid = SegmentId(0, 0, 0)
        unit = os.urandom(16 + 128)
        assert rep.store(sid, unit, b"\x00" * 32)
        assert rep.read(sid) == unit

    def test_store_is_idempotent(self):
        rep = Replica(1)
        sid = SegmentId(0, 0, 0)
        first = os.urandom(16 + 128)
        rep.store(sid, first, b"\x00" * 32)
        rep.store(sid, os.urandom(16 + 128), b"\x00" * 32)
        assert len(rep) == 1 and rep.read(sid) == first

    def test_read_unknown_sid(self):
        with pytest.raises(SegmentNotFound):
            Replica(1).read(SegmentId(0, 0, 9))

    def test_segments_answers_one_file(self):
        rep = Replica(1)
        units = {SegmentId(fid, 0, sn): os.urandom(16 + 128) for fid in (0, 1) for sn in (0, 1)}
        for sid, unit in units.items():
            rep.store(sid, unit, b"\x00" * 32)
        assert rep.segments(1) == {sid: unit for sid, unit in units.items() if sid.fid == 1}
        assert rep.segments(2) == {}

    def test_dead_replica_does_not_ack(self):
        rep = Replica(1)
        rep.kill()
        assert not rep.store(SegmentId(0, 0, 0), b"\x00" * (16 + 128), b"\x00" * 32)

    def test_drop_before_keeps_later_epochs_and_skips_dead(self):
        rep = Replica(1)
        for fid in (0, 1, 2):
            rep.store(SegmentId(fid, 0, 0), os.urandom(16 + 128), b"\x00" * 32)
        rep.kill()
        rep.drop_before(2)
        rep.revive()
        assert len(rep) == 3
        rep.drop_before(1)
        assert rep.segments(0) == {}
        assert SegmentId(1, 0, 0) in rep.segments(1) and SegmentId(2, 0, 0) in rep.segments(2)


class TestPersist:
    def test_vnos_300_bytes_three_quorums(self, tmp_path, key):
        backend = make_backend(tmp_path, key)
        receipt = backend.persist_slot(b"\x07" * 300)
        assert receipt.real_segments == 3 and receipt.fake_segments == 0
        # three distinct groups hold one segment each
        held = [rid for rid, rep in backend.replicas.items() if len(rep)]
        assert len(held) == 9

    def test_empty_slot_writes_nothing(self, tmp_path, key):
        backend = make_backend(tmp_path, key)
        receipt = backend.persist_slot(b"")
        assert receipt.real_segments == 0
        assert current_file(backend).stat().st_size == 0

    def test_metadata_grows_by_constant_blob(self, tmp_path, key, disk):
        backend = make_backend(tmp_path, key)
        blob = IV_SIZE + serialized_size(backend.config.k_max)
        for i, n in enumerate((4, 300, 512, 128)):
            disk.events.clear()
            backend.persist_slot(os.urandom(n))
            appends = [args[1:] for name, args in disk.events if name == "append"]
            assert [(len(data), offset) for data, offset in appends] == [(blob, i * blob)]
        backend.close()
        assert current_file(backend).stat().st_size == 4 * blob

    def test_replica_messages_constant_size(self, tmp_path, key):
        trace = StorageTrace()
        backend = make_backend(tmp_path, key, scheme=SelectionScheme.FNOS, trace=trace)
        for n in (4, 40, 400):
            backend.persist_slot(os.urandom(n))
        assert trace.distinct_sizes(StorageTrace.REPLICA) == {store_frame_size(128)}

    def test_fnos_always_touches_k_quorums(self, tmp_path, key):
        trace = StorageTrace()
        backend = make_backend(tmp_path, key, scheme=SelectionScheme.FNOS, trace=trace)
        for n in (4, 40, 400):
            backend.persist_slot(os.urandom(n))
        # K=4 quorums x 3 replicas per write, real or fake
        assert trace.write_count(StorageTrace.REPLICA) == 3 * 4 * 3

    def test_fnos_fakes_look_like_reals_to_a_keyless_replica(self, tmp_path, key, monkeypatch):
        held = {}  # (replica id, sid) -> the (unit, digest) that replica stored
        store = Replica.store

        def spy(replica, sid, unit, digest):
            acked = store(replica, sid, unit, digest)
            if acked:
                held[replica.replica_id, sid] = (unit, digest)
            return acked

        monkeypatch.setattr(Replica, "store", spy)
        backend = make_backend(tmp_path, key, scheme=SelectionScheme.FNOS, seed=9)
        for group in backend.groups:
            backend.replicas[group[0]].kill()
        receipts = [backend.persist_slot(os.urandom(n)) for n in (4, 130, 300, 512, 40, 260)]

        copies = {}
        for (rid, sid), copy in held.items():
            assert backend.replicas[rid].read(sid) == copy[0]
            copies.setdefault(sid, set()).add(copy)
        # the two live replicas of each group hold one identical copy per sid
        assert len(copies) == len(receipts) * backend.config.k_max
        assert len(held) == 2 * len(copies) and all(len(c) == 1 for c in copies.values())
        units = [unit for (unit, _), in copies.values()]
        assert len(set(units)) == len(units)
        assert {len(unit) for unit in units} == {IV_SIZE + 128}

        backend.close()
        plain = decrypt_stream(key, current_file(backend).read_bytes(), serialized_size(backend.config.k_max))
        fakes = {sid for sid in copies if sid.sn >= receipts[sid.ssn].real_segments}
        assert len(fakes) == sum(r.fake_segments for r in receipts) > 0
        for sid, ((_, digest),) in copies.items():
            assert (digest in plain) == (sid not in fakes)

    def test_fake_acks_not_awaited(self, tmp_path, key):
        backend = make_backend(tmp_path, key, n_replicas=15, scheme=SelectionScheme.FNOS, seed=5)
        backend.persist_slot(b"\x01" * 100)
        # kill all replicas, then revive exactly one group
        for rep in backend.replicas.values():
            rep.kill()
        lucky = backend.groups[0]
        for rid in lucky:
            backend.replicas[rid].revive()
        # force selection to use group 0 for the single real segment: retry
        # seeds until placement lands there would be flaky; instead allow
        # CommitTimeout when the real segment misses the live group
        committed = timeouts = 0
        for _ in range(12):
            try:
                backend.persist_slot(os.urandom(64))
                committed += 1
            except CommitTimeout:
                timeouts += 1
        # whenever the real segment landed on the live group the write
        # committed even though every fake-segment replica was dead
        assert committed >= 1 and committed + timeouts == 12

    def test_commit_timeout_when_write_quorum_unreachable(self, tmp_path, key):
        backend = make_backend(tmp_path, key, n_replicas=9, max_write_size=512)
        for group in backend.groups:
            backend.replicas[group[0]].kill()
            backend.replicas[group[1]].kill()
        with pytest.raises(CommitTimeout):
            backend.persist_slot(b"\x02" * 100)

    def test_vnos_write_over_max_write_size_is_refused(self, tmp_path, key):
        # 10 groups could take the 6 segments of 700 B, but MS = 512 B allows 4
        backend = make_backend(tmp_path, key, n_replicas=30, max_write_size=512)
        engine = WalEngine(backend)
        small = os.urandom(40)
        engine.append(small, full_sync=True)
        with pytest.raises(RecordTooLarge):  # before it is buffered: the engine is not wedged
            engine.append(os.urandom(700), full_sync=True)
        engine.append(small, full_sync=True)
        assert [r.payload for r in backend.recover()] == [pad4(small)] * 2

    def test_vnos_write_over_its_groups_is_refused(self, tmp_path, key):
        # MS = 2048 B allows 16 segments, but 4 groups take at most 4
        backend = make_backend(tmp_path, key, n_replicas=12, max_write_size=2048)
        assert backend.max_flush == 4 * 128
        engine = WalEngine(backend)
        engine.append(b"a" * 40, full_sync=True)
        with pytest.raises(RecordTooLarge):  # before it is buffered: the engine is not wedged
            engine.append(b"b" * 600)
        assert engine.slot.ssn == 1
        engine.append(b"c" * 40, full_sync=True)
        assert [r.payload for r in backend.recover()] == [b"a" * 40, b"c" * 40]

    def test_single_failure_per_group_still_commits(self, tmp_path, key):
        backend = make_backend(tmp_path, key, n_replicas=9)
        for group in backend.groups:
            backend.replicas[group[0]].kill()
        receipt = backend.persist_slot(b"\x03" * 300)
        assert receipt.real_segments == 3

    def test_per_write_quorum_view_is_at_most_one_segment(self, tmp_path, key):
        backend = make_backend(tmp_path, key, n_replicas=30, max_write_size=1024)
        for n in (100, 500, 1000, 24):
            before = {rid: len(rep) for rid, rep in backend.replicas.items()}
            backend.persist_slot(os.urandom(n))
            for rid, rep in backend.replicas.items():
                assert len(rep) - before[rid] <= 1

    def test_deterministic_given_seed(self, tmp_path, key):
        a = make_backend(tmp_path / "a", key, seed=42)
        b = make_backend(tmp_path / "b", key, seed=42)
        assert a.groups == b.groups
        ra = a.persist_slot(b"\x04" * 200)
        rb = b.persist_slot(b"\x04" * 200)
        assert (ra.real_segments, ra.commit_latency) == (rb.real_segments, rb.commit_latency)
        assert {rid: len(rep) for rid, rep in a.replicas.items()} == \
            {rid: len(rep) for rid, rep in b.replicas.items()}

    # Seeded 20-write runs (15 replicas, replica 4 dead) as the per-segment
    # delivery loop computed them: (ssn, real, fake, commit latency) per
    # receipt, then the segments each replica holds. A faster delivery
    # path must draw from the seeded rng in the same order.
    PINNED = {
        SelectionScheme.FNOS: ([
            (0, 2, 2, 0.7389158801403842),
            (1, 4, 0, 0.9956916416561992),
            (2, 3, 1, 0.8473097733028044),
            (3, 3, 1, 0.7070160292166942),
            (4, 4, 0, 0.8034115030820714),
            (5, 2, 2, 0.441541681127828),
            (6, 4, 0, 0.8821897542664126),
            (7, 2, 2, 0.25698139832031197),
            (8, 1, 3, 0.9173601784925751),
            (9, 1, 3, 0.5898756312957445),
            (10, 3, 1, 0.8711012591220109),
            (11, 3, 1, 0.416246285499685),
            (12, 4, 0, 0.7799461455233637),
            (13, 4, 0, 0.6341731282390302),
            (14, 2, 2, 0.9500001518455149),
            (15, 1, 3, 0.607554547797802),
            (16, 2, 2, 0.6399158374025293),
            (17, 4, 0, 0.7919322378917845),
            (18, 2, 2, 0.909965358724643),
            (19, 2, 2, 0.9773585223395943),
        ], [18, 12, 15, 15, 0, 18, 15, 19, 19, 12, 18, 16, 16, 19, 16]),
        SelectionScheme.VNOS: ([
            (0, 2, 0, 0.9821934207987782),
            (1, 4, 0, 0.8795649725343511),
            (2, 3, 0, 0.9956916416561992),
            (3, 3, 0, 0.9102719281041814),
            (4, 4, 0, 0.7580405169937589),
            (5, 2, 0, 0.6437151237111671),
            (6, 4, 0, 0.9979037186865889),
            (7, 2, 0, 0.38616995568125356),
            (8, 1, 0, 0.453208104723849),
            (9, 1, 0, 0.3860970302136817),
            (10, 3, 0, 0.8821897542664126),
            (11, 3, 0, 0.5200742123680814),
            (12, 4, 0, 0.9173601784925751),
            (13, 4, 0, 0.7329051024557768),
            (14, 2, 0, 0.5460953590853206),
            (15, 1, 0, 0.73708813441656),
            (16, 2, 0, 0.8572955833163346),
            (17, 4, 0, 0.6941564722430175),
            (18, 2, 0, 0.5145312996938066),
            (19, 2, 0, 0.6601315879856368),
        ], [15, 8, 9, 9, 0, 15, 9, 11, 11, 8, 15, 10, 10, 11, 10]),
    }

    # The same runs, as SHA-256 hex digests: of the decrypted plaintext of
    # every metadata blob, and of the repr of the sorted (replica id,
    # tuple(sid)) pairs the replicas hold.
    PINNED_BYTES = {
        SelectionScheme.FNOS: ("47adb6aa1eeb6e0478dc0597490c8ccb99b19f697cdf5e8287f2a3f44bf4f7f5",
                               "bec402ec9a6a01a5be218a0bb23ffc9be7c7e4fd4421125dbcf3c875af61d261"),
        SelectionScheme.VNOS: ("1727d7158f4f4379ac0c870fac43b21c07ec77013ac91d87c0aeb62fe56435c6",
                               "087f45484306b68a50bda9c89f02d8900d3c7b56d2dc1e3e799d237b8f1d42a9"),
    }

    @pytest.mark.parametrize("scheme", [SelectionScheme.FNOS, SelectionScheme.VNOS])
    def test_seeded_receipts_are_pinned(self, tmp_path, key, scheme):
        backend = make_backend(tmp_path, key, scheme=scheme, seed=11, sync=False)
        backend.replicas[4].kill()
        rng = random.Random(20)
        receipts = [backend.persist_slot(rng.randbytes(rng.randint(1, 512))) for _ in range(20)]
        got = [(r.ssn, r.real_segments, r.fake_segments, r.commit_latency) for r in receipts]
        counts = [len(backend.replicas[rid]) for rid in sorted(backend.replicas)]
        assert (got, counts) == self.PINNED[scheme]

        backend.close()
        blobs = current_file(backend).read_bytes()
        plain = decrypt_stream(key, blobs, serialized_size(backend.config.k_max))
        sids = [SegmentId(backend.current_file_id, r.ssn, sn) for r in receipts for sn in range(backend.config.k_max)]
        held = sorted((rid, tuple(sid)) for sid in sids for rid in holders(backend.replicas, sid))
        assert len(held) == sum(counts)
        assert (hashlib.sha256(plain).hexdigest(), hashlib.sha256(repr(held).encode()).hexdigest()) == \
            self.PINNED_BYTES[scheme]


class TestRecovery:
    def commit_some(self, tmp_path, key, scheme=SelectionScheme.VNOS, n_slots=5, seed=0):
        backend = make_backend(tmp_path, key, n_replicas=18, scheme=scheme, seed=seed)
        engine = WalEngine(backend)
        payloads = [os.urandom(30 + 37 * i) for i in range(n_slots)]
        for p in payloads:
            engine.append(p, full_sync=True)
        return backend, payloads

    def test_recover_assemble_is_byte_exact(self, tmp_path, key):
        backend, payloads = self.commit_some(tmp_path, key)
        for group in backend.groups:
            backend.replicas[group[0]].kill()
        assert [r.payload for r in backend.recover()] == [pad4(p) for p in payloads]

    def test_dead_first_replicas_cost_no_refetch(self, tmp_path, key, monkeypatch):
        # the bulk pick passes over a recorded replica that holds nothing of
        # the file, so every copy it takes is whole and none is fetched again
        backend, payloads = self.commit_some(tmp_path, key)
        for group in backend.groups:
            backend.replicas[group[0]].kill()
        refetched, fetch = [], backend_module._fetch_verified
        monkeypatch.setattr(backend_module, "_fetch_verified",
                            lambda sid, *rest: refetched.append(sid) or fetch(sid, *rest))
        assert [r.payload for r in backend.recover()] == [pad4(p) for p in payloads]
        assert refetched == []

    def test_a_read_answer_that_is_not_a_dict_serves_alike(self, tmp_path, key, monkeypatch):
        backend, payloads = self.commit_some(tmp_path, key)
        segments = Replica.segments
        monkeypatch.setattr(Replica, "segments", lambda replica, fid: MappingProxyType(segments(replica, fid)))
        assert [r.payload for r in backend.recover()] == [pad4(p) for p in payloads]

    def test_fnos_recovery_ignores_fakes(self, tmp_path, key):
        backend, payloads = self.commit_some(tmp_path, key, scheme=SelectionScheme.FNOS)
        assert [r.payload for r in backend.recover()] == [pad4(p) for p in payloads]

    def test_empty_metadata_empty_stream(self, tmp_path, key):
        backend = make_backend(tmp_path, key)
        assert backend.recover() == []

    def test_corrupt_only_surviving_copy_raises_integrity(self, tmp_path, key):
        backend, payloads = self.commit_some(tmp_path, key, n_slots=1)
        # find the recorded replicas of slot 0 segment 0 and corrupt/kill them
        sid = SegmentId(backend.current_file_id, 0, 0)
        held = holders(backend.replicas, sid)
        assert len(held) >= 2
        survivor = held[0]
        for rid in held[1:]:
            backend.replicas[rid].kill()
        backend.replicas[survivor].corrupt(sid)
        with pytest.raises(IntegrityFailure, match=r"SegmentId\(fid="):
            backend.recover()

    def test_corrupt_one_copy_falls_back_to_next(self, tmp_path, key):
        backend, payloads = self.commit_some(tmp_path, key, n_slots=1)
        sid = SegmentId(backend.current_file_id, 0, 0)
        backend.replicas[holders(backend.replicas, sid)[0]].corrupt(sid)
        assert [r.payload for r in backend.recover()] == [pad4(payloads[0])]

    def test_short_first_copy_falls_back_to_next(self, tmp_path, key):
        backend, payloads = self.commit_some(tmp_path, key)
        sid = SegmentId(backend.current_file_id, 0, 0)
        blob = current_file(backend).read_bytes()[: IV_SIZE + serialized_size(backend.config.k_max)]
        triplet = MetadataArray.from_bytes(decrypt_segment(key, blob), backend.config.k_max).ids[0].tolist()
        first = next(rid for rid in triplet if rid != SENTINEL)  # every replica is live: recovery takes its copy
        backend.replicas[first].truncate(sid, IV_SIZE + 127)
        assert [r.payload for r in backend.recover()] == [pad4(p) for p in payloads]

    def test_every_copy_short_raises_integrity(self, tmp_path, key):
        backend, _ = self.commit_some(tmp_path, key, n_slots=1)
        sid = SegmentId(backend.current_file_id, 0, 0)
        held = holders(backend.replicas, sid)
        assert len(held) >= 2
        for rid in held:
            backend.replicas[rid].truncate(sid, IV_SIZE + 127)
        with pytest.raises(IntegrityFailure, match=r"SegmentId\(fid="):
            backend.recover()

    def test_all_recorded_replicas_dead_is_unrecoverable(self, tmp_path, key):
        backend, _ = self.commit_some(tmp_path, key, n_slots=1)
        sid = SegmentId(backend.current_file_id, 0, 0)
        for rid in holders(backend.replicas, sid):
            backend.replicas[rid].kill()
        with pytest.raises(UnrecoverableSegment, match=r"SegmentId\(fid="):
            backend.recover()

    def test_recovery_requests_do_not_depend_on_write_sizes(self, tmp_path, key):
        # one seed, 40 full-sync writes of 1 B or of 1000-2000 B (1 or 8-16
        # real segments each), the first member of every group down: every
        # replica sees the same requests, so reads show no write's size
        requests, traces = [], []
        for name, sizes in (("small", (1, 1)), ("large", (1000, 2000))):
            rng = random.Random(7)
            trace = StorageTrace()
            backend = FNOS.open(tmp_path / name, key, trace, sync=False)
            engine = WalEngine(backend)
            payloads = [rng.randbytes(rng.randint(*sizes)) for _ in range(40)]
            for p in payloads:
                engine.append(p, full_sync=True)
            for group in backend.groups:
                backend.replicas[group[0]].kill()
            log = {rid: [] for rid in backend.replicas}
            backend.replicas = {rid: Logged(rep, log[rid]) for rid, rep in backend.replicas.items()}
            assert [r.payload for r in backend.recover()] == [pad4(p) for p in payloads]
            requests.append(log)
            traces.append(trace)
        assert requests[0] == requests[1]
        live = FNOS.replicas - len(backend.groups)  # one READ each of the one metadata file
        assert [t.sizes(StorageTrace.REPLICA_READ) for t in traces] == [{READ_FRAME_SIZE: live}] * 2

    def test_restart_recovers_earlier_metadata_files(self, tmp_path, key):
        backend, payloads = self.commit_some(tmp_path, key)
        reborn = VNOS.reopen(backend, seed=9)
        assert reborn.current_file_id == 1
        assert [r.payload for r in reborn.recover()] == [pad4(p) for p in payloads]

    @staticmethod
    def fail_metadata_write_of_b(tmp_path, key, disk):
        """Three replicas form one group, so every segment lands on the
        same replicas. ``a`` commits; ``b`` reaches the replicas but its
        metadata write fails."""
        backend = make_backend(tmp_path, key, n_replicas=3)
        engine = WalEngine(backend)
        engine.append(b"a" * 40, full_sync=True)
        disk.fail = {"append"}
        with pytest.raises(DurabilityError):
            engine.append(b"b" * 40, full_sync=True)
        disk.fail = set()
        return engine

    def test_restart_after_half_written_write_reuses_no_segment_id(self, tmp_path, key, disk):
        engine = self.fail_metadata_write_of_b(tmp_path, key, disk)
        engine = WalEngine(VNOS.reopen(engine.backend))
        engine.append(b"c" * 40, full_sync=True)
        assert [r.payload for r in engine.backend.recover()] == [b"a" * 40, b"c" * 40]

    def test_failed_metadata_write_uses_up_its_ssn(self, tmp_path, key, disk):
        backend = self.fail_metadata_write_of_b(tmp_path, key, disk).backend
        backend.persist_slot(encode_record(b"c" * 40))  # the engine is stopped: c goes to the backend
        assert [r.payload for r in backend.recover()] == [b"a" * 40, b"c" * 40]

    def test_wrong_key_is_corruption_not_a_missing_segment(self, tmp_path, key):
        backend, _ = self.commit_some(tmp_path, key, n_slots=2)
        backend.close()
        other = StaticKeyProvider(b"another master secret").get("default")
        reborn = QuorumBackend(tmp_path, other, backend.replicas, backend.registry, config=backend.config)
        with pytest.raises(RecoveryCorruption) as exc_info:
            reborn.recover()
        exc = exc_info.value
        assert (exc.prefix, exc.fid, exc.offset) == ("metadata", 0, 0)
        assert "metadata file 0, offset 0" in str(exc)

    @staticmethod
    def rewrite_blob(backend, index, edit):
        """Decrypt metadata blob ``index`` of file 0, change its array with
        ``edit`` and write it back encrypted in place."""
        path = backend.root / journal.epoch_filename("metadata", 0)
        data = bytearray(path.read_bytes())
        size = IV_SIZE + serialized_size(backend.config.k_max)
        at = index * size
        array = MetadataArray.from_bytes(decrypt_segment(backend.key, bytes(data[at : at + size])),
                                         backend.config.k_max)
        edit(array)
        data[at : at + size] = encrypt_segment(backend.key, array.to_bytes())
        path.write_bytes(bytes(data))
        return at

    @pytest.mark.parametrize("ssn", [1, 0], ids=["repeated", "backwards"])
    def test_ssn_not_above_the_previous_blob_is_corruption(self, tmp_path, key, ssn):
        backend, _ = self.commit_some(tmp_path, key, n_slots=3)
        at = self.rewrite_blob(backend, 2, lambda a: a.record.__setitem__("ssn", ssn))
        with pytest.raises(RecoveryCorruption, match=f"ssn {ssn} does not follow ssn 1") as exc_info:
            backend.recover()
        assert (exc_info.value.prefix, exc_info.value.fid, exc_info.value.offset) == ("metadata", 0, at)

    def test_unknown_replica_id_is_corruption(self, tmp_path, key):
        backend, _ = self.commit_some(tmp_path, key, n_slots=3)
        at = self.rewrite_blob(backend, 1, lambda a: a.ids.__setitem__((0, 1), 99))
        with pytest.raises(RecoveryCorruption, match="unknown replica id 99") as exc_info:
            backend.recover()
        assert exc_info.value.offset == at

    def test_ssn_carries_across_runs(self, tmp_path, key, monkeypatch):
        # one blob per run: the check that the ssn rises spans runs
        monkeypatch.setattr(backend_module, "READ_SIZE", 1)
        backend, payloads = self.commit_some(tmp_path, key, n_slots=3)
        assert [r.payload for r in backend.recover()] == [pad4(p) for p in payloads]
        at = self.rewrite_blob(backend, 2, lambda a: a.record.__setitem__("ssn", 1))
        with pytest.raises(RecoveryCorruption, match="ssn 1 does not follow ssn 1") as exc_info:
            backend.recover()
        assert exc_info.value.offset == at


class TestCheckpointGc:
    def test_checkpoint_rotates_metadata_epoch(self, tmp_path, key):
        backend = make_backend(tmp_path, key)
        backend.persist_slot(b"\x05" * 100)
        old = current_file(backend)
        marker = backend.checkpoint(1)
        assert marker.lsn.file_id == backend.current_file_id == backend.last_checkpoint_id == 1
        assert not old.exists()
        backend.persist_slot(b"\x06" * 100)
        assert sorted(tmp_path.iterdir()) == [tmp_path / SIDECAR_NAME, current_file(backend)]

    def test_checkpoint_adds_one_sidecar_write_to_metadata_channel(self, tmp_path, key):
        trace = StorageTrace()
        backend = make_backend(tmp_path, key, trace=trace)
        backend.persist_slot(b"\x05" * 100)
        backend.checkpoint(1)
        blob = IV_SIZE + serialized_size(backend.config.k_max)
        assert trace.sizes(StorageTrace.METADATA) == {blob: 1, 20: 1}

    def test_stray_metadata_tmp_is_ignored(self, tmp_path, key):
        (tmp_path / "metadata.tmp").write_bytes(b"")
        assert make_backend(tmp_path, key).current_file_id == 0

    def test_backup_file_is_not_an_epoch(self, tmp_path, key):
        (tmp_path / "metadata.0000000005.bak").write_bytes(b"")
        assert make_backend(tmp_path, key).current_file_id == 0

    def test_sweep_keeps_backup_of_old_epoch(self, tmp_path, key):
        (tmp_path / "metadata.tmp").write_bytes(b"")
        backend = make_backend(tmp_path, key)
        backend.persist_slot(b"\x05" * 100)
        backup = tmp_path / "metadata.0000000000.bak"
        backup.write_bytes(current_file(backend).read_bytes())
        backend.checkpoint(1)
        assert backup.exists() and (tmp_path / "metadata.tmp").exists()
        assert not (tmp_path / "metadata.0000000000").exists()

    @staticmethod
    def commit_then_move_registry_time(tmp_path, key, member, t):
        """Commit five records with no checkpoint, renew ``member``'s lease
        at registry time ``t``, restart, and check every segment and
        record is still there."""
        backend = make_backend(tmp_path, key, n_replicas=18, scheme=SelectionScheme.FNOS)
        engine = WalEngine(backend)
        payloads = [os.urandom(30 + 37 * i) for i in range(5)]
        for p in payloads:
            engine.append(p, full_sync=True)
        held = sum(len(rep) for rep in backend.replicas.values())
        backend.registry.register(member, t)
        backend = FNOS.reopen(backend)
        assert sum(len(rep) for rep in backend.replicas.values()) == held
        assert [r.payload for r in backend.recover()] == [pad4(p) for p in payloads]
        return backend

    def test_replica_gc_keeps_segments_for_dead_client(self, tmp_path, key):
        # only a replica renews its lease: the client is evicted, its segments stay
        backend = self.commit_then_move_registry_time(tmp_path, key, 0, 10**6)
        assert "client-0" not in backend.registry.list_active(10**6)

    def test_replica_gc_spares_fresh_segments(self, tmp_path, key):
        # the client is live at 61 s, where the age-based collector dropped everything
        backend = self.commit_then_move_registry_time(tmp_path, key, "client-0", 61)
        assert "client-0" in backend.registry.list_active(61)

    def test_checkpoint_drops_segments_below_new_epoch(self, tmp_path, key):
        backend = make_backend(tmp_path, key)
        engine = WalEngine(backend)
        engine.append(b"\x08" * 300, full_sync=True)
        down = next(rep for rep in backend.replicas.values() if len(rep))
        down.kill()
        engine.checkpoint()
        assert VNOS.held(backend) == set()
        engine.append(b"\x09" * 300, full_sync=True)
        assert VNOS.held(backend) == {1}
        down.revive()
        assert {sid.fid for sid in down.segment_ids} == {0}  # it missed the drop while dead
        engine.checkpoint()
        assert VNOS.held(backend) == set() and len(down) == 0


class TestConfig:
    def test_invariants(self):
        with pytest.raises(ValueError):
            QuorumConfig(segment_size=128, max_write_size=100).validate()
        assert QuorumConfig().validate().k_max == 8

    def test_fnos_with_fewer_groups_than_k_is_refused_before_any_file(self, tmp_path, key):
        with pytest.raises(InvalidConfig, match="exceeds the 4 quorum groups"):
            make_backend(tmp_path / "q", key, n_replicas=12, scheme=SelectionScheme.FNOS, max_write_size=2048)
        assert not (tmp_path / "q").exists()
