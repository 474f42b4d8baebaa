"""End-to-end quorum backend: commit, fault tolerance, recovery, and
the checkpoint that collects old epochs."""

import os
import random
import tracemalloc
from pathlib import Path

import pytest

from evenlog import journal
from evenlog.crypto import IV_SIZE, StaticKeyProvider, decrypt_segment, encrypt_segment
from evenlog.engine import WalEngine
from evenlog.errors import (
    CommitTimeout,
    DurabilityError,
    InsufficientQuorums,
    IntegrityFailure,
    RecoveryCorruption,
    SegmentNotFound,
    UnrecoverableSegment,
)
from evenlog.journal import SIDECAR_NAME
from evenlog.observe import StorageTrace
from evenlog.quorum import QuorumBackend, QuorumConfig, Replica, SegmentId, SelectionScheme
from evenlog.quorum import backend as backend_module
from evenlog.quorum.metadata import MetadataArray, serialized_size
from evenlog.quorum.replica import store_frame_size
from evenlog.records import encode_record

from .conftest import FailingWrites, build_cluster, pad4, reopen


def make_backend(tmp_path, key, n_replicas=15, scheme=SelectionScheme.VNOS,
                 segment_size=128, max_write_size=512, seed=0, **kw):
    registry, replicas = build_cluster(n_replicas)
    cfg = QuorumConfig(segment_size=segment_size, max_write_size=max_write_size)
    backend = QuorumBackend(tmp_path, key, replicas, registry, config=cfg,
                            scheme=scheme, seed=seed, **kw)
    return backend


def make_engine(backend):
    return WalEngine(backend)


def metadata_path(backend) -> Path:
    """The metadata file the backend appends to."""
    return backend.root / journal.epoch_filename(backend.PREFIX, backend.current_file_id)


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
        assert not rep.has(SegmentId(0, 0, 0))
        assert rep.has(SegmentId(1, 0, 0)) and rep.has(SegmentId(2, 0, 0))


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
        assert metadata_path(backend).stat().st_size == 0

    def test_metadata_grows_by_constant_blob(self, tmp_path, key):
        backend = make_backend(tmp_path, key)
        blob = IV_SIZE + serialized_size(backend.config.k_max)
        for i, n in enumerate((4, 300, 512, 128)):
            backend.persist_slot(os.urandom(n))
            assert metadata_path(backend).stat().st_size == (i + 1) * blob

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
        engine = make_engine(backend)
        small = os.urandom(40)
        engine.append(small, full_sync=True)
        with pytest.raises(InsufficientQuorums):
            engine.append(os.urandom(700), full_sync=True)
        assert [r.payload for r in backend.recover()] == [pad4(small)]

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

    @pytest.mark.parametrize("scheme", [SelectionScheme.FNOS, SelectionScheme.VNOS])
    def test_seeded_receipts_are_pinned(self, tmp_path, key, scheme):
        backend = make_backend(tmp_path, key, scheme=scheme, seed=11, sync=False)
        backend.replicas[4].kill()
        rng = random.Random(20)
        receipts = [backend.persist_slot(rng.randbytes(rng.randint(1, 512))) for _ in range(20)]
        got = [(r.ssn, r.real_segments, r.fake_segments, r.commit_latency) for r in receipts]
        counts = [len(backend.replicas[rid]) for rid in sorted(backend.replicas)]
        assert (got, counts) == self.PINNED[scheme]


class TestRecovery:
    def commit_some(self, tmp_path, key, scheme=SelectionScheme.VNOS, n_slots=5, seed=0):
        backend = make_backend(tmp_path, key, n_replicas=18, scheme=scheme, seed=seed)
        engine = make_engine(backend)
        payloads = [os.urandom(30 + 37 * i) for i in range(n_slots)]
        for p in payloads:
            engine.append(p, full_sync=True)
        return backend, payloads

    def test_recover_assemble_is_byte_exact(self, tmp_path, key):
        backend, payloads = self.commit_some(tmp_path, key)
        for group in backend.groups:
            backend.replicas[group[0]].kill()
        assert [r.payload for r in backend.recover()] == [pad4(p) for p in payloads]

    def test_fnos_recovery_ignores_fakes(self, tmp_path, key):
        backend, payloads = self.commit_some(tmp_path, key, scheme=SelectionScheme.FNOS)
        assert [r.payload for r in backend.recover()] == [pad4(p) for p in payloads]

    def test_empty_metadata_empty_stream(self, tmp_path, key):
        backend = make_backend(tmp_path, key)
        assert backend.recover_assemble() == b""
        assert backend.recover() == []

    def test_corrupt_only_surviving_copy_raises_integrity(self, tmp_path, key):
        backend, payloads = self.commit_some(tmp_path, key, n_slots=1)
        # find the recorded replicas of slot 0 segment 0 and corrupt/kill them
        sid = SegmentId(backend.current_file_id, 0, 0)
        holders = [rid for rid, rep in backend.replicas.items() if rep.has(sid)]
        assert len(holders) >= 2
        survivor = holders[0]
        for rid in holders[1:]:
            backend.replicas[rid].kill()
        backend.replicas[survivor].corrupt(sid)
        with pytest.raises(IntegrityFailure):
            backend.recover()

    def test_corrupt_one_copy_falls_back_to_next(self, tmp_path, key):
        backend, payloads = self.commit_some(tmp_path, key, n_slots=1)
        sid = SegmentId(backend.current_file_id, 0, 0)
        holders = [rid for rid, rep in backend.replicas.items() if rep.has(sid)]
        backend.replicas[holders[0]].corrupt(sid)
        assert [r.payload for r in backend.recover()] == [pad4(payloads[0])]

    @staticmethod
    def truncate_copy(replica, sid):
        unit, digest = replica._store[sid]
        replica._store[sid] = (unit[:-1], digest)

    def test_short_first_copy_falls_back_to_next(self, tmp_path, key):
        backend, payloads = self.commit_some(tmp_path, key)
        sid = SegmentId(backend.current_file_id, 0, 0)
        reads = []
        for rep in backend.replicas.values():
            def read(s, rep=rep, real=rep.read):
                reads.append((rep.replica_id, s))
                return real(s)
            rep.read = read
        backend.recover()
        first = next(rid for rid, s in reads if s == sid)
        self.truncate_copy(backend.replicas[first], sid)
        assert [r.payload for r in backend.recover()] == [pad4(p) for p in payloads]

    def test_every_copy_short_raises_integrity(self, tmp_path, key):
        backend, _ = self.commit_some(tmp_path, key, n_slots=1)
        sid = SegmentId(backend.current_file_id, 0, 0)
        holders = [rep for rep in backend.replicas.values() if rep.has(sid)]
        assert len(holders) >= 2
        for rep in holders:
            self.truncate_copy(rep, sid)
        with pytest.raises(IntegrityFailure):
            backend.recover()

    def test_all_recorded_replicas_dead_is_unrecoverable(self, tmp_path, key):
        backend, _ = self.commit_some(tmp_path, key, n_slots=1)
        sid = SegmentId(backend.current_file_id, 0, 0)
        for rid, rep in backend.replicas.items():
            if rep.has(sid):
                rep.kill()
        with pytest.raises(UnrecoverableSegment):
            backend.recover()

    def test_restart_recovers_earlier_metadata_files(self, tmp_path, key):
        backend, payloads = self.commit_some(tmp_path, key)
        reborn = reopen(backend, seed=9)
        assert reborn.current_file_id == 1
        assert [r.payload for r in reborn.recover()] == [pad4(p) for p in payloads]

    def test_corruption_names_its_metadata_file(self, tmp_path, key):
        backend, _ = self.commit_some(tmp_path, key, n_slots=1)
        backend = reopen(backend)
        first = encode_record(b"first" * 8)
        backend.persist_slot(first + (13).to_bytes(4, "little") + b"\x00" * 12)
        with pytest.raises(RecoveryCorruption) as exc_info:
            backend.recover()
        assert (exc_info.value.fid, exc_info.value.offset) == (1, len(first))
        assert f"metadata file 1, offset {len(first)}" in str(exc_info.value)

    @staticmethod
    def fail_metadata_write_of_b(tmp_path, key):
        """Three replicas form one group, so every segment lands on the
        same replicas. ``a`` commits; ``b`` reaches the replicas but its
        metadata write fails."""
        backend = make_backend(tmp_path, key, n_replicas=3)
        engine = make_engine(backend)
        engine.append(b"a" * 40, full_sync=True)
        backend._fh = FailingWrites(backend._fh)
        with pytest.raises(DurabilityError):
            engine.append(b"b" * 40, full_sync=True)
        return engine

    def test_restart_after_half_written_write_reuses_no_segment_id(self, tmp_path, key):
        engine = self.fail_metadata_write_of_b(tmp_path, key)
        engine = make_engine(reopen(engine.backend))
        engine.append(b"c" * 40, full_sync=True)
        assert [r.payload for r in engine.backend.recover()] == [b"a" * 40, b"c" * 40]

    def test_failed_metadata_write_uses_up_its_ssn(self, tmp_path, key):
        engine = self.fail_metadata_write_of_b(tmp_path, key)
        backend = engine.backend
        backend._fh = backend._fh.real
        engine.append(b"c" * 40, full_sync=True)
        records = [r.payload for r in backend.recover()]
        # The slot kept b after its failed flush and wrote it again with c,
        # so the told-failed b comes back as well: the phantom write of
        # ROADMAP item 1(b), not this test's subject.
        assert [p for p in records if p != b"b" * 40] == [b"a" * 40, b"c" * 40]

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

    def test_memory_stays_within_a_few_reads(self, tmp_path, key):
        self.check_recovery_memory(tmp_path, key, max_write_size=1024)  # K = 8

    def test_memory_stays_within_a_few_reads_at_k16(self, tmp_path, key):
        self.check_recovery_memory(tmp_path, key, max_write_size=2048)

    @staticmethod
    def check_recovery_memory(tmp_path, key, max_write_size):
        rng = random.Random(10)
        backend = make_backend(tmp_path, key, n_replicas=24, max_write_size=max_write_size, sync=False)
        engine = make_engine(backend)
        payloads = [rng.randbytes(rng.randint(100, 900)) for _ in range(8000)]
        for p in payloads:
            engine.append(p, full_sync=True)
        tracemalloc.start()
        try:
            records = backend.recover()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [r.payload for r in records] == [pad4(p) for p in payloads]
        # what recovery needs beyond the records it returns
        assert peak - held <= 4 * 2**20


def held_fids(backend) -> set[int]:
    """The epochs of the segments that live replicas hold."""
    return {sid.fid for rep in backend.replicas.values() if rep.alive for sid in rep._store}


class TestCheckpointGc:
    def test_checkpoint_rotates_metadata_epoch(self, tmp_path, key):
        backend = make_backend(tmp_path, key)
        backend.persist_slot(b"\x05" * 100)
        old = metadata_path(backend)
        marker = backend.checkpoint(1)
        assert marker.lsn.file_id == backend.current_file_id == backend.last_checkpoint_id == 1
        assert not old.exists()
        backend.persist_slot(b"\x06" * 100)
        assert sorted(tmp_path.iterdir()) == [tmp_path / SIDECAR_NAME, metadata_path(backend)]

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
        backup.write_bytes(metadata_path(backend).read_bytes())
        backend.checkpoint(1)
        assert backup.exists() and (tmp_path / "metadata.tmp").exists()
        assert not (tmp_path / "metadata.0000000000").exists()

    @staticmethod
    def commit_then_move_registry_time(tmp_path, key, member, t):
        """Commit five records with no checkpoint, renew ``member``'s lease
        at registry time ``t``, restart, and check every segment and
        record is still there."""
        backend = make_backend(tmp_path, key, n_replicas=18, scheme=SelectionScheme.FNOS)
        engine = make_engine(backend)
        payloads = [os.urandom(30 + 37 * i) for i in range(5)]
        for p in payloads:
            engine.append(p, full_sync=True)
        held = sum(len(rep) for rep in backend.replicas.values())
        backend.registry.register(member, t)
        backend = reopen(backend)
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
        engine = make_engine(backend)
        engine.append(b"\x08" * 300, full_sync=True)
        down = next(rep for rep in backend.replicas.values() if len(rep))
        down.kill()
        engine.checkpoint()
        assert held_fids(backend) == set()
        engine.append(b"\x09" * 300, full_sync=True)
        assert held_fids(backend) == {1}
        down.revive()
        assert {sid.fid for sid in down._store} == {0}  # it missed the drop while dead
        engine.checkpoint()
        assert held_fids(backend) == set() and len(down) == 0

    @pytest.mark.parametrize("sync", [True, False])
    def test_directory_fsync_precedes_every_deletion(self, tmp_path, key, monkeypatch, sync):
        backend = make_backend(tmp_path, key, sync=sync)
        backend.persist_slot(b"\x0b" * 300)
        events = []
        monkeypatch.setattr(journal, "fsync_dir", lambda root: events.append("fsync"))

        def unlink(path, real=Path.unlink):
            events.append("unlink")
            real(path)

        monkeypatch.setattr(Path, "unlink", unlink)
        for rep in backend.replicas.values():
            monkeypatch.setattr(rep, "drop_before", lambda fid: events.append("drop"))
        backend.checkpoint(1)
        drops = ["drop"] * len(backend.replicas)
        # one fsync makes the new file durable, one the sidecar's rename
        assert events == (["fsync", "fsync"] if sync else []) + ["unlink"] + drops


class TestConfig:
    def test_invariants(self):
        with pytest.raises(ValueError):
            QuorumConfig(segment_size=128, max_write_size=100).validate()
        assert QuorumConfig().validate().k_max == 8
