"""End-to-end quorum backend: commit, fault tolerance, recovery, GC."""

import os

import pytest

from evenlog.crypto import IV_SIZE
from evenlog.engine import WalEngine
from evenlog.errors import CommitTimeout, IntegrityFailure, SegmentNotFound, UnrecoverableSegment
from evenlog.observe import StorageTrace
from evenlog.quorum import QuorumBackend, QuorumConfig, Replica, SegmentId, SelectionScheme
from evenlog.quorum.metadata import serialized_size
from evenlog.quorum.transport import store_frame_size
from evenlog.slots import FlushPolicy

from .conftest import build_cluster, pad4


def make_backend(tmp_path, key, n_replicas=15, scheme=SelectionScheme.VNOS,
                 segment_size=128, max_write_size=512, seed=0, **kw):
    registry, replicas = build_cluster(n_replicas)
    cfg = QuorumConfig(segment_size=segment_size, max_write_size=max_write_size)
    backend = QuorumBackend(tmp_path, key, replicas, registry, config=cfg,
                            scheme=scheme, seed=seed, **kw)
    return backend


def make_engine(backend):
    return WalEngine(backend, policy=FlushPolicy(interval_ms=None))


class TestSegmentId:
    def test_pack_order_fid_ssn_sn(self):
        sid = SegmentId(fid=1, ssn=2, sn=3)
        packed = sid.pack()
        assert len(packed) == 16
        assert packed == (1).to_bytes(4, "little") + (2).to_bytes(4, "little") + \
            (3).to_bytes(4, "little") + b"\x00" * 4
        assert SegmentId.unpack(packed) == sid


class TestReplica:
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
        assert backend.metadata_path.stat().st_size == 0

    def test_metadata_grows_by_constant_blob(self, tmp_path, key):
        backend = make_backend(tmp_path, key)
        blob = IV_SIZE + serialized_size(backend.config.k_max)
        for i, n in enumerate((4, 300, 512, 128)):
            backend.persist_slot(os.urandom(n))
            assert backend.metadata_path.stat().st_size == (i + 1) * blob

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

    def test_all_recorded_replicas_dead_is_unrecoverable(self, tmp_path, key):
        backend, _ = self.commit_some(tmp_path, key, n_slots=1)
        sid = SegmentId(backend.current_file_id, 0, 0)
        for rid, rep in backend.replicas.items():
            if rep.has(sid):
                rep.kill()
        with pytest.raises(UnrecoverableSegment):
            backend.recover()

    def test_restart_reads_same_metadata_file(self, tmp_path, key):
        backend, payloads = self.commit_some(tmp_path, key)
        backend.close()
        registry, _ = build_cluster(0)
        for rid, rep in backend.replicas.items():
            registry.register(rid, 0)
        registry.register("client-0", 0)
        reborn = QuorumBackend(tmp_path, key, backend.replicas, registry,
                               config=backend.config, scheme=backend.scheme, seed=9)
        assert [r.payload for r in reborn.recover()] == [pad4(p) for p in payloads]


class TestCheckpointGc:
    def test_checkpoint_rotates_metadata_epoch(self, tmp_path, key):
        backend = make_backend(tmp_path, key)
        backend.persist_slot(b"\x05" * 100)
        old = backend.metadata_path
        marker = backend.checkpoint(1)
        assert marker.lsn.file_id == backend.current_file_id == backend.last_checkpoint_id == 1
        backend.persist_slot(b"\x06" * 100)
        assert backend.metadata_path != old
        assert backend.sweep_old_epochs() == 1

    def test_stray_metadata_tmp_is_ignored(self, tmp_path, key):
        (tmp_path / "metadata.tmp").write_bytes(b"")
        assert make_backend(tmp_path, key).current_file_id == 0

    def test_backup_file_is_not_an_epoch(self, tmp_path, key):
        (tmp_path / "metadata.0000000005.bak").write_bytes(b"")
        assert make_backend(tmp_path, key).current_file_id == 0

    def test_sweep_keeps_backup_of_old_epoch(self, tmp_path, key):
        backend = make_backend(tmp_path, key)
        backend.persist_slot(b"\x05" * 100)
        backup = tmp_path / "metadata.0000000000.bak"
        backup.write_bytes(backend.metadata_path.read_bytes())
        backend.checkpoint(1)
        assert backend.sweep_old_epochs() == 1
        assert backup.exists() and not (tmp_path / "metadata.0000000000").exists()

    def test_replica_gc_drops_old_segments_while_client_alive(self, tmp_path, key):
        backend = make_backend(tmp_path, key)
        backend.persist_slot(b"\x08" * 300)
        held = sum(len(rep) for rep in backend.replicas.values())
        assert held > 0
        backend.clock.advance(backend.config.checkpoint_interval + 1)
        backend.registry.heartbeat("client-0", backend.clock.now)
        assert backend.run_replica_gc() == held
        assert sum(len(rep) for rep in backend.replicas.values()) == 0

    def test_replica_gc_keeps_segments_for_dead_client(self, tmp_path, key):
        backend = make_backend(tmp_path, key)
        backend.persist_slot(b"\x09" * 300)
        backend.clock.advance(backend.config.checkpoint_interval + 100)
        # client never heartbeats: evicted from the registry, segments kept
        assert backend.run_replica_gc() == 0
        assert sum(len(rep) for rep in backend.replicas.values()) > 0

    def test_replica_gc_spares_fresh_segments(self, tmp_path, key):
        backend = make_backend(tmp_path, key)
        backend.persist_slot(b"\x0a" * 300)
        backend.clock.advance(5)
        backend.registry.heartbeat("client-0", backend.clock.now)
        assert backend.run_replica_gc() == 0

    @pytest.mark.parametrize("interval", [30, 60])
    def test_checkpoint_interval_is_a_knob(self, tmp_path, key, interval):
        registry, replicas = build_cluster(9)
        cfg = QuorumConfig(segment_size=128, max_write_size=512, checkpoint_interval=interval)
        backend = QuorumBackend(tmp_path, key, replicas, registry, config=cfg, seed=0)
        backend.persist_slot(b"\x0b" * 100)
        backend.clock.advance(interval - 1)
        backend.registry.heartbeat("client-0", backend.clock.now)
        assert backend.run_replica_gc() == 0  # younger than one interval
        backend.clock.advance(2)
        backend.registry.heartbeat("client-0", backend.clock.now)
        assert backend.run_replica_gc() > 0


class TestConfig:
    def test_invariants(self):
        with pytest.raises(ValueError):
            QuorumConfig(write_quorum=1, tolerable_failures=1).validate()
        with pytest.raises(ValueError):
            QuorumConfig(segment_size=128, max_write_size=100).validate()
        with pytest.raises(ValueError):
            QuorumConfig(write_quorum=4).validate()
        assert QuorumConfig().validate().k_max == 8
