"""Socket transport: frame format and a live loopback cluster."""

import os

import pytest

from evenlog.engine import WalEngine
from evenlog.errors import SegmentNotFound
from evenlog.quorum import QuorumBackend, QuorumConfig, Replica, SegmentId, SelectionScheme
from evenlog.quorum.transport import (
    MSG_READ,
    MSG_STORE,
    ReplicaServer,
    SocketChannel,
    encode_frame,
    store_frame_size,
)
from evenlog.slots import FlushPolicy

from .conftest import build_cluster, pad4


class TestFrameFormat:
    def test_frame_layout_bit_exact(self):
        frame = encode_frame(MSG_STORE, b"\xaa\xbb")
        assert frame == b"\x03\x00\x00\x00" + b"\x01" + b"\xaa\xbb"

    def test_store_frame_size_formula(self):
        # len u32 + type u8 + sid 16 + digest 32 + iv 16 + segment
        assert store_frame_size(128) == 4 + 1 + 16 + 32 + 16 + 128

    def test_read_frame_roundtrip(self):
        import io

        frame = encode_frame(MSG_READ, b"payload!")
        from evenlog.quorum.transport import read_frame

        msg_type, body = read_frame(io.BytesIO(frame))
        assert (msg_type, body) == (MSG_READ, b"payload!")

    def test_truncated_frame_raises(self):
        import io

        from evenlog.quorum.transport import read_frame

        with pytest.raises(ConnectionError):
            read_frame(io.BytesIO(b"\x10\x00\x00\x00\x01abc"))


@pytest.fixture
def served_replica():
    replica = Replica(5)
    server = ReplicaServer(replica, segment_size=128).start()
    yield replica, server.address
    server.stop()


class TestLoopback:
    def test_store_and_read_roundtrip(self, served_replica):
        replica, address = served_replica
        channel = SocketChannel(address, segment_size=128)
        sid = SegmentId(1, 2, 3)
        unit = os.urandom(16 + 128)
        assert channel.store(sid, unit, os.urandom(32))
        assert channel.read(sid) == unit
        assert replica.read(sid) == unit
        channel.close()

    def test_read_missing_segment(self, served_replica):
        _, address = served_replica
        channel = SocketChannel(address, segment_size=128)
        with pytest.raises(SegmentNotFound):
            channel.read(SegmentId(9, 9, 9))
        channel.close()

    def test_dead_replica_times_out_store(self, served_replica):
        replica, address = served_replica
        channel = SocketChannel(address, segment_size=128, timeout=0.3)
        replica.kill()
        assert not channel.store(SegmentId(0, 0, 0), b"\x00" * (16 + 128), b"\x00" * 32)
        channel.close()


class TestQuorumOverSockets:
    def test_commit_and_recover_through_sockets(self, tmp_path, key):
        registry, replicas = build_cluster(15)
        servers = {rid: ReplicaServer(rep, segment_size=128).start() for rid, rep in replicas.items()}
        channels = {rid: SocketChannel(srv.address, segment_size=128) for rid, srv in servers.items()}
        try:
            backend = QuorumBackend(
                tmp_path, key, replicas, registry,
                config=QuorumConfig(segment_size=128, max_write_size=512),
                scheme=SelectionScheme.VNOS, seed=2, channels=channels,
            )
            engine = WalEngine(backend, policy=FlushPolicy(interval_ms=None))
            payloads = [os.urandom(n) for n in (100, 260, 490)]
            for p in payloads:
                engine.append(p, full_sync=True)
            assert [r.payload for r in backend.recover()] == [pad4(p) for p in payloads]
        finally:
            for ch in channels.values():
                ch.close()
            for srv in servers.values():
                srv.stop()
