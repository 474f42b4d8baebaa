"""Engine facade: periodic flushing, lifecycle, and the backend contract."""

import time

import pytest

from evenlog.crypto import IV_SIZE
from evenlog.engine import WalEngine
from evenlog.journal import JournalBackend, PlainJournalBackend, epoch_filename, recover_journal
from evenlog.observe import StorageTrace
from evenlog.quorum import QuorumBackend, QuorumConfig, SelectionScheme
from evenlog.quorum.selection import GROUP_SIZE
from evenlog.quorum.replica import store_frame_size

from .conftest import build_cluster, pad4


def test_periodic_flusher_makes_buffered_appends_durable(tmp_path, key):
    backend = JournalBackend(tmp_path, key, 128)
    engine = WalEngine(backend, flush_interval_ms=10)
    result = engine.append(b"buffered" * 4, full_sync=False)
    assert not result.flushed
    path = tmp_path / epoch_filename("journal", backend.current_file_id)
    deadline = time.monotonic() + 2.0
    while path.stat().st_size == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    assert path.stat().st_size > 0, "flusher never fired"
    engine.close()
    assert [r.payload for r in recover_journal(tmp_path, key, 128)] == [b"buffered" * 4]


def test_close_drains_the_slot(tmp_path, key):
    backend = JournalBackend(tmp_path, key, 128)
    engine = WalEngine(backend)
    engine.append(b"pending-data", full_sync=False)
    engine.close()
    assert [r.payload for r in recover_journal(tmp_path, key, 128)] == [pad4(b"pending-data")]


def test_append_order_equals_lsn_order_equals_recovery_order(tmp_path, key):
    backend = JournalBackend(tmp_path, key, 128)
    engine = WalEngine(backend)
    payloads = [bytes([i]) * 48 for i in range(20)]
    lsns = [engine.append(p, full_sync=(i % 3 == 0)).lsn for i, p in enumerate(payloads)]
    engine.close()
    assert lsns == sorted(lsns)
    recovered = recover_journal(tmp_path, key, 128)
    assert [r.payload for r in recovered] == payloads


SLOT = 4096


def journal(root, key, trace):
    return JournalBackend(root, key, 128, trace=trace)


def plain(root, key, trace):
    return PlainJournalBackend(root, trace=trace)


def plain_padded(root, key, trace):
    return PlainJournalBackend(root, pad_to=SLOT, trace=trace)


def quorum(scheme):
    def make(root, key, trace):
        registry, replicas = build_cluster(15)
        return QuorumBackend(root, key, replicas, registry,
                             config=QuorumConfig(segment_size=128, max_write_size=512),
                             scheme=scheme, seed=3, trace=trace)
    return make


def stored_bytes(backend, trace):
    """Bytes the trace shows on the backend's data channel, from its stats."""
    padded, fake, framing = backend.stats()
    if isinstance(backend, QuorumBackend):
        units = (padded + fake) // 128
        assert framing == units * IV_SIZE
        return trace.total_bytes(StorageTrace.REPLICA), units * GROUP_SIZE * store_frame_size(128)
    assert fake == 0
    return trace.total_bytes(StorageTrace.JOURNAL), padded + framing


@pytest.mark.parametrize("make_backend", [
    journal, plain, plain_padded, quorum(SelectionScheme.VNOS), quorum(SelectionScheme.FNOS),
], ids=["journal", "plain", "plain-padded", "quorum-vnos", "quorum-fnos"])
def test_backend_contract(tmp_path, key, make_backend):
    trace = StorageTrace()
    backend = make_backend(tmp_path, key, trace)
    engine = WalEngine(backend, slot_capacity=SLOT)
    for n in (100, 300):
        engine.append(bytes([n % 251]) * n, full_sync=True)
    marker = engine.checkpoint()
    assert marker.ckpt_id == backend.last_checkpoint_id == 1
    after = [bytes([i]) * (40 + 60 * i) for i in range(1, 5)]
    for i, payload in enumerate(after):
        engine.append(payload, full_sync=(i % 2 == 0))
    engine.close()

    assert [r.payload for r in backend.recover()] == [pad4(p) for p in after]
    seen, expected = stored_bytes(backend, trace)
    assert seen == expected > 0
