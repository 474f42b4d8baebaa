"""Engine facade: periodic flushing, lifecycle, and the backend contract."""

import os
import sys
import threading
import time

import pytest

from evenlog.crypto import IV_SIZE
from evenlog.engine import WalEngine
from evenlog.errors import InvalidConfig
from evenlog.journal import JournalBackend, PlainJournalBackend, epoch_filename, recover_journal
from evenlog.observe import StorageTrace
from evenlog.quorum import QuorumBackend, QuorumConfig, SelectionScheme
from evenlog.quorum.selection import GROUP_SIZE
from evenlog.quorum.replica import store_frame_size

from evenlog.slots import PeriodicFlusher

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


@pytest.mark.parametrize("interval", [0, -5, float("nan")])
def test_flush_interval_that_is_not_positive_is_refused(tmp_path, key, monkeypatch, interval):
    # a zero wait would make the flusher spin on the slot lock
    started = []
    monkeypatch.setattr(PeriodicFlusher, "start", lambda flusher: started.append(flusher))
    with pytest.raises(InvalidConfig):
        WalEngine(JournalBackend(tmp_path, key, 128), flush_interval_ms=interval)
    assert started == []


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


ENGINE_BACKENDS = pytest.mark.parametrize("make_backend", [
    journal, quorum(SelectionScheme.VNOS), quorum(SelectionScheme.FNOS),
], ids=["journal", "quorum-vnos", "quorum-fnos"])


class RacingCheckpoint:
    """A backend whose ``checkpoint`` first starts another writer's
    full-sync append and gives it a moment to land. The append must wait
    for the checkpoint to finish, not land in the file the checkpoint is
    about to delete."""

    def __init__(self, backend):
        self.backend = backend
        self.engine = None
        self.racer = None
        self.result = None

    def __getattr__(self, name):
        return getattr(self.backend, name)

    def checkpoint(self, ckpt_id):
        acked = threading.Event()

        def race():
            self.result = self.engine.append(b"racer!" * 8, full_sync=True)
            acked.set()

        self.racer = threading.Thread(target=race)
        self.racer.start()
        acked.wait(0.3)  # not a join: the racer may be waiting for this very checkpoint
        return self.backend.checkpoint(ckpt_id)


@ENGINE_BACKENDS
def test_checkpoint_is_atomic_with_a_racing_append(tmp_path, key, make_backend):
    backend = make_backend(tmp_path, key, StorageTrace())
    racing = RacingCheckpoint(backend)
    engine = racing.engine = WalEngine(racing, slot_capacity=512)
    engine.append(b"before" * 8, full_sync=True)
    engine.checkpoint()
    racing.racer.join(10)
    assert not racing.racer.is_alive() and racing.result.flushed
    engine.append(b"after!" * 8, full_sync=True)
    engine.close()
    assert [r.payload for r in backend.recover()] == [b"racer!" * 8, b"after!" * 8]


@ENGINE_BACKENDS
def test_checkpoints_under_concurrent_writers_and_flushes(tmp_path, key, make_backend):
    """More writers than cores (full-sync and buffered) and a 1 ms flusher
    race 20 checkpoints, with thread switches forced often: no error
    escapes (a checkpoint that rotated files under a writer made its write
    raise ``ValueError``), and recovery returns exactly the appends made
    after the last checkpoint, in LSN order."""
    backend = make_backend(tmp_path, key, StorageTrace())
    backend.sync = False
    engine = WalEngine(backend, slot_capacity=512, flush_interval_ms=1)
    acked, errors, stop = [], [], threading.Event()
    switch = sys.getswitchinterval()

    def write(writer):
        i = 0
        try:
            while not stop.is_set():
                payload = f"{writer}:{i}".encode().ljust(40, b".")
                acked.append((engine.append(payload, full_sync=i % 2 == 0).lsn, payload))
                i += 1
        except Exception as exc:  # noqa: BLE001  (any error fails the test below)
            errors.append(exc)

    n_writers = min(2 * len(os.sched_getaffinity(0)), 16)  # more writers than cores
    writers = [threading.Thread(target=write, args=(w,)) for w in range(n_writers)]
    sys.setswitchinterval(1e-5)
    try:
        for t in writers:
            t.start()
        markers = [engine.checkpoint() for _ in range(20)]
    finally:
        stop.set()
        for t in writers:
            t.join(30)
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in writers)
    acked.append((engine.append(b"last" * 10, full_sync=True).lsn, b"last" * 10))
    engine.close()
    assert errors == []
    epoch = markers[-1].lsn.file_id
    assert [r.payload for r in backend.recover()] == [p for lsn, p in sorted(acked) if lsn.file_id >= epoch]
