"""Engine facade: periodic flushing, lifecycle, and the backend contract."""

import os
import sys
import threading
import time
import traceback

import pytest

from evenlog.engine import WalEngine
from evenlog.errors import DurabilityError, InvalidConfig, RecordTooLarge, WalError
from evenlog.journal import JournalBackend, epoch_filename, recover_journal
from evenlog.observe import StorageTrace
from evenlog.quorum import QuorumBackend, QuorumConfig, SelectionScheme
from evenlog.slots import PeriodicFlusher

from .conftest import KINDS, SLOT, build_cluster, over, pad4


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


@over()
def test_backend_contract(tmp_path, key, kind):
    trace = StorageTrace()
    backend = kind.open(tmp_path, key, trace)
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
    assert trace.total_bytes(kind.channel) == kind.stored_bytes(backend.stats()) > 0


@over()
def test_a_closed_engine_refuses_every_call(tmp_path, key, disk, kind):
    trace = StorageTrace()
    backend = kind.open(tmp_path, key, trace)
    engine = WalEngine(backend)
    engine.append(b"kept" * 10, full_sync=True)
    engine.close()
    disk.events.clear()
    stored = trace.total_bytes(kind.channel)
    for call in (lambda: engine.append(b"late"), lambda: engine.append(b"late", full_sync=True),
                 engine.flush, engine.checkpoint):
        with pytest.raises(WalError):
            call()
    engine.close()  # a second close does nothing
    assert disk.events == [] and trace.total_bytes(kind.channel) == stored
    assert [r.payload for r in backend.recover()] == [pad4(b"kept" * 10)]


@over()
def test_a_failed_flush_stops_the_engine(tmp_path, key, disk, kind):
    trace = StorageTrace()
    backend = kind.open(tmp_path, key, trace)
    engine = WalEngine(backend)
    engine.append(b"ok-1" * 10, full_sync=True)
    disk.fail = {"sync"}
    with pytest.raises(DurabilityError) as failed:
        engine.append(b"told-failed", full_sync=True)
    disk.fail, disk.events = set(), []
    stored = trace.total_bytes(kind.channel)
    for call in (lambda: engine.append(b"ok-2" * 10), lambda: engine.append(b"ok-2" * 10, full_sync=True),
                 engine.flush, engine.checkpoint):
        with pytest.raises(DurabilityError):  # never retried: the failed sync may have lost its pages
            call()
    assert disk.events == [] and trace.total_bytes(kind.channel) == stored
    with pytest.raises(DurabilityError) as closing:
        engine.close()
    assert closing.value is failed.value and [name for name, _ in disk.events][-1] == "close"
    recovered = [r.payload for r in kind.restart(backend, 0).recover()]
    assert recovered in ([pad4(b"ok-1" * 10)], [pad4(b"ok-1" * 10), pad4(b"told-failed")])


@over()
def test_a_stopped_engine_raises_at_one_traceback_depth(tmp_path, key, disk, kind):
    # the kept error is raised again and again; its traceback, whose frames
    # hold their locals (payloads too), must not grow with each raise
    engine = WalEngine(kind.open(tmp_path, key))
    disk.fail = {"sync"}
    with pytest.raises(DurabilityError) as failed:
        engine.append(b"told-failed", full_sync=True)
    depths = []
    for _ in range(5):
        with pytest.raises(DurabilityError) as raised:
            engine.append(b"x" * 40, full_sync=True)
        assert raised.value is failed.value
        depths.append(len(traceback.extract_tb(raised.value.__traceback__)))
    assert depths == depths[:1] * 5


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


@over("journal", "quorum-vnos", "quorum-fnos")
def test_checkpoint_is_atomic_with_a_racing_append(tmp_path, key, kind):
    backend = kind.open(tmp_path, key)
    racing = RacingCheckpoint(backend)
    engine = racing.engine = WalEngine(racing, slot_capacity=512)
    engine.append(b"before" * 8, full_sync=True)
    engine.checkpoint()
    racing.racer.join(10)
    assert not racing.racer.is_alive() and racing.result.flushed
    engine.append(b"after!" * 8, full_sync=True)
    engine.close()
    assert [r.payload for r in backend.recover()] == [b"racer!" * 8, b"after!" * 8]


@over("journal", "quorum-vnos", "quorum-fnos")
def test_checkpoints_under_concurrent_writers_and_flushes(tmp_path, key, kind):
    """More writers than cores (full-sync and buffered) and a 1 ms flusher
    race 20 checkpoints, with thread switches forced often: no error
    escapes (a checkpoint that rotated files under a writer made its write
    raise ``ValueError``), and recovery returns exactly the appends made
    after the last checkpoint, in LSN order."""
    backend = kind.open(tmp_path, key, sync=False)
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


def test_backends_state_the_largest_flush_they_take(tmp_path, key):
    assert {kind.id: kind.open(tmp_path / kind.id, key).max_flush for kind in KINDS.values()} == {
        "journal": None, "plain": None, "plain-padded": SLOT, "quorum-vnos": SLOT, "quorum-fnos": 2 * SLOT,
    }


class TestRecordOverTheLargestFlush:
    """A record the backend can never take is refused before it is
    buffered, so it cannot wedge the engine."""

    def fnos(self, root, key):
        registry, replicas = build_cluster(30)
        return QuorumBackend(root, key, replicas, registry,
                             config=QuorumConfig(segment_size=128, max_write_size=512),
                             scheme=SelectionScheme.FNOS, seed=1)

    def test_quorum_refuses_it_and_keeps_working(self, tmp_path, key, disk):
        backend = self.fnos(tmp_path, key)
        engine = WalEngine(backend)
        engine.append(b"before" * 5, full_sync=True)
        disk.events.clear()
        with pytest.raises(RecordTooLarge):
            engine.append(b"x" * 500, full_sync=True)  # 516 B encoded, over MS = 512
        assert disk.events == [] and engine.slot.ssn == 1
        engine.append(b"y" * 40, full_sync=True)
        engine.close()
        assert [name for name, _ in disk.events][-1] == "close"
        assert [r.payload for r in backend.recover()] == [pad4(b"before" * 5), b"y" * 40]

    def test_quorum_buffered_appends_flush_within_the_largest_flush(self, tmp_path, key):
        backend = self.fnos(tmp_path, key)
        engine = WalEngine(backend)  # the default 128 KiB slot
        for i in range(20):
            engine.append(bytes([i]) * 40)
        engine.close()
        assert [r.payload for r in backend.recover()] == [bytes([i]) * 40 for i in range(20)]


def test_a_failed_periodic_flush_is_raised_by_the_next_call(tmp_path, key, disk):
    engine = WalEngine(JournalBackend(tmp_path, key, 128), flush_interval_ms=5)
    disk.fail = {"sync"}
    engine.append(b"buffered" * 4)
    deadline = time.monotonic() + 5
    while not any(name == "sync" for name, _ in disk.events) and time.monotonic() < deadline:
        time.sleep(0.005)
    time.sleep(0.1)  # time for the flusher to keep its error and stop
    syncs = [name for name, _ in disk.events].count("sync")
    assert syncs == 1
    with pytest.raises(DurabilityError):
        engine.append(b"later")
    with pytest.raises(DurabilityError):
        engine.flush()
    disk.events.clear()
    with pytest.raises(DurabilityError):
        engine.close()
    assert [name for name, _ in disk.events] == ["resize", "close"]  # closed all the same
