"""Slot buffering, the periodic flusher, and append concurrency."""

import threading
import time

import pytest

from evenlog.engine import WalEngine
from evenlog.errors import DurabilityError
from evenlog.records import encode_record
from evenlog.slots import PeriodicFlusher, Slot

from .conftest import iter_records, pad4


class MemoryBackend:
    """Collects flushes; can be told to fail."""

    def __init__(self):
        self.flushes = []
        self.fail = False
        self.current_file_id = self.last_checkpoint_id = 0
        self.max_flush = None

    def persist_slot(self, slot_bytes):
        if self.fail:
            raise DurabilityError("injected")
        self.flushes.append(slot_bytes)

    def close(self):
        pass


@pytest.fixture
def backend():
    return MemoryBackend()


class TestAppend:
    def test_small_record_is_buffered_not_flushed(self, backend):
        slot = Slot(backend)
        result = slot.append(encode_record(b"p" * 100))
        assert not result.flushed
        assert backend.flushes == [] and slot.ssn == 0
        slot.flush()
        assert backend.flushes == [encode_record(b"p" * 100)] and len(backend.flushes[0]) == 116

    def test_overflow_flushes_prior_contents_first(self, backend):
        slot = Slot(backend, 131072)
        filler = encode_record(b"f" * (131000 - 16))
        assert len(filler) == 131000
        slot.append(filler)
        result = slot.append(encode_record(b"n" * 100))
        assert backend.flushes == [filler] and slot.ssn == 1
        assert not result.flushed  # the new record itself is still volatile
        slot.flush()
        assert backend.flushes == [filler, encode_record(b"n" * 100)]

    def test_full_sync_flushes_and_reports_durable(self, backend):
        slot = Slot(backend)
        result = slot.append(encode_record(b"s" * 100), full_sync=True)
        assert result.flushed
        assert backend.flushes == [encode_record(b"s" * 100)] and slot.ssn == 1
        slot.flush()  # nothing is left buffered
        assert len(backend.flushes) == 1 and slot.ssn == 1

    def test_oversize_record_is_own_flush(self, backend):
        slot = Slot(backend, 256)
        slot.append(encode_record(b"k" * 64))
        big = encode_record(b"B" * 1000)
        result = slot.append(big)
        assert result.flushed
        assert backend.flushes == [encode_record(b"k" * 64), big] and slot.ssn == 2
        slot.flush()  # nothing is left buffered
        assert len(backend.flushes) == 2 and slot.ssn == 2

    def test_lsn_strictly_increasing_in_append_order(self, backend):
        slot = Slot(backend)
        offsets = [slot.append(encode_record(b"r" * n)).lsn.offset for n in (10, 20, 30)]
        assert offsets == sorted(offsets) and len(set(offsets)) == 3
        assert offsets[1] - offsets[0] == len(encode_record(b"r" * 10))


class TestFlush:
    def test_empty_flush_is_noop(self, backend):
        slot = Slot(backend)
        slot.flush()
        assert backend.flushes == []
        assert slot.ssn == 0

    def test_flush_hands_buffer_as_one_unit(self, backend):
        slot = Slot(backend)
        records = [encode_record(bytes([i]) * 40) for i in range(3)]
        for r in records:
            slot.append(r)
        slot.flush()
        assert backend.flushes == [b"".join(records)]

    def test_ssn_strictly_increasing_across_flushes(self, backend):
        slot = Slot(backend)
        ssns = []
        for _ in range(3):
            slot.append(encode_record(b"x" * 8))
            ssns.append(slot.ssn)
            slot.flush()
        assert ssns == [0, 1, 2] and slot.ssn == 3

    def test_a_failed_flush_stops_the_slot(self, backend):
        slot = Slot(backend)
        slot.append(encode_record(b"keep" * 10))
        backend.fail = True
        with pytest.raises(DurabilityError) as failed:
            slot.flush()
        backend.fail = False
        late = encode_record(b"late")
        for call in (lambda: slot.append(late), lambda: slot.append(late, full_sync=True),
                     slot.flush, slot.checkpoint):
            with pytest.raises(DurabilityError) as later:
                call()
            assert later.value is failed.value
        assert backend.flushes == []  # never retried

    def test_every_flush_parses_as_whole_records(self, backend):
        slot = Slot(backend, 600)
        payloads = [bytes([i]) * (20 + 7 * i) for i in range(30)]
        for p in payloads:
            slot.append(encode_record(p))
        slot.flush()
        parsed = [r.payload for blob in backend.flushes for r in iter_records(blob)]
        assert parsed == [pad4(p) for p in payloads]


class TestConcurrency:
    def test_concurrent_appends_are_linearizable(self, backend):
        slot = Slot(backend, 4096)
        n_threads, per_thread = 8, 200

        def appender(tid):
            for i in range(per_thread):
                slot.append(encode_record(bytes([tid]) * 20))

        threads = [threading.Thread(target=appender, args=(t,)) for t in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        slot.flush()
        records = [r for blob in backend.flushes for r in iter_records(blob)]
        assert len(records) == n_threads * per_thread
        # per-thread order is preserved even though threads interleave
        by_thread = {}
        for r in records:
            by_thread.setdefault(r.payload[0], []).append(r.payload)
        assert all(len(v) == per_thread for v in by_thread.values())


def test_periodic_flusher_drives_flush():
    calls = []
    flusher = PeriodicFlusher(lambda: calls.append(1), interval_ms=5)
    flusher.start()
    time.sleep(0.1)
    flusher.stop()
    assert len(calls) >= 3
    n = len(calls)
    time.sleep(0.03)
    assert len(calls) == n  # stopped means stopped


def test_flush_policy_default_interval(backend):
    # the engine's flush interval defaults to none: no timer drains the slot
    engine = WalEngine(backend)
    engine.append(b"buffered")
    time.sleep(0.05)
    assert backend.flushes == []
    engine.close()
    assert backend.flushes == [encode_record(b"buffered")]
