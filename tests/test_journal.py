"""Journal backend: appends, checkpoints, GC, and crash recovery."""

import os
import random
import struct

import pytest

from evenlog import crypto
from evenlog.engine import WalEngine
from evenlog.errors import DurabilityError, InvalidSegmentSize, RecoveryCorruption
from evenlog.journal import (
    JournalBackend,
    PlainJournalBackend,
    journal_filename,
    list_journal_fids,
    read_sidecar,
    recover_journal,
)
from evenlog.observe import StorageTrace
from evenlog.records import encode_record, iter_records
from evenlog.slots import FlushPolicy

from .conftest import pad4


def make_backend(tmp_path, key, segment_size=128, **kw):
    return JournalBackend(tmp_path, key, segment_size, **kw)


def make_engine(backend):
    return WalEngine(backend, policy=FlushPolicy(interval_ms=None))


class TestAppendSegments:
    """``persist_slot`` appends one stored unit per segment of the flush."""

    def test_three_segments_grow_file_by_three_units(self, tmp_path, key):
        backend = make_backend(tmp_path, key)
        path = tmp_path / journal_filename(backend.current_file_id)
        backend.persist_slot(os.urandom(3 * 128))
        assert path.stat().st_size == 3 * (128 + 16)

    def test_empty_list_no_size_change(self, tmp_path, key):
        backend = make_backend(tmp_path, key)
        backend.persist_slot(b"")
        assert (tmp_path / journal_filename(backend.current_file_id)).stat().st_size == 0

    def test_consecutive_appends_strictly_ordered_by_offset(self, tmp_path, key):
        backend = make_backend(tmp_path, key)
        first = backend.persist_slot(os.urandom(128))
        second = backend.persist_slot(os.urandom(128))
        assert first.file_id == second.file_id
        assert second.offset == first.offset + 144

    def test_wrong_segment_size_rejected(self, tmp_path, key):
        with pytest.raises(InvalidSegmentSize):
            make_backend(tmp_path, key, segment_size=100)

    def test_fixed_size_trace(self, tmp_path, key):
        trace = StorageTrace()
        backend = make_backend(tmp_path, key, trace=trace)
        engine = make_engine(backend)
        for n in (1, 100, 999, 5000):
            engine.append(os.urandom(n), full_sync=True)
        assert trace.distinct_sizes(StorageTrace.JOURNAL) == {144}


class TestRecovery:
    def test_recover_equals_unsegmented_parse(self, tmp_path, key):
        payloads = [b"A" * 100, b"B" * 184]
        slot_bytes = b"".join(encode_record(p) for p in payloads)
        oracle = [r.payload for r in iter_records(slot_bytes)]
        backend = make_backend(tmp_path, key)
        backend.persist_slot(slot_bytes)
        assert [r.payload for r in recover_journal(tmp_path, key, 128)] == oracle

    def test_records_span_segment_boundaries(self, tmp_path, key):
        backend = make_backend(tmp_path, key, segment_size=32)
        engine = make_engine(backend)
        payloads = [os.urandom(n) for n in (100, 31, 64, 200)]
        for p in payloads:
            engine.append(p, full_sync=True)
        assert [r.payload for r in recover_journal(tmp_path, key, 32)] == [pad4(p) for p in payloads]

    def test_empty_dir_recovers_nothing(self, tmp_path, key):
        assert recover_journal(tmp_path, key, 128) == []

    def test_randomized_equivalence_multiple_segment_sizes(self, tmp_path, key):
        rng = random.Random(99)
        for trial in range(20):
            segment_size = rng.choice([32, 64, 128, 512])
            root = tmp_path / f"t{trial}"
            backend = JournalBackend(root, key, segment_size, sync=False)
            engine = make_engine(backend)
            payloads = [rng.randbytes(rng.randint(1, 700)) for _ in range(rng.randint(1, 12))]
            for p in payloads:
                engine.append(p, full_sync=rng.random() < 0.4)
            engine.flush()
            recovered = recover_journal(root, key, segment_size)
            assert [r.payload for r in recovered] == [pad4(p) for p in payloads]

    def test_mid_stream_corruption_surfaces_with_offset(self, tmp_path, key):
        backend = make_backend(tmp_path, key)
        engine = make_engine(backend)
        engine.append(b"first" * 8, full_sync=False)
        engine.append(b"second" * 8, full_sync=False)
        engine.flush()
        path = tmp_path / journal_filename(backend.current_file_id)
        # rewrite the second record's length word to an implausible value
        plain = bytearray(crypto.decrypt_stream(key, path.read_bytes(), 128))
        second_at = len(encode_record(b"first" * 8))
        plain[second_at : second_at + 4] = (13).to_bytes(4, "little")
        path.write_bytes(crypto.encrypt_stream(key, bytes(plain), 128))
        with pytest.raises(RecoveryCorruption) as exc_info:
            recover_journal(tmp_path, key, 128)
        assert exc_info.value.offset == second_at


class TestCrashTruncation:
    def build(self, tmp_path, key, payloads, segment_size=128):
        backend = make_backend(tmp_path, key, segment_size)
        engine = make_engine(backend)
        for p in payloads:
            engine.append(p, full_sync=True)
        engine.close()
        return tmp_path / journal_filename(backend.current_file_id)

    def test_truncation_at_every_unit_boundary_recovers_prefix(self, tmp_path, key):
        payloads = [bytes([i]) * (40 + i) for i in range(10)]
        path = self.build(tmp_path, key, payloads)
        segment_size, unit = 128, 144
        data = path.read_bytes()
        n_units = len(data) // unit

        # stream-offset oracle: record i ends at a known padded-stream offset
        ends, pos = [], 0
        for p in payloads:
            rec_len = len(encode_record(p))
            ends.append(pos + rec_len)
            pos += rec_len
            pos += (-pos) % segment_size  # each flush is padded out

        for cut_units in range(n_units + 1):
            path.write_bytes(data[: cut_units * unit])
            expected = [pad4(p) for p, end in zip(payloads, ends) if end <= cut_units * segment_size]
            got = [r.payload for r in recover_journal(tmp_path, key, segment_size)]
            assert got == expected, f"cut at {cut_units} units"
        path.write_bytes(data)

    def test_torn_partial_unit_is_dropped(self, tmp_path, key):
        payloads = [b"steady" * 30] * 3
        path = self.build(tmp_path, key, payloads)
        data = path.read_bytes()
        for extra in (1, 17, 143):
            path.write_bytes(data[: 2 * 144 + extra])
            recovered = recover_journal(tmp_path, key, 128)
            assert [r.payload for r in recovered] == [pad4(payloads[0])]


class TestCheckpoint:
    def test_first_checkpoint_writes_sidecar(self, tmp_path, key):
        engine = make_engine(make_backend(tmp_path, key))
        engine.append(b"before" * 10, full_sync=True)
        marker = engine.checkpoint()
        assert marker.ckpt_id == 1
        ckpt_id, fid, offset = read_sidecar(tmp_path)
        assert (ckpt_id, fid, offset) == (1, marker.lsn.file_id, 0)
        assert (tmp_path / journal_filename(fid)).exists()

    def test_recovery_starts_at_checkpoint(self, tmp_path, key):
        engine = make_engine(make_backend(tmp_path, key))
        engine.append(b"old-data" * 5, full_sync=True)
        engine.checkpoint()
        engine.append(b"new-data" * 5, full_sync=True)
        recovered = recover_journal(tmp_path, key, 128)
        assert [r.payload for r in recovered] == [pad4(b"new-data" * 5)]

    def test_checkpoint_record_flagged_in_prior_epoch(self, tmp_path, key):
        backend = make_backend(tmp_path, key)
        engine = make_engine(backend)
        engine.append(b"data" * 8, full_sync=True)
        old_fid = backend.current_file_id
        engine.checkpoint()
        # the pre-checkpoint epoch holds the flagged record
        from evenlog.records import scan_padded_stream

        data = (tmp_path / journal_filename(old_fid)).read_bytes()
        records = scan_padded_stream(crypto.decrypt_stream(key, data, 128))
        assert records[-1].is_checkpoint

    def test_two_checkpoints_increment_id(self, tmp_path, key):
        engine = make_engine(make_backend(tmp_path, key))
        engine.append(b"a" * 20, full_sync=True)
        first = engine.checkpoint()
        engine.append(b"b" * 20, full_sync=True)
        second = engine.checkpoint()
        assert (first.ckpt_id, second.ckpt_id) == (1, 2)

    def test_crash_before_sidecar_rename_keeps_old_checkpoint(self, tmp_path, key):
        backend = make_backend(tmp_path, key)
        engine = make_engine(backend)
        engine.append(b"epoch1" * 4, full_sync=True)
        engine.checkpoint()
        engine.append(b"epoch2" * 4, full_sync=True)

        # drive the second checkpoint's steps manually and crash between them
        ckpt_id = backend.last_checkpoint_id + 1
        engine.append(struct.pack("<Q", ckpt_id), flags=1, full_sync=True)
        backend._create_file(backend.current_file_id + 1)
        # crash here: sidecar never renamed; new engine must see checkpoint 1
        assert read_sidecar(tmp_path)[0] == 1
        recovered = recover_journal(tmp_path, key, 128)
        payloads = [r.payload for r in recovered if not r.is_checkpoint]
        assert payloads == [pad4(b"epoch2" * 4)]

    def test_restart_after_checkpoint_continues_ids(self, tmp_path, key):
        engine = make_engine(make_backend(tmp_path, key))
        engine.append(b"x" * 40, full_sync=True)
        engine.checkpoint()
        engine.close()
        engine2 = make_engine(make_backend(tmp_path, key))
        engine2.append(b"y" * 40, full_sync=True)
        assert engine2.checkpoint().ckpt_id == 2


class TestGc:
    def test_single_active_file_nothing_deleted(self, tmp_path, key):
        backend = make_backend(tmp_path, key)
        make_engine(backend).append(b"only" * 10, full_sync=True)
        assert backend.gc() == 0

    def test_gc_deletes_files_before_checkpoint(self, tmp_path, key):
        backend = make_backend(tmp_path, key)
        engine = make_engine(backend)
        engine.append(b"one" * 10, full_sync=True)
        engine.checkpoint()
        engine.append(b"two" * 10, full_sync=True)
        engine.checkpoint()
        ckpt_fid = read_sidecar(tmp_path)[1]
        deleted = backend.gc()
        assert deleted >= 1
        assert all(fid >= ckpt_fid for fid in list_journal_fids(tmp_path))
        assert backend.gc() == 0  # idempotent

    def test_gc_without_sidecar_is_noop(self, tmp_path, key):
        backend = make_backend(tmp_path, key)
        make_engine(backend).append(b"z" * 10, full_sync=True)
        assert backend.gc() == 0


class TestBaselines:
    def test_plain_backend_leaks_sizes(self, tmp_path):
        trace = StorageTrace()
        backend = PlainJournalBackend(tmp_path, trace=trace)
        engine = make_engine(backend)
        for n in (100, 500, 900):
            engine.append(os.urandom(n), full_sync=True)
        assert trace.distinct_sizes(StorageTrace.JOURNAL) == {116, 516, 916}
        assert [r.payload for r in backend.recover()] != []

    def test_naive_backend_pads_to_slot_size(self, tmp_path):
        trace = StorageTrace()
        backend = PlainJournalBackend(tmp_path, pad_to=4096, trace=trace)
        engine = WalEngine(backend, slot_capacity=4096, policy=FlushPolicy(interval_ms=None))
        payloads = [os.urandom(n) for n in (100, 500)]
        for p in payloads:
            engine.append(p, full_sync=True)
        assert trace.sizes(StorageTrace.JOURNAL) == {4096: 2}
        assert [r.payload for r in backend.recover()] == [pad4(p) for p in payloads]

    def test_padded_backend_rejects_flush_over_pad_size(self, tmp_path):
        backend = PlainJournalBackend(tmp_path, pad_to=4096, trace=StorageTrace())
        with pytest.raises(DurabilityError):
            backend.persist_slot(b"\x01" * 4100)
        assert backend.trace.write_count(StorageTrace.JOURNAL) == 0
