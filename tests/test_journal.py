"""Journal backend: appends, checkpoints (which delete old files), and crash
recovery. A property every backend shares runs here once per kind of the
backend matrix (``conftest.KINDS``), with ``kind`` as its argument."""

import os
import random
import tracemalloc

import pytest

from evenlog import crypto
from evenlog.engine import WalEngine
from evenlog.errors import DurabilityError, InvalidSegmentSize, RecordTooLarge, RecoveryCorruption, WalError
from evenlog.journal import (
    JournalBackend,
    PlainJournalBackend,
    READ_SIZE,
    RESERVE_SIZE,
    SIDECAR_NAME,
    epoch_filename,
    list_epoch_fids,
    read_sidecar,
    recover_journal,
)
from evenlog.observe import StorageTrace
from evenlog.quorum import Replica
from evenlog.records import HEADER_SIZE, encode_record

from .conftest import KINDS, MUTATING, crash, current_file, iter_records, over, pad4


class TestAppendSegments:
    """``persist_slot`` appends one stored unit per segment of the flush."""

    def test_three_segments_grow_file_by_three_units(self, tmp_path, key):
        backend = JournalBackend(tmp_path, key)
        path = tmp_path / epoch_filename("journal", backend.current_file_id)
        backend.persist_slot(os.urandom(3 * 128))
        backend.close()
        assert path.stat().st_size == 3 * (128 + 16)

    def test_empty_list_no_size_change(self, tmp_path, key):
        backend = JournalBackend(tmp_path, key)
        backend.persist_slot(b"")
        assert (tmp_path / epoch_filename("journal", backend.current_file_id)).stat().st_size == 0

    def test_consecutive_appends_strictly_ordered_by_offset(self, tmp_path, key):
        backend = JournalBackend(tmp_path, key)
        first = backend.persist_slot(os.urandom(128))
        second = backend.persist_slot(os.urandom(128))
        assert first.file_id == second.file_id
        assert second.offset == first.offset + 144

    def test_wrong_segment_size_rejected(self, tmp_path, key):
        with pytest.raises(InvalidSegmentSize):
            JournalBackend(tmp_path, key, 100)

    def test_fixed_size_trace(self, tmp_path, key):
        trace = StorageTrace()
        backend = JournalBackend(tmp_path, key, trace=trace)
        engine = WalEngine(backend)
        for n in (1, 100, 999, 5000):
            engine.append(os.urandom(n), full_sync=True)
        assert trace.distinct_sizes(StorageTrace.JOURNAL) == {144}


class TestWritePath:
    """A flush reaches the file in one write call, as the cipher made it."""

    SLOT_UNITS = 1024  # a full 128 KiB slot of 128-byte segments

    def test_full_slot_flush_is_one_write_call(self, tmp_path, key, disk):
        backend = JournalBackend(tmp_path, key)
        backend.persist_slot(os.urandom(128))  # the first flush also grows the file and syncs the directory
        disk.events.clear()
        backend.persist_slot(os.urandom(self.SLOT_UNITS * 128))
        assert [name for name, _ in disk.events] == ["append", "sync"]
        _, data, offset = disk.events[0][1]
        assert (len(data), offset) == (self.SLOT_UNITS * 144, 144)
        assert backend.trace.write_count(StorageTrace.JOURNAL) == 1 + self.SLOT_UNITS

    def test_file_is_the_stored_units_in_flush_order(self, tmp_path, key, monkeypatch):
        made, encrypt = [], crypto.encrypt_stream

        def recording_encrypt(*args):
            made.append(encrypt(*args))
            return made[-1]

        monkeypatch.setattr(crypto, "encrypt_stream", recording_encrypt)
        backend = JournalBackend(tmp_path, key)
        slots = [os.urandom(n * 128) for n in (self.SLOT_UNITS, 3, self.SLOT_UNITS)]
        for slot in slots:
            backend.persist_slot(slot)
        backend.close()
        data = (tmp_path / epoch_filename("journal", backend.current_file_id)).read_bytes()
        assert data == b"".join(made)
        assert crypto.decrypt_stream(key, data, 128) == b"".join(slots)

    def test_partial_unit_after_full_slot_flush_is_dropped(self, tmp_path, key):
        payloads = [bytes([i + 1]) * 1000 for i in range(129)]  # 129 x 1016 B fills the slot
        slot = b"".join(encode_record(p) for p in payloads)
        backend = JournalBackend(tmp_path, key)
        backend.persist_slot(slot)
        backend.close()
        path = tmp_path / epoch_filename("journal", backend.current_file_id)
        data = path.read_bytes()
        assert len(data) == self.SLOT_UNITS * 144
        path.write_bytes(data[: (self.SLOT_UNITS - 1) * 144 + 100])
        kept = (self.SLOT_UNITS - 1) * 128 // 1016  # records wholly inside the whole units
        assert [r.payload for r in recover_journal(tmp_path, key, 128)] == payloads[:kept]

    # not quorum: a quorum write stores its segments on the replicas before
    # its metadata blob is written
    @over("journal", "plain", "plain-padded")
    @pytest.mark.parametrize("effect", ["append", "sync"])
    def test_failed_write_or_sync_is_a_durability_error(self, tmp_path, key, disk, kind, effect):
        backend = kind.open(tmp_path, key)
        disk.fail = {effect}
        with pytest.raises(DurabilityError):
            WalEngine(backend).append(os.urandom(3 * 128), full_sync=True)
        assert backend.trace.write_count(kind.channel) == 0
        backend.close()
        if effect == "append":
            assert current_file(backend).stat().st_size == 0

    @over()
    def test_first_synced_flush_makes_the_start_file_durable(self, tmp_path, key, disk, kind):
        engine = WalEngine(kind.open(tmp_path, key))
        names = []
        for payload in (b"one", b"two"):
            disk.events.clear()
            engine.append(payload * 10, full_sync=True)
            names.append([name for name, _ in disk.events])
        # the first flush grows the new file, writes, syncs it, then syncs
        # the directory that names it; the second only writes and syncs
        assert names == [["resize", "append", "sync", "sync_dir"], ["append", "sync"]]
        engine.checkpoint()  # its file is made durable by the checkpoint itself
        disk.events.clear()
        engine.append(b"three" * 10, full_sync=True)
        assert "sync_dir" not in [name for name, _ in disk.events]

    @over()
    @pytest.mark.parametrize("sync", [True, False], ids=["sync", "no-sync"])
    def test_first_synced_flush_makes_a_new_root_durable(self, tmp_path, key, disk, kind, sync):
        # the parent of each directory the backend makes is synced, with the
        # root, by the first synced flush, not when the backend is built; an
        # existing root's parent never is
        new = tmp_path / "a" / "b"
        synced = {}
        for root in (new, tmp_path):
            steps = []
            disk.events.clear()
            engine = WalEngine(kind.open(root, key, sync=sync))
            for payload in (None, b"one", b"two"):
                if payload:
                    engine.append(payload * 10, full_sync=True)
                steps.append([args[0] for name, args in disk.events if name == "sync_dir"])
                disk.events.clear()
            synced[root] = steps
            engine.close()
        if sync:
            assert synced == {new: [[], [tmp_path / "a", tmp_path, new], []], tmp_path: [[], [tmp_path], []]}
        else:
            assert synced == {new: [[], [], []], tmp_path: [[], [], []]}

    def test_file_grows_in_reserve_steps_and_closes_at_its_last_flush(self, tmp_path, key, disk):
        backend = JournalBackend(tmp_path, key, sync=False)
        unit = 144
        per_reserve = RESERVE_SIZE // unit + 1  # flushes of one unit that pass the first reserve
        for _ in range(per_reserve):
            backend.persist_slot(os.urandom(128))
        resizes = [args[1] for name, args in disk.events if name == "resize"]
        assert resizes == [RESERVE_SIZE, 2 * RESERVE_SIZE]
        path = tmp_path / epoch_filename("journal", 0)
        assert path.stat().st_size == 2 * RESERVE_SIZE
        backend.close()
        assert path.stat().st_size == per_reserve * unit


class TestDiskFaults:
    """A file fault anywhere in a backend or a recovery is a ``WalError``,
    and recovery changes no file."""

    @over()
    @pytest.mark.parametrize("effect", ["open_append", "sync_dir", "replace"])
    def test_failed_checkpoint_is_a_durability_error(self, tmp_path, key, disk, kind, effect):
        backend = kind.open(tmp_path, key)
        engine = WalEngine(backend)
        engine.append(b"kept" * 10, full_sync=True)
        held = kind.held(backend)
        disk.fail = {effect}
        with pytest.raises(DurabilityError):
            engine.checkpoint()
        assert read_sidecar(tmp_path) is None and backend.last_checkpoint_id == 0
        assert kind.held(backend) == held  # quorum replicas drop nothing
        assert [r.payload for r in backend.recover() if not r.is_checkpoint] == [pad4(b"kept" * 10)]

    def test_sidecar_rename_that_fails_on_disk_is_a_durability_error(self, tmp_path, key):
        engine = WalEngine(JournalBackend(tmp_path, key))
        engine.append(b"kept" * 10, full_sync=True)
        (tmp_path / SIDECAR_NAME / "entry").mkdir(parents=True)  # rename(2) onto it fails
        with pytest.raises(DurabilityError):
            engine.checkpoint()
        assert SIDECAR_NAME + ".tmp" not in os.listdir(tmp_path)

    @over()
    def test_failed_recovery_read_is_a_durability_error(self, tmp_path, key, disk, kind):
        backend = kind.open(tmp_path, key)
        WalEngine(backend).append(b"kept" * 10, full_sync=True)
        disk.fail = {"read_chunks"}
        with pytest.raises(DurabilityError):
            backend.recover()

    def test_unreadable_journal_file_is_a_durability_error(self, tmp_path, key):
        WalEngine(JournalBackend(tmp_path, key)).append(b"kept" * 10, full_sync=True)
        (tmp_path / epoch_filename("journal", 5)).mkdir()  # open(2) of it fails
        with pytest.raises(DurabilityError):
            recover_journal(tmp_path, key, 128)

    @over()
    def test_root_that_is_a_file_is_a_durability_error(self, tmp_path, key, kind):
        (tmp_path / "file").write_bytes(b"x")
        with pytest.raises(DurabilityError):
            kind.open(tmp_path / "file", key)

    @over()
    def test_a_closed_backend_refuses_writes_and_checkpoints(self, tmp_path, key, disk, kind):
        trace = StorageTrace()
        backend = kind.open(tmp_path, key, trace)
        backend.persist_slot(encode_record(b"kept" * 10))
        backend.close()
        disk.events.clear()
        stored, held = trace.total_bytes(kind.channel), kind.held(backend)
        for call in (lambda: backend.persist_slot(encode_record(b"late")), lambda: backend.checkpoint(1)):
            with pytest.raises(WalError):
                call()
        assert disk.events == [] and trace.total_bytes(kind.channel) == stored and kind.held(backend) == held
        assert [r.payload for r in backend.recover()] == [pad4(b"kept" * 10)]

    @over()
    def test_recovery_makes_no_mutating_call(self, tmp_path, key, disk, kind):
        backend = kind.open(tmp_path, key)
        engine = WalEngine(backend)
        engine.append(b"one" * 10, full_sync=True)
        engine.checkpoint()
        engine.append(b"two" * 10, full_sync=True)
        engine.close()
        disk.fail, disk.events = set(MUTATING), []
        assert [r.payload for r in backend.recover()] == [pad4(b"two" * 10)]
        assert {name for name, _ in disk.events} == {"listdir", "read", "read_chunks"}


class TestRecovery:
    def test_recover_equals_unsegmented_parse(self, tmp_path, key):
        payloads = [b"A" * 100, b"B" * 184]
        slot_bytes = b"".join(encode_record(p) for p in payloads)
        oracle = [r.payload for r in iter_records(slot_bytes)]
        backend = JournalBackend(tmp_path, key)
        backend.persist_slot(slot_bytes)
        assert [r.payload for r in recover_journal(tmp_path, key, 128)] == oracle

    def test_records_span_segment_boundaries(self, tmp_path, key):
        backend = JournalBackend(tmp_path, key, 32)
        engine = WalEngine(backend)
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
            engine = WalEngine(backend)
            payloads = [rng.randbytes(rng.randint(1, 700)) for _ in range(rng.randint(1, 12))]
            for p in payloads:
                engine.append(p, full_sync=rng.random() < 0.4)
            engine.flush()
            recovered = recover_journal(root, key, segment_size)
            assert [r.payload for r in recovered] == [pad4(p) for p in payloads]

    def test_mid_stream_corruption_surfaces_with_offset(self, tmp_path, key):
        backend = JournalBackend(tmp_path, key)
        engine = WalEngine(backend)
        engine.append(b"first" * 8, full_sync=False)
        engine.append(b"second" * 8, full_sync=False)
        engine.close()
        path = tmp_path / epoch_filename("journal", backend.current_file_id)
        # rewrite the second record's length word to an implausible value
        plain = bytearray(crypto.decrypt_stream(key, path.read_bytes(), 128))
        second_at = len(encode_record(b"first" * 8))
        plain[second_at : second_at + 4] = (13).to_bytes(4, "little")
        path.write_bytes(crypto.encrypt_stream(key, bytes(plain), 128))
        with pytest.raises(RecoveryCorruption) as exc_info:
            recover_journal(tmp_path, key, 128)
        assert exc_info.value.offset == second_at

    @over()
    def test_corruption_names_its_file(self, tmp_path, key, kind):
        backend = kind.open(tmp_path, key)
        WalEngine(backend).append(b"first" * 8, full_sync=True)
        backend = kind.reopen(backend)  # a fresh file, 1
        first = encode_record(b"first" * 8)
        backend.persist_slot(first + (13).to_bytes(4, "little") + bytes(12))  # an implausible length
        with pytest.raises(RecoveryCorruption) as exc_info:
            backend.recover()
        assert (exc_info.value.fid, exc_info.value.offset) == (1, len(first))
        assert f"{backend.PREFIX} file 1, offset {len(first)}" in str(exc_info.value)


class TestCrashTruncation:
    def build(self, tmp_path, key, payloads):
        backend = JournalBackend(tmp_path, key)
        engine = WalEngine(backend)
        for p in payloads:
            engine.append(p, full_sync=True)
        engine.close()
        return tmp_path / epoch_filename("journal", backend.current_file_id)

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

    @pytest.mark.parametrize("kind, cut", [(KINDS["journal"], 144), (KINDS["journal"], 10), (KINDS["plain"], 10)],
                             ids=["whole-unit", "partial-unit", "plain"])
    def test_torn_older_file_keeps_later_writes(self, tmp_path, key, kind, cut):
        a, b, c = b"a" * 40, b"b" * 300, b"c" * 40
        engine = WalEngine(kind.open(tmp_path, key))
        for p in (a, b):  # segmented, b is 3 units, the last 3 of 4
            engine.append(p, full_sync=True)
        engine.close()
        path = tmp_path / epoch_filename("journal", 0)
        path.write_bytes(path.read_bytes()[:-cut])
        engine = WalEngine(kind.open(tmp_path, key))  # restart: c goes to file 1
        engine.append(c, full_sync=True)
        engine.close()
        assert [r.payload for r in engine.backend.recover()] == [a, c]
        assert engine.backend.current_file_id == 1


class TestReservedTail:
    """An open file runs on past its last flush in zeros; a crash leaves
    them, and recovery ends the file where the written units end."""

    @over()
    def test_crash_keeps_the_zero_tail_and_every_record(self, tmp_path, key, kind):
        backend = kind.open(tmp_path, key)
        engine = WalEngine(backend)
        payloads = [bytes([i + 1]) * (40 + 37 * i) for i in range(6)]
        for p in payloads:
            engine.append(p, full_sync=True)
        crash(backend)
        assert current_file(backend).stat().st_size == RESERVE_SIZE
        assert [r.payload for r in backend.recover()] == [pad4(p) for p in payloads]

    @over("journal", "quorum-vnos", "quorum-fnos")  # the plain baselines have no units
    def test_zero_or_torn_unit_ends_the_file(self, tmp_path, key, kind):
        """A zero unit (a quorum metadata blob) in mid-file, or the last
        one torn at any 16-byte boundary with zeros after it, ends the file
        with no error: the units before it are recovered."""
        backend = kind.open(tmp_path, key)
        engine = WalEngine(backend)
        payloads = [bytes([i + 1]) * 40 for i in range(5)]  # one unit, or one blob, each
        for p in payloads:
            engine.append(p, full_sync=True)
        crash(backend)
        (unit,) = backend.trace.distinct_sizes(backend.CHANNEL)
        path = current_file(backend)
        data = path.read_bytes()[: 5 * unit]
        cases = [(data[:unit] + bytes(unit) + data[2 * unit :], 1)]
        cases += [(data[: 4 * unit + keep] + bytes(unit - keep), 4) for keep in range(0, unit, 16)]
        for stored, kept in cases:
            path.write_bytes(stored)
            assert [r.payload for r in backend.recover()] == payloads[:kept]

    def test_unit_torn_before_zeros_is_a_torn_tail(self, tmp_path, key):
        """A flush torn at any 16-byte boundary (a sector boundary is one)
        with zeros after it: recovery keeps the records of the whole units
        before the torn one, and raises nothing."""
        rng = random.Random(5)
        first = [rng.randbytes(rng.randint(1, 60)) for _ in range(3)]
        torn = [rng.randbytes(rng.randint(1, 60)) for _ in range(12)]
        backend = JournalBackend(tmp_path, key)
        engine = WalEngine(backend)
        for group in (first, torn):  # one flush each
            for p in group:
                engine.append(p)
            engine.flush()
        start = -(-sum(len(encode_record(p)) for p in first) // 128)  # units of the first flush
        ends, pos = [], start * 128
        for p in torn:
            pos += len(encode_record(p))
            ends.append(pos)
        crash(backend)
        path = tmp_path / epoch_filename("journal", 0)
        data = path.read_bytes()
        for cut in range(start * 144, -(-ends[-1] // 128) * 144, 16):
            path.write_bytes(data[:cut] + bytes(len(data) - cut))
            whole = cut // 144 * 128  # plaintext bytes in units before the torn one
            expected = [pad4(p) for p in first] + [pad4(p) for p, end in zip(torn, ends) if end <= whole]
            assert [r.payload for r in recover_journal(tmp_path, key, 128)] == expected, f"cut at {cut}"


class TestChunkedRecovery:
    """Recovery reads, decrypts and scans each file in bounded chunks."""

    @over()
    def test_memory_stays_within_a_few_reads(self, tmp_path, key, kind):
        backend = kind.open(tmp_path, key, sync=False)
        engine = WalEngine(backend)
        # buffered, in 128 KiB slot flushes; a backend with a largest flush
        # takes one record per flush, as a full-sync writer makes them
        one_per_flush = backend.max_flush is not None
        rng = random.Random(10 if one_per_flush else 9)
        payloads = [rng.randbytes(rng.randint(100, 900 if one_per_flush else 700))
                    for _ in range(8000 if one_per_flush else 21000)]
        for p in payloads:
            engine.append(p, full_sync=one_per_flush)
        engine.close()
        assert backend.stats().padded_bytes > 4 * 2**20  # more than recovery may hold
        records, extra = self.recover_measured(backend)
        assert [r.payload for r in records] == [pad4(p) for p in payloads]
        assert extra <= 4 * 2**20

    @over("quorum-vnos", "quorum-fnos")
    def test_memory_stays_within_a_few_reads_when_slots_are_full(self, tmp_path, key, kind):
        # buffered appends fill every slot to the largest flush, so each
        # metadata blob stands for K whole segments
        backend = kind.open(tmp_path, key, sync=False)
        engine = WalEngine(backend)
        rng = random.Random(9)
        payloads = [rng.randbytes(rng.randint(100, 700)) for _ in range(8000)]
        for p in payloads:
            engine.append(p)
        engine.close()
        records, extra = self.recover_measured(backend)
        assert [r.payload for r in records] == [pad4(p) for p in payloads]
        assert extra <= 4 * 2**20

    @staticmethod
    def recover_measured(backend):
        """The records ``backend`` recovers, and the most memory recovery
        held beyond them."""
        tracemalloc.start()
        try:
            records = backend.recover()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return records, peak - held

    # the other kinds refuse a record this large; c's flush is c_stored bytes
    @pytest.mark.parametrize("kind, c_stored", [(KINDS["journal"], 144), (KINDS["plain"], 56)],
                             ids=["journal", "plain"])
    @pytest.mark.parametrize("cut", [None, "middle", "last-byte"])
    def test_oversize_record_spans_reads(self, tmp_path, key, kind, c_stored, cut):
        rng = random.Random(3)
        a, big, c, d = b"a" * 40, rng.randbytes(3 * READ_SIZE + 12), b"c" * 40, b"d" * 40
        engine = WalEngine(kind.open(tmp_path, key))
        for p in (a, big, c):  # big is one standalone flush over three reads long
            engine.append(p, full_sync=True)
        engine.close()
        if cut is None:
            assert [r.payload for r in engine.backend.recover()] == [a, big, c]
            return
        path = tmp_path / epoch_filename("journal", 0)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2 if cut == "middle" else len(data) - c_stored - 1])
        engine = WalEngine(kind.open(tmp_path, key))  # restart: d goes to file 1
        engine.append(d, full_sync=True)
        engine.close()
        assert [r.payload for r in engine.backend.recover()] == [a, d]

    def test_torn_tail_stops_reading_its_file(self, tmp_path, key, monkeypatch):
        engine = WalEngine(JournalBackend(tmp_path, key))
        for _ in range(3 * READ_SIZE // 1000):
            engine.append(b"x" * 984)
        engine.close()
        path = tmp_path / epoch_filename("journal", 0)
        plain = bytearray(crypto.decrypt_stream(key, path.read_bytes(), 128))
        plain[HEADER_SIZE + 1] ^= 1  # the first record fails its checksum
        path.write_bytes(crypto.encrypt_stream(key, bytes(plain), 128))
        decrypted = []

        def decrypt_stream(key, units, segment_size, real=crypto.decrypt_stream):
            decrypted.append(len(units))
            return real(key, units, segment_size)

        monkeypatch.setattr(crypto, "decrypt_stream", decrypt_stream)
        assert recover_journal(tmp_path, key, 128) == []
        assert sum(decrypted) <= READ_SIZE < len(plain)


class TestCheckpoint:
    def test_first_checkpoint_writes_sidecar(self, tmp_path, key):
        engine = WalEngine(JournalBackend(tmp_path, key))
        engine.append(b"before" * 10, full_sync=True)
        marker = engine.checkpoint()
        assert marker.ckpt_id == 1
        ckpt_id, fid, offset = read_sidecar(tmp_path)
        assert (ckpt_id, fid, offset) == (1, marker.lsn.file_id, 0)
        assert (tmp_path / epoch_filename("journal", fid)).exists()

    def test_recovery_starts_at_checkpoint(self, tmp_path, key):
        engine = WalEngine(JournalBackend(tmp_path, key))
        engine.append(b"old-data" * 5, full_sync=True)
        engine.checkpoint()
        engine.append(b"new-data" * 5, full_sync=True)
        recovered = recover_journal(tmp_path, key, 128)
        assert [r.payload for r in recovered] == [pad4(b"new-data" * 5)]

    def test_checkpoint_record_flagged_in_prior_epoch(self, tmp_path, key, disk):
        engine = WalEngine(JournalBackend(tmp_path, key))
        engine.append(b"data" * 8, full_sync=True)
        engine.checkpoint()
        # the checkpoint deletes the old file: its last write, just before
        # the next file opens, holds the flagged record
        rotated = [i for i, (name, _) in enumerate(disk.events) if name == "open_append"][1]
        _, data, _ = [args for name, args in disk.events[:rotated] if name == "append"][-1]
        from evenlog.records import scan_padded_stream

        records = scan_padded_stream([crypto.decrypt_stream(key, data, 128)])
        assert records[-1].is_checkpoint

    def test_two_checkpoints_increment_id(self, tmp_path, key):
        engine = WalEngine(JournalBackend(tmp_path, key))
        engine.append(b"a" * 20, full_sync=True)
        first = engine.checkpoint()
        engine.append(b"b" * 20, full_sync=True)
        second = engine.checkpoint()
        assert (first.ckpt_id, second.ckpt_id) == (1, 2)

    def test_crash_before_sidecar_rename_keeps_old_checkpoint(self, tmp_path, key, disk):
        backend = JournalBackend(tmp_path, key)
        engine = WalEngine(backend)
        engine.append(b"epoch1" * 4, full_sync=True)
        engine.checkpoint()
        engine.append(b"epoch2" * 4, full_sync=True)

        # the second checkpoint flushes its record and creates the next
        # file, then fails to rename the sidecar: checkpoint 1 stays
        disk.fail = {"replace"}
        with pytest.raises(DurabilityError):
            engine.checkpoint()
        assert read_sidecar(tmp_path)[0] == 1 and backend.last_checkpoint_id == 1
        recovered = recover_journal(tmp_path, key, 128)
        payloads = [r.payload for r in recovered if not r.is_checkpoint]
        assert payloads == [pad4(b"epoch2" * 4)]

    def test_restart_after_checkpoint_continues_ids(self, tmp_path, key):
        engine = WalEngine(JournalBackend(tmp_path, key))
        engine.append(b"x" * 40, full_sync=True)
        engine.checkpoint()
        engine.close()
        engine2 = WalEngine(JournalBackend(tmp_path, key))
        engine2.append(b"y" * 40, full_sync=True)
        assert engine2.checkpoint().ckpt_id == 2


class TestCheckpointCollects:
    """The checkpoint is the one place journal files are deleted."""

    def test_checkpoint_deletes_files_below_sidecar(self, tmp_path, key):
        engine = WalEngine(JournalBackend(tmp_path, key))
        engine.append(b"one" * 10, full_sync=True)
        engine.checkpoint()
        assert list_epoch_fids(tmp_path, "journal") == [read_sidecar(tmp_path)[1]]
        engine.append(b"two" * 10, full_sync=True)
        engine.checkpoint()
        assert list_epoch_fids(tmp_path, "journal") == [read_sidecar(tmp_path)[1]] == [2]

    def test_restart_then_checkpoint_deletes_files_in_between(self, tmp_path, key):
        engine = WalEngine(JournalBackend(tmp_path, key))
        engine.append(b"old" * 10, full_sync=True)
        engine.checkpoint()
        engine.append(b"kept" * 10, full_sync=True)
        backend = KINDS["journal"].reopen(KINDS["journal"].reopen(engine.backend))
        assert list_epoch_fids(tmp_path, "journal") == [1, 2, 3]
        engine = WalEngine(backend)
        engine.append(b"new" * 10, full_sync=True)
        assert [r.payload for r in backend.recover()] == [pad4(b"kept" * 10), pad4(b"new" * 10)]
        engine.checkpoint()
        assert list_epoch_fids(tmp_path, "journal") == [4]
        assert backend.recover() == []

    @over()
    @pytest.mark.parametrize("sync", [True, False])
    def test_directory_fsync_precedes_every_deletion(self, tmp_path, key, monkeypatch, disk, kind, sync):
        backend = kind.open(tmp_path, key, sync=sync)
        backend.persist_slot(b"\x0b" * 300)
        disk.events.clear()
        monkeypatch.setattr(Replica, "drop_before", lambda replica, fid: disk.events.append(("drop", fid)))
        backend.checkpoint(1)
        events = [name for name, _ in disk.events if name in ("sync_dir", "replace", "unlink", "drop")]
        # one directory fsync makes the new file durable, one the sidecar's
        # rename; then the old file goes, and quorum's replicas drop its segments
        syncs = ["sync_dir"] if sync else []
        assert events == syncs + ["replace"] + syncs + ["unlink"] + ["drop"] * kind.replicas

    def test_plain_checkpoint_keeps_only_the_newest_file(self, tmp_path):
        engine = WalEngine(PlainJournalBackend(tmp_path))
        engine.append(b"old" * 10, full_sync=True)
        engine.checkpoint()
        engine.append(b"new" * 10, full_sync=True)
        assert list_epoch_fids(tmp_path, "journal") == [1]
        assert [r.payload for r in engine.backend.recover()] == [pad4(b"new" * 10)]


class TestGc:
    """Without a checkpoint nothing is collected."""

    def test_single_active_file_nothing_deleted(self, tmp_path, key):
        backend = JournalBackend(tmp_path, key)
        WalEngine(backend).append(b"only" * 10, full_sync=True)
        assert list_epoch_fids(tmp_path, "journal") == [0]
        assert [r.payload for r in backend.recover()] == [pad4(b"only" * 10)]

    def test_gc_without_sidecar_is_noop(self, tmp_path, key):
        backend = JournalBackend(tmp_path, key)
        payloads = [b"a" * 10, b"b" * 10, b"c" * 10]
        for p in payloads:
            WalEngine(backend).append(p, full_sync=True)
            backend = KINDS["journal"].reopen(backend)  # each restart starts a fresh file
        assert read_sidecar(tmp_path) is None
        assert list_epoch_fids(tmp_path, "journal") == [0, 1, 2, 3]
        assert [r.payload for r in backend.recover()] == [pad4(p) for p in payloads]


class TestBaselines:
    def test_plain_backend_leaks_sizes(self, tmp_path):
        trace = StorageTrace()
        backend = PlainJournalBackend(tmp_path, trace=trace)
        engine = WalEngine(backend)
        for n in (100, 500, 900):
            engine.append(os.urandom(n), full_sync=True)
        assert trace.distinct_sizes(StorageTrace.JOURNAL) == {116, 516, 916}
        assert [r.payload for r in backend.recover()] != []

    def test_naive_backend_pads_to_slot_size(self, tmp_path):
        trace = StorageTrace()
        backend = PlainJournalBackend(tmp_path, pad_to=4096, trace=trace)
        engine = WalEngine(backend, slot_capacity=4096)
        payloads = [os.urandom(n) for n in (100, 500)]
        for p in payloads:
            engine.append(p, full_sync=True)
        assert trace.sizes(StorageTrace.JOURNAL) == {4096: 2}
        assert [r.payload for r in backend.recover()] == [pad4(p) for p in payloads]

    @pytest.mark.parametrize("pad_to", [1001, 1002, 0, -4])
    def test_naive_backend_refuses_padding_that_is_not_whole_words(self, tmp_path, pad_to):
        # recovery skips zero padding a 4-byte word at a time: a partial
        # word would shift the next flush's header and lose its records
        with pytest.raises(WalError, match="multiple of 4"):
            PlainJournalBackend(tmp_path, pad_to=pad_to, trace=StorageTrace())
        assert list_epoch_fids(tmp_path, "journal") == []

    def test_padded_backend_rejects_flush_over_pad_size(self, tmp_path):
        # pad_to is the backend's largest flush: the engine refuses a larger
        # record before it buffers it or flushes what is buffered
        backend = PlainJournalBackend(tmp_path, pad_to=4096, trace=StorageTrace())
        engine = WalEngine(backend, slot_capacity=8192)
        kept = engine.append(b"kept" * 10)
        with pytest.raises(RecordTooLarge):
            engine.append(b"\x01" * 4100)
        assert backend.trace.write_count(StorageTrace.JOURNAL) == 0
        assert engine.slot.ssn == 0 and not kept.flushed
        engine.close()  # flushes what stayed buffered: the kept record alone
        assert [r.payload for r in backend.recover()] == [b"kept" * 10]
