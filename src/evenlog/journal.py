"""The epoch-file layer and the on-disk journal backends.

``JournalBackend`` is the size-uniform engine: every slot flush is split
into fixed-size segments, each encrypted into a stored unit of exactly
S + 16 bytes, so the storage layer sees a single write size no matter
what the workload does. ``PlainJournalBackend`` is the unprotected
baseline that writes slot bytes as-is, or zero-padded to ``pad_to``
bytes; it exists for byte accounting, recovery-time comparison, and
demonstrating the size leak the segmented engine removes.

Both, and ``quorum.QuorumBackend``'s metadata files, sit on
``JournalFiles``: the backends differ only in what a flush becomes on
disk and how a file is read back. Files are named ``<PREFIX>.<fid>``
(fid as 10 decimal digits, see ``list_epoch_fids``); a backend instance
always appends to a fresh file. The checkpoint sidecar ``CHECKPOINT``
holds 20 bytes, little-endian:

    [ckpt_id u64][fid u32][offset u64]

``Slot.checkpoint`` flushes a flagged record through the normal slot
path; ``JournalFiles.checkpoint`` then, under the same hold of the
slot's lock, creates the next file and commits by atomically replacing
the sidecar (write-temp-then-rename). A crash anywhere before the rename
leaves the previous checkpoint in force. Only after the rename does the
checkpoint delete the files below the sidecar fid; recovery never reads
them, so one that survives a crash is harmless and the next checkpoint
deletes it. Recovery reads every file from the sidecar position on and
scans each on its own, a chunk of whole units (``READ_SIZE``) at a time:
each chunk is read, decoded and scanned before the next is read, so
recovery holds a few chunks plus the largest record, not the journal.
``JournalFiles._append`` is the one write-and-sync path of every
backend.
"""

from __future__ import annotations

import os
import re
import struct
from pathlib import Path
from typing import Iterable, Iterator

from . import crypto
from .errors import DurabilityError, RecoveryCorruption, StorageNotFound, WalError
from .observe import StorageTrace
from .records import LogRecord, Lsn, scan_padded_stream
from .segmentation import check_segment_size, pad_to_segments
from .slots import BackendStats, CheckpointMarker

SIDECAR_NAME = "CHECKPOINT"
_SIDECAR = struct.Struct("<QIQ")


def epoch_filename(prefix: str, fid: int) -> str:
    return f"{prefix}.{fid:010d}"


def list_epoch_fids(root: Path, prefix: str) -> list[int]:
    """Sorted fids of the ``<prefix>.<10-digit fid>`` files in ``root``.
    Any other name, such as a temp file or a backup copy, is ignored."""
    try:
        names = os.listdir(root)
    except (FileNotFoundError, NotADirectoryError) as exc:
        raise StorageNotFound(f"{root} is not a directory") from exc
    pattern = re.compile(rf"{re.escape(prefix)}\.(\d{{10}})")
    return sorted(int(m.group(1)) for name in names if (m := pattern.fullmatch(name)))


def read_sidecar(root: Path) -> tuple[int, int, int] | None:
    """Return (ckpt_id, fid, offset) or None when no checkpoint exists."""
    path = root / SIDECAR_NAME
    if not path.exists():
        return None
    data = path.read_bytes()
    if len(data) != _SIDECAR.size:
        raise DurabilityError(f"sidecar is {len(data)} bytes, expected {_SIDECAR.size}")
    return _SIDECAR.unpack(data)


def fsync_dir(root: Path) -> None:
    """Make the directory's entries (created, renamed files) durable."""
    fd = os.open(root, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def delete_epochs_before(root: Path, prefix: str, fid: int) -> None:
    """Unlink every ``<prefix>.<fid>`` file below ``fid``. The caller has
    already made epoch ``fid`` durable, so recovery no longer reads them."""
    for old in list_epoch_fids(root, prefix):
        if old >= fid:
            break
        (root / epoch_filename(prefix, old)).unlink()


def durable_append(fh, data: bytes, sync: bool) -> None:
    """Write ``data`` to ``fh`` with one write call, flush, and sync the
    file's data when ``sync`` is set. Every backend appends here (through
    ``JournalFiles._append``); an ``OSError`` anywhere on the way becomes
    ``DurabilityError``.

    What storage observes is one ``write(2)`` of all of ``data`` per
    flush, then the sync: the ``BufferedWriter`` is empty on entry, so it
    passes ``data`` larger than its buffer straight through and writes a
    smaller one out at ``flush``. For the segmented journal ``data`` is
    whole ``S + 16`` units, so the file grows by whole units at
    unit-aligned offsets."""
    try:
        fh.write(data)
        fh.flush()
        if sync:
            os.fdatasync(fh.fileno())
    except OSError as exc:
        raise DurabilityError(str(exc)) from exc


class JournalFiles:
    """The epoch-file layer under every backend.

    An instance always appends to a fresh ``<PREFIX>.<fid>`` file (one
    past the newest on disk), so a torn tail left by a crash is never
    extended and a fid is never reused. Subclasses say what one slot
    flush becomes on disk, on which trace channel, and how to read it
    back.
    """

    PREFIX = "journal"
    CHANNEL = StorageTrace.JOURNAL

    def __init__(self, root: str | Path, trace: StorageTrace | None, sync: bool):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.trace = trace if trace is not None else StorageTrace()
        self.sync = sync
        existing = list_epoch_fids(self.root, self.PREFIX)
        sidecar = read_sidecar(self.root)
        self._ckpt_id = sidecar[0] if sidecar else 0
        self._fh = None
        self._open_file((existing[-1] + 1) if existing else 0)

    def _open_file(self, fid: int) -> None:
        if self._fh is not None:
            self._fh.close()
        self._fid = fid
        self._fh = open(self.root / epoch_filename(self.PREFIX, fid), "ab")
        self._offset = self._fh.tell()

    @property
    def current_file_id(self) -> int:
        return self._fid

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def _append(self, data: bytes, unit: int) -> Lsn:
        """Durably append ``data``, a whole number of ``unit``-byte units,
        and record it on the trace as ``len(data) // unit`` writes of
        ``unit`` bytes (the model view: storage sees the file grow by the
        whole flush at its sync). An empty flush writes and syncs nothing."""
        lsn = Lsn(self._fid, self._offset)
        if data:
            durable_append(self._fh, data, self.sync)
            self.trace.record(self.CHANNEL, unit, len(data) // unit)
            self._offset += len(data)
        return lsn

    # -- checkpoints: the one place files are deleted ------------------------

    @property
    def last_checkpoint_id(self) -> int:
        return self._ckpt_id

    def checkpoint(self, ckpt_id: int) -> CheckpointMarker:
        """Rotate to a fresh file, atomically commit the sidecar, then
        delete the files below it.

        The caller must already have flushed the checkpoint record (see
        ``WalEngine.checkpoint``). The next file is created before the
        sidecar rename so the sidecar never names a missing file.
        """
        next_fid = self._fid + 1
        self._create_file(next_fid)
        self._write_sidecar(ckpt_id, next_fid, 0)
        self._open_file(next_fid)
        self._ckpt_id = ckpt_id
        delete_epochs_before(self.root, self.PREFIX, next_fid)
        return CheckpointMarker(ckpt_id, Lsn(next_fid, 0))

    def _create_file(self, fid: int) -> None:
        (self.root / epoch_filename(self.PREFIX, fid)).touch()
        if self.sync:
            fsync_dir(self.root)

    def _write_sidecar(self, ckpt_id: int, fid: int, offset: int) -> None:
        tmp = self.root / (SIDECAR_NAME + ".tmp")
        with open(tmp, "wb") as f:
            f.write(_SIDECAR.pack(ckpt_id, fid, offset))
            f.flush()
            if self.sync:
                os.fsync(f.fileno())
        os.replace(tmp, self.root / SIDECAR_NAME)
        if self.sync:
            fsync_dir(self.root)
        self.trace.record(StorageTrace.METADATA, _SIDECAR.size)


class JournalBackend(JournalFiles):
    """Append-only journal of encrypted fixed-size stored units."""

    def __init__(
        self,
        root: str | Path,
        key: crypto.ReplicaKey,
        segment_size: int = 128,
        trace: StorageTrace | None = None,
        sync: bool = True,
    ):
        self.key = key
        self.segment_size = check_segment_size(segment_size)
        self.unit_size = segment_size + crypto.IV_SIZE
        super().__init__(root, trace, sync)

    def stats(self) -> BackendStats:
        units = self.trace.write_count(StorageTrace.JOURNAL)
        return BackendStats(units * self.segment_size, 0, units * crypto.IV_SIZE)

    def persist_slot(self, slot_bytes: bytes) -> Lsn:
        """Segment, encrypt and append one slot flush; synced on return."""
        padded = pad_to_segments(slot_bytes, self.segment_size)
        return self._append(crypto.encrypt_stream(self.key, padded, self.segment_size), self.unit_size)

    def recover(self) -> list[LogRecord]:
        return recover_journal(self.root, self.key, self.segment_size)


class PlainJournalBackend(JournalFiles):
    """Unsegmented baseline: slot flushes land on disk byte-for-byte.

    With ``pad_to=None`` the trace shows one variable-sized write per
    flush, exactly the side channel the segmented backend closes. With
    ``pad_to`` at the slot capacity it is the rejected mitigation: one
    write size, but two orders of magnitude of write amplification for
    small sequential writes. ``pad_to`` must be a positive multiple of 4:
    recovery skips the zero padding a 4-byte word at a time, so a partial
    word would shift the next flush's header and lose its records.
    """

    def __init__(self, root: str | Path, pad_to: int | None = None,
                 trace: StorageTrace | None = None, sync: bool = True):
        if pad_to is not None and (pad_to <= 0 or pad_to % 4):
            raise WalError(f"pad size {pad_to} is not a positive multiple of 4 bytes")
        self.pad_to = pad_to
        super().__init__(root, trace, sync)

    def persist_slot(self, slot_bytes: bytes) -> Lsn:
        if self.pad_to is not None:
            if len(slot_bytes) > self.pad_to:
                raise DurabilityError(f"flush of {len(slot_bytes)} bytes exceeds the slot size")
            slot_bytes += b"\x00" * (self.pad_to - len(slot_bytes))
        return self._append(slot_bytes, len(slot_bytes))

    def recover(self) -> list[LogRecord]:
        return recover_plain(self.root)

    def stats(self) -> BackendStats:
        return BackendStats(self.trace.total_bytes(StorageTrace.JOURNAL), 0, 0)


# -- recovery: every file from the sidecar position on, each scanned alone ----

# Recovery reads a file this many bytes at a time, rounded down to whole
# stored units, so its memory is bounded by a few reads plus the largest
# record, whatever the journal's size.
READ_SIZE = 1 << 20


def journal_files(root: str | Path, unit: int = 1, prefix: str = JournalFiles.PREFIX,
                  read_size: int = READ_SIZE) -> Iterator[tuple[int, Iterator[bytes]]]:
    """Yield (fid, chunks) for each ``<prefix>`` file from the last checkpoint
    on, in fid order: the sidecar's file from its offset, every later file
    whole, and every file whole when no checkpoint exists. ``chunks``
    reads the file lazily, ``read_size`` bytes rounded down to whole
    ``unit``-byte units (at least one) at a time, and drops a trailing
    partial unit."""
    root = Path(root)
    sidecar = read_sidecar(root)
    start_fid, start_off = (sidecar[1], sidecar[2]) if sidecar else (0, 0)
    size = max(1, read_size // unit) * unit
    for fid in list_epoch_fids(root, prefix):
        if fid >= start_fid:
            path = root / epoch_filename(prefix, fid)
            yield fid, _read_chunks(path, start_off if fid == start_fid else 0, size, unit)


def _read_chunks(path: Path, start: int, size: int, unit: int) -> Iterator[bytes]:
    with open(path, "rb") as f:
        f.seek(start)
        while len(chunk := f.read(size)) == size:
            yield chunk
        if whole := len(chunk) - len(chunk) % unit:
            yield chunk[:whole]


def plaintext_stream(root: str | Path, key: crypto.ReplicaKey, segment_size: int) -> Iterator[tuple[int, Iterator[bytes]]]:
    """Decrypt the journal from the last checkpoint: (fid, plaintext
    chunks) per file, each chunk read and decrypted only when the scan
    takes it. A torn trailing partial unit is dropped; record-level
    tearing is handled by the scanner."""
    check_segment_size(segment_size)
    for fid, chunks in journal_files(root, segment_size + crypto.IV_SIZE):
        # every unit decrypts under its own IV, so a chunk needs nothing
        # from the one before it
        yield fid, (crypto.decrypt_stream(key, c, segment_size) for c in chunks)


def _scan_files(files: Iterable[tuple[int, Iterable[bytes]]], prefix: str = JournalFiles.PREFIX) -> list[LogRecord]:
    """Scan each file's plaintext chunks on its own, skipping zero-word
    padding. A flush never spans files, so a torn tail ends only its
    file. A corruption is reported with the name of the file it lies in."""
    records: list[LogRecord] = []
    for fid, chunks in files:
        try:
            records += scan_padded_stream(chunks)
        except RecoveryCorruption as exc:
            exc.fid, exc.prefix = fid, prefix
            raise
    return records


def recover_journal(root: str | Path, key: crypto.ReplicaKey, segment_size: int) -> list[LogRecord]:
    """Replay the segmented journal from the last checkpoint."""
    return _scan_files(plaintext_stream(root, key, segment_size))


def recover_plain(root: str | Path) -> list[LogRecord]:
    """Replay a plain journal (see ``PlainJournalBackend``) from the last
    checkpoint. Reads only: a directory with no journal file recovers
    nothing."""
    return _scan_files(journal_files(root))
