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
backend, and every file effect of the layer, reads included, goes
through one ``Disk`` (``JournalFiles.DISK``).

An open file is sized ahead of its writes: ``_append`` grows it in
``RESERVE_SIZE`` steps and writes each flush at its offset, so a sync
seldom has a new file size to commit, and closing the file cuts it back
to its last flush. A file left by a crash may therefore end in zeros:
recovery ends it at the first unit whose last cipher block is zero
(``_written_units``), and the plain baseline's scan skips them as
padding.
"""

from __future__ import annotations

import contextlib
import os
import re
import struct
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

import numpy as np

from . import crypto
from .errors import Closed, DurabilityError, RecoveryCorruption, StorageNotFound, WalError
from .observe import StorageTrace
from .records import LogRecord, Lsn, scan_padded_stream
from .segmentation import check_segment_size, pad_to_segments
from .slots import BackendStats, CheckpointMarker

SIDECAR_NAME = "CHECKPOINT"
_SIDECAR = struct.Struct("<QIQ")

# An open file grows this many bytes at a time, ahead of the flushes
# written into it, and is cut back to its last flush when closed.
RESERVE_SIZE = 1 << 20


def epoch_filename(prefix: str, fid: int) -> str:
    return f"{prefix}.{fid:010d}"


def _effect(method):
    def effect(*args):
        try:
            return method(*args)
        except OSError as exc:
            raise DurabilityError(str(exc)) from exc
    return effect


class Disk:
    """Every OS effect of the file layer, one method each, reached only through
    ``JournalFiles.DISK`` (a test may put a double there). Here alone an ``OSError``
    becomes a ``WalError``: ``StorageNotFound`` for a root that is no directory,
    else ``DurabilityError`` (``_effect`` wraps every method but ``read_chunks``)."""

    @_effect
    def mkdir(self, root: Path) -> list[Path]:
        """Make ``root`` and its missing parents; return the directories it
        made, ``root`` first."""
        made, path = [], root
        while not path.exists():
            made.append(path)
            path = path.parent
        root.mkdir(parents=True, exist_ok=True)
        return made

    @_effect
    def listdir(self, root: Path) -> list[str]:
        try:
            return os.listdir(root)
        except (FileNotFoundError, NotADirectoryError) as exc:
            raise StorageNotFound(f"{root} is not a directory") from exc

    @_effect
    def read(self, path: Path) -> bytes | None:
        return path.read_bytes() if path.exists() else None

    def read_chunks(self, path: Path, start: int, size: int, unit: int) -> Iterator[bytes]:
        try:
            with open(path, "rb") as f:
                f.seek(start)
                while len(chunk := f.read(size)) == size:
                    yield chunk
                if whole := len(chunk) - len(chunk) % unit:
                    yield chunk[:whole]
        except OSError as exc:
            raise DurabilityError(str(exc)) from exc

    @_effect
    def open_append(self, path: Path) -> tuple[BinaryIO, int]:
        """Open ``path`` for positional writes, unbuffered, and return it
        with its size; created if missing. Not ``O_APPEND``: Linux would
        then ignore the offset of every ``pwrite``."""
        fh = open(os.open(path, os.O_RDWR | os.O_CREAT, 0o666), "r+b", buffering=0)
        return fh, fh.seek(0, os.SEEK_END)

    @_effect
    def append(self, fh: BinaryIO, data: bytes, offset: int) -> None:
        """Write ``data`` at ``offset`` in one ``pwrite(2)``, and the rest
        again should the write come back short."""
        done = os.pwrite(fh.fileno(), data, offset)
        while done < len(data):
            done += os.pwrite(fh.fileno(), memoryview(data)[done:], offset + done)

    @_effect
    def resize(self, fh: BinaryIO, size: int) -> None:
        """Grow (with zeros) or cut back the file to ``size`` bytes."""
        os.ftruncate(fh.fileno(), size)

    @_effect
    def sync(self, fh: BinaryIO) -> None:
        os.fdatasync(fh.fileno())

    @_effect
    def close(self, fh: BinaryIO) -> None:
        fh.close()

    @_effect
    def replace(self, path: Path, data: bytes, sync: bool) -> None:
        """Atomically make ``data`` the contents of ``path`` (write-temp-then-rename).
        A failure removes the temp file before it is raised."""
        tmp = path.with_name(path.name + ".tmp")
        try:
            with open(tmp, "wb") as f:
                f.write(data)
                f.flush()
                if sync:
                    os.fsync(f.fileno())
            os.replace(tmp, path)
        except OSError:
            with contextlib.suppress(OSError):
                tmp.unlink(missing_ok=True)
            raise

    @_effect
    def sync_dir(self, root: Path) -> None:
        """Make the directory's entries (created, renamed, unlinked files) durable."""
        fd = os.open(root, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    @_effect
    def unlink(self, path: Path) -> None:
        path.unlink()


def list_epoch_fids(root: Path, prefix: str) -> list[int]:
    """Sorted fids of the ``<prefix>.<10-digit fid>`` files in ``root``.
    Any other name, such as a temp file or a backup copy, is ignored."""
    names = JournalFiles.DISK.listdir(root)
    pattern = re.compile(rf"{re.escape(prefix)}\.(\d{{10}})")
    return sorted(int(m.group(1)) for name in names if (m := pattern.fullmatch(name)))


def read_sidecar(root: Path) -> tuple[int, int, int] | None:
    """Return (ckpt_id, fid, offset) or None when no checkpoint exists."""
    data = JournalFiles.DISK.read(root / SIDECAR_NAME)
    if data is None:
        return None
    if len(data) != _SIDECAR.size:
        raise DurabilityError(f"sidecar is {len(data)} bytes, expected {_SIDECAR.size}")
    return _SIDECAR.unpack(data)


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
    DISK = Disk()
    max_flush: int | None = None  # the largest flush ``persist_slot`` takes; None: any

    def __init__(self, root: str | Path, trace: StorageTrace | None, sync: bool):
        self.root = Path(root)
        self._made_dirs = self.DISK.mkdir(self.root)  # their names are synced with the first file's
        self.trace = trace if trace is not None else StorageTrace()
        self.sync = sync
        existing = list_epoch_fids(self.root, self.PREFIX)
        sidecar = read_sidecar(self.root)
        self._ckpt_id = sidecar[0] if sidecar else 0
        self._fh = None
        self._open_file((existing[-1] + 1) if existing else 0)

    def _open_file(self, fid: int) -> None:
        """Make a fresh ``fid`` file the one appended to. The current file
        is cut back to its last flush first, and closed only once the new
        one is open, so a failure leaves the backend appending as before."""
        if self._fh is not None:
            self._cut_back()
        fh, size = self.DISK.open_append(self.root / epoch_filename(self.PREFIX, fid))
        old, self._fh = self._fh, fh
        self._fid, self._offset, self._reserved = fid, size, size
        # the new name is made durable by the first synced flush into the
        # file (or by the checkpoint that made it), so opening makes no
        # extra syscall
        self._entry_synced = False
        if old is not None:
            self.DISK.close(old)

    def _cut_back(self) -> None:
        """Shrink the file from its reserved end to its last flush."""
        if self._reserved > self._offset:
            self.DISK.resize(self._fh, self._offset)
            self._reserved = self._offset

    @property
    def current_file_id(self) -> int:
        return self._fid

    def close(self) -> None:
        """Cut the file back to its last flush and close it for writes."""
        if self._fh is not None:
            try:
                self._cut_back()
            finally:
                self.DISK.close(self._fh)
                self._fh = None

    def _sync_entry(self) -> None:
        """Make the current file's name durable: sync the root and, the first
        time, the parent of each directory the constructor made, so that a
        power loss cannot drop the root with acknowledged records in it."""
        for made in self._made_dirs:
            self.DISK.sync_dir(made.parent)
        self._made_dirs = []
        self.DISK.sync_dir(self.root)
        self._entry_synced = True

    def _refuse_if_closed(self) -> None:
        if self._fh is None:
            raise Closed(f"the {self.PREFIX} backend is closed")

    def _append(self, data: bytes, unit: int) -> Lsn:
        """Durably append ``data``, a whole number of ``unit``-byte units,
        and record it on the trace as ``len(data) // unit`` writes of
        ``unit`` bytes (the model view: storage sees one write of the
        whole flush, at its offset, before its sync). The file first grows
        to the next ``RESERVE_SIZE`` multiple when the flush would pass its
        reserved end. With ``sync`` on, the first flush into a start's file
        also syncs the directory (``_sync_entry``). An empty flush writes
        and syncs nothing."""
        self._refuse_if_closed()
        lsn = Lsn(self._fid, self._offset)
        if data:
            end = self._offset + len(data)
            if end > self._reserved:
                reserved = -(-end // RESERVE_SIZE) * RESERVE_SIZE
                self.DISK.resize(self._fh, reserved)
                self._reserved = reserved
            self.DISK.append(self._fh, data, self._offset)
            if self.sync:
                self.DISK.sync(self._fh)
                if not self._entry_synced:
                    self._sync_entry()
            self.trace.record(self.CHANNEL, unit, len(data) // unit)
            self._offset = end
        return lsn

    # -- checkpoints: the one place files are deleted ------------------------

    @property
    def last_checkpoint_id(self) -> int:
        return self._ckpt_id

    def checkpoint(self, ckpt_id: int) -> CheckpointMarker:
        """Rotate to a fresh file, atomically commit the sidecar, then
        delete the files below it, which recovery no longer reads.

        The caller must already have flushed the checkpoint record (see
        ``Slot.checkpoint``). The next file is created before the
        sidecar rename so the sidecar never names a missing file.
        """
        self._refuse_if_closed()
        next_fid = self._fid + 1
        self._open_file(next_fid)
        if self.sync:
            self._sync_entry()
        self.DISK.replace(self.root / SIDECAR_NAME, _SIDECAR.pack(ckpt_id, next_fid, 0), self.sync)
        if self.sync:
            self.DISK.sync_dir(self.root)
        self.trace.record(StorageTrace.METADATA, _SIDECAR.size)
        self._ckpt_id = ckpt_id
        for old in list_epoch_fids(self.root, self.PREFIX):
            if old < next_fid:
                self.DISK.unlink(self.root / epoch_filename(self.PREFIX, old))
        return CheckpointMarker(ckpt_id, Lsn(next_fid, 0))


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
    word would shift the next flush's header and lose its records. It is
    also the largest flush the backend takes (``max_flush``).
    """

    def __init__(self, root: str | Path, pad_to: int | None = None,
                 trace: StorageTrace | None = None, sync: bool = True):
        if pad_to is not None and (pad_to <= 0 or pad_to % 4):
            raise WalError(f"pad size {pad_to} is not a positive multiple of 4 bytes")
        self.pad_to = self.max_flush = pad_to
        super().__init__(root, trace, sync)

    def persist_slot(self, slot_bytes: bytes) -> Lsn:
        if self.pad_to is not None:
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
    partial unit. A file of cipher units (``unit`` > 1) ends before its
    first unit whose last 16 bytes are zero (see ``_written_units``)."""
    root = Path(root)
    sidecar = read_sidecar(root)
    start_fid, start_off = (sidecar[1], sidecar[2]) if sidecar else (0, 0)
    size = max(1, read_size // unit) * unit
    for fid in list_epoch_fids(root, prefix):
        if fid >= start_fid:
            path = root / epoch_filename(prefix, fid)
            chunks = JournalFiles.DISK.read_chunks(path, start_off if fid == start_fid else 0, size, unit)
            yield fid, _written_units(chunks, unit) if unit > 1 else chunks


def _written_units(chunks: Iterator[bytes], unit: int) -> Iterator[bytes]:
    """``chunks`` up to the first unit whose last cipher block (16 bytes)
    is zero: a unit never written into the reserved end of a file left
    by a crash, or one torn there at a 16-byte boundary, which every
    sector boundary is. No whole unit has a zero block, since each block
    of a stored unit or metadata blob is a cipher output."""
    for chunk in chunks:
        tail = np.frombuffer(chunk, np.uint64).reshape(-1, unit // 8)[:, -2:]
        written = tail[:, 0] | tail[:, 1]
        if not written.all():
            if end := int(written.argmin()) * unit:  # argmin: the first zero
                yield chunk[:end]
            return
        yield chunk


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
