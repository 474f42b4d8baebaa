"""On-disk journal backends.

``JournalBackend`` is the size-uniform engine: every slot flush is split
into fixed-size segments, each encrypted into a stored unit of exactly
S + 16 bytes, so the storage layer sees a single write size no matter
what the workload does. ``PlainJournalBackend`` is the unprotected
baseline that writes slot bytes as-is, or zero-padded to ``pad_to``
bytes; it exists for byte accounting, recovery-time comparison, and
demonstrating the size leak the segmented engine removes.

Files are named ``<prefix>.<fid>`` (fid as 10 decimal digits, see
``list_epoch_fids``). The checkpoint sidecar ``CHECKPOINT`` holds 20
bytes, little-endian:

    [ckpt_id u64][fid u32][offset u64]

``WalEngine.checkpoint`` flushes a flagged record through the normal
slot path; ``JournalBackend.checkpoint`` then creates the next journal
file and commits by atomically replacing the sidecar (write-temp-then-
rename). A crash anywhere before the rename leaves the previous
checkpoint in force. Only after the rename does the checkpoint delete
the files below the sidecar fid; recovery never reads them, so one
that survives a crash is harmless and the next checkpoint deletes it.
"""

from __future__ import annotations

import os
import re
import struct
from pathlib import Path

from . import crypto
from .errors import DurabilityError, StorageNotFound
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


def journal_filename(fid: int) -> str:
    return epoch_filename("journal", fid)


def list_journal_fids(root: Path) -> list[int]:
    return list_epoch_fids(root, "journal")


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


class JournalBackend:
    """Append-only journal of encrypted fixed-size stored units.

    A backend instance always appends to a fresh file (one past the
    newest on disk), so a torn tail left by a crash is never extended.
    """

    def __init__(
        self,
        root: str | Path,
        key: crypto.ReplicaKey,
        segment_size: int = 128,
        trace: StorageTrace | None = None,
        sync: bool = True,
    ):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.key = key
        self.segment_size = check_segment_size(segment_size)
        self.trace = trace if trace is not None else StorageTrace()
        self.sync = sync
        self.unit_size = segment_size + crypto.IV_SIZE

        existing = list_journal_fids(self.root)
        self._fid = (existing[-1] + 1) if existing else 0
        self._fh = None
        self._offset = 0
        sidecar = read_sidecar(self.root)
        self._ckpt_id = sidecar[0] if sidecar else 0
        self._open_file(self._fid)

    # -- file plumbing -------------------------------------------------

    def _open_file(self, fid: int) -> None:
        if self._fh is not None:
            self._fh.close()
        self._fid = fid
        path = self.root / journal_filename(fid)
        self._fh = open(path, "ab")
        self._offset = self._fh.tell()

    @property
    def current_file_id(self) -> int:
        return self._fid

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def stats(self) -> BackendStats:
        units = self.trace.write_count(StorageTrace.JOURNAL)
        return BackendStats(units * self.segment_size, 0, units * crypto.IV_SIZE)

    def _sync_file(self) -> None:
        self._fh.flush()
        if self.sync:
            os.fdatasync(self._fh.fileno())

    # -- appends -------------------------------------------------------

    def persist_slot(self, slot_bytes: bytes) -> Lsn:
        """Segment, encrypt and append one slot flush; synced on return."""
        padded = pad_to_segments(slot_bytes, self.segment_size)
        return self._append_units(crypto.encrypt_stream(self.key, padded, self.segment_size))

    def _append_units(self, units: bytes) -> Lsn:
        lsn = Lsn(self._fid, self._offset)
        if not units:
            return lsn
        count = len(units) // self.unit_size
        write = self._fh.write
        view = memoryview(units)
        try:
            # one write per stored unit: this is the adversary-visible
            # sequence the fixed-size guarantee is about
            for off in range(0, len(units), self.unit_size):
                write(view[off : off + self.unit_size])
            self._sync_file()
        except OSError as exc:
            raise DurabilityError(str(exc)) from exc
        self.trace.record(StorageTrace.JOURNAL, self.unit_size, count)
        self._offset += len(units)
        return lsn

    # -- checkpoints (the one place files are deleted) and recovery ----------

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
        delete_epochs_before(self.root, "journal", next_fid)
        return CheckpointMarker(ckpt_id, Lsn(next_fid, 0))

    def _create_file(self, fid: int) -> None:
        (self.root / journal_filename(fid)).touch()
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

    def recover(self) -> list[LogRecord]:
        return recover_journal(self.root, self.key, self.segment_size)


def plaintext_stream(root: str | Path, key: crypto.ReplicaKey, segment_size: int) -> list[bytes]:
    """Decrypt the journal from the last checkpoint, one plaintext per file.

    Files are read in fid order starting at the sidecar position (start
    of the stream when no checkpoint exists). A torn trailing partial
    unit is dropped; record-level tearing is handled by the scanner.
    """
    root = Path(root)
    check_segment_size(segment_size)
    unit = segment_size + crypto.IV_SIZE
    sidecar = read_sidecar(root)
    start_fid, start_off = (sidecar[1], sidecar[2]) if sidecar else (0, 0)
    parts = []
    for fid in list_journal_fids(root):
        if fid < start_fid:
            continue
        data = (root / journal_filename(fid)).read_bytes()
        if fid == start_fid:
            data = data[start_off:]
        data = data[: len(data) - len(data) % unit]
        parts.append(crypto.decrypt_stream(key, data, segment_size))
    return parts


def recover_journal(root: str | Path, key: crypto.ReplicaKey, segment_size: int) -> list[LogRecord]:
    """Replay the journal: decrypt from the last checkpoint, then scan
    records, skipping zero-word padding. Each file is scanned on its own,
    since a flush never spans files, so a torn tail ends only its file."""
    records: list[LogRecord] = []
    for part in plaintext_stream(root, key, segment_size):
        records += scan_padded_stream(part)
    return records


def recover_plain(root: str | Path) -> list[LogRecord]:
    """Scan the newest plain journal file (see ``PlainJournalBackend``).
    Reads only: a directory with no journal file recovers nothing."""
    root = Path(root)
    fids = list_journal_fids(root)
    if not fids:
        return []
    return scan_padded_stream((root / journal_filename(fids[-1])).read_bytes())


class PlainJournalBackend:
    """Unsegmented baseline: slot flushes land on disk byte-for-byte.

    With ``pad_to=None`` the trace shows one variable-sized write per
    flush, exactly the side channel the segmented backend closes. With
    ``pad_to`` at the slot capacity it is the rejected mitigation: one
    write size, but two orders of magnitude of write amplification for
    small sequential writes. A checkpoint starts the next file and
    deletes the older ones; recovery reads the newest one.
    """

    def __init__(self, root: str | Path, pad_to: int | None = None,
                 trace: StorageTrace | None = None, sync: bool = True):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.pad_to = pad_to
        self.trace = trace if trace is not None else StorageTrace()
        self.sync = sync
        existing = list_journal_fids(self.root)
        self._fid = existing[-1] if existing else 0
        self._fh = open(self.root / journal_filename(self._fid), "ab")

    @property
    def current_file_id(self) -> int:
        return self._fid

    last_checkpoint_id = current_file_id  # file n starts at checkpoint n

    def persist_slot(self, slot_bytes: bytes) -> Lsn:
        if self.pad_to is not None:
            if len(slot_bytes) > self.pad_to:
                raise DurabilityError(f"flush of {len(slot_bytes)} bytes exceeds the slot size")
            slot_bytes += b"\x00" * (self.pad_to - len(slot_bytes))
        lsn = Lsn(self._fid, self._fh.tell())
        try:
            self._fh.write(slot_bytes)
            self._fh.flush()
            if self.sync:
                os.fdatasync(self._fh.fileno())
        except OSError as exc:
            raise DurabilityError(str(exc)) from exc
        self.trace.record(StorageTrace.JOURNAL, len(slot_bytes))
        return lsn

    def checkpoint(self, ckpt_id: int) -> CheckpointMarker:
        self._fh.close()
        self._fid += 1
        self._fh = open(self.root / journal_filename(self._fid), "ab")
        if self.sync:
            fsync_dir(self.root)
        delete_epochs_before(self.root, "journal", self._fid)
        return CheckpointMarker(ckpt_id, Lsn(self._fid, 0))

    def close(self) -> None:
        self._fh.close()

    def recover(self) -> list[LogRecord]:
        return recover_plain(self.root)

    def stats(self) -> BackendStats:
        return BackendStats(self.trace.total_bytes(StorageTrace.JOURNAL), 0, 0)
