"""In-memory slot buffer and its periodic flusher.

Records are concatenated into a bounded slot (128 KiB by default,
matching the WiredTiger configuration this models) and handed to a
durability backend as one unit, either when a record would overflow the
buffer, when a full-sync append demands durability before returning, or
when the periodic flusher fires.
"""

from __future__ import annotations

import threading
from typing import NamedTuple, Protocol

from .errors import InvalidConfig
from .records import FLAG_CHECKPOINT, LogRecord, Lsn, encode_record

DEFAULT_SLOT_CAPACITY = 128 * 1024


class BackendStats(NamedTuple):
    """Stored bytes by kind: plaintext after padding, fake segments, and
    the per-unit IV framing around both."""

    padded_bytes: int
    fake_bytes: int
    framing_bytes: int


class CheckpointMarker(NamedTuple):
    """What ``checkpoint`` returns: the id and where the new epoch starts."""

    ckpt_id: int
    lsn: Lsn


class DurabilityBackend(Protocol):
    """The contract of every backend. ``persist_slot`` makes one slot flush
    durable as a unit; ``checkpoint`` starts a new epoch once the caller
    has flushed the flagged checkpoint record, and once that epoch is
    durable deletes everything written before it; ``recover`` returns
    the records written since the last checkpoint. Deletions happen only
    at a checkpoint, so they reveal the checkpoint cadence, never a
    record size."""

    @property
    def current_file_id(self) -> int: ...

    @property
    def last_checkpoint_id(self) -> int: ...

    def persist_slot(self, slot_bytes: bytes) -> object: ...

    def recover(self) -> list[LogRecord]: ...

    def checkpoint(self, ckpt_id: int) -> CheckpointMarker: ...

    def close(self) -> None: ...

    def stats(self) -> BackendStats: ...


class AppendResult(NamedTuple):
    lsn: Lsn
    flushed: bool  # True iff this record is durable on return


class Slot:
    """Bounded record buffer. Appends are linearizable; a flush drains the
    buffer atomically while holding the same lock, so appenders observe
    either the pre- or post-flush state."""

    def __init__(self, capacity: int = DEFAULT_SLOT_CAPACITY):
        if capacity <= 0:
            raise InvalidConfig(f"slot capacity {capacity} is not positive")
        self.capacity = capacity
        self._buf = bytearray()
        self._ssn = 0  # sequence number of the next flush
        self._stream_offset = 0  # total record bytes ever appended
        self._lock = threading.RLock()

    @property
    def ssn(self) -> int:
        return self._ssn

    @property
    def buffered_bytes(self) -> int:
        return len(self._buf)

    def append(self, record: bytes, backend: DurabilityBackend, full_sync: bool = False) -> AppendResult:
        """Buffer one encoded record, flushing first if it would overflow.

        Records larger than the whole slot are persisted as a dedicated
        flush of their own. ``flushed`` in the result reports whether
        *this record* is durable on return, which is the case for
        full-sync appends and oversize records.
        """
        with self._lock:
            if len(self._buf) + len(record) > self.capacity:
                self._flush_locked(backend)
            lsn = Lsn(backend.current_file_id, self._stream_offset)
            self._stream_offset += len(record)
            if len(record) > self.capacity:
                # oversize: bypass the buffer, one standalone flush
                backend.persist_slot(bytes(record))
                self._ssn += 1
                return AppendResult(lsn, True)
            self._buf += record
            if full_sync:
                self._flush_locked(backend)
                return AppendResult(lsn, True)
            return AppendResult(lsn, False)

    def flush(self, backend: DurabilityBackend) -> None:
        """Hand the buffered bytes to the backend; empty buffers are a no-op.

        On backend failure the buffer is left untouched.
        """
        with self._lock:
            self._flush_locked(backend)

    def checkpoint(self, backend: DurabilityBackend) -> CheckpointMarker:
        """Flush the buffer and a flagged checkpoint record, then start the
        backend's next epoch, all under the lock: no append or flush lands
        in between, in a file the checkpoint deletes."""
        with self._lock:
            ckpt_id = backend.last_checkpoint_id + 1
            record = encode_record(ckpt_id.to_bytes(8, "little"), FLAG_CHECKPOINT)  # u64 id, FORMAT.md
            self.append(record, backend, full_sync=True)
            return backend.checkpoint(ckpt_id)

    def _flush_locked(self, backend: DurabilityBackend) -> None:
        if not self._buf:
            return
        backend.persist_slot(bytes(self._buf))
        self._buf.clear()
        self._ssn += 1


class PeriodicFlusher:
    """Background thread driving ``flush`` every ``interval_ms``."""

    def __init__(self, flush, interval_ms: float):
        self._flush = flush
        self._interval = interval_ms / 1000.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def start(self) -> None:
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            self._flush()

    def stop(self) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join()
