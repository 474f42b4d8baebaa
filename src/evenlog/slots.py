"""In-memory slot buffer and flush policy.

Records are concatenated into a bounded slot (128 KiB by default,
matching the WiredTiger configuration this models) and handed to a
durability backend as one unit, either when a record would overflow the
buffer, when a full-sync append demands durability before returning, or
when the periodic flusher fires.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Protocol

from .records import LogRecord, Lsn

if TYPE_CHECKING:
    from .journal import CheckpointMarker

DEFAULT_SLOT_CAPACITY = 128 * 1024


class BackendStats(NamedTuple):
    """Stored bytes by kind: plaintext after padding, fake segments, and
    the per-unit IV framing around both."""

    padded_bytes: int
    fake_bytes: int
    framing_bytes: int


class DurabilityBackend(Protocol):
    """The contract of every backend. ``persist_slot`` makes one slot flush
    durable as a unit; ``checkpoint`` starts a new epoch once the caller
    has flushed the flagged checkpoint record; ``recover`` returns the
    records written since the last checkpoint."""

    @property
    def current_file_id(self) -> int: ...

    @property
    def last_checkpoint_id(self) -> int: ...

    def persist_slot(self, slot_bytes: bytes) -> object: ...

    def recover(self) -> list[LogRecord]: ...

    def checkpoint(self, ckpt_id: int) -> CheckpointMarker: ...

    def close(self) -> None: ...

    def stats(self) -> BackendStats: ...


@dataclass
class FlushPolicy:
    """interval_ms is the periodic flush cadence; None disables the timer."""

    interval_ms: float | None = 100.0


class AppendResult(NamedTuple):
    lsn: Lsn
    flushed: bool  # True iff this record is durable on return


class FlushReceipt(NamedTuple):
    ssn: int
    byte_count: int


class Slot:
    """Bounded record buffer. Appends are linearizable; a flush drains the
    buffer atomically while holding the same lock, so appenders observe
    either the pre- or post-flush state."""

    def __init__(self, capacity: int = DEFAULT_SLOT_CAPACITY):
        if capacity <= 0:
            raise ValueError("slot capacity must be positive")
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

    def flush(self, backend: DurabilityBackend) -> FlushReceipt:
        """Hand the buffered bytes to the backend; empty buffers are a no-op.

        On backend failure the buffer is left untouched.
        """
        with self._lock:
            ssn = self._ssn
            count = len(self._buf)
            self._flush_locked(backend)
            return FlushReceipt(ssn, count)

    def _flush_locked(self, backend: DurabilityBackend) -> None:
        if not self._buf:
            return
        backend.persist_slot(bytes(self._buf))
        self._buf.clear()
        self._ssn += 1


class PeriodicFlusher:
    """Background thread driving ``flush`` at the policy interval."""

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
