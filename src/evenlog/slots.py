"""In-memory slot buffer and its periodic flusher.

Records are concatenated into a bounded slot (128 KiB by default,
matching the WiredTiger configuration this models) and handed to a
durability backend as one unit, either when a record would overflow the
buffer, when a full-sync append demands durability before returning, or
when the periodic flusher fires.
"""

from __future__ import annotations

import contextlib
import threading
from typing import NamedTuple, Protocol

from .errors import Closed, InvalidConfig, RecordTooLarge
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
    record size. ``max_flush`` is the largest flush ``persist_slot``
    takes, or None when any size goes. After ``close``, ``persist_slot``
    and ``checkpoint`` raise ``Closed`` before any effect; ``recover`` still works."""

    max_flush: int | None

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
    """Bounded record buffer, the one caller of its backend's writes.
    Appends are linearizable; a flush drains the buffer atomically while
    holding the same lock, so appenders observe either the pre- or
    post-flush state. ``max_flush``, the backend's largest flush, bounds
    the capacity too, and a larger record is refused (``RecordTooLarge``)
    before anything is buffered or flushed.

    Fail-stop: the first backend write that raises is kept in ``_stop``,
    and every later call raises it, with the traceback it first had. The
    failed flush is never retried: a failed fdatasync may already have
    dropped its pages. After ``close`` the calls raise ``Closed``."""

    def __init__(self, backend: DurabilityBackend, capacity: int = DEFAULT_SLOT_CAPACITY):
        if capacity <= 0:
            raise InvalidConfig(f"slot capacity {capacity} is not positive")
        self._backend = backend
        self.capacity = capacity if backend.max_flush is None else min(capacity, backend.max_flush)
        self._buf = bytearray()
        self._ssn = 0  # sequence number of the next flush
        self._stream_offset = 0  # total record bytes ever appended
        self._lock = threading.RLock()
        self._stop: Exception | type[Closed] | None = None  # raised by every later call
        self._stop_tb = None  # restored at each raise, so the traceback does not grow

    @property
    def ssn(self) -> int:
        return self._ssn

    def append(self, record: bytes, full_sync: bool = False) -> AppendResult:
        """Buffer one encoded record, flushing first if it would overflow; a
        record larger than the slot is flushed on its own. ``flushed`` says
        whether *this record* is durable on return."""
        with self._lock:
            if self._stop is not None:
                raise self._stop if self._stop is Closed else self._stop.with_traceback(self._stop_tb)
            if len(self._buf) + len(record) > self.capacity:
                if (max_flush := self._backend.max_flush) is not None and len(record) > max_flush:
                    raise RecordTooLarge(f"record of {len(record)} bytes exceeds the backend's "
                                         f"largest flush of {max_flush} bytes")
                self._flush_locked()
            lsn = Lsn(self._backend.current_file_id, self._stream_offset)
            self._stream_offset += len(record)
            self._buf += record
            if full_sync or len(self._buf) > self.capacity:
                self._flush_locked()
                return AppendResult(lsn, True)
            return AppendResult(lsn, False)

    def flush(self) -> None:
        """Hand the buffered bytes to the backend; empty buffers are a no-op."""
        with self._lock:
            if self._stop is not None:
                raise self._stop if self._stop is Closed else self._stop.with_traceback(self._stop_tb)
            self._flush_locked()

    def checkpoint(self) -> CheckpointMarker:
        """Flush the buffer and a flagged checkpoint record, then start the
        backend's next epoch, all under the lock: no append or flush lands
        in between, in a file the checkpoint deletes."""
        with self._lock:
            ckpt_id = self._backend.last_checkpoint_id + 1
            record = encode_record(ckpt_id.to_bytes(8, "little"), FLAG_CHECKPOINT)  # u64 id, FORMAT.md
            self.append(record, full_sync=True)
            return self._call(self._backend.checkpoint, ckpt_id)

    def close(self) -> None:
        """Flush the buffer and close the backend, which is closed even when
        the flush raises. A stopped slot raises its error here, once the
        backend is closed. A second ``close`` returns at once."""
        with self._lock:
            if self._stop is Closed:
                return
            try:
                self.flush()
            finally:
                self._stop = Closed
                self._backend.close()

    def _flush_locked(self) -> None:
        if self._buf:
            self._call(self._backend.persist_slot, bytes(self._buf))
            self._buf.clear()
            self._ssn += 1

    def _call(self, method, arg):
        """Every backend write goes through here: the first that raises stops the slot."""
        try:
            return method(arg)
        except Exception as exc:
            self._stop, self._stop_tb = exc, exc.__traceback__
            raise


class PeriodicFlusher:
    """Background thread driving ``flush`` every ``interval_ms``. The first
    flush that raises stops it; the slot it flushes keeps that error and
    raises it on the next call."""

    def __init__(self, flush, interval_ms: float):
        self._flush = flush
        self._interval = interval_ms / 1000.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def start(self) -> None:
        self._thread.start()

    def _run(self) -> None:
        with contextlib.suppress(Exception):  # kept by the slot, raised by its next call
            while not self._stop.wait(self._interval):
                self._flush()

    def stop(self) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join()
