"""Engine facade: record encoding on top of a slot and a durability backend."""

from __future__ import annotations

from .errors import InvalidConfig, WalError
from .records import encode_record
from .slots import DEFAULT_SLOT_CAPACITY, AppendResult, CheckpointMarker, DurabilityBackend, PeriodicFlusher, Slot


class WalEngine:
    """One writer endpoint: append payloads, flush, checkpoint.

    Thread-safe for concurrent appenders; the slot serializes appends,
    flushes and checkpoints. A periodic flusher runs iff ``flush_interval_ms``
    is given; it mirrors the buffered-write mode where durability is
    deferred to the next timer tick or full-sync write. A flusher whose
    flush fails stops, and the next call raises its error. After ``close``,
    every call but ``close`` raises a ``WalError``. The slot holds at most
    the backend's largest flush (``max_flush``), and a record larger than
    that raises ``RecordTooLarge`` before it is buffered.
    """

    def __init__(self, backend: DurabilityBackend, slot_capacity: int = DEFAULT_SLOT_CAPACITY,
                 flush_interval_ms: float | None = None):
        if flush_interval_ms is not None and not flush_interval_ms > 0:
            raise InvalidConfig(f"flush interval {flush_interval_ms} ms is not positive")
        self.backend = backend
        self.slot = Slot(slot_capacity, backend.max_flush)
        self._flusher = None
        if flush_interval_ms is not None:
            self._flusher = PeriodicFlusher(self.flush, flush_interval_ms)
            self._flusher.start()

    def append(self, payload: bytes, flags: int = 0, full_sync: bool = False) -> AppendResult:
        if self._flusher is not None:
            self._flusher.check()
        return self.slot.append(encode_record(payload, flags), self.backend, full_sync)

    def flush(self) -> None:
        if self._flusher is not None:
            self._flusher.check()
        self.slot.flush(self.backend)

    def checkpoint(self) -> CheckpointMarker:
        """Checkpoint atomically with appends and flushes (``Slot.checkpoint``)."""
        if self._flusher is not None:
            self._flusher.check()
        return self.slot.checkpoint(self.backend)

    def close(self) -> None:
        """Stop the flusher, flush and close the backend. The backend is
        closed even when the flush raises, or a failed flusher's error is."""
        if self._flusher is _Closed:
            return
        try:
            if self._flusher is not None:
                self._flusher.stop()
            self.flush()
        finally:
            self._flusher = _Closed  # checked where a flusher is: no cost per append without one
            self.backend.close()


class _Closed:
    """A closed engine's stand-in for its flusher: every check raises."""

    @staticmethod
    def check() -> None:
        raise WalError("the engine is closed")
