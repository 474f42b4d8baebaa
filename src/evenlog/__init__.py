"""evenlog: a write-ahead log whose storage writes all have one size.

Records are buffered in a slot, and every slot flush is split into
fixed-size encrypted segments before it reaches a durability backend —
a local journal or a quorum of cooperative replicas — so the sizes an
adversary can observe at the storage layer carry no information about
what was written. The ``leakage`` module quantifies exactly what each
configuration does and does not hide.
"""

from .engine import WalEngine
from .errors import WalError
from .journal import JournalBackend, PlainJournalBackend, recover_journal
from .observe import StorageTrace
from .records import FLAG_CHECKPOINT, LogRecord, Lsn, encode_record
from .segmentation import padding_overhead, segment_slot
from .slots import Slot

__version__ = "0.1.0"

__all__ = [
    "FLAG_CHECKPOINT",
    "JournalBackend",
    "LogRecord",
    "Lsn",
    "PlainJournalBackend",
    "Slot",
    "StorageTrace",
    "WalEngine",
    "WalError",
    "encode_record",
    "padding_overhead",
    "recover_journal",
    "segment_slot",
    "__version__",
]
