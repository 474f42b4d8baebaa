import errno
import random
import struct
import zlib

import pytest

from evenlog.crypto import StaticKeyProvider
from evenlog.errors import DurabilityError
from evenlog.journal import Disk, JournalBackend, JournalFiles, PlainJournalBackend
from evenlog.quorum import QuorumBackend, build_cluster  # noqa: F401  (re-exported for the test modules)
from evenlog.records import HEADER_SIZE, LogRecord

MASTER = b"unit-test-master-secret-32-bytes"


def pad4(data: bytes) -> bytes:
    """Payloads come back from recovery padded to a multiple of 4."""
    return data + b"\x00" * ((-len(data)) % 4)


class MalformedHeader(ValueError):
    """The oracle's verdict: a header length below 16 or not a multiple of 4."""


class TruncatedRecord(ValueError):
    """The oracle's verdict: the bytes end before the declared length."""


class CorruptRecord(ValueError):
    """The oracle's verdict: the CRC does not match the padded payload."""


def decode_record(buf, offset: int = 0) -> tuple[LogRecord, int]:
    """Test oracle: decode the one record at ``offset`` strictly, straight
    from FORMAT.md, and return it with the offset after it."""
    if len(buf) - offset < HEADER_SIZE:
        raise TruncatedRecord(f"{len(buf) - offset} bytes left, header needs {HEADER_SIZE}")
    length, crc, flags, _ = struct.unpack_from("<IIII", buf, offset)
    if length < HEADER_SIZE or length % 4 != 0:
        raise MalformedHeader(f"record length {length} at offset {offset}")
    if len(buf) - offset < length:
        raise TruncatedRecord(f"record of {length} bytes truncated at offset {offset}")
    payload = bytes(buf[offset + HEADER_SIZE : offset + length])
    if zlib.crc32(payload) != crc:
        raise CorruptRecord(f"checksum mismatch at offset {offset}")
    return LogRecord(payload, flags), offset + length


def iter_records(buf):
    """Test oracle: parse a gapless concatenation of records (a slot
    flush before segmentation) with the strict decoder."""
    offset = 0
    while offset < len(buf):
        record, offset = decode_record(buf, offset)
        yield record


def crash(backend):
    """Drop ``backend`` as a crash would: its file is closed but keeps the
    zero-filled reserve past its last flush, which ``close`` cuts back."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(JournalFiles.DISK, "resize", lambda fh, size: None)
        backend.close()


def reopen(backend, seed: int = 0):
    """Crash and restart: drop ``backend`` as a crash would (``crash``) and
    build a new one of the same kind on the same directory (and, for
    quorum, the same replicas and registry). Every flush has already
    reached the file, so the crash loses none of it."""
    crash(backend)
    if isinstance(backend, JournalBackend):
        return JournalBackend(backend.root, backend.key, backend.segment_size, sync=backend.sync)
    if isinstance(backend, PlainJournalBackend):
        return PlainJournalBackend(backend.root, backend.pad_to, sync=backend.sync)
    return QuorumBackend(backend.root, backend.key, backend.replicas, backend.registry,
                         config=backend.config, scheme=backend.scheme, seed=seed,
                         client_id=backend.client_id, sync=backend.sync)


class DiskDouble(Disk):
    """Stands in for ``JournalFiles.DISK``: logs each effect as ``(name, args)``
    in ``events`` and makes it, but an effect named in ``fail`` does nothing
    and raises what ``Disk`` raises for an I/O error."""

    def __init__(self, fail=()):
        self.events, self.fail = [], set(fail)


def _logged(name):
    def effect(self, *args):
        self.events.append((name, args))
        if name in self.fail:
            raise DurabilityError(f"injected {name} failure") from OSError(errno.EIO, "injected")
        return getattr(Disk, name)(self, *args)
    return effect


for _name in [name for name in vars(Disk) if not name.startswith("_")]:
    setattr(DiskDouble, _name, _logged(_name))
MUTATING = {"mkdir", "open_append", "append", "resize", "sync", "replace", "sync_dir", "unlink"}


@pytest.fixture
def disk(monkeypatch):
    """A ``DiskDouble`` under every backend of the test."""
    double = DiskDouble()
    monkeypatch.setattr(JournalFiles, "DISK", double)
    return double


@pytest.fixture(autouse=True)
def close_backends(monkeypatch):
    """Close, at teardown, every backend the test opened and left open.
    Tests drop backends unclosed, as a crash would; their files must not
    outlive the test (a leaked file fails the suite, see pyproject.toml)."""
    opened = []
    init = JournalFiles.__init__

    def tracked_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        opened.append(self)

    monkeypatch.setattr(JournalFiles, "__init__", tracked_init)
    yield
    for backend in opened:
        backend.close()


@pytest.fixture
def key():
    return StaticKeyProvider(MASTER).get("default")


@pytest.fixture
def rng():
    return random.Random(1234)

