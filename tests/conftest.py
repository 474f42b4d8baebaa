import errno
import random
import struct
import zlib

import pytest

from evenlog.crypto import StaticKeyProvider
from evenlog.journal import JournalBackend, JournalFiles, PlainJournalBackend
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


def reopen(backend, seed: int = 0):
    """Crash and restart: drop ``backend`` and build a new one of the same
    kind on the same directory (and, for quorum, the same replicas and
    registry). Every flush has already reached the files, so closing the
    old handles writes nothing that a crash would have lost."""
    backend.close()
    if isinstance(backend, JournalBackend):
        return JournalBackend(backend.root, backend.key, backend.segment_size, sync=backend.sync)
    if isinstance(backend, PlainJournalBackend):
        return PlainJournalBackend(backend.root, backend.pad_to, sync=backend.sync)
    return QuorumBackend(backend.root, backend.key, backend.replicas, backend.registry,
                         config=backend.config, scheme=backend.scheme, seed=seed,
                         client_id=backend.client_id, sync=backend.sync)


class FailingWrites:
    """A file handle whose writes raise, as a full disk or an I/O error
    would; everything else goes to the real file. Put it in place of a
    backend's open file to fail that backend's next durable write."""

    def __init__(self, fh):
        self.real = fh

    def write(self, data):
        raise OSError(errno.EIO, "injected write failure")

    def __getattr__(self, name):
        return getattr(self.real, name)


class CountingWrites:
    """A file handle that passes every write to the real file and keeps
    the size of each write call. Put it in place of a backend's open file
    to see how many calls a durable write makes."""

    def __init__(self, fh):
        self.real = fh
        self.sizes = []

    def write(self, data):
        self.sizes.append(len(data))
        return self.real.write(data)

    def __getattr__(self, name):
        return getattr(self.real, name)


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

