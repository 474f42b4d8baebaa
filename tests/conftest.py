import errno
import random
import struct
import zlib
from pathlib import Path

import pytest

from evenlog.crypto import IV_SIZE, StaticKeyProvider
from evenlog.errors import DurabilityError
from evenlog.journal import Disk, JournalBackend, JournalFiles, PlainJournalBackend, epoch_filename
from evenlog.observe import StorageTrace
from evenlog.quorum import QuorumBackend, QuorumConfig, SelectionScheme, build_cluster
from evenlog.quorum.replica import store_frame_size
from evenlog.quorum.selection import GROUP_SIZE
from evenlog.records import HEADER_SIZE, LogRecord

MASTER = b"unit-test-master-secret-32-bytes"
KEY = StaticKeyProvider(MASTER).get("default")


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


def holders(replicas, sid) -> list[int]:
    """The ids of the live replicas among ``replicas`` that hold ``sid``."""
    return [rid for rid, rep in replicas.items() if rep.alive and sid in rep.segments(sid.fid)]


def current_file(backend) -> Path:
    """The file ``backend`` appends to."""
    return backend.root / epoch_filename(backend.PREFIX, backend.current_file_id)


def crash(backend):
    """Drop ``backend`` as a crash would: its file is closed but keeps the
    zero-filled reserve past its last flush, which ``close`` cuts back."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(JournalFiles.DISK, "resize", lambda fh, size: None)
        backend.close()


# -- the backend matrix: every kind the shared-property tests run on ---------

SEGMENT = 128  # S of the segmented journal and of quorum
SLOT = 1024  # the padded baseline's pad size, and the vnos kind's max write size


class Kind:
    """One backend kind of the matrix. ``open`` builds one on ``root``.
    ``reopen`` restarts one: it drops the backend as a crash would
    (``crash``) and builds a new one of the same shape on the same root
    (and, for quorum, the same replicas and registry). Every flush has
    already reached the file, so the crash loses none of it. Every
    backend's ``recover`` makes no mutating call and works after ``close``.
    ``channel`` is the trace channel the kind stores its data on,
    ``stored_bytes`` what that channel must show for the backend's
    ``stats``, ``replicas`` how many replicas it has, and ``held`` the
    epochs of the segments its live replicas hold (a journal has none)."""

    channel = StorageTrace.JOURNAL
    replicas = 0

    def __init__(self, id: str):
        self.id = id

    def __repr__(self) -> str:
        return self.id

    def reopen(self, backend, seed: int = 0):
        crash(backend)
        return self.restart(backend, seed)

    def stored_bytes(self, stats) -> int:
        assert stats.fake_bytes == 0
        return stats.padded_bytes + stats.framing_bytes

    def held(self, backend) -> set[int]:
        return set()


class Journal(Kind):
    def open(self, root, key, trace=None, sync=True):
        return JournalBackend(root, key, SEGMENT, trace, sync)

    def restart(self, old, seed):
        return JournalBackend(old.root, old.key, old.segment_size, sync=old.sync)


class Plain(Kind):
    def __init__(self, id: str, pad_to: int | None):
        super().__init__(id)
        self.pad_to = pad_to

    def open(self, root, key, trace=None, sync=True):
        return PlainJournalBackend(root, self.pad_to, trace, sync)

    def restart(self, old, seed):
        return PlainJournalBackend(old.root, old.pad_to, sync=old.sync)


class Quorum(Kind):
    channel = StorageTrace.REPLICA

    def __init__(self, id: str, scheme: SelectionScheme, replicas: int, max_write_size: int):
        super().__init__(id)
        self.scheme, self.replicas, self.max_write_size = scheme, replicas, max_write_size

    def open(self, root, key, trace=None, sync=True):
        registry, replicas = build_cluster(self.replicas)
        return QuorumBackend(root, key, replicas, registry, config=QuorumConfig(SEGMENT, self.max_write_size),
                             scheme=self.scheme, trace=trace, sync=sync)

    def restart(self, old, seed):
        return QuorumBackend(old.root, old.key, old.replicas, old.registry, config=old.config,
                             scheme=old.scheme, seed=seed, client_id=old.client_id, sync=old.sync)

    def stored_bytes(self, stats) -> int:
        units = (stats.padded_bytes + stats.fake_bytes) // SEGMENT
        assert stats.framing_bytes == units * IV_SIZE
        return units * GROUP_SIZE * store_frame_size(SEGMENT)

    def held(self, backend) -> set[int]:
        return {sid.fid for rep in backend.replicas.values() if rep.alive for sid in rep.segment_ids}


# vnos at K = 8 over 8 groups; fnos at the benchmark's shape, K = 16 over 16 groups
KINDS = {kind.id: kind for kind in (
    Journal("journal"),
    Plain("plain", None),
    Plain("plain-padded", SLOT),
    Quorum("quorum-vnos", SelectionScheme.VNOS, 24, SLOT),
    Quorum("quorum-fnos", SelectionScheme.FNOS, 48, 2 * SLOT),
)}


def over(*ids):
    """Run a test once per backend kind named in ``ids`` (all of them when
    none is named), as its ``kind`` argument."""
    kinds = [KINDS[i] for i in ids or KINDS]
    return pytest.mark.parametrize("kind", kinds, ids=[kind.id for kind in kinds])


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
    return KEY


@pytest.fixture
def rng():
    return random.Random(1234)

