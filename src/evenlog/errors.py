"""Exception types raised across the engine and analysis toolkit."""


class WalError(Exception):
    """Base class for all evenlog errors."""


class InvalidConfig(WalError, ValueError):
    """A setting is out of range (a slot capacity, a quorum shape). It is
    a ``ValueError`` too, as a bad argument is."""


# --- record codec ---

class RecordTooLarge(WalError):
    """Payload cannot be represented in a 32-bit record length field."""


# --- segmentation ---

class InvalidSegmentSize(WalError, ValueError):
    """Segment size must be a multiple of 16 and at least 32 bytes."""


# --- durability backends ---

class DurabilityError(WalError):
    """A backend failed to persist data; the write is not committed."""


class StorageNotFound(WalError):
    """The directory a backend or recovery reads does not exist."""


class RecoveryCorruption(WalError):
    """Recovery hit a non-zero word that cannot be a record header.

    ``offset`` counts within the scanned plaintext; ``fid`` and ``prefix``
    name the file it lies in (a journal or a quorum metadata file), once
    the recovery walk has attached them."""

    def __init__(self, message: str, offset: int, fid: int | None = None, prefix: str = "journal"):
        super().__init__(message)
        self.offset = offset
        self.fid = fid
        self.prefix = prefix

    def __str__(self) -> str:
        where = f"{self.prefix} file {self.fid}, offset" if self.fid is not None else "stream offset"
        return f"{self.args[0]} ({where} {self.offset})"


# --- crypto ---

class KeyNotFound(WalError):
    """Key provider has no key for the requested key id."""


class IntegrityFailure(WalError):
    """Stored data failed its digest check on every available copy."""


# --- quorum simulation ---

class InsufficientReplicas(WalError):
    """Not enough active replicas to form a single quorum group."""


class InsufficientQuorums(WalError):
    """Fewer candidate quorum groups than the write needs."""


class CommitTimeout(WalError):
    """A real segment could not gather a write quorum of acknowledgements."""


class SegmentNotFound(WalError):
    """Replica has no stored unit for the requested segment id."""


class UnrecoverableSegment(WalError):
    """No recorded replica for a committed segment is reachable."""


# --- leakage analysis ---

class InvalidPrior(WalError):
    """Prior distribution is empty, negative, or sums to zero."""


class InsufficientTrials(WalError):
    """Monte-Carlo run produced no conditioning events."""


class NoData(WalError):
    """Operation requires at least one data point."""


class UnknownSize(WalError):
    """WAL write size not present in the trained mapping."""


# --- workload ---

class InvalidSpec(WalError):
    """Workload specification fails validation."""
