import random

import pytest

from evenlog.crypto import StaticKeyProvider
from evenlog.quorum import build_cluster  # noqa: F401  (re-exported for the test modules)

MASTER = b"unit-test-master-secret-32-bytes"


def pad4(data: bytes) -> bytes:
    """Payloads come back from recovery padded to a multiple of 4."""
    return data + b"\x00" * ((-len(data)) % 4)


@pytest.fixture
def key():
    return StaticKeyProvider(MASTER).get("default")


@pytest.fixture
def rng():
    return random.Random(1234)

