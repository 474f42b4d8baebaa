"""Checkpoint-driven collection as a property over operation sequences.

For any mix of appends (full-sync or buffered), checkpoints,
crash-restarts and flushes whose durable write fails, recovery returns
exactly the records made durable since the last checkpoint. A failed
flush stops the engine: with the disk working again, every later call
raises the failure and touches no file, until a restart. Right after a
checkpoint the backend holds nothing older than the new epoch: no file
below the sidecar fid, and no segment below it on a live replica. The
property runs on every kind of the backend matrix (``conftest.KINDS``).
"""

import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evenlog.engine import WalEngine
from evenlog.errors import DurabilityError
from evenlog.journal import JournalFiles, list_epoch_fids, read_sidecar
from evenlog.records import encoded_record_size

from .conftest import KEY, SLOT, DiskDouble, over, pad4

APPEND = st.tuples(st.just("append"), st.integers(1, 600), st.booleans())
# a full-sync append whose flush fails at its durable write; the stopped
# engine refuses every call, then restarts
FAIL = st.tuples(st.just("fail"), st.integers(1, 600))
STEP = st.one_of(APPEND, FAIL, st.just(("checkpoint",)), st.just(("crash",)))
# toggles the first member of one of the first 8 groups (each quorum kind
# has 8 or more): at most one replica per group is down
TOGGLE = st.tuples(st.just("toggle"), st.integers(0, 7))


class Model:
    """What the slot has made durable since the last checkpoint."""

    def __init__(self):
        self.durable, self.buffered, self.buffered_bytes = [], [], 0

    def append(self, payload: bytes, full_sync: bool) -> None:
        size = encoded_record_size(len(payload))
        if self.buffered_bytes + size > SLOT:
            self.flush()
        self.buffered.append(payload)
        self.buffered_bytes += size
        if full_sync:
            self.flush()

    def flush(self) -> None:
        self.durable += self.buffered
        self.buffered, self.buffered_bytes = [], 0

    def crash(self) -> None:
        self.buffered, self.buffered_bytes = [], 0


def engine_on(backend) -> WalEngine:
    return WalEngine(backend, SLOT)  # no larger than any kind's largest flush


def assert_collected(kind, backend) -> None:
    fid = read_sidecar(backend.root)[1]
    assert list_epoch_fids(backend.root, backend.PREFIX) == [fid] == [backend.current_file_id]
    assert all(held >= fid for held in kind.held(backend))


def run(kind, root, steps) -> None:
    engine, model = engine_on(kind.open(root, KEY, sync=False)), Model()
    for i, step in enumerate(steps):
        if step[0] == "append":
            payload = (i.to_bytes(4, "little") * 150)[: step[1]]
            engine.append(payload, full_sync=step[2])
            model.append(payload, step[2])
        elif step[0] == "checkpoint":
            engine.checkpoint()
            model.flush()
            model.durable = []
            assert_collected(kind, engine.backend)
        elif step[0] == "crash":
            engine = engine_on(kind.reopen(engine.backend))
            model.crash()
        elif step[0] == "fail":
            # the failed flush and everything still buffered are lost
            payload = (i.to_bytes(4, "little") * 150)[: step[1]]
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(JournalFiles, "DISK", disk := DiskDouble(fail={"append"}))
                with pytest.raises(DurabilityError):
                    engine.append(payload, full_sync=True)
                disk.fail, disk.events = set(), []
                for call in (lambda: engine.append(payload), lambda: engine.append(payload, full_sync=True),
                             engine.flush, engine.checkpoint):
                    with pytest.raises(DurabilityError):
                        call()
                assert disk.events == []
            engine = engine_on(kind.reopen(engine.backend))
            model.crash()
        else:
            replica = engine.backend.replicas[engine.backend.groups[step[1]][0]]
            if replica.alive:
                replica.kill()
            else:
                replica.revive()
        recovered = [r.payload for r in engine.backend.recover() if not r.is_checkpoint]
        assert recovered == [pad4(p) for p in model.durable], f"after step {i}: {step}"
    engine.backend.close()


@over()
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_recovers_durable_records_and_keeps_one_epoch(kind, data):
    steps = data.draw(st.lists(st.one_of(STEP, TOGGLE) if kind.replicas else STEP, max_size=20))
    with tempfile.TemporaryDirectory() as root:
        run(kind, root, steps)
