"""Outside-in layer tracing for the evenlog benchmark.

The tracer replaces public functions of the program with timing wrappers
for the length of a traced round and puts the originals back afterwards;
no program source changes. Every call becomes a span (name, start, end,
parent span, append id). Spans stay in memory, in per-thread arrays, and
are written out once at the end of a run.

A span's self time is its duration minus the durations of its direct
child spans. The root ``engine.append`` span opens a new append id that
every span below it inherits; spans outside an append (close, recovery)
carry append id -1.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
from array import array
from time import perf_counter

# (metric prefix, module, attribute path). A dotted path names a method
# on a class; a plain name is a module-level function, patched in every
# evenlog module that imported it by name.
LAYERS = (
    ("engine.append", "evenlog.engine", "WalEngine.append"),
    ("records.encode_record", "evenlog.records", "encode_record"),
    ("slots.append", "evenlog.slots", "Slot.append"),
    ("journal.persist_slot", "evenlog.journal", "JournalBackend.persist_slot"),
    ("segmentation.pad_to_segments", "evenlog.segmentation", "pad_to_segments"),
    ("segmentation.segment_slot", "evenlog.segmentation", "segment_slot"),
    ("crypto.encrypt_stream", "evenlog.crypto", "encrypt_stream"),
    ("crypto.encrypt_segment", "evenlog.crypto", "encrypt_segment"),
    ("crypto.split_units", "evenlog.crypto", "split_units"),
    ("crypto.digest_segment", "evenlog.crypto", "digest_segment"),
    ("crypto.decrypt_stream", "evenlog.crypto", "decrypt_stream"),
    ("crypto.decrypt_segment", "evenlog.crypto", "decrypt_segment"),
    ("os.fdatasync", "os", "fdatasync"),
    ("observe.record", "evenlog.observe", "StorageTrace.record"),
    ("quorum.persist_slot", "evenlog.quorum.backend", "QuorumBackend.persist_slot"),
    ("quorum.select_quorums", "evenlog.quorum.selection", "select_quorums"),
    ("quorum.Replica.store", "evenlog.quorum.replica", "Replica.store"),
    ("quorum.Replica.read", "evenlog.quorum.replica", "Replica.read"),
    ("quorum.metadata.update", "evenlog.quorum.metadata", "MetadataArray.update"),
    ("quorum.metadata.to_bytes", "evenlog.quorum.metadata", "MetadataArray.to_bytes"),
    ("quorum.metadata.from_bytes", "evenlog.quorum.metadata", "MetadataArray.from_bytes"),
    ("quorum.assemble_stream", "evenlog.quorum.backend", "assemble_stream"),
    ("journal.plaintext_stream", "evenlog.journal", "plaintext_stream"),
    ("records.scan_padded_stream", "evenlog.records", "scan_padded_stream"),
)
ROOT_SPAN = "engine.append"


class _ThreadSpans:
    """Span columns and running totals of one thread."""

    def __init__(self, n_names: int):
        self.name = array("H")
        self.parent = array("i")
        self.append_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.child_s: list[float] = []  # child time of each open span
        self.current_append = -1
        self.calls = [0] * n_names
        self.self_s = [0.0] * n_names


class Tracer:
    def __init__(self):
        self.names = [name for name, _, _ in LAYERS]
        self._local = threading.local()
        self._threads: list[_ThreadSpans] = []
        self._threads_lock = threading.Lock()
        self._append_ids = itertools.count()
        self._undo: list[tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Swap every layer's function for its timing wrapper."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        for nid, (_, module_name, path) in enumerate(LAYERS):
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(nid, original.__func__))
                else:
                    wrapped = self._wrap(nid, original)
                self._swap(cls, attr, original, wrapped)
            else:
                original = getattr(module, path)
                wrapped = self._wrap(nid, original)
                for holder in [module] + [m for n, m in list(sys.modules.items()) if n.startswith("evenlog")]:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._swap(holder, attr, original, wrapped)

    def _swap(self, holder, attr: str, original, wrapped) -> None:
        setattr(holder, attr, wrapped)
        self._undo.append((holder, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)

    # -- spans --------------------------------------------------------------

    def _spans(self) -> _ThreadSpans:
        spans = _ThreadSpans(len(self.names))
        self._local.spans = spans
        with self._threads_lock:
            self._threads.append(spans)
        return spans

    def _wrap(self, nid: int, fn):
        local = self._local
        opens_append = self.names[nid] == ROOT_SPAN
        append_ids = self._append_ids
        new_thread = self._spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                sp = local.spans
            except AttributeError:
                sp = new_thread()
            saved_append = sp.current_append
            if opens_append:
                sp.current_append = next(append_ids)
            idx = len(sp.start)
            sp.name.append(nid)
            sp.parent.append(sp.stack[-1] if sp.stack else -1)
            sp.append_id.append(sp.current_append)
            sp.end.append(0.0)
            sp.stack.append(idx)
            sp.child_s.append(0.0)
            start = perf_counter()
            sp.start.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                sp.end[idx] = end
                sp.stack.pop()
                duration = end - start
                sp.self_s[nid] += duration - sp.child_s.pop()
                sp.calls[nid] += 1
                if sp.child_s:
                    sp.child_s[-1] += duration
                sp.current_append = saved_append

        return wrapper

    def take_totals(self) -> dict[str, float | int]:
        """``<layer>.calls`` and ``<layer>.self_s`` since the last call;
        resets the running totals. Call only while no traced code runs."""
        out: dict[str, float | int] = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = sum(t.calls[nid] for t in self._threads)
            out[f"{name}.self_s"] = sum(t.self_s[nid] for t in self._threads)
        for t in self._threads:
            t.calls = [0] * len(self.names)
            t.self_s = [0.0] * len(self.names)
        return out

    def span_count(self) -> int:
        return sum(len(t.start) for t in self._threads)

    def dump(self, path) -> None:
        """Write every span as numpy columns; parents index the global
        span order (-1 for a root span)."""
        import numpy as np

        cols = {k: [] for k in ("name", "parent", "append_id", "thread", "start", "end")}
        offset = 0
        for tid, t in enumerate(self._threads):
            parent = np.frombuffer(t.parent, dtype=np.int32).astype(np.int64)
            cols["parent"].append(np.where(parent >= 0, parent + offset, -1))
            cols["name"].append(np.frombuffer(t.name, dtype=np.uint16))
            cols["append_id"].append(np.frombuffer(t.append_id, dtype=np.int64))
            cols["thread"].append(np.full(len(t.start), tid, dtype=np.int32))
            cols["start"].append(np.frombuffer(t.start, dtype=np.float64))
            cols["end"].append(np.frombuffer(t.end, dtype=np.float64))
            offset += len(t.start)
        arrays = {k: np.concatenate(v) if v else np.empty(0) for k, v in cols.items()}
        np.savez(path, names=np.array(self.names), **arrays)
