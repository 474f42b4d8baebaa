"""Guard: every backend keeps the shared properties, through one contract.

A property every backend must keep runs once per kind of the backend
matrix (``conftest.KINDS``). A backend class that no kind builds would
skip all of them, and a test that switches on a backend's class, or reads
a replica's private store, works around the kinds instead of through them.
Within the package, only the slot calls a backend's ``persist_slot`` or
``checkpoint``, so no write bypasses its stop state. Quorum recovery
reads no segment by itself (no ``.read(`` call in ``quorum/backend.py``):
a per-segment replica read would show each write's segment count.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import evenlog
from evenlog.journal import JournalFiles

from .conftest import KINDS

TESTS = Path(__file__).parent
PACKAGE = Path(evenlog.__file__).parent


def backend_classes() -> set[type]:
    """Every subclass of ``JournalFiles`` in the package, at any depth."""
    for module in pkgutil.walk_packages(evenlog.__path__, "evenlog."):
        importlib.import_module(module.name)
    found, todo = set(), [JournalFiles]
    while todo:
        subclasses = todo.pop().__subclasses__()
        found.update(subclasses)
        todo += subclasses
    return {cls for cls in found if cls.__module__.startswith("evenlog.")}


def offences(tree, class_names) -> list[tuple[int, str]]:
    """(line, what) of each ``isinstance`` against a class named in
    ``class_names`` and each read of an attribute ``_store`` under ``tree``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "_store":
            found.append((node.lineno, "._store"))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" and len(node.args) == 2:
            classes = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            for cls in classes:
                name = cls.attr if isinstance(cls, ast.Attribute) else getattr(cls, "id", None)
                if name in class_names:
                    found.append((node.lineno, f"isinstance {name}"))
    return sorted(found)


def backend_writes(tree) -> list[tuple[int, str]]:
    """(line, what) of each use of ``persist_slot`` and each call of a
    ``checkpoint`` with arguments (a backend's; the engine's and the
    slot's take none) but ``super().checkpoint``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "persist_slot":
            found.append((node.lineno, "persist_slot"))
        elif (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "checkpoint" and node.args
              and getattr(getattr(node.func.value, "func", None), "id", None) != "super"):
            found.append((node.lineno, "checkpoint"))
    return sorted(found)


def reads(tree) -> list[tuple[int, str]]:
    """(line, what) of each call of a method named ``read`` under ``tree``."""
    return sorted((node.lineno, ".read(") for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "read")


def test_every_backend_class_is_a_kind_of_the_matrix(tmp_path, key):
    built = {type(kind.open(tmp_path / kind.id, key)) for kind in KINDS.values()}
    assert backend_classes() == built


def test_no_test_switches_on_a_backend_class_or_reads_a_replica_store():
    names = {cls.__name__ for cls in backend_classes() | {JournalFiles}}
    offenders = [
        f"{path.name}:{line}: {what}"
        for path in sorted(TESTS.glob("*.py"))
        for line, what in offences(ast.parse(path.read_text()), names)
    ]
    assert offenders == []


def test_only_the_slot_writes_to_a_backend():
    offenders = [
        f"{path.relative_to(PACKAGE)}:{line}: {what}"
        for path in sorted(PACKAGE.rglob("*.py")) if path.name != "slots.py"
        for line, what in backend_writes(ast.parse(path.read_text()))
    ]
    assert offenders == []


def test_quorum_recovery_reads_no_segment_by_itself():
    assert reads(ast.parse((PACKAGE / "quorum" / "backend.py").read_text())) == []


def test_the_guard_sees_each_offence():
    code = ("isinstance(b, QuorumBackend)\nisinstance(b, (int, journal.JournalBackend))\n"
            "rep._store[sid] = x\nisinstance(b, int)\nsid in replica.segment_ids\n")
    assert offences(ast.parse(code), {"QuorumBackend", "JournalBackend"}) == [
        (1, "isinstance QuorumBackend"), (2, "isinstance JournalBackend"), (3, "._store"),
    ]
    code = ("backend.persist_slot(b)\nwrite = self.backend.persist_slot\nb.checkpoint(1)\n"
            "super().checkpoint(ckpt_id)\nengine.checkpoint()\n")
    assert backend_writes(ast.parse(code)) == [(1, "persist_slot"), (2, "persist_slot"), (3, "checkpoint")]
    code = "replica.read(sid)\nunit = replicas[rid].read(sid)\nread = replica.read\nreplica.segments(fid)\n"
    assert reads(ast.parse(code)) == [(1, ".read("), (2, ".read(")]
