"""Guard: ``journal.Disk`` is the only code that touches the OS for files.

The journal, plain and quorum-metadata backends and their recovery make
every file effect through ``JournalFiles.DISK``, which the tests replace
with a double to fail or log any effect. A direct call anywhere else
would bypass both the double and the one place an ``OSError`` becomes a
``WalError``. ``cli.py`` and ``leakage.py`` are exempt: they read and
write files named on the command line.
"""

import ast
from pathlib import Path

import evenlog

PACKAGE = Path(evenlog.__file__).parent
EXEMPT = {"cli.py", "leakage.py"}
OS_FUNCTIONS = {"fsync", "fdatasync", "replace", "listdir", "open", "pwrite", "write", "ftruncate", "posix_fallocate"}
PATH_METHODS = {"touch", "unlink", "mkdir", "read_bytes"}


def is_disk(node) -> bool:
    """Whether ``node`` is ``<something>.DISK``, the seam itself."""
    return isinstance(node, ast.Attribute) and node.attr == "DISK"


def file_calls(node, skip_class="Disk") -> list[tuple[int, str]]:
    """(line, call) of every OS file call under ``node``, leaving out the
    body of any class named ``skip_class``."""
    if isinstance(node, ast.ClassDef) and node.name == skip_class:
        return []
    found = []
    if isinstance(node, ast.ImportFrom) and node.module == "os":
        found += [(node.lineno, f"os.{a.name}") for a in node.names if a.name in OS_FUNCTIONS]
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            found.append((node.lineno, "open"))
        elif isinstance(func, ast.Attribute):
            if isinstance(func.value, ast.Name) and func.value.id == "os" and func.attr in OS_FUNCTIONS:
                found.append((node.lineno, f"os.{func.attr}"))
            elif func.attr in PATH_METHODS and not is_disk(func.value):
                found.append((node.lineno, f".{func.attr}"))
    for child in ast.iter_child_nodes(node):
        found += file_calls(child, skip_class)
    return found


def test_no_module_touches_files_outside_disk():
    offenders = [
        f"{path.relative_to(PACKAGE)}:{line}: {call}"
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.relative_to(PACKAGE).as_posix() not in EXEMPT
        for line, call in file_calls(ast.parse(path.read_text()))
    ]
    assert offenders == []


def test_the_guard_sees_every_call_form_inside_disk():
    tree = ast.parse((PACKAGE / "journal.py").read_text())
    disk = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "Disk")
    assert {call for _, call in file_calls(disk, skip_class=None)} == {
        "os.fsync", "os.fdatasync", "os.replace", "os.listdir", "os.open", "open",
        "os.pwrite", "os.ftruncate", ".mkdir", ".unlink", ".read_bytes",
    }
    calls = ("from os import fsync, posix_fallocate\nPath('x').touch()\nself.DISK.unlink(p)\n"
             "os.path.join('a')\nos.write(fd, b'')\n")
    assert file_calls(ast.parse(calls)) == [
        (1, "os.fsync"), (1, "os.posix_fallocate"), (2, ".touch"), (5, "os.write"),
    ]
