"""Guard: ``src/evenlog`` holds only what the engine, the CLI or the benchmark uses.

Every module-level function and class of the package, and every method of
such a class but the dunders, must be

* named by an ``ast.Name`` or ``ast.Attribute`` somewhere in the package
  outside its own definition (a string, ``__all__`` included, and an
  import do not count), or
* named as a whole word in ``perfbench/*.py``, whose ``LAYERS`` entries
  are strings, or
* on ``ALLOWED``, with the reason it stays.

A name that only the tests use is dead: every reader must check it
against the one-size guarantee, and nothing runs it. The check goes by
name, not by binding, so a use of ``.read`` keeps every method ``read``:
a dead function named like a live function, method or field is not
seen. An ``ALLOWED`` entry that is no longer defined, or is now used,
fails the guard too.
"""

import ast
import re
from pathlib import Path

import evenlog

PACKAGE = Path(evenlog.__file__).parent
BENCH = Path(__file__).resolve().parents[1] / "perfbench"

FAULT_HOOK = "a fault hook of the replica simulator: tests inject faults through it, not through ._store"
TOOLKIT = "the leakage toolkit's schema attack, for the analyst; live traces are to feed it (ROADMAP)"
ALLOWED = {
    "quorum.replica.Replica.corrupt": FAULT_HOOK,
    "quorum.replica.Replica.truncate": FAULT_HOOK,
    "quorum.replica.Replica.forget": FAULT_HOOK,
    "quorum.replica.Replica.revive": FAULT_HOOK,
    "quorum.replica.Replica.segment_ids": FAULT_HOOK,
    "leakage.reverse_size_map": TOOLKIT,
    "leakage.ReverseSizeMap.identified_schemas": TOOLKIT,
    "workload.schema_corpus": TOOLKIT,
    "quorum.metadata.MetadataArray.assign": "the only setup of MetadataArray.update, which perfbench/tracer.py "
                                            "LAYERS times; both go with that entry in a benchmark change",
}


def definitions(tree) -> list[tuple[str, ast.AST]]:
    """(qualified name, node) of each module-level function and class of
    ``tree``, and of each method of such a class but the dunders."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            found += [(f"{node.name}.{sub.name}", sub) for sub in node.body
                      if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                      and not (sub.name.startswith("__") and sub.name.endswith("__"))]
    return found


def dead_names(package: Path, bench: Path) -> set[str]:
    """'<module>.<qualified name>' of each definition under ``package`` that
    no code of ``package`` names outside the definition itself and no
    ``bench/*.py`` file names as a whole word."""
    trees = {".".join(path.relative_to(package).with_suffix("").parts): ast.parse(path.read_text())
             for path in sorted(package.rglob("*.py"))}
    uses: dict[str, list[tuple[str, int]]] = {}  # name -> (module, line) of each use
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.setdefault(node.id, []).append((module, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, []).append((module, node.lineno))
    bench_text = "\n".join(path.read_text() for path in sorted(bench.glob("*.py")))
    dead = set()
    for module, tree in trees.items():
        for qualname, node in definitions(tree):
            name = qualname.rpartition(".")[2]
            outside = [use for use in uses.get(name, ())
                       if use[0] != module or not node.lineno <= use[1] <= node.end_lineno]
            if not outside and not re.search(rf"\b{re.escape(name)}\b", bench_text):
                dead.add(f"{module}.{qualname}")
    return dead


def complaints(dead: set[str], allowed) -> list[str]:
    """'dead: <name>' for each dead name that ``allowed`` lacks, and
    'stale: <name>' for each name of ``allowed`` that is not dead: no
    longer defined, or used now."""
    return sorted([f"dead: {name}" for name in dead - set(allowed)] +
                  [f"stale: {name}" for name in set(allowed) - dead])


def test_every_definition_is_used_or_allowed():
    assert complaints(dead_names(PACKAGE, BENCH), ALLOWED) == []


def test_the_guard_sees_a_dead_name(tmp_path):
    package, bench = tmp_path / "pkg", tmp_path / "bench"
    (package / "sub").mkdir(parents=True)
    bench.mkdir()
    (package / "__init__.py").write_text('from .mod import helper, dead\n__all__ = ["dead", "Box"]\n')
    (package / "mod.py").write_text(
        "def helper():\n    return Box().open()\n"
        "def dead():\n    return dead()\n"          # calls only itself
        "def timed():\n    pass\n"
        "class Box:\n"
        "    def __init__(self):\n        self.shut()\n"
        "    def open(self):\n        return 'close'\n"  # a string does not use close
        "    def shut(self):\n        pass\n"
        "    def close(self):\n        pass\n"
        "    def __repr__(self):\n        return ''\n")
    (package / "sub" / "user.py").write_text("from ..mod import helper\nhelper()\n")
    (bench / "layers.py").write_text('LAYERS = (("t", "pkg.mod", "timed"),)\n')
    dead = dead_names(package, bench)
    assert dead == {"mod.dead", "mod.Box.close"}
    allowed = {"mod.dead": "kept", "mod.helper": "used", "mod.gone": "not defined"}
    assert complaints(dead, allowed) == ["dead: mod.Box.close", "stale: mod.gone", "stale: mod.helper"]
