"""The package holds only what the program runs: every module-level
function and class of ``src/nudgem`` is referenced in ``src/`` outside its
own definition, exported in ``nudgem.__all__``, or named by the
benchmark under ``bench/``. Helpers that only tests call belong in
``tests/oracles.py``. Everything is read from the files; there is no
allowlist."""

import ast
import re
from pathlib import Path

import nudgem

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "nudgem").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))


def _definitions(tree):
    """(name, first line, last line) of each module-level def and class."""
    return [(node.name, node.lineno, node.end_lineno) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def _references(tree):
    """(name, line) of every name read or attribute taken in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def test_every_package_name_has_a_caller():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SRC}
    refs = {path: list(_references(tree)) for path, tree in trees.items()}
    bench = "\n".join(path.read_text(encoding="utf-8") for path in BENCH)
    unused = []
    for path, tree in trees.items():
        for name, first, last in _definitions(tree):
            in_src = any(ref == name and not (other == path and first <= line <= last)
                         for other, found in refs.items() for ref, line in found)
            if not (in_src or name in nudgem.__all__
                    or re.search(rf"\b{re.escape(name)}\b", bench)):
                unused.append(f"{path.name}:{first} {name}")
    assert not unused, "no caller in src/, __all__ or bench/: " + ", ".join(unused)
