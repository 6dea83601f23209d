"""The mutation catalogue ``tools/mutants.json`` stays in step with the
code and the tests: every snippet occurs once in its file, and every
named test is a function of its test file, so ``tools/mutate.py`` can
apply each mutant and run each test. Files are read only; no mutant is
run."""

import ast
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENTRIES = json.loads((ROOT / "tools" / "mutants.json").read_text(encoding="utf-8"))


def test_every_snippet_occurs_once():
    counts = {e["name"]: (ROOT / e["file"]).read_text(encoding="utf-8").count(e["find"])
              for e in ENTRIES}
    assert {name: n for name, n in counts.items() if n != 1} == {}


def test_every_named_test_is_defined():
    missing = []
    for entry in ENTRIES:
        for test_id in entry["tests"]:
            path, _, name = test_id.partition("::")
            tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
            defs = {node.name for node in tree.body
                    if isinstance(node, ast.FunctionDef)}
            if name.split("[")[0] not in defs:
                missing.append((entry["name"], test_id))
    assert missing == []
