"""Run the mutation catalogue: every mutant must make its named tests fail.

    python tools/mutate.py                 # the whole catalogue
    python tools/mutate.py NAME [NAME...]  # some entries only

Each entry of ``tools/mutants.json`` names a file under ``src/``, an exact
snippet that occurs in it once, the snippet's replacement, and the tests
that must catch the change. The script copies ``src/``, ``tests/`` and
``pyproject.toml`` into a temporary directory and first runs every named
test on the unmutated copy. Then, for each entry, it applies the
replacement to the copy, runs the entry's tests with pytest and restores
the file. A mutant is killed when pytest reports failed tests (exit 1).

Exit status 0 when every mutant is killed. Exit status 1 when a mutant
survives, when a snippet is missing or occurs more than once (the
catalogue has fallen out of step with the code), when the unmutated tests
fail, or when pytest stops for another reason (a test id that no longer
exists, a collection error). Standard library only; it needs the test
dependencies (pytest, hypothesis, scipy) that the suite needs.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CATALOGUE = ROOT / "tools" / "mutants.json"


def run_tests(copy: Path, tests) -> tuple:
    """pytest's exit code and last output line for the given test ids,
    run in the copy with its own src/ on the path."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    res = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "-o", "addopts=", *tests],
        cwd=copy, env=env, capture_output=True, text=True)
    lines = [ln for ln in res.stdout.splitlines() if ln.strip()]
    return res.returncode, lines[-1] if lines else res.stderr.strip()


def main(argv) -> int:
    entries = json.loads(CATALOGUE.read_text(encoding="utf-8"))
    if argv:
        unknown = set(argv) - {e["name"] for e in entries}
        if unknown:
            print(f"unknown mutants: {', '.join(sorted(unknown))}")
            return 1
        entries = [e for e in entries if e["name"] in argv]
    bad = 0
    with tempfile.TemporaryDirectory(prefix="nudgem-mutate-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")

        tests = sorted({t for e in entries for t in e["tests"]})
        code, last = run_tests(copy, tests)
        if code != 0:
            print(f"unmutated tests do not pass (pytest exit {code}): {last}")
            return 1

        for entry in entries:
            name, target = entry["name"], copy / entry["file"]
            original = target.read_text(encoding="utf-8")
            found = original.count(entry["find"])
            if found != 1:
                print(f"ERROR    {name}: snippet found {found} times in {entry['file']}")
                bad += 1
                continue
            target.write_text(original.replace(entry["find"], entry["replace"]),
                              encoding="utf-8")
            began = time.perf_counter()
            try:
                code, last = run_tests(copy, entry["tests"])
            finally:
                target.write_text(original, encoding="utf-8")
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR (pytest exit {code})")
            bad += code != 1
            print(f"{verdict:8s} {name} ({time.perf_counter() - began:.1f} s): {last}")
    print(f"{len(entries) - bad} of {len(entries)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
