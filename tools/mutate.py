"""Run the mutation catalogue: every mutant must make its named tests fail.

    python tools/mutate.py                 # the whole catalogue
    python tools/mutate.py NAME [NAME...]  # some entries only

Each entry of ``tools/mutants.json`` names a file under ``src/``, an exact
snippet that occurs in it once, the snippet's replacement, and the tests
that must catch the change. The script makes one copy of ``src/``,
``tests/`` and ``pyproject.toml`` per worker in a temporary directory, and
first runs every named test on the unmutated copies, split among the
workers. Then each worker takes entries in turn: it applies the
replacement to its copy, runs the entry's tests with pytest and restores
the file. A mutant is killed when pytest reports failed tests (exit 1).
There are ``os.cpu_count()`` workers, never more than there are entries;
each pytest gets an equal share of the CPUs for its BLAS threads unless
OMP_NUM_THREADS, OPENBLAS_NUM_THREADS or MKL_NUM_THREADS is set. Results print in catalogue order.

Each pytest runs in its own process group and may take ``TIMEOUT_S``
seconds. A pytest that runs longer is killed with its whole group, so that
none of its processes is left running, and prints as TIMEOUT. A timed-out
mutant counts as not killed: only failed tests kill a mutant, and a mutant
that makes a test loop forever has not been shown to fail it.

Exit status 0 when every mutant is killed. Exit status 1 when a mutant
survives or times out, when a snippet is missing or occurs more than once (the
catalogue has fallen out of step with the code), when the unmutated tests
fail, or when pytest stops for another reason (a test id that no longer
exists, a collection error). Standard library only; it needs the test
dependencies (pytest, hypothesis, scipy) that the suite needs.
"""

from __future__ import annotations

import json
import os
import queue
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CATALOGUE = ROOT / "tools" / "mutants.json"
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
TIMEOUT_S = 120  # per pytest run; the slowest kill takes about 35 s
TIMEOUT = "timeout"  # run_tests' code for a pytest stopped at TIMEOUT_S


def run_tests(copy: Path, tests, threads: int) -> tuple:
    """pytest's exit code (``TIMEOUT`` when it ran past ``TIMEOUT_S``) and
    last output line for the given test ids, run in the copy with its own
    src/ on the path."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    for name in BLAS_THREADS:
        env.setdefault(name, str(threads))
    proc = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "-o", "addopts=", *tests],
        cwd=copy, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return TIMEOUT, f"no result after {TIMEOUT_S} s"
    lines = [ln for ln in out.splitlines() if ln.strip()]
    return proc.returncode, lines[-1] if lines else err.strip()


def make_copy(copy: Path) -> None:
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, copy / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")


def main(argv) -> int:
    entries = json.loads(CATALOGUE.read_text(encoding="utf-8"))
    if argv:
        unknown = set(argv) - {e["name"] for e in entries}
        if unknown:
            print(f"unknown mutants: {', '.join(sorted(unknown))}")
            return 1
        entries = [e for e in entries if e["name"] in argv]
    jobs = max(1, min(os.cpu_count() or 1, len(entries)))
    threads = max(1, (os.cpu_count() or 1) // jobs)
    with tempfile.TemporaryDirectory(prefix="nudgem-mutate-") as tmp:
        copies: queue.SimpleQueue = queue.SimpleQueue()
        for i in range(jobs):
            make_copy(Path(tmp) / str(i))
            copies.put(Path(tmp) / str(i))

        def in_a_copy(task, *args):
            """task(copy, *args) in a copy no other worker holds."""
            copy = copies.get()
            try:
                return task(copy, *args)
            finally:
                copies.put(copy)

        def run_entry(copy: Path, entry) -> tuple:
            name, target = entry["name"], copy / entry["file"]
            original = target.read_text(encoding="utf-8")
            found = original.count(entry["find"])
            if found != 1:
                return 1, f"ERROR    {name}: snippet found {found} times in {entry['file']}"
            target.write_text(original.replace(entry["find"], entry["replace"]),
                              encoding="utf-8")
            began = time.perf_counter()
            try:
                code, last = run_tests(copy, entry["tests"], threads)
            finally:
                target.write_text(original, encoding="utf-8")
            verdict = {0: "SURVIVED", 1: "killed", TIMEOUT: "TIMEOUT"}.get(
                code, f"ERROR (pytest exit {code})")
            return int(code != 1), (f"{verdict:8s} {name} "
                                    f"({time.perf_counter() - began:.1f} s): {last}")

        with ThreadPoolExecutor(jobs) as pool:
            tests = sorted({t for e in entries for t in e["tests"]})
            shares = [tests[i::jobs] for i in range(min(jobs, len(tests)))]
            for code, last in pool.map(
                    lambda share: in_a_copy(run_tests, share, threads), shares):
                if code != 0:
                    print(f"unmutated tests do not pass (pytest exit {code}): {last}")
                    return 1
            bad = 0
            for failed, line in pool.map(
                    lambda entry: in_a_copy(run_entry, entry), entries):
                bad += failed
                print(line, flush=True)
    print(f"{len(entries) - bad} of {len(entries)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
