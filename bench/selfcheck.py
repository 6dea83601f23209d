"""Tiny-size self-check of the benchmark harness.

    python3 bench/selfcheck.py

Runs every workload at the tiny size (dist --m 2, 1e4 simulated jobs, two
lambda points) with tracing off and on, and asserts that the result line
carries exactly the metrics BENCHMARK.json names, each with its unit, that
all operations pass their checks, and that the benchmark exits non-zero
without a result in a directory that has no nudgem source tree.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd: str, workload: str, trace: int):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        definition = json.load(fh)
    errors = []
    for wl in definition["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, wl["name"], trace)
            label = f"{wl['name']} trace {trace}"
            if proc.returncode != 0:
                errors.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in definition[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                errors.append(f"{label}: metrics {sorted(set(got) ^ set(want))} "
                              "missing or extra, or a unit differs")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{label}: result keys {sorted(result)}")
            if not (result["correct"] and result["attempted"] >= 1
                    and result["failed"] == 0):
                errors.append(f"{label}: {result['failed']} of "
                              f"{result['attempted']} operations failed")
            print(f"ok  {label}: {len(got)} metrics", flush=True)

    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = run(bare, definition["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        errors.append("benchmark without a source tree did not fail cleanly")
    else:
        print("ok  no source tree: exit", proc.returncode, "and no result")

    for e in errors:
        print("FAIL", e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
