"""nudgem benchmark: one workload, one run.

    python3 bench/run.py --workload dist-grid --seed 1 --seconds 18 --trace 0

Run from the root of a checkout; the program is imported from its ``src/``.
Each workload runs in a fresh interpreter (``bench/worker.py``) with BLAS
pinned to one thread, driven by one caller in a closed loop: each call
waits for the previous one. After one untimed warm-up pass, whole passes
are repeated while they fit in ``--seconds`` (at least three). Every
operation is timed on its own, right after a run of a fixed calibration
kernel (``calibrate.py``), and outputs are checked outside the timed
region.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json:
``wall_rel``, the mean pass time in units of the kernel's mean time; the
peak RSS of a separate fresh interpreter that sets up and makes one pass;
and the median set-up time of several fresh interpreters, scaled to the
speed at which the kernel takes ``KERNEL_REFERENCE_S``. The summary lines
also give the mean pass time in seconds, ``wall_s``, and the unscaled
set-up time.

``--trace 1`` runs one untraced pass and the same pass with spans around
every layer's public functions, and reports the per-layer metrics, the
tracing overhead (traced minus untraced pass time) and the time no layer
span covers.

The last stdout line is the result object; the lines before it are a
readable summary and the run-environment record. A run record with all of
it is written to ``.bench_out/``. Exits non-zero without a result when the
workload cannot be run at all.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
# Fresh interpreters whose set-up time is measured; setup_s is their median.
# One of them measures the peak RSS of one pass, one makes the timed run.
N_SETUPS = 4
# setup_s is scaled to the host speed at which a calibrate.py kernel takes
# this long, its nominal time at full speed. Set-up, like a pass, slows with
# the host: the raw median moved by up to 37% between sets of ten runs, the
# scaled one by up to 15%.
KERNEL_REFERENCE_S = 0.05
# One BLAS thread: the workload process stays single-threaded, so on a
# machine of a few shared cores the run measures the program, not how the
# scheduler places a second BLAS thread.
BLAS_THREADS = 1
# Every worker must have finished this long after the run started.
DEADLINE_S = 170.0


class WorkerError(RuntimeError):
    pass


def load_definition() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def worker_env(mode: str) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    if mode == "memory":
        # Peak RSS must not depend on the run. With glibc's adaptive mmap
        # threshold, large freed arrays stay in the heap, whose high-water
        # mark varied between identical runs: tail-solve read 183 MB, or
        # 210 MB in one run of five. A fixed threshold maps every array of
        # 1 MB or more on its own and unmaps it when freed (tail-solve then
        # reads 168 MB). It also costs page faults, so the timed worker
        # keeps glibc's default.
        env["MALLOC_MMAP_THRESHOLD_"] = str(1 << 20)
    # no transparent huge pages (numpy asks for them for large arrays): the
    # host may or may not have them free
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    # fixed str hashing: the same set and dict orders in every run
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, mode: str, tmpdir: str, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--tmpdir", tmpdir]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(mode), text=True,
                              capture_output=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{mode} worker timed out") from exc
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
    try:
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise WorkerError(f"{mode} worker printed no result") from exc
    doc["setup_s"] = doc["ready"] - started
    return doc


def main() -> int:
    definition = load_definition()
    names = [w["name"] for w in definition["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: small inputs for the self-check")
    args = ap.parse_args()
    # on SIGTERM, unwind so that subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(OUT, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    try:
        setups, workers = [], []
        if not args.trace:
            workers.append(run_worker(args, "memory", tmpdir, deadline))
            for _ in range(N_SETUPS - 2):
                setups.append(run_worker(args, "setup", tmpdir, deadline)["setup_s"])
        doc = run_worker(args, "run", tmpdir, deadline)
        workers.append(doc)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    setups += [w["setup_s"] for w in workers]
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    problems = sorted({msg for w in workers for msg in w["problems"]})[:20]

    wall_s = doc["wall_s"]
    if args.trace:
        values = dict(doc["layers"])
        values["trace.overhead_s"] = doc["traced_wall"] - wall_s
        values["trace.unattributed_s"] = doc["traced_wall"] - doc["layer_self_sum"]
        wanted = definition["per_layer"]
    else:
        values = {"wall_rel": wall_s / doc["kernel_s"],
                  "peak_rss_mb": workers[0]["peak_rss_mb"],
                  "setup_s": statistics.median(setups)
                  * KERNEL_REFERENCE_S / doc["kernel_s"]}
        wanted = definition["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "size": args.size,
              "env": doc["env"], "wall_s": wall_s,
              "pass_walls_s": doc["walls"], "kernel": doc["kernel"],
              "kernel_s": doc["kernel_s"], "kernel_times_s": doc["kernel_times"],
              "setups_s": setups, "problems": problems,
              "missing_trace_targets": doc.get("missing", []),
              "n_spans": doc.get("n_spans"), "result": result}
    name = f"run-{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload} ({args.size}), seed {args.seed}, "
          f"{len(doc['walls'])} untraced pass(es): "
          + ", ".join(f"{w:.3f}" for w in doc["walls"]) + " s")
    if not args.trace:
        print(f"  {'wall_s':40s} {wall_s:.6g} s  (kernel {doc['kernel']}: "
              f"mean {doc['kernel_s']:.4g} s over {len(doc['kernel_times'])})")
        print(f"  {'setup_s, unscaled':40s} {statistics.median(setups):.6g} s")
    for k, v in metrics.items():
        print(f"  {k:40s} {v['value']:.6g} {v['unit']}")
    print(f"  {'fail_frac':40s} {failed / attempted:.6g} "
          f"({failed} of {attempted} operations)")
    if args.workload == "sim-heavy" and not args.trace:
        jobs = doc.get("jobs", 0)
        print(f"  {'jobs_per_s':40s} {jobs / wall_s:.6g} 1/s")
    for msg in problems:
        print(f"  problem: {msg}")
    print("env " + json.dumps(doc["env"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
