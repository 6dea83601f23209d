"""One benchmark process: a fresh interpreter that sets up one workload and
then stops (``--mode setup``), makes one pass and reports its peak RSS
(``--mode memory``), or runs it (``--mode run``).

A run makes one untimed warm-up pass, then repeats timed passes while
they fit in ``--seconds`` (at least ``MIN_PASSES``). Every operation of a
pass is timed on its own, right after a run of the workload's calibration
kernel (``calibrate.py``). ``wall_s`` is the mean pass time and
``wall_rel`` divides it by the kernel's mean time. ``--trace 1`` makes the warm-up pass, one untraced pass and one
traced pass over the same inputs.

It is started by ``run.py`` and prints one JSON object on its last stdout
line. ``ready`` is the CLOCK_MONOTONIC time at which the inputs were ready,
so the parent can measure set-up from the moment it started the process.
"""

import argparse
import gc
import json
import os
import statistics
import sys
import time

MIN_PASSES = 3

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

ap = argparse.ArgumentParser()
ap.add_argument("--workload", required=True)
ap.add_argument("--seed", type=int, required=True)
ap.add_argument("--seconds", type=float, required=True)
ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
ap.add_argument("--mode", choices=("setup", "memory", "run"), required=True)
ap.add_argument("--size", choices=("full", "tiny"), default="full")
ap.add_argument("--tmpdir", required=True)
args = ap.parse_args()

# The program under test is the checkout's own source tree, never an
# installed copy.
if not os.path.isfile(os.path.join(SRC, "nudgem", "__init__.py")):
    sys.exit(f"no nudgem source tree under {SRC}")
sys.path.insert(0, SRC)

import workloads  # noqa: E402  (imports nudgem: part of the set-up cost)

wl = workloads.WORKLOADS[args.workload]
inputs = wl.setup(args.size, args.seed, args.tmpdir)
ready = time.monotonic()
if args.mode == "setup":
    print(json.dumps({"ready": ready}))
    sys.exit(0)

import resource  # noqa: E402

import calibrate  # noqa: E402
import envinfo  # noqa: E402
import spans  # noqa: E402

with open(os.path.join(os.path.dirname(__file__), "reference.json"),
          encoding="utf-8") as fh:
    reference = json.load(fh).get(args.size, {}).get(args.workload)


def checked(outputs) -> list:
    """Per-operation problem lists of one pass (outside the timed region)."""
    problems = wl.check(inputs, outputs, reference)
    if len(problems) != inputs["n_ops"]:
        raise RuntimeError(f"{args.workload}: {len(problems)} checked "
                           f"operations, expected {inputs['n_ops']}")
    return problems


problems = []


def run_pass(rep: int, before_op=None) -> list:
    return workloads.run_pass(wl, inputs, rep, before_op)


def one_pass(rep: int, before_op=None) -> list:
    """Operation times of one pass; its outputs are checked afterwards."""
    outputs = run_pass(rep, before_op)
    problems.extend(checked(outputs))
    times = [res["s"] for res in outputs]
    del outputs
    # free the pass's cyclic garbage now, outside the timed region, so
    # every pass starts from the same heap
    gc.collect()
    return times


kernel_times = []


def sample_kernel() -> None:
    kernel_times.append(calibrate.kernel_time(wl.calibration))


def report(doc: dict) -> None:
    """Print the result object, with the run-level check applied."""
    global problems
    if wl.finish is not None:
        run_problems = wl.finish(inputs)
        problems = [p + run_problems for p in problems]
    doc["attempted"] = len(problems)
    doc["failed"] = sum(1 for p in problems if p)
    doc["problems"] = sorted({msg for p in problems for msg in p})[:20]
    print(json.dumps(doc))


one_pass(0)  # warm-up: lazy imports and first-touch allocations
if args.mode == "memory":
    # set-up plus one pass, as a user running the computation once sees it
    report({"ready": ready, "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0})
    sys.exit(0)
calibrate.kernel_time(wl.calibration)  # warm the kernel too
# A traced run needs one untraced pass only, as the base of the overhead.
seconds = 0.0 if args.trace else args.seconds
walls = []
start = time.perf_counter()
# start no pass that would end after the run's time (judged by the last one)
while (len(walls) < (1 if args.trace else MIN_PASSES)
       or time.perf_counter() - start + walls[-1] < seconds):
    walls.append(sum(one_pass(len(walls) + 1, before_op=sample_kernel)))
# Means, not medians: the host switches between full speed and a state of
# about half speed that lasts seconds. Kernel samples are then bimodal and
# their median jumps between the modes, while the ratio of means cancels
# the share of the run spent in the slow state.
wall_s = statistics.fmean(walls)
kernel_s = statistics.fmean(kernel_times)

doc = {"ready": ready, "wall_s": wall_s, "walls": walls,
       "kernel": wl.calibration, "kernel_s": kernel_s,
       "kernel_times": kernel_times,
       "jobs": inputs.get("jobs"), "env": envinfo.environment(ROOT)}
if args.trace:
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        # the inputs (and seed) of the untraced pass, so both do the same work
        outputs = tracer.span("bench.pass", run_pass)(1)
    finally:
        tracer.uninstall()
    traced_wall = sum(res["s"] for res in outputs)
    problems.extend(checked(outputs))  # untraced: checks are not layer time
    del outputs
    doc.update(traced_wall=traced_wall, layers=spans.layer_metrics(tracer),
               layer_self_sum=spans.layer_self_sum(tracer),
               missing=tracer.missing, n_spans=len(tracer.spans))
    # spans are kept in memory during the pass and written once, here
    out = os.path.join(ROOT, ".bench_out",
                       f"spans-{args.workload}-{args.size}-seed{args.seed}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent"],
                   "spans": tracer.dump()}, fh)

report(doc)
