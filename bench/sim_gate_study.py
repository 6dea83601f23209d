"""Errors of the sim-heavy outputs against the exact values, per seed.

    python3 bench/sim_gate_study.py 1 2 3 ...

Runs one sim-heavy command (full size) per given Philox seed and prints
mean_rel, atom_abs and pmf_abs for each, then the largest and RMS value of
each over all seeds. The atom and pmf gates hold per simulation; the mean
is gated over the k simulations of a run, at mean_rel / sqrt(k). So the
study also pools the means of consecutive groups of three seeds and prints
the largest and RMS pooled mean_rel against the gate for k = 3.
"""

import math
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402

GROUP = 3


def summary(name: str, vals: list, gate: float) -> str:
    rms = math.sqrt(sum(v * v for v in vals) / len(vals))
    return (f"{name}: n {len(vals)}, max {max(vals):.4g}, RMS {rms:.4g}, "
            f"gate {gate}")


def main() -> int:
    seeds = [int(a) for a in sys.argv[1:]]
    rows = []
    with tempfile.TemporaryDirectory() as tmpdir:
        inputs = workloads.sim_setup("full", 0, tmpdir)
        for seed in seeds:
            argv = workloads.sim_argv(seed, inputs["jobs"], inputs["lam"],
                                      inputs["out"])
            res = workloads.cli_run(argv, inputs["out"])
            if not res["ok"] or res["value"] != 0:
                print(f"seed {seed}: simulate failed: {res}", file=sys.stderr)
                return 1
            rows.append(workloads.sim_errors(inputs, res["rows"]))
            print(f"seed {seed:4d}  " + "  ".join(
                f"{k} {v:.4g}" for k, v in rows[-1].items()), flush=True)
    gates = workloads.SIM_GATES["full"]
    print(summary("mean_rel", [r["mean_rel"] for r in rows],
                  workloads.pooled_gate("full", 1)))
    for k in ("atom_abs", "pmf_abs"):
        print(summary(k, [r[k] for r in rows], gates[k]))
    pooled = [workloads.pooled_mean_rel(inputs, [r["mean"] for r in rows[i:i + GROUP]])
              for i in range(0, len(rows) - GROUP + 1, GROUP)]
    if pooled:
        print(summary(f"pooled mean_rel ({GROUP} seeds)", pooled,
                      round(workloads.pooled_gate("full", GROUP), 4)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
