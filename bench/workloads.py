"""The four benchmark workloads: inputs, one timed pass, and the checks.

Each workload has three parts:

- ``setup(size, seed, tmpdir)`` builds the inputs (mixes, argument lists).
  It runs in a fresh interpreter right after ``import nudgem``; its cost is
  the ``setup_s`` metric.
- ``ops(inputs, rep)`` lists the operations of one pass; ``rep`` counts the
  passes of a run. Each operation is a callable that calls only public
  nudgem functions and returns one record: the raw output and the
  operation's wall time. An operation that raises is recorded as failed;
  nothing is checked inside the timed region. ``run_pass`` runs them.
- ``check(inputs, outputs, reference)`` returns one list of problems per
  operation (empty when the operation is correct). It compares against the
  reference outputs of the commit that defined the benchmark and against
  independent oracles.

Only ``sim-heavy`` uses the seed: pass ``rep`` simulates with Philox seed
``seed * 1000 + rep``. The analytic workloads are fixed paper recipes and
do the same work on every seed and every pass.
"""

from __future__ import annotations

import csv
import functools
import math
import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from nudgem import asymptotics, cli, fluid, policy, swap

# Outputs must agree with the reference outputs to this tolerance.
REFERENCE_TOL = 1e-12
# Independent oracles of the analytic workloads.
C0_TOL = 1e-10               # c0 = 1 - lambda and P[W1 > 0] = lambda
RICCATI_TOL = 1e-12          # riccati_residual of the solved Psi
TAIL_RATIO_TOL = 1e-6        # w1 tail vs c_W1 e^{-theta t}
FAMILY_TOL = 1e-10           # family_prefactors(nudge-m) vs closed form
# Simulation gates for sim-heavy. At lambda = 0.95 batch-means standard
# errors understate the error of a simulation, so the gates are absolute,
# set from sim_gate_study.py over seeds 1-150 (bench/README.md has the
# table). The atom and pmf gates hold per simulation. The mean response of
# one 2e5-job simulation has a heavy right tail (mean_rel RMS 0.118, largest
# 0.468), so the mean is gated over all k distinct simulations of a worker
# process (sim_finish): mean_rel of their pooled mean <= mean_rel / sqrt(k),
# which is about 7.5 RMS for any k. The tiny gates (1e4 jobs at lambda = 0.5) sit
# at 5-6 times the RMS over seeds 1-40.
SIM_GATES = {
    "full": {"mean_rel": 0.9, "atom_abs": 0.03, "pmf_abs": 0.05},
    "tiny": {"mean_rel": 0.25, "atom_abs": 0.08, "pmf_abs": 0.08},
}

# Every workload repeats its pass several times in a run, so a pass is kept
# to a few seconds: dist-grid evaluates every sixth point of cmd_dist's
# default 25-point t-grid, tail-solve stops at n_plus = 512 (fig5a m = 8;
# fig5b m = 8, n_plus = 896, alone took 3.7 s), sim-heavy runs
# 2e5 jobs per command, and analytic-sweep takes every fourth point of the
# fig6 lambda grid (lambda = 0.95, where M_opt = 60 and one point alone
# takes over 20 s and 1.9 GB, is left out).
SIZES = {
    "full": {
        "dist_m": 8,
        "dist_t_every": 6,
        "tail_cases": [("fig5b", 6), ("fig5b", 7), ("fig5a", 8)],
        "sim_jobs": 200_000,
        "sim_lambda": 0.95,
        "sweep_lambda_idx": [1, 5, 9, 13, 17],   # 0.1, 0.3, 0.5, 0.7, 0.9
        "sweep_m_cap": asymptotics.FAMILY_M_CAP,
        "sweep_verify_m": 3,
    },
    "tiny": {
        "dist_m": 2,
        "dist_t_every": 1,
        "tail_cases": [("fig5b", 2), ("fig5a", 3)],
        "sim_jobs": 10_000,
        "sim_lambda": 0.5,
        "sweep_lambda_idx": [0, 9],              # 0.05, 0.5
        "sweep_m_cap": 3,
        "sweep_verify_m": 2,
    },
}

SIM_WINDOW = 5
SIM_T_GRID = "0,10,40"


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    ops: Callable
    check: Callable
    # the calibrate.py kernel that does the same kind of work
    calibration: str
    # run-level check after the last pass; its problems fail every operation
    finish: Optional[Callable] = None


def _close(a: float, b: float, tol: float = REFERENCE_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def _attempt(fn, *args):
    """Run and time one operation; an exception is the operation's outcome."""
    t0 = time.perf_counter()
    try:
        res = {"ok": True, "value": fn(*args)}
    except Exception as exc:  # any raise fails the operation, not the run
        res = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
    res["s"] = time.perf_counter() - t0
    return res


def cli_run(argv: list, out: str) -> dict:
    """One CLI command in-process; its CSV rows are the output. Only the
    command is timed, not reading back its CSV."""
    if os.path.exists(out):
        os.remove(out)
    res = _attempt(cli.main, argv)
    res["rows"] = []
    if os.path.exists(out):
        with open(out, newline="", encoding="utf-8") as fh:
            res["rows"] = list(csv.reader(fh))
    return res


# ---------------------------------------------------------------------------
# dist-grid: `nudgem dist --recipe fig9a --m 8 --t <5 points>` in-process.
# ---------------------------------------------------------------------------

def dist_setup(size: str, seed: int, tmpdir: str) -> dict:
    cfg = SIZES[size]
    out = os.path.join(tmpdir, "dist.csv")
    mix = cli.RECIPES["fig9a"]["mix"]()
    # points of cmd_dist's default grid, written so they parse back exactly
    theta_z = asymptotics.decay_rate(mix).theta_z
    grid = np.linspace(0.0, 60.0 / theta_z, 25)[::cfg["dist_t_every"]]
    argv = ["dist", "--recipe", "fig9a", "--m", str(cfg["dist_m"]),
            "--t", ",".join(repr(float(t)) for t in grid), "--out", out]
    return {"argv": argv, "out": out, "lam": mix.lam, "n_ops": len(grid)}


def dist_ops(inp: dict, rep: int) -> list:
    return [functools.partial(cli_run, inp["argv"], inp["out"])]


def dist_check(inp: dict, outputs: list, ref) -> List[List[str]]:
    res = outputs[0]
    n = inp["n_ops"]
    if not res["ok"]:
        return [[res["error"]]] * n
    if res["value"] != 0:
        return [[f"exit code {res['value']}"]] * n
    rows = res["rows"]
    if len(rows) != n + 1 or rows[0] != ["t", "w1_ccdf", "r1_ccdf", "w2_ccdf",
                                         "r2_ccdf", "tir"]:
        return [["malformed CSV"]] * n
    problems = []
    for i, row in enumerate(rows[1:]):
        try:
            vals = [float(x) for x in row]
        except ValueError:
            problems.append([f"non-numeric CSV row {i}"])
            continue
        p = []
        if ref is not None:
            for name, got, want in zip(("t", "w1", "r1", "w2", "r2"), vals[:5],
                                       ref[i][:5]):
                if not _close(got, want):
                    p.append(f"{name}(row {i}) {got!r} != reference {want!r}")
        if vals[0] == 0.0 and abs(vals[1] - inp["lam"]) > C0_TOL:
            p.append(f"w1_ccdf(0) = {vals[1]!r}, expected lambda")
        if not all(0.0 <= v <= 1.0 for v in vals[1:5]):
            p.append(f"ccdf outside [0, 1] at row {i}")
        problems.append(p)
    return problems


def dist_record(inp: dict, outputs: list) -> list:
    return [[float(x) for x in row] for row in outputs[0]["rows"][1:]]


# ---------------------------------------------------------------------------
# tail-solve: few large fluid solves, one tail point each.
# ---------------------------------------------------------------------------

def tail_setup(size: str, seed: int, tmpdir: str) -> dict:
    cases = [(recipe, cli.RECIPES[recipe]["mix"](), m)
             for recipe, m in SIZES[size]["tail_cases"]]
    return {"cases": cases, "n_ops": len(cases)}


def _tail_solve(mix, m: int) -> dict:
    info = asymptotics.decay_rate(mix)
    model = fluid.build_nudge_m_fluid(mix, m)
    sol = fluid.stationary_fluid(model)
    t = 40.0 / info.theta_z
    return {"info": info, "sol": sol, "t": t, "tail": sol.w1_ccdf(t)}


def tail_ops(inp: dict, rep: int) -> list:
    return [functools.partial(_attempt, _tail_solve, mix, m)
            for _, mix, m in inp["cases"]]


def tail_check(inp: dict, outputs: list, ref) -> List[List[str]]:
    problems = []
    for i, ((recipe, mix, m), res) in enumerate(zip(inp["cases"], outputs)):
        if not res["ok"]:
            problems.append([res["error"]])
            continue
        v = res["value"]
        sol, info, t = v["sol"], v["info"], v["t"]
        p = []
        if ref is not None:
            want = ref[i]
            if not _close(sol.c0, want["c0"]):
                p.append(f"c0 {sol.c0!r} != reference {want['c0']!r}")
            # the tail is ~e^{-40}: compare it relative to its own size
            if abs(v["tail"] - want["tail"]) > REFERENCE_TOL * abs(want["tail"]):
                p.append(f"tail {v['tail']!r} != reference {want['tail']!r}")
        if abs(sol.c0 - (1.0 - mix.lam)) > C0_TOL:
            p.append(f"c0 = {sol.c0!r}, expected 1 - lambda")
        w0 = sol.w1_ccdf(0.0)
        if abs(w0 - mix.lam) > C0_TOL:
            p.append(f"w1_ccdf(0) = {w0!r}, expected lambda")
        res_norm = fluid.riccati_residual(sol.model, sol.psi)
        if res_norm > RICCATI_TOL:
            p.append(f"riccati residual {res_norm:.3e}")
        cw1, _ = asymptotics.prefactors_nudge_m(info, m)
        ratio = v["tail"] * math.exp(info.theta_z * t) / cw1
        if abs(ratio - 1.0) > TAIL_RATIO_TOL:
            p.append(f"tail / (c_W1 e^(-theta t)) = {ratio!r}")
        problems.append(p)
    return problems


def tail_record(inp: dict, outputs: list) -> list:
    return [{"recipe": recipe, "m": m, "c0": r["value"]["sol"].c0,
             "tail": r["value"]["tail"]}
            for (recipe, _, m), r in zip(inp["cases"], outputs)]


# ---------------------------------------------------------------------------
# sim-heavy: `nudgem simulate` at lambda = 0.95, 2e5 jobs, seeded.
# ---------------------------------------------------------------------------

def sim_argv(seed: int, jobs: int, lam: float, out: str) -> list:
    return ["simulate", "--recipe", "fig5a", "--lambda", str(lam),
            "--policy", "nudge-m", "--m", str(SIM_WINDOW), "--jobs", str(jobs),
            "--seed", str(seed), "--t", SIM_T_GRID, "--out", out]


def sim_setup(size: str, seed: int, tmpdir: str) -> dict:
    jobs, lam = SIZES[size]["sim_jobs"], SIZES[size]["sim_lambda"]
    out = os.path.join(tmpdir, "sim.csv")
    return {"seed": seed, "lam": lam, "out": out, "jobs": jobs, "size": size,
            "mix": cli.RECIPES["fig5a"]["mix"](lam), "n_ops": 1}


def _sim_command(inp: dict, seed: int) -> dict:
    res = cli_run(sim_argv(seed, inp["jobs"], inp["lam"], inp["out"]), inp["out"])
    res["seed"] = seed
    return res


def sim_ops(inp: dict, rep: int) -> list:
    return [functools.partial(_sim_command, inp, inp["seed"] * 1000 + rep)]


def _sim_exact(inp: dict) -> tuple:
    """Exact mean response and swap pmf (computed once, when first checked)."""
    if "exact" not in inp:
        mix = inp["mix"]
        inp["exact"] = (swap.mean_response(mix, SIM_WINDOW).nudge,
                        swap.unconditional_swap_pmf(mix, SIM_WINDOW))
    return inp["exact"]


def sim_errors(inp: dict, rows: List[List[str]]) -> dict:
    """Simulated mean response, wait-zero atoms and swap pmf against the
    exact values from the swap layer."""
    values = {r[0]: float(r[1]) for r in rows[1:]}
    mix = inp["mix"]
    exact, pmf = _sim_exact(inp)
    passed = np.array([values[f"passed_{k}"] for k in range(SIM_WINDOW + 1)])
    # a job of either type waits zero only in an empty system: P[W > 0] = lambda
    atom = max(abs(values[f"wait_ccdf_{jt}_t0"] - mix.lam) for jt in (1, 2))
    return {
        "mean": values["mean_response_any"],
        "mean_rel": abs(values["mean_response_any"] / exact - 1.0),
        "atom_abs": atom,
        "pmf_abs": float(np.max(np.abs(passed / passed.sum() - pmf))),
    }


def sim_check(inp: dict, outputs: list, ref) -> List[List[str]]:
    res = outputs[0]
    if not res["ok"]:
        return [[res["error"]]]
    if res["value"] != 0:
        return [[f"exit code {res['value']}"]]
    try:
        errs = sim_errors(inp, res["rows"])
    except (KeyError, ValueError, IndexError) as exc:
        return [[f"malformed CSV: {exc}"]]
    # a traced pass repeats an untraced one: count each seed once
    inp.setdefault("means", {})[res["seed"]] = errs["mean"]
    gates = SIM_GATES[inp["size"]]
    return [[f"{k} = {errs[k]:.4g} > {gates[k]}" for k in ("atom_abs", "pmf_abs")
             if not errs[k] <= gates[k]]]


def pooled_mean_rel(inp: dict, means: List[float]) -> float:
    """Relative error of the mean response over equal-sized simulations."""
    return abs(sum(means) / len(means) / _sim_exact(inp)[0] - 1.0)


def pooled_gate(size: str, k: int) -> float:
    return SIM_GATES[size]["mean_rel"] / math.sqrt(k)


def sim_finish(inp: dict) -> List[str]:
    """Run-level check: the mean response over the run's distinct
    simulations against the exact mean."""
    means = list(inp.get("means", {}).values())
    if not means:
        return []
    err, gate = pooled_mean_rel(inp, means), pooled_gate(inp["size"], len(means))
    return [] if err <= gate else [
        f"mean_rel over the run's {len(means)} simulations = {err:.4g} > {gate:.4g}"]


# ---------------------------------------------------------------------------
# analytic-sweep: closed forms and enumeration over the fig6 lambda grid.
# ---------------------------------------------------------------------------

def family_members(m_cap: int) -> List[tuple]:
    """Every named Nudge-M/K,M/M,L/K,L member with window at most m_cap."""
    out = [("nudge-m", {"m": m}) for m in range(1, m_cap + 1)]
    out += [("nudge-km", {"k": k, "m": m})
            for m in range(2, m_cap + 1) for k in range(1, m)]
    out += [("nudge-ml", {"m": m, "l": l})
            for m in range(2, m_cap + 1) for l in range(1, m)]
    out += [("nudge-kl", {"k": k, "l": l})
            for k in range(1, m_cap + 1) for l in range(1, m_cap + 2 - k)]
    return out


def sweep_setup(size: str, seed: int, tmpdir: str) -> dict:
    cfg = SIZES[size]
    grid = cli.RECIPES["fig6"]["lambda"]
    lambdas = [float(grid[i]) for i in cfg["sweep_lambda_idx"]]
    base = cli.RECIPES["fig5b"]["mix"]()
    return {"mixes": [base.with_lambda(lam) for lam in lambdas],
            "members": family_members(cfg["sweep_m_cap"]),
            "verify_m": cfg["sweep_verify_m"], "n_ops": len(lambdas)}


def _sweep_point(mix, members, verify_m: int) -> dict:
    info = asymptotics.decay_rate(mix)
    mo = asymptotics.m_opt(info)
    family = []
    for kind, params in members:
        pol = policy.named_policy(kind, **params)
        family.append(asymptotics.family_prefactors(pol, info, mix))
    ver = asymptotics.verify_optimality(verify_m, info, mix)
    kl = asymptotics.best_nudge_kl(info, mix)
    mean = swap.mean_response(mix, max(1, mo))
    return {"info": info, "m_opt": mo, "family": family, "verify": ver,
            "kl": kl, "mean": mean}


def sweep_ops(inp: dict, rep: int) -> list:
    return [functools.partial(_attempt, _sweep_point, mix, inp["members"],
                              inp["verify_m"])
            for mix in inp["mixes"]]


def sweep_check(inp: dict, outputs: list, ref) -> List[List[str]]:
    problems = []
    for i, res in enumerate(outputs):
        if not res["ok"]:
            problems.append([res["error"]])
            continue
        v = res["value"]
        p = []
        if ref is not None:
            want = ref[i]
            got = sweep_record_point(v)
            if got["m_opt"] != want["m_opt"] or got["kl"][:2] != want["kl"][:2]:
                p.append(f"M_opt/(K,L) {got['m_opt']}, {got['kl'][:2]} != "
                         f"reference {want['m_opt']}, {want['kl'][:2]}")
            for key in ("atir", "kl_atir", "mtir", "er_nudge"):
                for a, b in zip(np.ravel(got[key]), np.ravel(want[key])):
                    if not _close(float(a), float(b)):
                        p.append(f"{key} {a!r} != reference {b!r}")
        for (kind, params), rep in zip(inp["members"], v["family"]):
            if kind == "nudge-m":
                cw1, cw2 = asymptotics.prefactors_nudge_m(v["info"], params["m"])
                if abs(rep.c_w1 - cw1) > FAMILY_TOL or abs(rep.c_w2 - cw2) > FAMILY_TOL:
                    p.append(f"family_prefactors(nudge-m {params['m']}) != closed form")
        if not v["verify"].is_optimal or v["verify"].edge_failures:
            p.append(f"verify_optimality: optimal={v['verify'].is_optimal}, "
                     f"{len(v['verify'].edge_failures)} edge failures")
        problems.append(p)
    return problems


def sweep_record_point(v: dict) -> dict:
    return {"m_opt": v["m_opt"], "atir": [r.atir for r in v["family"]],
            "kl": [v["kl"][0], v["kl"][1]], "kl_atir": v["kl"][2],
            "mtir": v["mean"].mtir, "er_nudge": v["mean"].nudge}


def sweep_record(inp: dict, outputs: list) -> list:
    return [sweep_record_point(r["value"]) for r in outputs]


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("dist-grid", dist_setup, dist_ops, dist_check, "blas"),
    Workload("tail-solve", tail_setup, tail_ops, tail_check, "blas"),
    Workload("sim-heavy", sim_setup, sim_ops, sim_check, "python", sim_finish),
    Workload("analytic-sweep", sweep_setup, sweep_ops, sweep_check, "python"),
)}

def run_pass(wl: Workload, inp: dict, rep: int,
             before_op: Optional[Callable] = None) -> list:
    """One pass: every operation in order, ``before_op`` ahead of each."""
    outputs = []
    for op in wl.ops(inp, rep):
        if before_op is not None:
            before_op()
        outputs.append(op())
    return outputs


# Reference outputs recorded per workload (sim-heavy is seeded: oracles only).
RECORDERS = {"dist-grid": dist_record, "tail-solve": tail_record,
             "analytic-sweep": sweep_record}
