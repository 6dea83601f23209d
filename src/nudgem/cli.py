"""Command-line surface: analysis commands, figure recipes, CSV output.

Exit codes: 0 ok, 2 input error, 3 capability/cap error, 4 numeric
failure. Every CSV gets a sidecar JSON manifest for reproducibility.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from typing import Dict, List, Optional

import numpy as np

from . import __version__
from .phtype import (InvalidDistributionError, JobMix, fit_hyperexp,
                     load_mix, normalized_mix, ph_exponential,
                     two_class_exp_mix)
from .policy import (NAMED_POLICIES, PolicyError, PolicyFn, member_windows,
                     named_policy, named_triple, policy_from_table_file,
                     policy_key)
from . import asymptotics, fluid, resp2, sim, swap
from .asymptotics import ComplexityError, UnsupportedSpectrumError, decay_rate
from .fluid import NUDGE_M_CAP, RiccatiError, StationarySolveError

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_NUMERIC = 4

# |c0 - (1 - lambda)| (1 - lambda) was at most 6.9e-13 on fig5a and fig5b
# at lambda 0.1..0.9999 with m <= 6 and on random 1-3-phase mixes. dist
# checks it: other fluid models need not have c0 = 1 - lambda.
C0_GAP_TOL = 1e-11


# ---------------------------------------------------------------------------
# Recipes: parameter sets of the reference curves, pinned in one registry.
# ---------------------------------------------------------------------------

def _mix_exp_exp(lam=0.7):
    return two_class_exp_mix(p=2.0 / 3.0, ratio=4.0, lam=lam)

def _mix_exp_hyperexp(lam=0.7):
    p = 2.0 / 3.0
    e1 = 1.0 / (p + (1.0 - p) * 4.0)
    return normalized_mix(p, ph_exponential(mean=e1),
                          fit_hyperexp(4.0 * e1, 2.0, 0.5), lam=lam)

RECIPES: Dict[str, dict] = {
    "fig5a": {"mix": _mix_exp_exp, "m": 10},
    "fig5b": {"mix": _mix_exp_hyperexp, "m": 12},
    "fig6": {"mix": _mix_exp_exp,
             "lambda": list(np.round(np.linspace(0.05, 0.95, 19), 4))},
    "fig8": {"mix": _mix_exp_exp, "m": 5,
             "lambda": list(np.round(np.linspace(0.05, 0.95, 19), 4))},
    "fig9a": {"mix": _mix_exp_exp, "m": 5},
}


def parse_grid(text: str, flag: str = "grid") -> List[float]:
    """Grids: comma-separated values, or a:b:n for n points from a to b.
    A malformed grid is a ValueError that names the flag and both forms."""
    fields = text.split(":")
    try:
        if len(fields) == 1:
            return [float(x) for x in text.split(",")]
        if len(fields) == 3 and int(fields[2]) >= 1:
            a, b, num = fields
            return [float(x) for x in np.linspace(float(a), float(b), int(num))]
    except ValueError:
        pass
    raise ValueError(f"{flag} {text!r} is neither v1,v2,... nor a:b:n")


def resolve_mix(args, sweep: bool = False) -> JobMix:
    """The job mix of --mix or --recipe, at a single --lambda if one is
    given. A multi-point --lambda is a sweep: only sweep commands accept
    it, and they set each point's lambda themselves."""
    recipe = RECIPES.get(args.recipe) if args.recipe else None
    lam = None
    if args.lam:
        grid = parse_grid(args.lam, "--lambda")
        if len(grid) == 1:
            lam = grid[0]
        elif not sweep:
            raise InvalidDistributionError(
                f"{args.command} runs at one lambda, got --lambda {args.lam}")
    if args.mix:
        mix = load_mix(args.mix)
        return mix.with_lambda(lam) if lam is not None else mix
    if recipe:
        return recipe["mix"](lam) if lam is not None else recipe["mix"]()
    raise InvalidDistributionError("no job mix given: use --mix or --recipe")


def policy_name(args) -> Optional[str]:
    """The registry key of --policy (default nudge-m) when it names a
    registered policy (see ``policy.NAMED_POLICIES``), None when it is a
    policy table file; a PolicyError when it is neither."""
    spec = args.policy or "nudge-m"
    if policy_key(spec) in NAMED_POLICIES:
        return policy_key(spec)
    if not os.path.isfile(spec):
        raise PolicyError(f"--policy {spec!r} is neither a registered name "
                          f"({', '.join(NAMED_POLICIES)}) nor a table file")
    return None


def resolve_policy(args, default_m: Optional[int] = None) -> PolicyFn:
    """A registered policy name, else a policy table file."""
    if policy_name(args) is None:
        return policy_from_table_file(args.policy)
    return named_policy(args.policy or "nudge-m",
                        m=args.m if args.m is not None else default_m,
                        k=args.k, l=args.l)


def write_csv(path: str, header: List[str], rows: List[list],
              manifest: dict) -> None:
    out = sys.stdout if path in (None, "-") else open(path, "w", newline="",
                                                      encoding="utf-8")
    try:
        writer = csv.writer(out)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)
    finally:
        if out is not sys.stdout:
            out.close()
    if path not in (None, "-"):
        manifest = dict(manifest, schema=SCHEMA_VERSION, version=__version__,
                        output=path)
        with open(path + ".manifest.json", "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, default=str)
            fh.write("\n")


def _manifest(args, extra: dict = None) -> dict:
    doc = {"command": args.command, "argv": sys.argv[1:],
           "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z")}
    if extra:
        doc.update(extra)
    return doc


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_atir(args) -> int:
    mix = resolve_mix(args, sweep=True)
    recipe = RECIPES.get(args.recipe, {}) if args.recipe else {}
    lam_grid = parse_grid(args.lam, "--lambda") if args.lam else recipe.get("lambda")
    if lam_grid and len(lam_grid) > 1:
        # the sweep is plain Nudge-M at M_opt and M_heavy
        for flag in ("policy", "m", "k", "l"):
            if getattr(args, flag) is not None:
                raise ValueError(f"atir over a lambda grid takes no --{flag}")
        header = ["lambda", "m_opt", "m_heavy", "atir_m_opt", "atir_m_heavy"]
        rows = []
        for lam in lam_grid:
            mx = mix.with_lambda(lam)
            info = decay_rate(mx)
            mo = asymptotics.m_opt(info)
            mh = asymptotics.m_heavy(mx, info)
            rows.append([lam, mo, mh,
                         asymptotics.atir_nudge_m(info, mx, mo),
                         asymptotics.atir_nudge_m(info, mx, mh)])
        write_csv(args.out, header, rows, _manifest(args))
        return EXIT_OK

    m_max = args.m if args.m is not None else recipe.get("m", 10)
    if m_max < 0:
        raise ValueError("m must be >= 0")
    info = decay_rate(mix)
    header = ["m", "atir"]
    key = policy_key(args.policy or "nudge-m")
    use_family = key != "nudge-m"
    if use_family:
        header.append("atir_" + (key if key in NAMED_POLICIES else "table"))
    family = _family_atir(args, info, mix, m_max) if use_family else {}
    rows = []
    for m in range(m_max + 1):
        row = [m, asymptotics.atir_nudge_m(info, mix, m)]
        if use_family:
            # window 0 is FCFS: no table is built for it
            row.append(family.get(m, "") if m >= 1 else 0.0)
        rows.append(row)
    write_csv(args.out, header, rows, _manifest(args))
    return EXIT_OK


def _family_atir(args, info, mix, m_max: int) -> Dict[int, float]:
    """ATIR of the named policy's member of each window 1..m_max that has
    one, keyed by window. Windows above ``asymptotics.FAMILY_M_CAP`` have
    none, and no table is built for them. A parameter that the member of
    window m_max refuses, or that is missing, is an input error."""
    top = min(m_max, asymptotics.FAMILY_M_CAP)
    if policy_key(args.policy) not in NAMED_POLICIES:
        members = [resolve_policy(args)]  # a table file fixes its own window
    else:
        params = {"k": args.k, "l": args.l}
        if top >= 1:  # with no window asked for, no parameter is read
            named_triple(args.policy, m=m_max, **params)
        members = [named_policy(args.policy, m=w, **params)
                   for w in member_windows(args.policy, top, **params)]
    return {pol.m: asymptotics.family_prefactors(pol, info, mix).atir
            for pol in members if pol.m <= top}


def _fluid_record(sol: fluid.FluidSolution, lam: float) -> dict:
    """Sizes and numerical health of a fluid solve, for the manifest."""
    return {"n_minus": sol.model.n_minus, "n_plus": sol.model.n_plus,
            "n_plus_solved": sol.n_plus_solved,
            "riccati_residual": sol.riccati_residual,
            "sda_steps": sol.sda_steps,
            "c0": sol.c0, "c0_gap": abs(sol.c0 - (1.0 - lam)),
            "perron_shift": sol.perron_shift}


def _law_record(law, t_max: float) -> dict:
    """Size, uniformization rate and product counts of one law's grid."""
    return {"n": law.init.shape[0], "q": law.rate, "q_t_max": law.rate * t_max,
            **law.products(t_max)._asdict()}


def cmd_dist(args) -> int:
    mix = resolve_mix(args)
    recipe = RECIPES.get(args.recipe, {}) if args.recipe else {}
    info = decay_rate(mix)
    m = args.m if args.m is not None else recipe.get("m")
    kind = policy_name(args)
    if kind not in ("fcfs", "nudge-m"):
        raise ComplexityError("distributions are available for fcfs and nudge-m")
    if kind == "nudge-m":
        if m is None:
            raise InvalidDistributionError("nudge-m distributions need --m")
        if m > NUDGE_M_CAP:
            raise ComplexityError(f"fluid construction capped at m <= {NUDGE_M_CAP}")

    t_grid = parse_grid(args.t, "--t") if args.t else \
        [float(x) for x in np.linspace(0.0, 60.0 / info.theta_z, 25)]

    # every law is built once; a Nudge-M waiting-time law and its response
    # law share one evaluation on the whole grid (``ccdf_pair``). FCFS's W
    # gets its own: paired with R_1 it would be uniformized at R_1's
    # higher rate, which costs accuracy.
    fcfs_w = swap.workload_law(mix)  # under FCFS, W = Z
    fcfs_r1, fcfs_r2 = fcfs_w.plus(mix.ph1), fcfs_w.plus(mix.ph2)
    r1f, r2f = fcfs_r1.ccdf(t_grid), fcfs_r2.ccdf(t_grid)
    extra = {"theta_z": info.theta_z, "m": m}
    if kind == "fcfs":
        laws = {"w1": fcfs_w, "r1": fcfs_r1, "w2": fcfs_w, "r2": fcfs_r2}
        via = {}
        w1 = w2 = fcfs_w.ccdf(t_grid)
        r1, r2 = r1f, r2f
    else:
        sol = fluid.stationary_fluid(fluid.build_nudge_m_fluid(mix, m))
        extra["fluid"] = record = _fluid_record(sol, mix.lam)
        # PASTA: a type-1 arrival waits zero only in an empty system
        if record["c0_gap"] > C0_GAP_TOL / (1.0 - mix.lam):
            raise StationarySolveError(
                f"c0 = {sol.c0!r} is off 1 - lambda by {record['c0_gap']:.3e}")
        w2m = resp2.build_w2_model(mix, m)
        r1_law = sol.w1.plus(mix.ph1)
        laws = {"w1": sol.w1, "r1": r1_law, "w2": w2m.w2, "r2": w2m.r2}
        via = {"w1": "r1", "w2": "r2"}
        w1, r1 = r1_law.ccdf_pair(sol.w1, t_grid)
        w2, r2 = w2m.r2.ccdf_pair(w2m.w2, t_grid)
    t_max = max(t_grid, default=0.0)
    extra["laws"] = {name: _law_record(law, t_max) for name, law in laws.items()}
    # a waiting-time law made no products of its own: it was read off the
    # P^A of its response law, whose counts it carries
    for name, by in via.items():
        extra["laws"][name].update(laws[by].products(t_max)._asdict(), via=by)

    header = ["t", "w1_ccdf", "r1_ccdf", "w2_ccdf", "r2_ccdf", "tir"]
    rows = []
    for row in zip(t_grid, w1, r1, w2, r2, r1f, r2f):
        t, w1t, r1t, w2t, r2t, r1ft, r2ft = map(float, row)
        rf = mix.p * r1ft + (1.0 - mix.p) * r2ft
        ra = mix.p * r1t + (1.0 - mix.p) * r2t
        tir = 0.0 if rf == 0.0 else 1.0 - ra / rf
        rows.append([t, w1t, r1t, w2t, r2t, tir])
    write_csv(args.out, header, rows, _manifest(args, extra))
    return EXIT_OK


def cmd_mean(args) -> int:
    mix = resolve_mix(args, sweep=True)
    recipe = RECIPES.get(args.recipe, {}) if args.recipe else {}
    lam_grid = parse_grid(args.lam, "--lambda") if args.lam else \
        recipe.get("lambda", [mix.lam])
    m_fixed = args.m if args.m is not None else recipe.get("m")
    header = ["lambda", "m", "er_fcfs", "er_nudge", "er_priority", "mtir"]
    rows = []
    for lam in lam_grid:
        mx = mix.with_lambda(lam)
        m = m_fixed if m_fixed is not None else \
            max(1, asymptotics.m_opt(decay_rate(mx)))
        rep = swap.mean_response(mx, m)
        rows.append([lam, m, rep.fcfs, rep.nudge,
                     swap.priority_mean_response(mx), rep.mtir])
    write_csv(args.out, header, rows, _manifest(args))
    return EXIT_OK


def cmd_simulate(args) -> int:
    mix = resolve_mix(args)
    policy = resolve_policy(args, default_m=1)
    cfg = sim.SimConfig(mix=mix, policy=policy, n_jobs=args.jobs,
                        seed=args.seed)
    began = time.perf_counter()
    stats = sim.simulate(cfg)
    wall = time.perf_counter() - began
    # a type with no job after warm-up has no mean or ccdf to report
    present = [jt for jt in (1, 2) if (stats.job_type == jt).any()]
    header = ["metric", "value", "std_error"]
    rows = []
    for jt in ["any"] + present:
        mw, sw = stats.mean_wait(jt)
        mr, sr = stats.mean_response(jt)
        rows.append([f"mean_wait_{jt}", mw, sw])
        rows.append([f"mean_response_{jt}", mr, sr])
    rows.append(["busy_fraction", stats.busy_fraction, ""])
    for k, v in enumerate(stats.passes_hist):
        rows.append([f"passes_{k}", int(v), ""])
    for k, v in enumerate(stats.passed_hist):
        rows.append([f"passed_{k}", int(v), ""])
    if args.t:
        for t in parse_grid(args.t, "--t"):
            for jt in present:
                e, se = sim.empirical_ccdf(stats, jt, t)
                rows.append([f"wait_ccdf_{jt}_t{t:g}", e, se])
    write_csv(args.out, header, rows,
              _manifest(args, {"seed": args.seed, "n_jobs": args.jobs,
                               "policy_window": policy.m,
                               "sim": {"wall_s": wall,
                                       "jobs_per_s": args.jobs / wall,
                                       "warmup": cfg.warmup,
                                       "n_batches": sim.N_BATCHES,
                                       "busy_fraction": stats.busy_fraction,
                                       "block_size": sim.SIM_BLOCK,
                                       **stats.path._asdict(),
                                       **stats.walls._asdict()}}))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify: tiered self-checks
# ---------------------------------------------------------------------------

def _check_identities() -> List[tuple]:
    checks = []
    mix = _mix_exp_exp()
    info = decay_rate(mix)
    for m in (1, 2, 3, asymptotics.FAMILY_M_CAP):
        rep = asymptotics.family_prefactors(named_policy("nudge-m", m=m), info, mix)
        cw1, cw2 = asymptotics.prefactors_nudge_m(info, m)
        ok = abs(rep.c_w1 - cw1) < 1e-10 and abs(rep.c_w2 - cw2) < 1e-10
        checks.append((f"family-prefactors-m{m}", ok))
    m = asymptotics.FAMILY_M_CAP
    rep = asymptotics.family_prefactors(named_policy("fcfs", m=m), info, mix)
    ok = abs(rep.c_w1 - info.c_z) < 1e-10 and abs(rep.c_w2 - info.c_z) < 1e-10
    checks.append((f"family-prefactors-fcfs-m{m}", ok))
    # the optimality theorem: Nudge-min(M, M_opt) is among the best tables
    # of F_M, and every single-increment edge follows the increment rule
    for m in range(1, asymptotics.VERIFY_M_CAP + 1):
        rep = asymptotics.verify_optimality(m, info, mix)
        checks.append((f"optimality-m{m}",
                       rep.is_optimal and not rep.edge_failures))
    sol = fluid.stationary_fluid(fluid.build_fcfs_fluid(mix))
    ok = all(abs(sol.w1_ccdf(t) - swap.workload_ccdf(mix, t)) < 1e-10
             for t in (0.5, 2.0, 8.0))
    checks.append(("fcfs-fluid-vs-workload", ok))
    # Wald's identity: a type-2 job is passed E[X_swap] times on average,
    # each pass saves the passing type-1 job one type-2 service, and the
    # passes form a stopping time, so E[W_1] = E[Z] - ((1 - p)/p)
    # E[X_swap] E[X_2]: the fluid against the swap and workload laws
    for name, make in (("exp-exp", _mix_exp_exp),
                       ("exp-hyperexp", _mix_exp_hyperexp)):
        mx = make()
        ez = swap.workload_law(mx).mean()
        ok = True
        for m in (1, 3, 5):
            w1 = fluid.stationary_fluid(fluid.build_nudge_m_fluid(mx, m)).w1.mean()
            saved = (1.0 - mx.p) / mx.p * swap.mean_swaps(mx, m) * mx.e2
            ok = ok and abs(w1 / (ez - saved) - 1.0) < 1e-10
        checks.append((f"fluid-w1-mean-vs-swap-{name}", ok))
    t = 40.0 / info.theta_z
    cw1, _ = asymptotics.prefactors_nudge_m(info, 2)
    sol2 = fluid.stationary_fluid(fluid.build_nudge_m_fluid(mix, 2))
    est = sol2.w1_ccdf(t) * math.exp(info.theta_z * t)
    checks.append(("w1-tail-prefactor-m2", abs(est / cw1 - 1.0) < 1e-3))
    # the uniformization sum against the M/M/1 workload tail
    # P[Z > t] = lambda e^{-(1 - lambda) t} (unit-mean exponential work)
    lam = mix.lam
    mm1 = two_class_exp_mix(mix.p, 1.0, lam)
    ok = all(abs(swap.workload_ccdf(mm1, t) / (lam * math.exp(-(1.0 - lam) * t)) - 1.0)
             < 1e-10 for t in (0.5, 8.0, 40.0 / (1.0 - lam)))
    checks.append(("workload-uniformization-vs-mm1", ok))
    # heavy traffic: the gap of ATIR_M(M_opt) to 1 - e1^{-p e1} e2^{-(1-p) e2}
    # over 1 - lambda agrees within 1% at lambda = 0.999 and 0.9999, and
    # M_heavy - M_opt = 2 from lambda = 0.99 on
    for name, make in (("exp-exp", _mix_exp_exp),
                       ("exp-hyperexp", _mix_exp_hyperexp)):
        gaps, steps = [], []
        for lam in (0.99, 0.999, 0.9999):
            mx = make(lam)
            inf = decay_rate(mx)
            mo = asymptotics.m_opt(inf)
            limit = asymptotics.heavy_traffic_atir(mx.p, mx.e1, mx.e2)
            gaps.append((asymptotics.atir_nudge_m(inf, mx, mo) - limit) / (1.0 - lam))
            steps.append(asymptotics.m_heavy(mx, inf) - mo)
        ok = steps == [2, 2, 2] and abs(gaps[1] / gaps[2] - 1.0) < 0.01
        checks.append((f"heavy-traffic-limit-{name}", ok))
    return checks


def _check_simulation() -> List[tuple]:
    mix = _mix_exp_exp()
    cfg = sim.SimConfig(mix=mix, policy=named_policy("nudge-m", m=5), n_jobs=400_000,
                        seed=20240717)
    stats = sim.simulate(cfg)
    rep = swap.mean_response(mix, 5)
    mr, se = stats.mean_response()
    checks = [("sim-mean-response-3se", abs(mr - rep.nudge) <= 3.0 * se)]
    e0, se0 = sim.empirical_ccdf(stats, "any", 0.0)
    checks.append(("sim-wait-atom-3se", abs(e0 - mix.lam) <= 3.0 * se0))
    emp = stats.passed_hist / stats.passed_hist.sum()
    pmf = swap.unconditional_swap_pmf(mix, 5)
    checks.append(("sim-swap-pmf", float(np.max(np.abs(emp - pmf))) < 5e-3))
    return checks


def cmd_verify(args) -> int:
    checks = _check_identities()
    if args.level == "full":
        checks += _check_simulation()
    failed = [name for name, ok in checks if not ok]
    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    if failed:
        print(f"{len(failed)} of {len(checks)} checks failed", file=sys.stderr)
        return EXIT_NUMERIC
    print(f"all {len(checks)} checks passed")
    return EXIT_OK


# ---------------------------------------------------------------------------

# Each command adds only the flags it reads, so argparse rejects the rest.
FLAGS: Dict[str, dict] = {
    "mix": {"help": "job-mix JSON file"},
    "recipe": {"choices": sorted(RECIPES), "help": "named parameter set"},
    "policy": {"help": "a Nudge-(M, K, L) by name: fcfs (m or 1, 0, m), "
                       "nudge-m (m, m, m), nudge-k (k, k, 1), nudge-l (l, 1, l), "
                       "nudge-km (m, k, m), nudge-ml (m, m, l), nudge-kl (k+l-1, "
                       "k, l), also in comma forms such as nudge-k,m; or a table file"},
    "m": {"type": int},
    "k": {"type": int},
    "l": {"type": int},
    "lambda": {"dest": "lam", "help": "arrival rate, or a grid for atir "
                                      "and mean"},
    "t": {"help": "time grid"},
    "out": {"default": "-", "help": "output CSV path (- = stdout)"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nudgem",
        description="Nudge-M scheduling analysis for the two-class M/PH/1 queue")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, text, flags=""):
        # no abbreviations: a dropped --l must not turn into --lambda
        p = sub.add_parser(name, help=text, allow_abbrev=False)
        for flag in flags.split():
            p.add_argument("--" + flag, **FLAGS[flag])
        p.set_defaults(func=func)
        return p

    command("atir", cmd_atir, "asymptotic tail improvement ratios",
            "mix recipe policy m k l lambda out")
    command("dist", cmd_dist, "waiting/response-time distributions",
            "mix recipe policy m lambda t out")
    command("mean", cmd_mean, "mean response times and MTIR",
            "mix recipe m lambda out")
    p = command("simulate", cmd_simulate, "discrete-event simulation",
                "mix recipe policy m k l lambda t out")
    p.add_argument("--jobs", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=1)
    p = command("verify", cmd_verify, "run tiered self-checks")
    p.add_argument("--level", choices=("fast", "full"), default="fast")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FileNotFoundError, KeyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ComplexityError as exc:
        print(f"capability error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (RiccatiError, StationarySolveError, UnsupportedSpectrumError,
            sim.EstimationError, FloatingPointError,
            np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        # after the two clauses above: ComplexityError,
        # UnsupportedSpectrumError and LinAlgError are ValueErrors too
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
