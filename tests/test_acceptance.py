"""End-to-end acceptance checks tying all modules together.

Each test pins one of the headline guarantees: optimal-window integers,
closed-form identities, exhaustive optimality, asymptote/distribution
closure, simulation cross-validation, heavy-traffic limits and the
capped-policy comparison predicate.
"""

import math

import numpy as np
import pytest

from nudgem import asymptotics, fluid, resp2, swap
from nudgem.asymptotics import (
    atir_nudge_m,
    decay_rate,
    family_prefactors,
    heavy_traffic_atir,
    m_opt,
    prefactors_nudge_m,
    verify_optimality,
)
from nudgem.phtype import fit_hyperexp, normalized_mix, ph_exponential, two_class_exp_mix
from nudgem.policy import named_policy
from nudgem.sim import SimConfig, empirical_ccdf, simulate
from oracles import (WALD_W1_TOL, WALD_W2_TOL, build_nudge1_fluid, compare_km_ml,
                     swap_pmf, wald_mean_gaps)

MIX_A = two_class_exp_mix(p=2 / 3, ratio=4.0, lam=0.7)


def _mix_b():
    p = 2.0 / 3.0
    e1 = 1.0 / (p + (1.0 - p) * 4.0)
    return normalized_mix(p, ph_exponential(mean=e1),
                          fit_hyperexp(4.0 * e1, 2.0, 0.5), lam=0.7)


# -- 1. optimal-window integers --------------------------------------------

def test_optimal_window_exp_exp():
    assert m_opt(decay_rate(MIX_A)) == 5


def test_optimal_window_exp_hyperexp():
    assert m_opt(decay_rate(_mix_b())) == 7


# -- 2. formula-identity suite ---------------------------------------------

def test_family_prefactors_equal_closed_forms():
    info = decay_rate(MIX_A)
    for m in (1, 2, 3, 4):
        rep = family_prefactors(named_policy("nudge-m", m=m), info, MIX_A)
        cw1, cw2 = prefactors_nudge_m(info, m)
        assert abs(rep.c_w1 - cw1) < 1e-10
        assert abs(rep.c_w2 - cw2) < 1e-10


def test_fcfs_fluid_reproduces_workload_tail():
    sol = fluid.stationary_fluid(fluid.build_fcfs_fluid(MIX_A))
    for t in np.arange(0.1, 20.0 + 1e-9, 0.7):
        assert abs(sol.w1_ccdf(t) - swap.workload_ccdf(MIX_A, t)) < 1e-10


def test_nudge1_model_equals_window_one():
    a = fluid.stationary_fluid(build_nudge1_fluid(MIX_A))
    b = fluid.stationary_fluid(fluid.build_nudge_m_fluid(MIX_A, 1))
    for t in np.arange(0.0, 25.0, 1.3):
        assert abs(a.w1_ccdf(t) - b.w1_ccdf(t)) < 1e-10


@pytest.mark.parametrize("mix", [MIX_A, _mix_b()], ids=["exp-exp", "exp-hyperexp"])
def test_mean_waits_meet_swap_layer_by_wald(mix):
    # E[W_1] from the fluid and E[W_2] from resp2 against E[Z] and E[X_swap]
    for m in range(1, 9):
        g1, g2 = wald_mean_gaps(mix, m)
        assert g1 < WALD_W1_TOL, f"W1 m={m}"
        assert g2 < WALD_W2_TOL, f"W2 m={m}"


# -- 3. strong-tail-optimality oracle --------------------------------------

@pytest.mark.parametrize("mix", [MIX_A,
                                 two_class_exp_mix(p=2 / 3, ratio=1.5, lam=0.7)],
                         ids=["window5", "window1"])
def test_exhaustive_optimality(mix):
    info = decay_rate(mix)
    if mix is not MIX_A:
        assert m_opt(info) == 1  # engineered small-optimum mix
    for m in (1, 2, 3):
        rep = verify_optimality(m, info, mix)
        assert rep.is_optimal, f"m={m}: expected policy not among maximizers"
        assert not rep.edge_failures, f"m={m}: {len(rep.edge_failures)} bad edges"


# -- 4. asymptote-vs-distribution closure ----------------------------------

def test_tail_closure_type1():
    info = decay_rate(MIX_A)
    t = 40.0 / info.theta_z
    for m in (1, 2, 5):
        sol = fluid.stationary_fluid(fluid.build_nudge_m_fluid(MIX_A, m))
        cw1, _ = prefactors_nudge_m(info, m)
        est = sol.w1_ccdf(t) * math.exp(info.theta_z * t)
        assert abs(est / cw1 - 1.0) < 1e-3


def test_tail_closure_type2():
    info = decay_rate(MIX_A)
    t = 40.0 / info.theta_z
    for m in (1, 2, 5):
        _, cw2 = prefactors_nudge_m(info, m)
        w2m = resp2.build_w2_model(MIX_A, m)
        est = w2m.w2.ccdf(t) * math.exp(info.theta_z * t)
        assert abs(est / cw2 - 1.0) < 1e-3


# -- 5. simulation cross-validation ----------------------------------------

N_JOBS = 1_000_000
T_POINTS = (1.0, 3.0, 8.0, 15.0)


@pytest.fixture(scope="module")
def sim_runs():
    runs = {}
    for name, policy, seed in (("fcfs", named_policy("fcfs", m=1), 1001),
                               ("nudge1", named_policy("nudge-m", m=1), 1002),
                               ("nudge5", named_policy("nudge-m", m=5), 1003)):
        runs[name] = simulate(SimConfig(mix=MIX_A, policy=policy,
                                        n_jobs=N_JOBS, seed=seed))
    return runs


def test_sim_mean_response(sim_runs):
    fcfs_mean = swap.fcfs_mean_response(MIX_A)
    mr, se = sim_runs["fcfs"].mean_response()
    assert abs(mr - fcfs_mean) <= 3 * se
    for name, m in (("nudge1", 1), ("nudge5", 5)):
        rep = swap.mean_response(MIX_A, m)
        mr, se = sim_runs[name].mean_response()
        assert abs(mr - rep.nudge) <= 3 * se, f"{name}: {mr} vs {rep.nudge}"


def test_sim_swap_pmf_at_sampled_workloads(sim_runs):
    for name, m in (("nudge1", 1), ("nudge5", 5)):
        stats = sim_runs[name]
        for s0 in (1.0, 4.0):
            mask = (stats.job_type == 2) & \
                (np.abs(stats.workload_seen - s0) <= 0.05)
            sampled = stats.workload_seen[mask]
            counts = stats.times_passed[mask]
            n = counts.size
            assert n > 500
            emp = np.bincount(counts, minlength=m + 1) / n
            # analytic pmf averaged over the actual sampled workloads
            sub = sampled[:: max(1, n // 300)]
            ana = np.mean([swap_pmf(MIX_A, m, s) for s in sub], axis=0)
            se = np.sqrt(np.maximum(ana * (1 - ana), 1e-12) / n)
            assert np.all(np.abs(emp - ana) <= 3 * se + 1e-3), \
                f"{name}, s={s0}: {emp} vs {ana}"


def test_sim_waiting_time_ccdf(sim_runs):
    # FCFS: both types see the workload
    for t in T_POINTS:
        est, se = empirical_ccdf(sim_runs["fcfs"], "any", t)
        assert abs(est - swap.workload_ccdf(MIX_A, t)) <= 3 * se
    for name, m in (("nudge1", 1), ("nudge5", 5)):
        sol = fluid.stationary_fluid(fluid.build_nudge_m_fluid(MIX_A, m))
        w2m = resp2.build_w2_model(MIX_A, m)
        for t in T_POINTS:
            est, se = empirical_ccdf(sim_runs[name], 1, t)
            assert abs(est - sol.w1_ccdf(t)) <= 3 * se, f"{name} type1 t={t}"
            est, se = empirical_ccdf(sim_runs[name], 2, t)
            assert abs(est - w2m.w2.ccdf(t)) <= 3 * se, f"{name} type2 t={t}"


# -- 6. heavy-traffic convergence ------------------------------------------

def test_heavy_traffic_convergence():
    mix = MIX_A.with_lambda(0.999)
    info = decay_rate(mix)
    limit = heavy_traffic_atir(mix.p, mix.e1, mix.e2)
    assert abs(atir_nudge_m(info, mix, m_opt(info)) - limit) < 2e-2


def test_heavy_traffic_equal_means_is_zero():
    assert heavy_traffic_atir(0.5, 1.0, 1.0) == 0.0


def test_heavy_traffic_extreme_ratio_approaches_p():
    p, ratio = 2.0 / 3.0, 1e6
    e1 = 1.0 / (p + (1.0 - p) * ratio)
    assert abs(heavy_traffic_atir(p, e1, ratio * e1) - p) < 1e-3


# -- 7. capped-policy comparison predicate ---------------------------------

def test_km_ml_predicate_randomized():
    rng = np.random.default_rng(20240801)
    checked = 0
    while checked < 20:
        p = rng.uniform(0.2, 0.9)
        ratio = rng.uniform(2.0, 12.0)
        lam = rng.uniform(0.5, 0.95)
        mix = two_class_exp_mix(p=p, ratio=ratio, lam=lam)
        info = decay_rate(mix)
        mo = m_opt(info)
        if mo < 2:
            continue
        m = min(mo, 5, asymptotics.FAMILY_M_CAP)
        i = int(rng.integers(1, m))
        cmp = compare_km_ml(i, m, info, mix)
        predicted = 1 if cmp.predicate else -1
        assert cmp.sign == predicted or cmp.sign == 0, \
            f"p={p}, ratio={ratio}, lam={lam}, i={i}, m={m}"
        checked += 1
