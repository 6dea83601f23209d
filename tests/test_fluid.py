import math

import numpy as np
import pytest

from nudgem.asymptotics import decay_rate, prefactors_nudge_m
from nudgem.fluid import (
    NudgeMLayout,
    build_fcfs_fluid,
    build_nudge1_fluid,
    build_nudge_m_fluid,
    riccati_residual,
    solve_policy_fluid,
    solve_riccati,
    solve_riccati_fixed_point,
    stationary_fluid,
)
from nudgem.phtype import fit_hyperexp, normalized_mix, ph_erlang, two_class_exp_mix
from nudgem.swap import workload_ccdf
from oracles import convolution_ccdf

MIX = two_class_exp_mix(p=2 / 3, ratio=4.0, lam=0.7)
HE_MIX = normalized_mix(2 / 3, ph_erlang(2, 0.5), fit_hyperexp(2.0, 2.0, 0.5),
                        lam=0.7)


def test_fcfs_riccati_solution_is_ones():
    model = build_fcfs_fluid(MIX)
    psi = solve_riccati(model)
    assert np.max(np.abs(psi - 1.0)) < 1e-12
    assert riccati_residual(model, psi) < 1e-12


def test_sda_matches_fixed_point_oracle():
    for mix in (MIX, HE_MIX):
        model = build_nudge_m_fluid(mix, 2)
        fast = solve_riccati(model)
        slow = solve_riccati_fixed_point(model)
        assert np.max(np.abs(fast - slow)) < 1e-10


def test_riccati_solution_is_substochastic():
    model = build_nudge_m_fluid(MIX, 3)
    psi = solve_riccati(model)
    assert np.all(psi >= 0.0)
    rows = psi.sum(axis=1)
    assert np.all(rows <= 1.0 + 1e-12)


def test_fcfs_fluid_reproduces_workload():
    sol = stationary_fluid(build_fcfs_fluid(MIX))
    assert sol.c0 == pytest.approx(1.0 - MIX.lam, abs=1e-12)
    for t in np.arange(0.1, 20.0, 1.7):
        assert sol.w1_ccdf(t) == pytest.approx(workload_ccdf(MIX, t),
                                               abs=1e-10)


def test_nudge1_equals_window_one_model():
    for mix in (MIX, HE_MIX):
        a = stationary_fluid(build_nudge1_fluid(mix))
        b = stationary_fluid(build_nudge_m_fluid(mix, 1))
        for t in (0.0, 0.4, 2.0, 9.0):
            assert a.w1_ccdf(t) == pytest.approx(b.w1_ccdf(t), abs=1e-10)
        assert a.c0 == pytest.approx(b.c0, abs=1e-10)


def test_zero_level_mass_is_idle_probability():
    for m in (1, 2, 4):
        sol = stationary_fluid(build_nudge_m_fluid(MIX, m))
        assert sol.c0 == pytest.approx(1.0 - MIX.lam, abs=1e-9)
        assert sol.w1_ccdf(0.0) == pytest.approx(MIX.lam, abs=1e-9)


def test_w1_tail_prefactor():
    info = decay_rate(MIX)
    t = 40.0 / info.theta_z
    for m in (1, 2, 3):
        sol = stationary_fluid(build_nudge_m_fluid(MIX, m))
        cw1, _ = prefactors_nudge_m(info, m)
        est = sol.w1_ccdf(t) * math.exp(info.theta_z * t)
        assert est == pytest.approx(cw1, rel=1e-6)


def test_w1_improves_with_window():
    t = 10.0
    tails = [stationary_fluid(build_nudge_m_fluid(MIX, m)).w1_ccdf(t)
             for m in (1, 2, 3)]
    assert tails == sorted(tails, reverse=True)
    fcfs = stationary_fluid(build_fcfs_fluid(MIX)).w1_ccdf(t)
    assert tails[0] < fcfs


def test_r1_ccdf_boundaries():
    sol = stationary_fluid(build_nudge_m_fluid(MIX, 2))
    r1 = sol.w1.plus(MIX.ph1)
    assert r1.ccdf(0.0) == pytest.approx(1.0, abs=1e-10)
    for t in (0.5, 3.0, 12.0):
        assert r1.ccdf(t) >= sol.w1_ccdf(t) - 1e-12


@pytest.mark.parametrize("mix", [MIX, HE_MIX], ids=["exp", "erlang2"])
def test_r1_matches_convolution_oracle(mix):
    # P[W + X > t] = P[X > t] + int_0^t f_X(x) P[W > t - x] dx
    sol = stationary_fluid(build_nudge_m_fluid(mix, 2))
    r1 = sol.w1.plus(mix.ph1)
    for t in (0.3, 2.0, 7.0):
        assert r1.ccdf(t) == pytest.approx(
            convolution_ccdf(mix.ph1, sol.w1_ccdf, t), abs=1e-8)


def test_fcfs_response_mixture_is_total_response():
    # under FCFS both types see the same workload; mixing the per-type
    # response tails at t = 0 returns certainty
    sol = stationary_fluid(build_fcfs_fluid(MIX))
    r1 = sol.w1.plus(MIX.ph1).ccdf(0.0)
    r2 = sol.w1.plus(MIX.ph2).ccdf(0.0)
    assert MIX.p * r1 + (1 - MIX.p) * r2 == pytest.approx(1.0, abs=1e-10)


def test_layout_block_sizes():
    lay = NudgeMLayout.build(3, 2, 1)
    assert len(lay.minus_index) == 8
    # subsets: 4 strings with a leading zero in blocks 1 and 2, all 8 in 3
    assert lay.n_plus == 4 * 2 + 4 * 1 + 8 * 1


def test_window_cap_enforced():
    with pytest.raises(ValueError):
        build_nudge_m_fluid(MIX, 11)


def test_solve_policy_fluid_dispatch():
    sol = solve_policy_fluid(MIX, "fcfs")
    assert sol.c0 == pytest.approx(0.3, abs=1e-10)
    with pytest.raises(ValueError):
        solve_policy_fluid(MIX, "nudge-k")
