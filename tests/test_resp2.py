import math

import numpy as np
import pytest
from scipy.integrate import quad

from nudgem.asymptotics import decay_rate, prefactors_nudge_m
from nudgem.cli import RECIPES
from nudgem.phtype import MatrixExpDist, normalized_mix, ph_erlang, two_class_exp_mix
from nudgem.resp2 import build_extra_wait, build_w2_model, chain_size, counting_matrix
from nudgem.swap import mean_response
from oracles import (build_w2_model_per_k, convolution_ccdf, initial_distribution,
                     law_density, swap_pmf)

MIX = two_class_exp_mix(p=2 / 3, ratio=4.0, lam=0.7)
ERLANG_MIX = normalized_mix(2 / 3, ph_erlang(2, 0.5), ph_erlang(2, 2.0), 0.7)


def _extra_wait(mix, m, s):
    """(gamma(s), Q) of the extra waiting time after workload s: gamma(s)
    is (e_1' e^{W_M s} U_M) x alpha1, whose mass is the probability of at
    least one swap; U_M drops the first M + 1 (i = 0) states."""
    q = build_extra_wait(mix, m, counting_matrix(m, mix.lam, mix.p))
    return np.kron(initial_distribution(mix, m, s)[m + 1:], mix.ph1.alpha), q


def test_gamma_mass_equals_swap_probability():
    for s in (0.0, 0.7, 4.0):
        mass = _extra_wait(MIX, 3, s)[0].sum()
        assert mass == pytest.approx(1.0 - swap_pmf(MIX, 3, s)[0], abs=1e-12)


def test_extra_wait_ccdf_decreasing_in_t():
    gamma, q = _extra_wait(MIX, 2, 2.0)
    law = MatrixExpDist(gamma, q, np.ones(q.shape[0]))
    values = [law.ccdf(t) for t in (0.0, 0.5, 1.5, 4.0)]
    assert all(a >= b - 1e-14 for a, b in zip(values, values[1:]))


# The lumped W_2 law agrees with the per-k law to rounding: at most
# 9.2e-16 relative over these mixes and windows.
LUMPED_LAW_TOL = 4e-15
W2_MIXES = [RECIPES["fig9a"]["mix"](), RECIPES["fig5b"]["mix"](), ERLANG_MIX]
W2_MIX_IDS = ["fig9a", "fig5b", "erlang2"]


@pytest.mark.parametrize("mix", W2_MIXES, ids=W2_MIX_IDS)
def test_lumped_w2_law_matches_per_k_law(mix):
    # one chain on W_{M-1} against one block per served count: ccdf and
    # density of W_2 and R_2 on the default grid plus 40/theta_Z, and the
    # means; at t = 0 a density is compared in absolute terms, since
    # Erlang-2's R_2 density there is 0 and reads +-9e-17
    theta = decay_rate(mix).theta_z
    grid = np.append(np.linspace(0.0, 60.0 / theta, 25), 40.0 / theta)
    for m in range(1, 11):
        got, want = build_w2_model(mix, m), build_w2_model_per_k(mix, m)
        for a, b in ((got.w2, want.w2), (got.r2, want.r2)):
            assert a.ccdf(grid) == pytest.approx(b.ccdf(grid), rel=LUMPED_LAW_TOL, abs=0)
            dens, ref = law_density(a, grid), law_density(b, grid)
            assert dens[1:] == pytest.approx(ref[1:], rel=LUMPED_LAW_TOL, abs=0)
            assert abs(dens[0] - ref[0]) <= LUMPED_LAW_TOL
            assert a.mean() == pytest.approx(b.mean(), rel=LUMPED_LAW_TOL, abs=0)


@pytest.mark.parametrize("mix", W2_MIXES, ids=W2_MIX_IDS)
def test_w2_model_size(mix):
    # chain_size(M) n_T workload states, chain_size(M - 1) n1 extra-wait ones
    for m in range(1, 13):
        n = chain_size(m) * mix.T.shape[0] + chain_size(m - 1) * mix.n1
        assert build_w2_model(mix, m).t_m.shape == (n, n)


def test_w2_at_zero_is_busy_probability():
    model = build_w2_model(MIX, 3)
    assert model.w2.ccdf(0.0) == pytest.approx(MIX.lam, abs=1e-12)
    assert model.r2.ccdf(0.0) == pytest.approx(1.0, abs=1e-10)


def test_w2_density_integrates_to_tail():
    model = build_w2_model(MIX, 2)
    val, _ = quad(lambda t: law_density(model.w2, t), 0.0, 300.0, limit=300)
    assert val == pytest.approx(MIX.lam, abs=1e-7)


def test_response_dominates_waiting():
    model = build_w2_model(MIX, 3)
    for t in (0.0, 1.0, 5.0, 20.0):
        assert model.r2.ccdf(t) >= model.w2.ccdf(t) - 1e-12


def test_w2_tail_prefactor():
    info = decay_rate(MIX)
    t = 40.0 / info.theta_z
    for m in (1, 2):
        _, cw2 = prefactors_nudge_m(info, m)
        est = build_w2_model(MIX, m).w2.ccdf(t) * math.exp(info.theta_z * t)
        assert est == pytest.approx(cw2, rel=1e-6)


def test_mean_from_distribution_matches_swap_module():
    # integrate the response ccdf and compare with the closed-form mean of
    # a type-2 job's response time
    from nudgem.swap import mean_swaps
    m = 2
    model = build_w2_model(MIX, m)
    mean_r2, _ = quad(model.r2.ccdf, 0.0, 400.0, limit=400)
    rep = mean_response(MIX, m)
    # E[R2] = E[W_fcfs] + E[X2] + (passes per type-2) E[X1]
    expect = (rep.fcfs - 1.0) + MIX.e2 + mean_swaps(MIX, m) * MIX.e1
    assert mean_r2 == pytest.approx(expect, abs=1e-5)


def test_w2_decreasing_in_window():
    info = decay_rate(MIX)
    t = 25.0 / info.theta_z
    tails = [build_w2_model(MIX, m).w2.ccdf(t) for m in (1, 2, 3)]
    # larger windows delay type-2 jobs more
    assert tails == sorted(tails)


@pytest.mark.parametrize("mix", [MIX, ERLANG_MIX], ids=["exp", "erlang2"])
def test_r2_matches_convolution_oracle(mix):
    # P[W + X > t] = P[X > t] + int_0^t f_X(x) P[W > t - x] dx
    model = build_w2_model(mix, 2)
    for t in (0.3, 2.0, 7.0):
        assert model.r2.ccdf(t) == pytest.approx(
            convolution_ccdf(mix.ph2, model.w2.ccdf, t), abs=1e-8)


def test_r2_multiphase_smoke():
    model = build_w2_model(ERLANG_MIX, 2)
    assert model.r2.ccdf(0.0) == pytest.approx(1.0, abs=1e-10)
    assert 0.0 < model.r2.ccdf(5.0) < 1.0
