import math

import numpy as np
import pytest
from scipy.integrate import quad

from nudgem.asymptotics import decay_rate, prefactors_nudge_m
from nudgem.cli import RECIPES
from nudgem.phtype import MatrixExpDist, normalized_mix, ph_erlang, two_class_exp_mix
from nudgem.resp2 import build_extra_wait, build_w2_model, counting_matrix
from nudgem.swap import mean_response
from oracles import (build_w2_model_per_k, convolution_ccdf, initial_distribution,
                     swap_pmf)

MIX = two_class_exp_mix(p=2 / 3, ratio=4.0, lam=0.7)
ERLANG_MIX = normalized_mix(2 / 3, ph_erlang(2, 0.5), ph_erlang(2, 2.0), 0.7)


def _extra_wait(mix, m, s):
    """(gamma(s), Q) of the extra waiting time after workload s: gamma(s)
    is ((e_1' e^{W_M s} U_M) x alpha1, 0), whose mass is the probability
    of at least one swap; U_M drops the first M + 1 (i = 0) states."""
    q = build_extra_wait(mix, m, counting_matrix(m, mix.lam, mix.p))
    head = np.kron(initial_distribution(mix, m, s)[m + 1:], mix.ph1.alpha)
    gamma = np.zeros(q.shape[0])
    gamma[: head.shape[0]] = head
    return gamma, q


def test_gamma_mass_equals_swap_probability():
    for s in (0.0, 0.7, 4.0):
        mass = _extra_wait(MIX, 3, s)[0].sum()
        assert mass == pytest.approx(1.0 - swap_pmf(MIX, 3, s)[0], abs=1e-12)


def test_extra_wait_ccdf_decreasing_in_t():
    gamma, q = _extra_wait(MIX, 2, 2.0)
    law = MatrixExpDist(gamma, q, np.ones(q.shape[0]))
    values = [law.ccdf(t) for t in (0.0, 0.5, 1.5, 4.0)]
    assert all(a >= b - 1e-14 for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("mix", [RECIPES["fig9a"]["mix"](), RECIPES["fig5b"]["mix"](),
                                 ERLANG_MIX], ids=["fig9a", "fig5b", "erlang2"])
def test_w2_model_is_bit_identical_to_per_k_assembly(mix):
    # every block cut from the one W_M equals its own counting chain, and
    # every identity coupling equals the selector product
    for m in range(1, 11):
        got, want = build_w2_model(mix, m), build_w2_model_per_k(mix, m)
        assert np.array_equal(got.t_m, want.t_m)
        assert np.array_equal(got.w2.init, want.w2.init)
        assert np.array_equal(got.w2.tail, want.w2.tail)
        assert np.array_equal(got.r2.gen, want.r2.gen)


def test_w2_at_zero_is_busy_probability():
    model = build_w2_model(MIX, 3)
    assert model.w2.ccdf(0.0) == pytest.approx(MIX.lam, abs=1e-12)
    assert model.r2.ccdf(0.0) == pytest.approx(1.0, abs=1e-10)


def test_w2_density_integrates_to_tail():
    model = build_w2_model(MIX, 2)
    val, _ = quad(model.w2.density, 0.0, 300.0, limit=300)
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
