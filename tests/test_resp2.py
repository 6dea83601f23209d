import math

import pytest
from scipy.integrate import quad

from nudgem.asymptotics import decay_rate, prefactors_nudge_m
from nudgem.phtype import normalized_mix, ph_erlang, two_class_exp_mix
from nudgem.resp2 import (
    BlockLayout,
    build_extra_wait,
    build_w2_model,
    r2_ccdf,
    w2_ccdf,
)
from nudgem.swap import chain_size, mean_response, swap_pmf
from oracles import convolution_ccdf

MIX = two_class_exp_mix(p=2 / 3, ratio=4.0, lam=0.7)
ERLANG_MIX = normalized_mix(2 / 3, ph_erlang(2, 0.5), ph_erlang(2, 2.0), 0.7)


def test_block_layout_sizes():
    layout = BlockLayout.for_window(3, 2)
    assert layout.offsets == [0, 2 * chain_size(2), 2 * (chain_size(2) + chain_size(1))]
    assert layout.size == 2 * (chain_size(2) + chain_size(1) + chain_size(0))


def test_gamma_mass_equals_swap_probability():
    model = build_extra_wait(MIX, 3)
    chain = model.chain
    for s in (0.0, 0.7, 4.0):
        mass = model.gamma(s).sum()
        assert mass == pytest.approx(1.0 - swap_pmf(chain, s)[0], abs=1e-12)


def test_extra_wait_ccdf_decreasing_in_t():
    model = build_extra_wait(MIX, 2)
    values = [model.ccdf(2.0, t) for t in (0.0, 0.5, 1.5, 4.0)]
    assert all(a >= b - 1e-14 for a, b in zip(values, values[1:]))


def test_w2_at_zero_is_busy_probability():
    model = build_w2_model(MIX, 3)
    assert model.w2_ccdf(0.0) == pytest.approx(MIX.lam, abs=1e-12)
    assert model.r2_ccdf(0.0) == pytest.approx(1.0, abs=1e-10)


def test_w2_density_integrates_to_tail():
    model = build_w2_model(MIX, 2)
    val, _ = quad(model.w2.density, 0.0, 300.0, limit=300)
    assert val == pytest.approx(MIX.lam, abs=1e-7)


def test_response_dominates_waiting():
    model = build_w2_model(MIX, 3)
    for t in (0.0, 1.0, 5.0, 20.0):
        assert model.r2_ccdf(t) >= model.w2_ccdf(t) - 1e-12


def test_w2_tail_prefactor():
    info = decay_rate(MIX)
    t = 40.0 / info.theta_z
    for m in (1, 2):
        _, cw2 = prefactors_nudge_m(info, m)
        est = w2_ccdf(MIX, m, t) * math.exp(info.theta_z * t)
        assert est == pytest.approx(cw2, rel=1e-6)


def test_mean_from_distribution_matches_swap_module():
    # integrate the response ccdf and compare with the closed-form mean of
    # a type-2 job's response time
    from nudgem.swap import mean_swaps
    m = 2
    model = build_w2_model(MIX, m)
    mean_r2, _ = quad(model.r2_ccdf, 0.0, 400.0, limit=400)
    rep = mean_response(MIX, m)
    # E[R2] = E[W_fcfs] + E[X2] + (passes per type-2) E[X1]
    expect = (rep.fcfs - 1.0) + MIX.e2 + mean_swaps(MIX, m) * MIX.e1
    assert mean_r2 == pytest.approx(expect, abs=1e-5)


def test_w2_decreasing_in_window():
    info = decay_rate(MIX)
    t = 25.0 / info.theta_z
    tails = [w2_ccdf(MIX, m, t) for m in (1, 2, 3)]
    # larger windows delay type-2 jobs more
    assert tails == sorted(tails)


@pytest.mark.parametrize("mix", [MIX, ERLANG_MIX], ids=["exp", "erlang2"])
def test_r2_matches_convolution_oracle(mix):
    # P[W + X > t] = P[X > t] + int_0^t f_X(x) P[W > t - x] dx
    model = build_w2_model(mix, 2)
    for t in (0.3, 2.0, 7.0):
        assert model.r2_ccdf(t) == pytest.approx(
            convolution_ccdf(mix.ph2, model.w2_ccdf, t), abs=1e-8)


def test_r2_multiphase_smoke():
    assert r2_ccdf(ERLANG_MIX, 2, 0.0) == pytest.approx(1.0, abs=1e-10)
    assert 0.0 < r2_ccdf(ERLANG_MIX, 2, 5.0) < 1.0
