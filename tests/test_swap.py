import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nudgem.asymptotics import decay_rate
from nudgem.cli import RECIPES
from nudgem import swap
from nudgem.phtype import (
    JobMix,
    normalized_mix,
    ph_erlang,
    ph_exponential,
    two_class_exp_mix,
)
from nudgem.resp2 import (
    _state_index,
    chain_size,
    counting_matrix,
)
from nudgem.swap import (
    _count_law,
    fcfs_mean_response,
    mean_response,
    mean_swaps,
    priority_mean_response,
    unconditional_swap_pmf,
    workload_ccdf,
)
from oracles import (
    _add_arrivals,
    dense_chain,
    initial_distribution,
    initial_distribution_expm,
    mean_swaps_quadrature,
    random_ph,
    selector_matrix,
    swap_mean_vector,
    swap_pmf,
    swap_pmf_grid,
    swap_pmf_vectors,
    unconditional_swap_pmf_kron,
    workload_average,
)

MIX = two_class_exp_mix(p=2 / 3, ratio=4.0, lam=0.7)


def test_chain_size_triangle_numbers():
    assert [chain_size(k) for k in range(5)] == [1, 3, 6, 10, 15]


def test_counting_matrix_structure():
    w = counting_matrix(2, 0.7, 2 / 3)
    # rows of the absorbing layer vanish; the rest lose mass at rate lam
    sums = w.sum(axis=1)
    assert np.allclose(sums[:2], 0.0)  # (0,0) and (0,1) are transient...
    assert np.allclose(w[0, 0], -0.7)
    # dropping the i = 0 block leaves the window-1 chain
    u = selector_matrix(2)
    inner = u.T @ w @ u
    assert np.allclose(inner, counting_matrix(1, 0.7, 2 / 3))


def test_initial_distribution_matches_expm():
    chain = dense_chain(MIX, 4)
    for s in (0.0, 0.3, 2.0, 9.0):
        exact = initial_distribution(MIX, 4, s)
        oracle = initial_distribution_expm(chain, s)
        assert np.max(np.abs(exact - oracle)) < 1e-12
        assert exact.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("name", ["erlang2-exp", "random-3-phase"])
def test_push_step_matches_dense_transfer(name):
    # one swap (drop the i = 0 states, add the arrivals during the passing
    # job's service) on each unit row of window M - ell against the dense
    # transfer row (U x alpha1)(-(W_k (+) S1))^{-1}(I x s1*)
    if name == "erlang2-exp":
        mix = _erlang2_exp(0.7)
    else:
        ph1 = random_ph(np.random.default_rng(7), 3)
        mix = normalized_mix(2 / 3, ph1, ph_exponential(mean=2.0), 0.7)
    m = 5
    chain = dense_chain(mix, m)
    law = _count_law(mix.ph1.alpha, mix.ph1.S, mix.ph1.exit, mix.lam, m - 1)
    for ell in range(m):
        k = m - ell  # window before the step
        i, j = np.array(_state_index(k - 1)).T
        for r, (a, b) in enumerate(_state_index(k)):
            grid = np.zeros((k + 1, k + 1))
            grid[a + b, a] = 1.0
            step = _add_arrivals(grid[1:, 1:], law, mix.p)
            assert np.max(np.abs(step[i + j, i] - chain.transfer[ell][r])) < 1e-14


def test_initial_distribution_past_factorial_range():
    # 171! overflows a float, so the layer masses come from Poisson
    # weights; compare with a log-space reference at M = 200, where the
    # dense W_M alone would take 3.3 GB
    m, p = 200, MIX.p
    i, j = np.array(_state_index(m)).T
    for s in (1.0, 250.0):  # lambda s = 0.7: mass near n = 0; 175: P[N >= M] = 0.034
        r = MIX.lam * s
        n_top = int(r + 50.0 * math.sqrt(r) + 100.0)
        log_pois = np.array([-r + n * math.log(r) - math.lgamma(n + 1)
                             for n in range(max(m, n_top) + 1)])
        layer = np.exp(log_pois[: m + 1])
        layer[m] = np.exp(log_pois[m:]).sum()
        n = i + j
        log_binom = np.array([math.lgamma(a + b + 1) - math.lgamma(a + 1) - math.lgamma(b + 1)
                              for a, b in zip(i, j)])
        want = layer[n] * np.exp(log_binom + i * math.log(p) + j * math.log(1.0 - p))
        got = initial_distribution(MIX, m, s)
        assert got.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(got - want)) < 1e-15
        big = want > 1e-12
        assert np.max(np.abs(got[big] / want[big] - 1.0)) < 1e-10


def test_swap_pmf_is_distribution():
    for s in (0.0, 1.0, 5.0):
        pmf = swap_pmf(MIX, 3, s)
        assert pmf.shape == (4,)
        assert np.all(pmf >= -1e-14)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
    # zero workload means no waiting and no swaps
    assert swap_pmf(MIX, 3, 0.0)[0] == pytest.approx(1.0, abs=1e-14)


def test_window_that_always_closes_first_gives_binomial():
    # after a workload of 7,000 mean arrivals the window of 12 is full
    # before the job could start: every type-1 job of the window passes
    m, p = 12, MIX.p
    want = [math.comb(m, k) * p ** k * (1.0 - p) ** (m - k) for k in range(m + 1)]
    np.testing.assert_allclose(swap_pmf(MIX, m, 1e4), want, rtol=1e-13, atol=0.0)


def _mc_swap_counts(mix, m, s, n_rep, rng):
    """Definitional Monte Carlo oracle: a tagged type-2 job finds workload
    s; each later type-1 arrival within the next m arrival slots that comes
    before the tagged job starts service passes it, adding its own service
    to the work ahead."""
    counts = np.zeros(m + 1, dtype=np.int64)
    rate1 = -mix.ph1.S[0, 0]
    for _ in range(n_rep):
        ahead = s
        t = 0.0
        k = 0
        for slot in range(m):
            t += rng.exponential(1.0 / mix.lam)
            if t >= ahead:
                break
            if rng.random() < mix.p:
                ahead += rng.exponential(1.0 / rate1)
                k += 1
        counts[k] += 1
    return counts / n_rep


def test_swap_pmf_against_definitional_mc():
    rng = np.random.default_rng(1234)
    for s in (0.8, 3.0):
        emp = _mc_swap_counts(MIX, 3, s, 40_000, rng)
        ana = swap_pmf(MIX, 3, s)
        assert np.max(np.abs(emp - ana)) < 0.01


def test_mean_swaps_closed_form_vs_quadrature():
    info = decay_rate(MIX)
    for m in (1, 3):
        a = mean_swaps(MIX, m)
        b = mean_swaps_quadrature(MIX, m, info.theta_z)
        assert a == pytest.approx(b, abs=1e-8)


def test_unconditional_pmf_mass_and_mean():
    pmf = unconditional_swap_pmf(MIX, 3)
    assert pmf.sum() == pytest.approx(1.0, abs=1e-10)
    assert float(pmf @ np.arange(4)) == pytest.approx(mean_swaps(MIX, 3),
                                                      abs=1e-10)
    # an empty system on arrival means no swaps at all
    assert pmf[0] >= 1.0 - MIX.lam


def test_swap_pmf_refuses_a_chain_that_makes_mass(monkeypatch):
    # every swap's service carries 1% more mass than it has
    law = swap._count_law

    def service_makes_mass(init, gen, v, lam, k):
        scale = 1.01 if np.array_equal(gen, MIX.ph1.S) else 1.0
        return scale * law(init, gen, v, lam, k)

    monkeypatch.setattr(swap, "_count_law", service_makes_mass)
    with pytest.raises(FloatingPointError, match="swap pmf"):
        swap_pmf(MIX, 5, 2.0)
    with pytest.raises(FloatingPointError, match="swap pmf"):
        unconditional_swap_pmf(MIX, 5)


def test_heavy_window_runs_in_small_memory():
    # a dense counting chain at M = 60 would hold about 700 MB
    mix = RECIPES["fig5b"]["mix"](0.95)
    tracemalloc.start()
    try:
        mean_response(mix, 60)
        pmf = unconditional_swap_pmf(mix, 60)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pmf.sum() == pytest.approx(1.0, abs=1e-10)
    assert peak < 10 * 2 ** 20


def _assert_matches_dense_oracles(mix, m):
    """The hitting-time swap laws against the dense transfer-product
    vectors and the Kronecker workload average, to 1e-12 relative."""
    chain = dense_chain(mix, m)
    vecs, v_swap = swap_pmf_vectors(chain), swap_mean_vector(chain)
    pmf, want = unconditional_swap_pmf(mix, m), unconditional_swap_pmf_kron(mix, chain)
    assert np.max(np.abs(pmf - want)) <= 1e-12 * np.max(want)
    assert mean_swaps(mix, m) == pytest.approx(
        workload_average(mix, chain, v_swap), rel=1e-12, abs=1e-15)
    for s in (0.0, 0.3, 2.0, 9.0):
        init = initial_distribution(mix, m, s)
        want = np.array([init @ v for v in vecs])
        pmf = swap_pmf(mix, m, s)
        assert np.max(np.abs(pmf - want)) <= 1e-12 * np.max(want)
        assert pmf @ np.arange(m + 1) == pytest.approx(
            init @ v_swap, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("lam, m", [(0.95, 60), (0.99, 150)])
def test_swap_laws_match_grid_oracle_past_dense_range(lam, m):
    # the dense chain would hold 0.7 GB at M = 60; the grid sweep does not
    mix = RECIPES["fig5b"]["mix"](lam)
    k = np.arange(m + 1)
    for s in (None, 0.5 * m):
        pmf = unconditional_swap_pmf(mix, m) if s is None else swap_pmf(mix, m, s)
        want = swap_pmf_grid(mix, m, s)
        assert np.max(np.abs(pmf - want)) <= 1e-12 * np.max(want)
        assert pmf @ k == pytest.approx(want @ k, rel=1e-12)


def _erlang2_exp(lam):
    return normalized_mix(2 / 3, ph_erlang(2, 0.5), ph_exponential(mean=2.0), lam)


@pytest.mark.parametrize("m", [1, 2, 5, 9, 12])
@pytest.mark.parametrize("name, lam", [("fig5a", 0.7), ("fig5b", 0.9),
                                       ("fig9a", 0.95), ("erlang2-exp", 0.5)])
def test_swap_laws_match_dense_oracles(name, lam, m):
    mix = _erlang2_exp(lam) if name == "erlang2-exp" else RECIPES[name]["mix"](lam)
    _assert_matches_dense_oracles(mix, m)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n1=st.integers(1, 3), n2=st.integers(1, 3),
       m=st.integers(1, 8), lam=st.floats(0.05, 0.99),
       p=st.floats(0.0, 1.0, exclude_max=True))
def test_swap_laws_always_match_dense_oracles(seed, n1, n2, m, lam, p):
    rng = np.random.default_rng(seed)
    mix = normalized_mix(p, random_ph(rng, n1), random_ph(rng, n2), lam)
    _assert_matches_dense_oracles(mix, m)


def test_workload_ccdf_known_mm1():
    # all-exponential unit-mean work: P[Z > t] = lam e^{-(1-lam)t}
    mix = JobMix(0.5, ph_exponential(mean=1.0), ph_exponential(mean=1.0), 0.6)
    for t in (0.5, 2.0, 8.0):
        assert workload_ccdf(mix, t) == pytest.approx(
            0.6 * math.exp(-0.4 * t), rel=1e-10)


def test_fcfs_mean_response_mm1():
    mix = JobMix(0.5, ph_exponential(mean=1.0), ph_exponential(mean=1.0), 0.6)
    assert fcfs_mean_response(mix) == pytest.approx(1.0 / 0.4, rel=1e-12)


def test_fcfs_mean_response_pollaczek_khinchine():
    # E[R] = 1 + lam E[X^2] / (2 (1 - lam))
    pk = 1.0 + MIX.lam * MIX.second_moment() / (2.0 * (1.0 - MIX.lam))
    assert fcfs_mean_response(MIX) == pytest.approx(pk, rel=1e-12)


def test_mean_response_improves_with_smaller_type1():
    rep = mean_response(MIX, 5)
    assert rep.nudge < rep.fcfs
    assert 0 < rep.mtir < 1
    assert rep.mean_swaps > 0


def test_mean_response_no_gain_for_equal_means():
    mix = JobMix(0.5, ph_exponential(mean=1.0), ph_exponential(mean=1.0), 0.6)
    rep = mean_response(mix, 3)
    assert rep.mtir == pytest.approx(0.0, abs=1e-12)


def test_priority_bound_dominates_nudge():
    rep = mean_response(MIX, 5)
    assert priority_mean_response(MIX) <= rep.nudge + 1e-12


@pytest.mark.parametrize("p", [0.0, 1.0])
def test_priority_with_one_class_is_fcfs(p):
    # one class left: the Pollaczek-Khinchine mean lambda E[X^2] / (2 (1 - lambda)) + 1
    mix = normalized_mix(p, ph_erlang(2, 0.5), ph_exponential(mean=2.0), 0.7)
    want = mix.lam * mix.second_moment() / (2.0 * (1.0 - mix.lam)) + 1.0
    assert priority_mean_response(mix) == pytest.approx(want, rel=1e-14)


def test_mean_swaps_grows_with_window():
    vals = [mean_swaps(MIX, m) for m in (1, 2, 4, 6)]
    assert vals == sorted(vals)
    assert vals[-1] < 6  # bounded by the window


def test_erlang_mix_mean_response_cross_check():
    mix = normalized_mix(2 / 3, ph_erlang(4, 0.5), ph_erlang(4, 2.0), 0.7)
    info = decay_rate(mix)
    a = mean_swaps(mix, 2)
    b = mean_swaps_quadrature(mix, 2, info.theta_z)
    assert a == pytest.approx(b, abs=1e-8)
