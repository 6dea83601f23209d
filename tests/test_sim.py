import numpy as np
import pytest

from nudgem.phtype import (
    InstabilityError,
    JobMix,
    ph_erlang,
    ph_exponential,
    two_class_exp_mix,
)
from nudgem.policy import (
    fcfs_policy,
    named_policy,
    nudge_k_policy,
    nudge_m_policy,
    policy_from_table_file,
)
from nudgem.sim import (
    EstimationError,
    SimConfig,
    empirical_ccdf,
    sample_phase_type,
    simulate,
    tail_prefactor_estimate,
)

MIX = two_class_exp_mix(p=2 / 3, ratio=4.0, lam=0.7)


def _run(policy, n=60_000, seed=1, mix=MIX):
    return simulate(SimConfig(mix=mix, policy=policy, n_jobs=n, seed=seed))


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(mix=MIX, policy=fcfs_policy(1), n_jobs=10, warmup=10, seed=1)
    with pytest.raises(ValueError):
        SimConfig(mix=MIX, policy=fcfs_policy(1), n_jobs=100, seed=1,
                  n_batches=1)
    # an unstable arrival rate is rejected before any simulation is possible
    with pytest.raises(InstabilityError):
        MIX.with_lambda(1.2)


def test_sample_phase_type_moments():
    gen = np.random.Generator(np.random.Philox(7))
    ph = ph_erlang(3, 1.5)
    x = sample_phase_type(ph, gen, 200_000)
    assert x.mean() == pytest.approx(1.5, abs=0.01)
    assert (x ** 2).mean() == pytest.approx(ph.moment(2), rel=0.02)


def test_determinism():
    a = _run(nudge_m_policy(3), n=20_000, seed=99)
    b = _run(nudge_m_policy(3), n=20_000, seed=99)
    assert np.array_equal(a.wait, b.wait)
    assert np.array_equal(a.passes_hist, b.passes_hist)
    c = _run(nudge_m_policy(3), n=20_000, seed=100)
    assert not np.array_equal(a.wait, c.wait)


def test_fcfs_matches_pollaczek_khinchine():
    stats = _run(fcfs_policy(1), n=200_000)
    pk = MIX.lam * MIX.second_moment() / (2.0 * (1.0 - MIX.lam))
    for jt in ("any", 1, 2):
        mean, se = stats.mean_wait(jt)
        assert abs(mean - pk) <= 3.0 * se


def test_no_type1_jobs_reduces_to_fcfs():
    mix = JobMix(0.0, ph_exponential(mean=1.0), ph_exponential(mean=1.0), 0.6)
    a = simulate(SimConfig(mix=mix, policy=nudge_m_policy(4), n_jobs=15_000,
                           seed=5))
    b = simulate(SimConfig(mix=mix, policy=fcfs_policy(4), n_jobs=15_000,
                           seed=5))
    assert np.array_equal(a.wait, b.wait)
    assert a.passed_hist[1:].sum() == 0


def test_busy_fraction_near_load():
    stats = _run(nudge_m_policy(2), n=150_000)
    assert stats.busy_fraction == pytest.approx(MIX.lam, abs=0.02)


def test_busy_fraction_at_most_one_in_heavy_traffic():
    # the horizon is the last departure, not the last arrival plus its
    # service (which overshot to 1.06 for this case)
    stats = _run(nudge_m_policy(5), n=500, seed=1, mix=MIX.with_lambda(0.95))
    assert stats.busy_fraction <= 1.0


def test_swap_caps_respected():
    stats = _run(nudge_m_policy(4), n=50_000)
    assert stats.passes_hist.shape == (5,)
    assert stats.passed_hist.shape == (5,)
    # Nudge-K: a type-2 job is passed at most once
    stats_k = _run(nudge_k_policy(3), n=50_000)
    assert stats_k.passed_hist[2:].sum() == 0


def test_table_file_matches_named_policy(tmp_path):
    pol = named_policy("nudge-km", k=1, m=3)
    path = tmp_path / "pol.txt"
    path.write_text("\n".join(
        "".join(map(str, s)) + " " + str(n) for s, n in sorted(pol.table.items())))
    a = _run(pol, n=20_000, seed=3)
    b = _run(policy_from_table_file(path), n=20_000, seed=3)
    assert np.array_equal(a.wait, b.wait)


def test_empirical_ccdf_at_zero_is_busy_probability():
    stats = _run(fcfs_policy(1), n=150_000)
    est, se = empirical_ccdf(stats, "any", 0.0)
    assert abs(est - MIX.lam) <= 3.0 * se


def test_empirical_ccdf_monotone():
    stats = _run(nudge_m_policy(2), n=60_000)
    values = [empirical_ccdf(stats, 2, t)[0] for t in (0.0, 1.0, 4.0, 10.0)]
    assert values == sorted(values, reverse=True)


def test_tail_prefactor_requires_exceedances():
    stats = _run(fcfs_policy(1), n=30_000)
    with pytest.raises(EstimationError):
        tail_prefactor_estimate(stats, 0.186, [200.0])


def test_tail_prefactor_fcfs():
    from nudgem.asymptotics import decay_rate
    stats = _run(fcfs_policy(1), n=400_000, seed=17)
    info = decay_rate(MIX)
    est, err = tail_prefactor_estimate(stats, info.theta_z,
                                       np.linspace(4, 20, 9))
    assert est == pytest.approx(info.c_z, abs=max(5 * err, 0.05))
