import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import random_family_member, simulate_queue_scan

from nudgem.phtype import (
    InstabilityError,
    JobMix,
    fit_hyperexp,
    normalized_mix,
    ph_erlang,
    ph_exponential,
    two_class_exp_mix,
)
from nudgem.policy import (
    fcfs_policy,
    named_policy,
    nudge_k_policy,
    nudge_km_policy,
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
    # every batch needs a job after warm-up
    with pytest.raises(ValueError, match="20 jobs leave 18"):
        SimConfig(mix=MIX, policy=fcfs_policy(1), n_jobs=20, seed=1)
    SimConfig(mix=MIX, policy=fcfs_policy(1), n_jobs=33, seed=1)
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


def test_busy_fraction_counts_only_after_warmup():
    # the busy time the warmup=0 run's service intervals cover inside
    # [arrival of job w, last departure] gives the warmup=w run's fraction
    mix, n, w, seed = MIX.with_lambda(0.95), 20_000, 2_000, 1
    full = simulate(SimConfig(mix=mix, policy=nudge_m_policy(5), n_jobs=n,
                              seed=seed, warmup=0))
    cut = simulate(SimConfig(mix=mix, policy=nudge_m_policy(5), n_jobs=n,
                             seed=seed, warmup=w))
    assert np.array_equal(full.wait[w:], cut.wait)
    arrivals = np.cumsum(np.random.Generator(np.random.Philox(seed))
                         .exponential(1.0 / mix.lam, n))
    start, end = arrivals + full.wait, arrivals + full.response
    horizon = (arrivals[w], end.max())
    busy = (np.clip(end, *horizon) - np.clip(start, *horizon)).sum()
    assert cut.busy_fraction == pytest.approx(
        busy / (horizon[1] - horizon[0]), abs=1e-12)


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


def test_batch_means_need_two_batches_with_the_type():
    # seed 1 leaves one type-1 job after warm-up: a mean, but no standard error
    stats = _run(fcfs_policy(1), n=60, mix=normalized_mix(
        0.02, ph_exponential(mean=1.0), ph_exponential(mean=1.0), 0.5))
    assert (stats.job_type == 1).sum() == 1
    with pytest.raises(EstimationError, match="1 of 30 batches"):
        stats.mean_wait(1)
    with pytest.raises(EstimationError):
        empirical_ccdf(stats, 1, 0.0)
    assert np.isfinite(stats.mean_wait(2)[1])


# -- the event loop against the queue-scanning oracle -----------------------

SIM_FIELDS = ("job_type", "wait", "response", "workload_seen", "passes_hist",
              "passed_hist", "times_passed")


def assert_same_run(config):
    """Bit-identical SimStats from ``simulate`` and the oracle."""
    new, ref = simulate(config), simulate_queue_scan(config)
    for name in SIM_FIELDS:
        assert np.array_equal(getattr(new, name), getattr(ref, name)), name
    assert new.busy_fraction == ref.busy_fraction


def _mix(kind, lam, p=2 / 3):
    ph2 = (fit_hyperexp(4.0, 2.0, 0.5) if kind == "exp-hyperexp"
           else ph_exponential(mean=4.0))
    ph1 = ph_erlang(3, 1.0) if kind == "erlang3-exp" else ph_exponential(mean=1.0)
    return normalized_mix(p, ph1, ph2, lam)


def _policy(name, tmp_path):
    if name == "table-file":
        pol = named_policy("nudge-ml", m=4, l=2)
        path = tmp_path / "pol.txt"
        path.write_text("\n".join("".join(map(str, s)) + f" {n}"
                                  for s, n in pol.table.items()))
        return policy_from_table_file(path)
    if name.startswith("random-m"):
        m = int(name[len("random-m"):])
        return random_family_member(m, 4 * m, random.Random(m))
    return {"fcfs": fcfs_policy(1), "nudge-m1": nudge_m_policy(1),
            "nudge-m5": nudge_m_policy(5),
            "nudge-km": nudge_km_policy(2, 4)}[name]


@pytest.mark.parametrize("lam", [0.3, 0.95, 0.99])
@pytest.mark.parametrize("kind", ["exp-exp", "exp-hyperexp", "erlang3-exp"])
@pytest.mark.parametrize("name", ["fcfs", "nudge-m1", "nudge-m5", "nudge-km",
                                  "table-file", "random-m3", "random-m5"])
def test_event_loop_matches_queue_scan(name, kind, lam, tmp_path):
    assert_same_run(SimConfig(mix=_mix(kind, lam), policy=_policy(name, tmp_path),
                              n_jobs=4_000, seed=11))


@pytest.mark.parametrize("p", [0.0, 1.0])
@pytest.mark.parametrize("warmup", [0, None])
def test_event_loop_matches_queue_scan_one_type(p, warmup):
    assert_same_run(SimConfig(mix=_mix("exp-hyperexp", 0.95, p),
                              policy=nudge_m_policy(3), n_jobs=4_000, seed=12,
                              warmup=warmup))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 5),
       lam=st.floats(0.05, 0.99), p=st.one_of(st.just(0.0), st.just(1.0),
                                               st.floats(0.0, 1.0)),
       walk=st.integers(0, 1000))
def test_event_loop_always_matches_queue_scan(seed, m, lam, p, walk):
    policy = random_family_member(m, 3 * m, random.Random(walk))
    assert_same_run(SimConfig(mix=_mix("exp-hyperexp", lam, p), policy=policy,
                              n_jobs=1_500, seed=seed, warmup=0))
