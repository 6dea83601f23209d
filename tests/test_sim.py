import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (batch_means_masked, decide_sequential,
                     random_family_member, random_ph, replay_queue_scan,
                     sample_phase_type_gathered, simulate_queue_scan,
                     tail_prefactor_estimate)

from nudgem import sim
from nudgem.cli import RECIPES
from nudgem.phtype import (
    InstabilityError,
    JobMix,
    PhaseType,
    fit_hyperexp,
    normalized_mix,
    ph_erlang,
    ph_exponential,
    ph_hyperexp,
    two_class_exp_mix,
)
from nudgem.policy import named_policy, policy_from_table_file
from nudgem.sim import (
    EstimationError,
    SimConfig,
    empirical_ccdf,
    sample_phase_type,
    simulate,
)

MIX = two_class_exp_mix(p=2 / 3, ratio=4.0, lam=0.7)


def _run(policy, n=60_000, seed=1, mix=MIX):
    return simulate(SimConfig(mix=mix, policy=policy, n_jobs=n, seed=seed))


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(mix=MIX, policy=named_policy("fcfs", m=1), n_jobs=10, warmup=10, seed=1)
    # every batch needs a job after warm-up
    with pytest.raises(ValueError, match="20 jobs leave 18"):
        SimConfig(mix=MIX, policy=named_policy("fcfs", m=1), n_jobs=20, seed=1)
    SimConfig(mix=MIX, policy=named_policy("fcfs", m=1), n_jobs=33, seed=1)
    # an unstable arrival rate is rejected before any simulation is possible
    with pytest.raises(InstabilityError):
        MIX.with_lambda(1.2)


def test_sample_phase_type_moments():
    gen = np.random.Generator(np.random.Philox(7))
    ph = ph_erlang(3, 1.5)
    x = sample_phase_type(ph, gen, 200_000)
    assert x.mean() == pytest.approx(1.5, abs=0.01)
    assert (x ** 2).mean() == pytest.approx(ph.moment(2), rel=0.02)


def _law(name):
    rng = np.random.default_rng(len(name))
    if name == "random-zero-alpha":
        return PhaseType([0.0, 0.7, 0.0, 0.3], random_ph(rng, 4).S)
    return {"exp": ph_exponential(mean=2.0), "erlang3": ph_erlang(3, 1.5),
            "hyperexp": ph_hyperexp(0.2, 0.25, 3.0),
            "random": random_ph(rng, 5)}[name]


@pytest.mark.parametrize("name", ["exp", "erlang3", "hyperexp", "random",
                                  "random-zero-alpha"])
def test_sampler_makes_the_gathered_samplers_draws(name):
    # the same samples from the same draws, and the generator left where
    # the per-sample gathering sampler leaves it
    ph = _law(name)
    for size in (0, 1, 5_000):
        gen, ref = (np.random.Generator(np.random.Philox(size)) for _ in "ab")
        assert np.array_equal(sample_phase_type(ph, gen, size),
                              sample_phase_type_gathered(ph, ref, size))
        assert gen.random() == ref.random()


def test_determinism():
    a = _run(named_policy("nudge-m", m=3), n=20_000, seed=99)
    b = _run(named_policy("nudge-m", m=3), n=20_000, seed=99)
    assert np.array_equal(a.wait, b.wait)
    assert np.array_equal(a.passes_hist, b.passes_hist)
    c = _run(named_policy("nudge-m", m=3), n=20_000, seed=100)
    assert not np.array_equal(a.wait, c.wait)


def test_fcfs_matches_pollaczek_khinchine():
    stats = _run(named_policy("fcfs", m=1), n=200_000)
    pk = MIX.lam * MIX.second_moment() / (2.0 * (1.0 - MIX.lam))
    for jt in ("any", 1, 2):
        mean, se = stats.mean_wait(jt)
        assert abs(mean - pk) <= 3.0 * se


def test_no_type1_jobs_reduces_to_fcfs():
    mix = JobMix(0.0, ph_exponential(mean=1.0), ph_exponential(mean=1.0), 0.6)
    a = simulate(SimConfig(mix=mix, policy=named_policy("nudge-m", m=4), n_jobs=15_000,
                           seed=5))
    b = simulate(SimConfig(mix=mix, policy=named_policy("fcfs", m=4), n_jobs=15_000,
                           seed=5))
    assert np.array_equal(a.wait, b.wait)
    assert a.passed_hist[1:].sum() == 0


def test_busy_fraction_near_load():
    stats = _run(named_policy("nudge-m", m=2), n=150_000)
    assert stats.busy_fraction == pytest.approx(MIX.lam, abs=0.02)


def test_busy_fraction_at_most_one_in_heavy_traffic():
    # the horizon is the last departure, not the last arrival plus its
    # service (which overshot to 1.06 for this case)
    stats = _run(named_policy("nudge-m", m=5), n=500, seed=1, mix=MIX.with_lambda(0.95))
    assert stats.busy_fraction <= 1.0


def test_busy_fraction_counts_only_after_warmup():
    # the busy time the warmup=0 run's service intervals cover inside
    # [arrival of job w, last departure] gives the warmup=w run's fraction
    mix, n, w, seed = MIX.with_lambda(0.95), 20_000, 2_000, 1
    full = simulate(SimConfig(mix=mix, policy=named_policy("nudge-m", m=5), n_jobs=n,
                              seed=seed, warmup=0))
    cut = simulate(SimConfig(mix=mix, policy=named_policy("nudge-m", m=5), n_jobs=n,
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
    stats = _run(named_policy("nudge-m", m=4), n=50_000)
    assert stats.passes_hist.shape == (5,)
    assert stats.passed_hist.shape == (5,)
    # Nudge-K: a type-2 job is passed at most once
    stats_k = _run(named_policy("nudge-k", k=3), n=50_000)
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
    stats = _run(named_policy("fcfs", m=1), n=150_000)
    est, se = empirical_ccdf(stats, "any", 0.0)
    assert abs(est - MIX.lam) <= 3.0 * se


def test_empirical_ccdf_monotone():
    stats = _run(named_policy("nudge-m", m=2), n=60_000)
    values = [empirical_ccdf(stats, 2, t)[0] for t in (0.0, 1.0, 4.0, 10.0)]
    assert values == sorted(values, reverse=True)


def test_tail_prefactor_requires_exceedances():
    stats = _run(named_policy("fcfs", m=1), n=30_000)
    with pytest.raises(EstimationError):
        tail_prefactor_estimate(stats, 0.186, [200.0])


def test_tail_prefactor_fcfs():
    from nudgem.asymptotics import decay_rate
    stats = _run(named_policy("fcfs", m=1), n=400_000, seed=17)
    info = decay_rate(MIX)
    est, err = tail_prefactor_estimate(stats, info.theta_z,
                                       np.linspace(4, 20, 9))
    assert est == pytest.approx(info.c_z, abs=max(5 * err, 0.05))


@pytest.mark.parametrize("p", [0.001, 2 / 3])
def test_batch_means_equal_the_masked_batch_means(p):
    # slices of one compaction per type, and counts for the ccdf's 0/1
    # values, give the floats of masking each batch; at p = 0.001, 12
    # of the 30 batches hold no type-1 job
    stats = _run(named_policy("nudge-m", m=3), n=20_000, seed=5, mix=normalized_mix(
        p, ph_exponential(mean=1.0), ph_exponential(mean=4.0), 0.9))
    for jt in ("any", 1, 2):
        sel = stats.job_type > 0 if jt == "any" else stats.job_type == jt
        assert stats.mean_wait(jt) == batch_means_masked(stats.wait, sel)
        assert stats.mean_response(jt) == batch_means_masked(stats.response,
                                                             sel)
        for t in (0.0, 2.0, 10.0):
            assert empirical_ccdf(stats, jt, t) == batch_means_masked(
                (stats.wait > t).astype(float), sel)


def test_batch_means_need_two_batches_with_the_type():
    # seed 1 leaves one type-1 job after warm-up: a mean, but no standard error
    stats = _run(named_policy("fcfs", m=1), n=60, mix=normalized_mix(
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
    return {"fcfs": named_policy("fcfs", m=1), "nudge-m1": named_policy("nudge-m", m=1),
            "nudge-m5": named_policy("nudge-m", m=5),
            "nudge-km": named_policy("nudge-km", k=2, m=4)}[name]


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
                              policy=named_policy("nudge-m", m=3), n_jobs=4_000, seed=12,
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


# -- the block passes against the event loop --------------------------------

def test_restarted_cumsum_is_the_running_sum():
    rng = np.random.default_rng(3)
    z = rng.standard_normal(3_000) * 10.0 ** rng.integers(-8, 8, 3_000)
    heads = np.flatnonzero(np.r_[True, rng.random(2_999) < 0.05])
    starts, out, s = set(heads.tolist()), [], 0.0
    for k, v in enumerate(z.tolist()):
        s = (0.0 if k in starts else s) + v
        out.append(s)
    assert np.array_equal(sim._restarted_cumsum(z, heads), out)
    assert np.array_equal(sim._restarted_cumsum(z, heads[:1]), np.cumsum(z))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 6),
       lam=st.floats(0.05, 0.99), p=st.one_of(st.just(0.0), st.just(1.0),
                                               st.floats(0.0, 1.0)),
       walk=st.integers(0, 1000), n=st.integers(1_500, 6_000),
       block=st.integers(64, 512))
def test_blocks_always_match_queue_scan(seed, m, lam, p, walk, n, block):
    policy = random_family_member(m, 3 * m, random.Random(walk))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "SIM_BLOCK", block)
        assert_same_run(SimConfig(mix=_mix("exp-hyperexp", lam, p),
                                  policy=policy, n_jobs=n, seed=seed))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 8),
       lam=st.floats(0.05, 0.99), p=st.one_of(st.just(0.0), st.just(1.0),
                                               st.floats(0.0, 1.0)),
       kind=st.sampled_from(["exp-hyperexp", "erlang3-exp"]),
       walk=st.one_of(st.none(), st.integers(0, 1000)),
       block=st.integers(256, 2048))
@example(seed=1, m=5, lam=0.75, p=2 / 3, kind="exp-hyperexp", walk=None,
         block=1024)
@example(seed=2, m=8, lam=0.6, p=2 / 3, kind="erlang3-exp", walk=None,
         block=2048)
def test_fixed_point_makes_the_sequential_decisions(seed, m, lam, p, kind,
                                                    walk, block):
    # every block's decisions, open rows included, are those of the loop
    # that settled the open rows one by one in arrival order; walk None is
    # Nudge-M, which passes every waiting type-2 job of the window. The
    # loop's masks count the arrivals before the block as type 1: it stops
    # at the oldest in-block type-2 job of a window either way. In each
    # explicit example an open row's count rests on an earlier open row's
    # passes, which one round of the fixed point misses
    policy = (named_policy("nudge-m", m=m) if walk is None
              else random_family_member(m, m + 2, random.Random(walk)))
    decide = sim._decide

    def both(a, x, two, seen, want, m):
        dec = decide(a, x, two, seen, want, m)
        ref = decide_sequential(a, x, two, seen,
                                sim._masks(two, 0, two.shape[0], m), want, m)
        for name in ("rows", "first", "newest", "passes", "n_short",
                     "n_loop"):
            assert np.array_equal(getattr(dec, name), getattr(ref, name)), name
        return dec

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "SIM_BLOCK", block)
        mp.setattr(sim, "_decide", both)
        simulate(SimConfig(mix=_mix(kind, lam, p), policy=policy,
                           n_jobs=6_000, seed=seed))


def test_failed_checks_send_every_block_to_the_event_loop(monkeypatch):
    # one pass fewer at every passer: the jobs stay in a feasible order, so
    # only the decision check fails, in every block, and the event loop
    # recomputes each
    decide = sim._decide

    def wrong(*args):
        dec = decide(*args)
        return dec._replace(passes=np.maximum(dec.passes - 1, 0))

    monkeypatch.setattr(sim, "SIM_BLOCK", 512)
    monkeypatch.setattr(sim, "_decide", wrong)
    config = SimConfig(mix=_mix("exp-exp", 0.95), policy=named_policy("nudge-m", m=5),
                       n_jobs=20_000, seed=22)
    assert_same_run(config)
    path = simulate(config).path
    assert path.blocks > 10
    assert path.event_loop_blocks == path.blocks


def _fields_equal(a, b):
    for name in SIM_FIELDS + ("busy_fraction",):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


@pytest.mark.parametrize("lam", [0.3, 0.95, 0.99])
@pytest.mark.parametrize("recipe", ["fig5a", "fig5b"])
def test_fast_path_takes_every_block(recipe, lam, monkeypatch):
    # fig5b's policy caps the passes below the window's type-2 count. The
    # block size is pinned so that every case has ten blocks or more
    monkeypatch.setattr(sim, "SIM_BLOCK", 1 << 13)
    policy = named_policy("nudge-m", m=5) if recipe == "fig5a" else named_policy("nudge-km", k=2, m=5)
    config = SimConfig(mix=RECIPES[recipe]["mix"](lam), policy=policy,
                       n_jobs=200_000, seed=31)
    fast = simulate(config)
    assert fast.path.blocks >= 10 and fast.path.event_loop_blocks == 0
    monkeypatch.setattr(sim, "_fast_block", lambda *args: None)
    loop = simulate(config)
    assert loop.path.event_loop_blocks == loop.path.blocks == fast.path.blocks
    _fields_equal(fast, loop)


@pytest.mark.parametrize("recipe, m", [("fig5a", 5), ("fig5b", 8)])
def test_block_size_changes_no_result(recipe, m, monkeypatch):
    # blocks start at arrivals that find the system empty, so where the
    # run is cut changes how it is computed, not what it computes
    config = SimConfig(mix=RECIPES[recipe]["mix"](0.95),
                       policy=named_policy("nudge-m", m=m), n_jobs=100_000,
                       seed=32)
    default = simulate(config)
    for size in (1 << 12, 1 << 13):
        monkeypatch.setattr(sim, "SIM_BLOCK", size)
        got = simulate(config)
        assert got.path.blocks > default.path.blocks
        assert got.path.event_loop_blocks == 0
        _fields_equal(got, default)


@pytest.mark.parametrize("gaps", [(1, 2, 3, 4, 5, 6), (0, 2, 3, 5, 8)])
def test_exact_ties_follow_the_event_loop(gaps, monkeypatch):
    # integer times tie departures with arrivals and starts with arrival
    # times; the event loop serves a departure at t before the arrival at t
    rng = np.random.default_rng(len(gaps))
    n = 20_000
    arrivals = np.cumsum(rng.choice(gaps, n)).astype(float)
    types = np.where(rng.random(n) < 0.6, 1, 2)
    service = rng.integers(1, 7, n).astype(float)
    config = SimConfig(mix=MIX, policy=named_policy("nudge-m", m=5), n_jobs=n, seed=0)
    monkeypatch.setattr(sim, "SIM_BLOCK", 256)
    fast = sim._replay(config, arrivals, types, service)
    assert fast.path.blocks > 10 and fast.path.event_loop_blocks == 0
    monkeypatch.setattr(sim, "_fast_block", lambda *args: None)
    _fields_equal(fast, sim._replay(config, arrivals, types, service))


def test_a_float_tie_sends_its_block_to_the_event_loop():
    # a 40-job busy period whose float end lands one ulp before the next
    # arrival, where the workload chain, summed another way, still sees
    # 7.1e-15 of work: no restart set holds both chains, so the service
    # chain's check fails. The event loop serves the departure first and
    # starts the arrival when it comes; the numpy passes would start it
    # one ulp before
    rng = np.random.default_rng(2)
    arrivals = np.concatenate(([0.0], np.cumsum(rng.exponential(1.0, 39))))
    service = rng.exponential(2.0, 40)
    ends = np.cumsum(service)  # from 0.0, as the service chain sums them
    assert (ends[:-1] > arrivals[1:]).all()
    arrivals = np.append(arrivals, np.nextafter(ends[-1], np.inf))
    service = np.append(service, 1.0)
    types = np.where(rng.random(41) < 0.6, 1, 2)
    config = SimConfig(mix=MIX, policy=named_policy("fcfs", m=1), n_jobs=41,
                       seed=0, warmup=0)
    got = sim._replay(config, arrivals, types, service)
    assert got.path.event_loop_blocks == got.path.blocks == 1
    assert got.wait[-1] == 0.0
    assert got.workload_seen[-1] == pytest.approx(7.1e-15, rel=0.01)
    _fields_equal(got, replay_queue_scan(config, arrivals, types, service))


@pytest.mark.parametrize("guess", ["busy-cut", "idle-flag"])
def test_wrong_cut_guesses_are_caught(guess, monkeypatch):
    # a cut at an arrival that finds the system busy makes the block run
    # on to the next cut; a wrong idle flag fails the workload chain's
    # check and sends its block to the event loop
    next_cut = sim._next_cut
    wrong = []

    def guessed(arrivals, service, lo, size):
        hi, idle = next_cut(arrivals, service, lo, size)
        if guess == "busy-cut" and size == sim.SIM_BLOCK and hi > lo + size:
            wrong.append(lo + size)
            return lo + size, idle[:size]
        if guess == "idle-flag" and hi - lo > 100:
            idle = idle.copy()
            idle[100] = not idle[100]
            wrong.append(lo + 100)
        return hi, idle

    monkeypatch.setattr(sim, "SIM_BLOCK", 256)
    config = SimConfig(mix=_mix("exp-hyperexp", 0.95), policy=named_policy("nudge-m", m=3),
                       n_jobs=20_000, seed=41)
    path = simulate(config).path
    monkeypatch.setattr(sim, "_next_cut", guessed)
    assert_same_run(config)
    assert len(wrong) > 10
    if guess == "busy-cut":
        assert simulate(config).path == path
    else:
        assert simulate(config).path.event_loop_blocks == path.blocks
