import dataclasses
import functools
import math
import random

import numpy as np
import pytest
from scipy.optimize import brentq

from oracles import (best_nudge_kl_pairs, compare_km_ml, enumerate_policies,
                     family_prefactors_enum, family_prefactors_sweep,
                     increment_ratio, laplace, nudge_prefix_strings,
                     random_family_member, verify_optimality_enum)

from nudgem.asymptotics import (
    FAMILY_M_CAP,
    ComplexityError,
    atir_from_prefactors,
    atir_nudge_m,
    best_nudge_kl,
    decay_rate,
    family_prefactors,
    heavy_traffic_atir,
    m_heavy,
    m_opt,
    m_opt_raw,
    prefactors_nudge_m,
    verify_optimality,
)
from nudgem import asymptotics
from nudgem.cli import RECIPES
from nudgem.phtype import (
    fit_hyperexp,
    normalized_mix,
    ph_erlang,
    ph_exponential,
    two_class_exp_mix,
)
from nudgem.policy import (
    PolicyTables,
    named_policy,
    nudge_mkl,
    valid_tables,
)

MIX = two_class_exp_mix(p=2 / 3, ratio=4.0, lam=0.7)


def _root_oracle(mix):
    """Independent decay rate: the positive root of
    lam (X~(-theta) - 1) = theta (theta = 0 is always a root, so bracket
    away from it and below the transform's pole)."""
    def f(theta):
        return mix.lam * (laplace(mix, -theta) - 1.0) - theta

    pole = -np.max(np.linalg.eigvals(mix.S).real)
    hi = 0.999 * pole
    while f(hi) <= 0:
        hi = (hi + pole) / 2.0
    return brentq(f, 1e-9, hi, xtol=1e-14)


def test_decay_rate_against_root_oracle():
    info = decay_rate(MIX)
    assert info.theta_z == pytest.approx(_root_oracle(MIX), abs=1e-11)
    # frozen values for the reference exp/exp mix
    assert info.theta_z == pytest.approx(0.18585715714571502, abs=1e-12)
    assert info.c_z == pytest.approx(0.6440588176458821, abs=1e-10)


def test_decay_rate_multiphase():
    mix = normalized_mix(2 / 3, ph_erlang(2, 0.5), fit_hyperexp(2.0, 2.0, 0.5),
                         lam=0.6)
    info = decay_rate(mix)
    assert info.theta_z == pytest.approx(_root_oracle(mix), abs=1e-10)
    # the transforms read off decay_rate's one resolvent
    for got, law in ((info.s1_tilde, mix.ph1), (info.s2_tilde, mix.ph2),
                     (info.s_tilde, mix)):
        assert got == pytest.approx(laplace(law, -info.theta_z), rel=1e-12)
    # prefactor via numeric limit of the workload tail
    from nudgem.swap import workload_ccdf
    t = 45.0 / info.theta_z
    est = workload_ccdf(mix, t) * math.exp(info.theta_z * t)
    assert est == pytest.approx(info.c_z, rel=1e-8)


def test_weights_sum_identity():
    info = decay_rate(MIX)
    # w1 + w < 1 guarantees a strictly improving first window slot
    assert 0 < info.w1 < 1
    assert 0 < info.w < 1
    assert info.w1 + info.w < 1
    assert info.w1 == pytest.approx(MIX.p * info.s1_tilde / info.s_tilde)


def test_atir_zero_window_is_zero():
    info = decay_rate(MIX)
    assert atir_nudge_m(info, MIX, 0) == 0.0


def test_m_opt_matches_argmax():
    for ratio, lam in [(4.0, 0.7), (2.0, 0.5), (8.0, 0.9), (1.5, 0.7)]:
        mix = two_class_exp_mix(p=2 / 3, ratio=ratio, lam=lam)
        info = decay_rate(mix)
        values = [atir_nudge_m(info, mix, m) for m in range(80)]
        assert m_opt(info) == int(np.argmax(values))


def test_m_opt_reference_mixes():
    info = decay_rate(MIX)
    assert m_opt(info) == 5
    # Erlang job sizes, same means and load
    e4 = normalized_mix(2 / 3, ph_erlang(4, 0.5), ph_erlang(4, 2.0), 0.7)
    assert m_opt(decay_rate(e4)) == 3
    e8 = normalized_mix(2 / 3, ph_erlang(8, 0.5), ph_erlang(8, 2.0), 0.7)
    assert m_opt(decay_rate(e8)) == 2


def test_prefactor_recursion():
    info = decay_rate(MIX)
    for m in range(5):
        cw1, cw2 = prefactors_nudge_m(info, m)
        nw1, nw2 = prefactors_nudge_m(info, m + 1)
        assert nw1 == pytest.approx(cw1 * (info.w1 + info.w), rel=1e-12)
        assert nw2 == pytest.approx(cw2 * (info.w1 + info.w) * info.s_tilde,
                                    rel=1e-12)


def test_family_prefactors_fcfs_is_identity():
    info = decay_rate(MIX)
    rep = family_prefactors(named_policy("fcfs", m=2), info, MIX)
    assert rep.c_w1 == pytest.approx(info.c_z, rel=1e-12)
    assert rep.c_w2 == pytest.approx(info.c_z, rel=1e-12)
    assert rep.atir == pytest.approx(0.0, abs=1e-12)


def test_family_prefactors_match_closed_forms():
    info = decay_rate(MIX)
    for m in range(1, 5):
        rep = family_prefactors(named_policy("nudge-m", m=m), info, MIX)
        cw1, cw2 = prefactors_nudge_m(info, m)
        assert rep.c_w1 == pytest.approx(cw1, abs=1e-10)
        assert rep.c_w2 == pytest.approx(cw2, abs=1e-10)
        assert rep.atir == pytest.approx(atir_nudge_m(info, MIX, m), abs=1e-10)


ORACLE_MIXES = {
    "fig5a": RECIPES["fig5a"]["mix"](),
    "fig5b": RECIPES["fig5b"]["mix"](),
    **{f"fig5b-lam{lam}": RECIPES["fig5b"]["mix"](lam) for lam in (0.1, 0.5, 0.9)},
}


@functools.lru_cache(maxsize=None)
def _oracle_policies():
    """The 57 named Nudge-M/K,M/M,L/K,L members with M <= 6, every table of
    F_3, and two random tables for each of M = 4, 5, 6."""
    named = [("nudge-m", {"m": m}) for m in range(1, 7)]
    named += [(kind, {"m": m, key: i}) for kind, key in (("nudge-km", "k"),
                                                         ("nudge-ml", "l"))
              for m in range(2, 7) for i in range(1, m)]
    named += [("nudge-kl", {"k": k, "l": l})
              for k in range(1, 7) for l in range(1, 8 - k)]
    assert len(named) == 57
    rng = random.Random(20240717)
    return ([named_policy(kind, **params) for kind, params in named]
            + list(enumerate_policies(3))
            + [random_family_member(m, 2 ** m, rng) for m in (4, 5, 6)
               for _ in range(2)])


@pytest.mark.parametrize("name", sorted(ORACLE_MIXES))
def test_family_prefactors_match_enumeration(name):
    # the window sweep against the string enumeration it replaced
    mix = ORACLE_MIXES[name]
    info = decay_rate(mix)
    for pol in _oracle_policies():
        got = family_prefactors(pol, info, mix)
        want = family_prefactors_enum(pol, info, mix)
        assert got.c_w1 == pytest.approx(want.c_w1, rel=1e-13, abs=0)
        assert got.c_w2 == pytest.approx(want.c_w2, rel=1e-13, abs=0)
        assert got.atir == pytest.approx(want.atir, rel=0, abs=1e-13)


@pytest.mark.parametrize("name", sorted(ORACLE_MIXES))
def test_family_prefactors_batch_equals_single(name):
    # one batched sweep over the tables of each window against one call
    # per table
    mix = ORACLE_MIXES[name]
    info = decay_rate(mix)
    pols = _oracle_policies()
    for m in sorted({pol.m for pol in pols}):
        group = [pol for pol in pols if pol.m == m]
        batch = family_prefactors(
            PolicyTables(m, np.array([pol.by_mask for pol in group])), info, mix)
        assert batch.atir.shape == (len(group),)
        for i, pol in enumerate(group):
            want = family_prefactors(pol, info, mix)
            assert batch.c_w1[i] == pytest.approx(want.c_w1, rel=1e-13, abs=0)
            assert batch.c_w2[i] == pytest.approx(want.c_w2, rel=1e-13, abs=0)
            assert batch.atir[i] == pytest.approx(want.atir, rel=0, abs=1e-13)


FIG6_LAMBDAS = [float(lam) for lam in RECIPES["fig6"]["lambda"]]
SWEEP_MIXES = {**ORACLE_MIXES,
               **{f"{name}-lam{lam}": RECIPES[name]["mix"](lam)
                  for name in ("fig5a", "fig5b") for lam in FIG6_LAMBDAS}}


def _assert_same_prefactors(got, want):
    for field in ("c_w1", "c_w2", "atir"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field


def test_family_prefactors_bit_identical_to_sweep():
    # the cached policy-free factors against the sweep that rebuilt them on
    # every call: every Nudge-(M, K, L) with M <= 6 and F_1..F_3 as one
    # batch each, on every mix
    members = [nudge_mkl(m, k, l) for m in range(1, FAMILY_M_CAP + 1)
               for k in range(m + 1) for l in range(1, m + 1)]
    batches = [valid_tables(m) for m in (1, 2, 3)]
    for mix in SWEEP_MIXES.values():
        info = decay_rate(mix)
        for pol in members + batches:
            _assert_same_prefactors(family_prefactors(pol, info, mix),
                                    family_prefactors_sweep(pol, info, mix))

    # calls alternate between two mixes of the same window that differ in
    # one input only: lambda, p, or one of the transforms S~1, S~2. A cache
    # keyed on too little hands the second the first one's factors.
    def own(mix):
        return mix, decay_rate(mix)

    base, info = own(RECIPES["fig5b"]["mix"](0.5))
    pairs = [
        ((base, info), own(RECIPES["fig5b"]["mix"](0.7))),
        (own(MIX), own(two_class_exp_mix(p=0.5, ratio=4.0, lam=0.7))),
        # the same transforms with another p, and one transform changed
        ((base, info), (two_class_exp_mix(p=0.5, ratio=4.0, lam=0.5), info)),
        ((base, info), (base, dataclasses.replace(info, s1_tilde=1.25))),
        ((base, info), (base, dataclasses.replace(info, s2_tilde=0.75))),
    ]
    for pol in members:
        for first, second in pairs:
            for mix, inf in (first, second, first):
                _assert_same_prefactors(family_prefactors(pol, inf, mix),
                                        family_prefactors_sweep(pol, inf, mix))


def test_family_prefactors_cap():
    info = decay_rate(MIX)
    with pytest.raises(ComplexityError):
        family_prefactors(named_policy("nudge-m", m=7), info, MIX)


def test_nudge_k_atir_below_nudge_m():
    info = decay_rate(MIX)
    for m in (2, 3):
        a_k = family_prefactors(named_policy("nudge-k", k=m), info, MIX).atir
        a_m = family_prefactors(named_policy("nudge-m", m=m), info, MIX).atir
        assert a_k <= a_m + 1e-12


def test_heavy_traffic_limits():
    assert heavy_traffic_atir(0.4, 1.0, 1.0) == 0.0
    # equal-mean case stays zero for any split
    assert heavy_traffic_atir(0.9, 1.0, 1.0) == 0.0
    val = heavy_traffic_atir(2 / 3, 0.5, 2.0)
    assert val == pytest.approx(1.0 - 2.0 ** (-1.0 / 3.0), rel=1e-12)
    with pytest.raises(ValueError):
        heavy_traffic_atir(0.5, 0.5, 2.0)  # means not normalized


def test_m_heavy_growth():
    prev = 0
    for lam in (0.8, 0.9, 0.99):
        mix = MIX.with_lambda(lam)
        mh = m_heavy(mix, decay_rate(mix))
        assert mh >= prev
        prev = mh
    assert prev > 20


def test_verify_optimality_small_windows():
    info = decay_rate(MIX)
    for m in (1, 2):
        rep = verify_optimality(m, info, MIX)
        assert rep.is_optimal
        assert not rep.edge_failures
        assert rep.n_policies >= 2


VERIFY_MIXES = {
    "fig5a": RECIPES["fig5a"]["mix"](),
    **{f"fig5b-lam{lam}": RECIPES["fig5b"]["mix"](lam)
       for lam in (0.05, 0.5, 0.95, 0.99)},
    "window1": two_class_exp_mix(p=2 / 3, ratio=1.5, lam=0.7),
}


def _assert_same_report(got, want):
    assert got == want  # field for field
    assert got.best_atir.hex() == want.best_atir.hex()


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(VERIFY_MIXES))
def test_verify_optimality_matches_enumeration(name, m):
    # the table array and code lookups against one PolicyFn per table and
    # per lattice edge
    mix = VERIFY_MIXES[name]
    info = decay_rate(mix)
    _assert_same_report(verify_optimality(m, info, mix),
                        verify_optimality_enum(m, info, mix))


@pytest.mark.parametrize("wrong_m_opt", [0, 1, 2])
def test_verify_optimality_failures_match_enumeration(monkeypatch, wrong_m_opt):
    # a wrong M_opt in both paths makes edges fail the increment rule, so
    # the failure lists, their order and their format are compared too
    import oracles
    for module in (asymptotics, oracles):
        monkeypatch.setattr(module, "m_opt", lambda info: wrong_m_opt)
    info = decay_rate(MIX)  # true M_opt = 5
    for m in (1, 2, 3):
        got = verify_optimality(m, info, MIX)
        _assert_same_report(got, verify_optimality_enum(m, info, MIX))
        # the true optimum passes every two in windows up to 5
        assert bool(got.edge_failures) == (m > wrong_m_opt)
        assert got.is_optimal == (m <= wrong_m_opt)


def test_verify_optimality_counts_and_builds(monkeypatch):
    # 2/7/74 tables and 1/8/168 edges; at most 1 + |best| PolicyFn per call
    built = []
    real = asymptotics.PolicyFn.__post_init__
    monkeypatch.setattr(asymptotics.PolicyFn, "__post_init__",
                        lambda self: built.append(real(self)))
    info = decay_rate(MIX)
    for m, tables, edges in ((1, 2, 1), (2, 7, 8), (3, 74, 168)):
        built.clear()
        rep = verify_optimality(m, info, MIX)
        assert (rep.n_policies, rep.n_edges) == (tables, edges)
        assert len(built) <= 1 + len(rep.best_policies)


@pytest.mark.parametrize("mo", [0, 1, 2, 3, 4])
def test_expected_table_equals_string_definition(monkeypatch, mo):
    # Nudge-min(M, M_opt) in F_M passes the twos within the first
    # min(M, M_opt) positions
    monkeypatch.setattr(asymptotics, "m_opt", lambda info: mo)
    info = decay_rate(MIX)
    for m in (1, 2, 3):
        got = verify_optimality(m, info, MIX).expected.by_mask
        assert np.array_equal(got, nudge_prefix_strings(m, min(m, mo)))


def test_verify_optimality_cap():
    info = decay_rate(MIX)
    with pytest.raises(ComplexityError):
        verify_optimality(4, info, MIX)


def test_increment_ratio_symmetric_case():
    info = decay_rate(MIX)
    # i = 1 reduces to (w1/w)^m
    for m in (2, 3, 4):
        assert increment_ratio(info, 1, m) == pytest.approx(
            (info.w1 / info.w) ** m, rel=1e-12)


def test_compare_km_ml_reference_mix():
    info = decay_rate(MIX)
    cmp = compare_km_ml(2, 4, info, MIX)
    predicted = 1 if info.s1_tilde > (1 - MIX.p) / MIX.p else -1
    assert cmp.sign == predicted
    assert (cmp.ratio > 1) == (cmp.sign > 0)


def test_best_nudge_kl_beats_plain_caps():
    # K and L range up to M_opt = 5, with windows K + L - 1 up to the cap
    info = decay_rate(MIX)
    k, l, atir = best_nudge_kl(info, MIX)
    assert 1 <= k <= m_opt(info) and 1 <= l <= m_opt(info)
    assert k + l - 1 <= FAMILY_M_CAP
    assert atir == pytest.approx(
        family_prefactors(named_policy("nudge-kl", k=k, l=l), info, MIX).atir)


@pytest.mark.parametrize("name", ["fig5a", "fig5b"])
def test_best_nudge_kl_equals_pair_loop(name):
    # one batched call per window against one call per (K, L) pair
    for lam in FIG6_LAMBDAS:
        mix = RECIPES[name]["mix"](lam)
        info = decay_rate(mix)
        got = best_nudge_kl(info, mix)
        assert got == best_nudge_kl_pairs(info, mix)
        if m_opt(info) == 0:
            # fig5a at lambda <= 0.1: the rectangle is (1, 1) alone, Nudge-1,
            # which is worse than FCFS there
            assert got[:2] == (1, 1) and got[2] < 0
    assert [m_opt(decay_rate(RECIPES["fig5a"]["mix"](lam)))
            for lam in (0.05, 0.1, 0.15)] == [0, 0, 1]


def test_best_nudge_kl_ties_to_first_pair(monkeypatch):
    # every row the same ATIR: both versions keep the smallest (K, L)
    def flat(policy, info, mix):
        atir = (np.full(len(policy.by_mask), 0.25)
                if isinstance(policy, PolicyTables) else 0.25)
        return asymptotics.AtirReport(atir, atir, atir)

    monkeypatch.setattr(asymptotics, "family_prefactors", flat)
    info = decay_rate(MIX)  # M_opt = 5: 22 pairs over windows 1..6
    assert best_nudge_kl(info, MIX) == (1, 1, 0.25)
    assert best_nudge_kl_pairs(info, MIX) == (1, 1, 0.25)


def test_atir_prefactor_consistency():
    info = decay_rate(MIX)
    cw1, cw2 = prefactors_nudge_m(info, 3)
    assert atir_from_prefactors(info, MIX, cw1, cw2) == pytest.approx(
        atir_nudge_m(info, MIX, 3), rel=1e-12)


def test_m_opt_raw_monotone_in_ratio():
    vals = []
    for ratio in (2.0, 4.0, 8.0):
        mix = two_class_exp_mix(p=2 / 3, ratio=ratio, lam=0.7)
        vals.append(m_opt_raw(decay_rate(mix)))
    assert vals == sorted(vals)
