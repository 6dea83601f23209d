"""Property-based checks for the fitting, policy and family-prefactor
layers, for the fluid's sparse blocks, SDA stop and pi_+ eigenproblem, for the mean
waits against the swap layer, and for phases that no job enters."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (WALD_W1_TOL, WALD_W2_TOL, check_table_strings, count_twos,
                     eigen_gap_dense, family_prefactors_enum,
                     random_family_member, random_ph,
                     solve_riccati_one_lu_dense, stationary_pi_dense,
                     string_mask, verify_optimality_enum, wald_mean_gaps)

from nudgem.asymptotics import (FAMILY_M_CAP, atir_nudge_m, decay_rate,
                                family_prefactors, m_opt, verify_optimality)
from nudgem.fluid import (SparseRows, build_nudge_m_fluid, reachable_plus,
                          solve_riccati, stationary_fluid)
from nudgem.phtype import (JobMix, PhaseType, fit_hyperexp, normalized_mix,
                           ph_exponential)
from nudgem.policy import (
    PolicyError,
    PolicyFn,
    all_strings,
    named_policy,
)


@settings(max_examples=60, deadline=None)
@given(mean=st.floats(0.1, 10.0), scv=st.floats(1.01, 20.0),
       f=st.floats(0.05, 0.95))
def test_fit_hyperexp_always_round_trips(mean, scv, f):
    ph = fit_hyperexp(mean=mean, scv=scv, f=f)
    assert ph.mean == pytest.approx(mean, rel=1e-8)
    assert ph.moment(2) / mean ** 2 - 1.0 == pytest.approx(scv, rel=1e-6)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4))
def test_capped_policies_always_in_family(a, b):
    # construction itself validates (C1)/(C2); re-wrap to re-check
    for pol in (named_policy("nudge-km", k=min(a, b), m=max(a, b)),
                named_policy("nudge-ml", m=max(a, b), l=min(a, b)),
                named_policy("nudge-kl", k=a, l=b)):
        PolicyFn(pol.m, pol.table)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4))
def test_pass_counts_never_exceed_twos(a, b):
    pol = named_policy("nudge-kl", k=a, l=b)
    for s in all_strings(pol.m):
        assert 0 <= pol(s) <= min(a, count_twos(s))


def _check_message(check):
    try:
        check()
    except PolicyError as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_table_check_equals_string_check(data):
    # the array check of (C1)/(C2) accepts exactly the rows the string loop
    # accepts, and rejects with the same message
    m = data.draw(st.integers(1, 5))
    row = data.draw(st.lists(st.integers(-1, m + 1), min_size=1 << m,
                             max_size=1 << m))
    if data.draw(st.booleans()):
        # clip into 0..t(s) so that (C1) holds and (C2) decides
        row = [min(max(v, 0), bin(b).count("1")) for b, v in enumerate(row)]
    table = {s: row[string_mask(s)] for s in all_strings(m)}
    want = _check_message(lambda: check_table_strings(m, table))
    assert _check_message(lambda: PolicyFn(m, row)) == want
    assert _check_message(lambda: PolicyFn(m, table)) == want


def _exp_hyperexp_mix(p, lam):
    # the fig5b shape at any split: unit mean work, E[X2] = 4 E[X1]
    e1 = 1.0 / (p + 4.0 * (1.0 - p))
    return normalized_mix(p, ph_exponential(mean=e1),
                          fit_hyperexp(4.0 * e1, 2.0, 0.5), lam=lam)


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 5), p=st.floats(0.05, 0.95),
       lam=st.floats(0.05, 0.95), rng=st.randoms(use_true_random=False))
def test_family_prefactors_sweep_equals_enumeration(m, p, lam, rng):
    mix = _exp_hyperexp_mix(p, lam)
    info = decay_rate(mix)
    pol = random_family_member(m, 2 ** m, rng)
    got = family_prefactors(pol, info, mix)
    want = family_prefactors_enum(pol, info, mix)
    assert got.c_w1 == pytest.approx(want.c_w1, rel=1e-13, abs=0)
    assert got.c_w2 == pytest.approx(want.c_w2, rel=1e-13, abs=0)
    assert got.atir == pytest.approx(want.atir, rel=0, abs=1e-13)


@settings(max_examples=40, deadline=None)
@given(p=st.floats(0.05, 0.95), lam=st.floats(0.05, 0.95))
def test_fcfs_family_prefactors_are_the_workload(p, lam):
    mix = _exp_hyperexp_mix(p, lam)
    info = decay_rate(mix)
    for m in range(1, FAMILY_M_CAP + 1):
        rep = family_prefactors(named_policy("fcfs", m=m), info, mix)
        assert rep.c_w1 == pytest.approx(info.c_z, rel=1e-12, abs=0)
        assert rep.c_w2 == pytest.approx(info.c_z, rel=1e-12, abs=0)
        assert rep.atir == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(p=st.floats(0.01, 0.99), lam=st.floats(0.05, 0.95),
       phases=st.tuples(st.integers(1, 3), st.integers(1, 3)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_verify_optimality_equals_enumeration(p, lam, phases, seed):
    rng = np.random.default_rng(seed)
    mix = normalized_mix(p, random_ph(rng, phases[0]), random_ph(rng, phases[1]),
                         lam=lam)
    info = decay_rate(mix)
    for m in (1, 2, 3):
        got = verify_optimality(m, info, mix)
        want = verify_optimality_enum(m, info, mix)
        assert got == want
        assert got.best_atir.hex() == want.best_atir.hex()


@settings(max_examples=25, deadline=None)
@given(p=st.floats(0.05, 0.95), lam=st.floats(0.05, 0.95),
       phases=st.tuples(st.integers(1, 3), st.integers(1, 3)),
       m=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1))
def test_pi_plus_from_distinct_rows_equals_dense(p, lam, phases, m, seed):
    # pi_+ from the (2^(m-1) + 1)-sized eigenproblem on P~'s distinct rows
    # equals pi_+ from the n+ x n+ one, and its eigen gap the n- x n- one's.
    # P~ Psi's n- - k zero eigenvalues can form a Jordan block, which a
    # dense eig resolves only to about eps^(1/j) (1e-7 at p = 0.98): where
    # the dense gap is within 1e-6 of 1, the reduced one need only be too
    rng = np.random.default_rng(seed)
    mix = normalized_mix(p, random_ph(rng, phases[0]), random_ph(rng, phases[1]),
                         lam=lam)
    model = build_nudge_m_fluid(mix, m)
    sol = stationary_fluid(model)
    assert sol.pi_eig_n == 2 ** (m - 1) + 1
    pi, c0 = stationary_pi_dense(model, sol.psi)
    assert np.max(np.abs(sol.pi_plus - pi)) <= 1e-13 * np.max(pi)
    assert sol.c0 == pytest.approx(c0, rel=1e-13)
    want = eigen_gap_dense(model, sol.psi)
    if want < 1.0 - 1e-6:
        assert abs(sol.eigen_gap - want) <= 1e-12
    else:
        assert sol.eigen_gap >= 1.0 - 1e-6


def _gather_bound(a, x):
    """Rounding bound of the sums of products a @ x in any order: each
    entry is off the exact one by at most k eps (|a| |x|), k the inner
    dimension."""
    return max(a.shape[-1], 1) * np.finfo(float).eps * (np.abs(a) @ np.abs(x))


def _check_sparse_rows(rows, cols, vals, shape, sub_rows, sub_cols, seed):
    """SparseRows against the dense matrix it stands for, built from COO
    entries that may repeat (summed) or be zero (dropped): densify,
    transpose, sub-blocks, row sums, the diagonal, both products and the
    nonzero fraction that bench/spans.py reads."""
    rows, cols = np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp)
    vals = np.array(vals, dtype=float)
    sub_rows = np.array(sub_rows, dtype=np.intp)
    sub_cols = np.array(sub_cols, dtype=np.intp)
    n_rows, n_cols = shape
    dense = np.zeros(shape)
    np.add.at(dense, (rows, cols), vals)
    a = SparseRows.from_coo(rows, cols, vals, shape)
    assert np.array_equal(np.asarray(a), dense)
    assert a.shape == dense.shape and a.size == dense.size
    assert np.count_nonzero(a) / a.size == np.count_nonzero(dense) / dense.size
    assert np.array_equal(np.asarray(SparseRows.from_dense(dense)), dense)
    assert np.array_equal(np.asarray(a.T), dense.T)
    assert np.array_equal(a.diagonal(), np.diag(dense))
    assert np.all(np.abs(a.row_sums() - dense.sum(axis=1))
                  <= _gather_bound(dense, np.ones(n_cols)))
    r, c, v = a.coo()
    assert np.array_equal(np.asarray(SparseRows.from_coo(r, c, v, a.shape)), dense)
    want = dense[np.ix_(sub_rows, sub_cols)]
    assert np.array_equal(a.dense(sub_rows, sub_cols), want)
    assert np.array_equal(np.asarray(a.take(sub_rows, sub_cols)), want)
    assert np.array_equal(a.dense(sub_rows), dense[sub_rows])
    assert np.array_equal(np.asarray(a.take(cols=sub_cols)), dense[:, sub_cols])
    rng = np.random.default_rng(seed)
    for x in (rng.normal(size=n_cols), rng.normal(size=(n_cols, 3))):
        assert np.all(np.abs(a @ x - dense @ x) <= _gather_bound(dense, x))
    for x in (rng.normal(size=n_rows), rng.normal(size=(2, n_rows))):
        assert np.all(np.abs(x @ a - x @ dense) <= _gather_bound(x, dense))


@pytest.mark.parametrize("rows, cols, vals, shape, sub_rows, sub_cols", [
    ([0, 0, 1], [0, 1, 0], [1.0, -2.5, 3.0], (2, 3), [1, 0], [2, 0]),
    ([0, 1, 1, 2, 2, 2], [2, 0, 0, 1, 1, 0], [2.0, 1.0, 1.0, 0.0, -2.5, 4.0],
     (3, 3), [2], [0, 2, 1]),
], ids=["wide-two-in-a-row", "square-repeats-and-zero"])
def test_sparse_rows_equal_dense_cases(rows, cols, vals, shape, sub_rows, sub_cols):
    # fixed cases of the property below: a row with two stored nonzeros,
    # entries off the diagonal, a non-square shape and a repeated entry
    _check_sparse_rows(rows, cols, vals, shape, sub_rows, sub_cols, seed=0)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_sparse_rows_equal_dense(data):
    # _check_sparse_rows on a random pattern of up to 40 entries
    n_rows, n_cols = data.draw(st.integers(1, 9)), data.draw(st.integers(1, 9))
    n_entries = data.draw(st.integers(0, 40))
    rows = data.draw(st.lists(st.integers(0, n_rows - 1),
                              min_size=n_entries, max_size=n_entries))
    cols = data.draw(st.lists(st.integers(0, n_cols - 1),
                              min_size=n_entries, max_size=n_entries))
    vals = data.draw(st.lists(
        st.sampled_from([0.0, 1.0, -2.5]) | st.floats(-1e3, 1e3, allow_subnormal=False),
        min_size=n_entries, max_size=n_entries))
    sub_rows = data.draw(st.permutations(range(n_rows)))[
        :data.draw(st.integers(0, n_rows))]
    sub_cols = data.draw(st.permutations(range(n_cols)))[
        :data.draw(st.integers(0, n_cols))]
    _check_sparse_rows(rows, cols, vals, (n_rows, n_cols), sub_rows, sub_cols,
                       seed=data.draw(st.integers(0, 2 ** 32 - 1)))


@settings(max_examples=25, deadline=None)
@given(p=st.floats(0.0, 1.0), lam=st.floats(0.05, 0.995),
       phases=st.tuples(st.integers(1, 3), st.integers(1, 3)),
       m=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1))
def test_row_sum_stop_equals_dense_residual_stop(p, lam, phases, m, seed):
    # SDA stops on ||R(H) 1||_inf; the one-LU oracle runs the same steps
    # but stops on the dense ||R(H)||_inf: the rows R of Psi are the same
    # to the last bit
    rng = np.random.default_rng(seed)
    mix = normalized_mix(p, random_ph(rng, phases[0]), random_ph(rng, phases[1]),
                         lam=lam)
    model = build_nudge_m_fluid(mix, m)
    r = reachable_plus(model)
    assert np.array_equal(solve_riccati(model)[r],
                          solve_riccati_one_lu_dense(model.restrict(r)))


@settings(max_examples=25, deadline=None)
@given(p=st.floats(0.05, 0.95), lam=st.floats(0.05, 0.95),
       phases=st.tuples(st.integers(1, 3), st.integers(1, 3)),
       m=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1))
def test_mean_waits_meet_swap_layer(p, lam, phases, m, seed):
    # Wald's identities (``oracles.wald_mean_gaps``); the fluid's gap grows
    # like its Riccati residual over (1 - lambda)^2
    rng = np.random.default_rng(seed)
    mix = normalized_mix(p, random_ph(rng, phases[0]), random_ph(rng, phases[1]),
                         lam=lam)
    g1, g2 = wald_mean_gaps(mix, m)
    assert g1 < WALD_W1_TOL / (1.0 - lam) ** 2
    assert g2 < WALD_W2_TOL


# Relative gap between the fluid's E[W_1] with and without a phase that no
# job enters, at m = 2: at most 3.2e-14 over 500 random mixes with
# lambda <= 0.95 and unreached-phase rates down to 1e-3.
UNREACHED_W1_TOL = 1e-12


def _with_unreached_phase(ph, rate, share, rng):
    """ph with one more phase, which alpha never enters: it leaves at the
    given rate, a share of that into ph's phases."""
    n = ph.n
    s = np.zeros((n + 1, n + 1))
    s[:n, :n] = ph.S
    s[n, n] = -rate
    s[n, :n] = rate * share * rng.dirichlet(np.ones(n))
    return PhaseType(np.append(ph.alpha, 0.0), s)


@settings(max_examples=25, deadline=None)
@given(p=st.sampled_from([0.0, 1.0]) | st.floats(0.01, 0.99),
       lam=st.floats(0.05, 0.95),
       phases=st.tuples(st.integers(1, 3), st.integers(1, 3)),
       which=st.sampled_from([0, 1]), rate=st.floats(1e-3, 10.0),
       share=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1))
def test_unreached_phase_changes_nothing(p, lam, phases, which, rate, share,
                                         seed):
    # a phase that no job enters carries no mass, at any rate, also one
    # below theta_Z. decay_rate sees the same T and resolvent on the
    # reachable phases, so its outputs are equal to the last bit; the fluid
    # solves a larger model, so its E[W_1] is equal to rounding
    rng = np.random.default_rng(seed)
    mix = normalized_mix(p, random_ph(rng, phases[0]), random_ph(rng, phases[1]),
                         lam=lam)
    phs = [mix.ph1, mix.ph2]
    phs[which] = _with_unreached_phase(phs[which], rate, share, rng)
    twin = JobMix(p, *phs, lam)
    got, want = decay_rate(twin), decay_rate(mix)
    assert (got.theta_z, got.c_z) == (want.theta_z, want.c_z)
    assert ([atir_nudge_m(got, twin, m) for m in range(7)]
            == [atir_nudge_m(want, mix, m) for m in range(7)])
    assert m_opt(got) == m_opt(want)
    w1 = [stationary_fluid(build_nudge_m_fluid(x, 2)).w1.mean() for x in (twin, mix)]
    assert w1[0] == pytest.approx(w1[1], rel=UNREACHED_W1_TOL, abs=0)
