import functools
import math
import tracemalloc
from dataclasses import fields, replace
from functools import partial

import numpy as np
import pytest

from nudgem import fluid
from nudgem.asymptotics import decay_rate, prefactors_nudge_m
from nudgem.cli import RECIPES
from nudgem.fluid import (
    NUDGE_M_CAP,
    RICCATI_RESIDUAL_TOL,
    FluidModel,
    _boundary_rows,
    build_fcfs_fluid,
    build_nudge_m_fluid,
    reachable_plus,
    riccati_residual,
    solve_riccati,
    stationary_fluid,
)
from nudgem.phtype import (
    PhaseType,
    fit_hyperexp,
    normalized_mix,
    ph_erlang,
    ph_exponential,
    poisson_terms,
    two_class_exp_mix,
)
from nudgem.swap import workload_ccdf
from oracles import (
    build_nudge1_fluid,
    build_nudge_m_fluid_tuples,
    convolution_ccdf,
    law_density,
    mixed_entry_fluid,
    perron_shift_dense,
    random_ph,
    riccati_residual_dense,
    solve_riccati_dense,
    solve_riccati_fixed_point,
    solve_riccati_one_lu_dense,
    stationary_pi_dense,
    unlumped_w1_law,
)

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
    # the hand-written Nudge-1 model is Nudge-M's at m = 1 up to the order
    # of S+: Nudge-1's subsets 1, 2, 4 and 3 are sub1, sub2, sub3[0] and
    # sub3[1], and under that permutation every array and Psi are equal
    for mix in (MIX, HE_MIX, ERLANG3_MIX, _random_mix(7), _random_mix(9)):
        n1, n2 = mix.n1, mix.n2
        perm = np.r_[0:n1 + n2, n1 + 2 * n2:n1 + 3 * n2, n1 + n2:n1 + 2 * n2]
        a, b = build_nudge1_fluid(mix), build_nudge_m_fluid(mix, 1)
        want = {"t_mm": a.t_mm, "t_mp": np.asarray(a.t_mp)[:, perm],
                "t_pm": np.asarray(a.t_pm)[perm],
                "t_pp": np.asarray(a.t_pp)[np.ix_(perm, perm)],
                "t_star_0p": a.t_star_0p[perm], "p_m0": a.p_m0,
                "p_mp": np.asarray(a.p_mp)[:, perm]}
        assert want.keys() == {f.name for f in fields(b)}
        for name, arr in want.items():
            assert np.array_equal(arr, np.asarray(getattr(b, name))), name
        assert np.array_equal(solve_riccati(a)[perm], solve_riccati(b))
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
    model = build_nudge_m_fluid(
        normalized_mix(0.6, ph_erlang(2, 1.0), ph_exponential(2.0), lam=0.7), 3)
    assert model.n_minus == 8
    # subsets: 4 strings with a leading zero in blocks 1 and 2, all 8 in 3
    assert model.n_plus == 4 * 2 + 4 * 1 + 8 * 1


def test_window_cap_enforced():
    with pytest.raises(ValueError):
        build_nudge_m_fluid(MIX, 11)


# Entrywise relative gap of fluid._inv_m_matrix to np.linalg.inv: measured
# at most 4.6e-15 on the random M-matrices below and 1.1e-14 on the SDA's
# own W at fig5b m = 8 (its smallest inverse entry is 6.9e-17).
INVERSE_REL_TOL = 5e-14


def _random_m_matrix(n, seed):
    """D - N with N >= 0 of density 0.3, zero diagonal, and
    D >= 1.01 rho(N) I: a nonsingular M-matrix, not symmetric."""
    rng = np.random.default_rng(seed)
    off = rng.random((n, n)) * (rng.random((n, n)) < 0.3)
    np.fill_diagonal(off, 0.0)
    rho = np.max(np.abs(np.linalg.eigvals(off)))
    return np.diag(1.01 * rho + rng.random(n)) - off


def _assert_inverse_matches_dense(a):
    # where the inverse has a zero entry (D_g is reducible), so does got
    got, want = fluid._inv_m_matrix(a.copy()), np.linalg.inv(a)
    assert np.all(got >= 0.0)
    assert np.all(np.abs(got - want) <= INVERSE_REL_TOL * want)


@pytest.mark.parametrize("n", [1, fluid.INV_LEAF - 1, fluid.INV_LEAF,
                               fluid.INV_LEAF + 1, 2 * fluid.INV_LEAF + 3, 701])
def test_m_matrix_inverse_matches_dense(n):
    # block elimination against LU on random M-matrices, at and around the
    # leaf size, odd above two leaves, and a size with three levels
    _assert_inverse_matches_dense(_random_m_matrix(n, n))


def test_sda_inverses_match_dense(monkeypatch):
    # the SDA's own D_g, W and every step's I - GH at fig5b m = 8, the
    # arguments of the top-level calls of the helper
    seen, depth, inverse = [], [0], fluid._inv_m_matrix

    def record(a):
        if not depth[0]:
            seen.append(a.copy())
        depth[0] += 1
        try:
            return inverse(a)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(fluid, "_inv_m_matrix", record)
    model = build_nudge_m_fluid(RECIPES["fig5b"]["mix"](), 8)
    solve_riccati(model)
    monkeypatch.undo()
    r = int(reachable_plus(model).sum())
    assert [a.shape[0] for a in seen] == [256, r] + [256] * 8
    for a in seen:
        _assert_inverse_matches_dense(a)


def _random_mix(seed):
    rng = np.random.default_rng(seed)
    n1, n2 = rng.integers(1, 4, size=2)
    return normalized_mix(rng.uniform(0.2, 0.8), random_ph(rng, n1),
                          random_ph(rng, n2), lam=0.7)


# Type-2 jobs are Erlang-3: S2 is one Jordan block, which the grouped
# Sylvester solve for Psi[D] cannot diagonalize.
ERLANG3_MIX = normalized_mix(0.6, ph_exponential(1.0), ph_erlang(3, 3.0), lam=0.7)
# Type-1 phase 2 is never entered (alpha = (1, 0)) but moves to phase 1,
# so its S+ states are in D and T_++[D, R] is nonzero.
UNREACHED_MIX = normalized_mix(
    0.6, PhaseType([1.0, 0.0], [[-2.0, 0.0], [1.0, -1.0]]), ph_exponential(2.0),
    lam=0.7)


def _boundary_entered_fcfs(mix):
    """FCFS on UNREACHED_MIX with the level-0 boundary starting half of the
    type-1 jobs in phase 2: that D state carries pi_+ mass and moves into
    R, so T_++[D, R] enters W_1's law."""
    model = build_fcfs_fluid(mix)
    t0p = model.t_star_0p.copy()
    t0p[:2] = t0p[:2].sum() / 2
    return replace(model, t_star_0p=t0p)


# name: (mix, builder); the mix also gives theta_Z for a law's grid
ORACLE_CASES = {
    "fcfs": (MIX, build_fcfs_fluid),
    "nudge1": (MIX, build_nudge1_fluid),
    **{f"{name}-m{m}": (mix, partial(build_nudge_m_fluid, m=m))
       for name, mix in (("fig5a", RECIPES["fig5a"]["mix"]()),
                         ("fig5b", RECIPES["fig5b"]["mix"]()),
                         ("he", HE_MIX))
       for m in range(1, 9)},
    # (n1, n2) = (3, 2) and (2, 3)
    "random7-m4": (_random_mix(7), partial(build_nudge_m_fluid, m=4)),
    "random9-m5": (_random_mix(9), partial(build_nudge_m_fluid, m=5)),
    "erlang3-m4": (ERLANG3_MIX, partial(build_nudge_m_fluid, m=4)),
    "unreached-fcfs": (UNREACHED_MIX, build_fcfs_fluid),
    "unreached-m3": (UNREACHED_MIX, partial(build_nudge_m_fluid, m=3)),
    "boundary-fcfs": (UNREACHED_MIX, _boundary_entered_fcfs),
}
ORACLE_MODELS = {name: partial(build, mix)
                 for name, (mix, build) in ORACLE_CASES.items()}


# Each oracle case is built and solved once per session, by the package and
# by each oracle that more than one test reads; the cached arrays are
# read-only, so a test or solve that wrote into one would fail.
def _read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)


@functools.cache
def _oracle_model(name):
    model = ORACLE_MODELS[name]()
    _read_only(model.t_mm, model.t_star_0p, model.p_m0,
               *(getattr(model, b).idx for b in fluid.SPARSE_BLOCKS),
               *(getattr(model, b).val for b in fluid.SPARSE_BLOCKS))
    return model


@functools.cache
def _shipped(name):
    """stationary_fluid of the case; its psi is solve_riccati's."""
    sol = stationary_fluid(_oracle_model(name))
    _read_only(sol.psi, sol.pi_plus, sol.w1.init, sol.w1.gen, sol.w1.tail)
    return sol


@functools.cache
def _two_inverse_psi_r(name):
    """Psi[R] of the two-inverse loop on the blocks restricted to R."""
    model = _oracle_model(name)
    psi_r = solve_riccati_dense(model.restrict(reachable_plus(model)))
    _read_only(psi_r)
    return psi_r


@pytest.mark.parametrize("name", list(ORACLE_MODELS))
def test_sda_is_bit_identical_to_dense_oracle(name):
    # SDA runs on the reachable S+ states R only, and forms each product
    # once: Psi[R] is the one-inverse textbook loop's on the R-restricted
    # blocks to the last bit (the whole Psi when R is all of S+, as for
    # FCFS), and pi_+ from the n- x n- regenerative solve matches the
    # n+ x n+ eigenproblem's
    model = _oracle_model(name)
    sol = _shipped(name)  # sol.psi is solve_riccati(model)
    r = reachable_plus(model)
    assert np.array_equal(sol.psi[r],
                          solve_riccati_one_lu_dense(model.restrict(r)))
    pi, c0 = stationary_pi_dense(model, sol.psi)
    assert np.max(np.abs(sol.pi_plus - pi)) <= 1e-13 * np.max(pi)
    assert sol.c0 == pytest.approx(c0, rel=1e-13)


PI_EIG_TOL = 4e-15


@pytest.mark.parametrize("recipe", ["fig5a", "fig5b"])
def test_pi_plus_matches_eigenvector_of_b(recipe):
    # pi_+ from the regenerative solve and its Newton step against
    # np.linalg.eig's vector y of B = (U Psi) S, U the k distinct rows of P~
    # in order of first appearance and S the 0/1 map with P~ = S U (B
    # shares Psi P~'s nonzero eigenvalues, and y U is Psi P~'s
    # eigenvector), at m = 8: 1.3e-16 (fig5a) and 5.1e-16 (fig5b) max pi_+
    # apart, where the solve without its Newton step is 1.4e-14 off fig5b.
    # In np.unique's sorted row order eig's own vector moves by 3.1e-15
    model, sol = _oracle_model(f"{recipe}-m8"), _shipped(f"{recipe}-m8")
    lam0 = model.t_star_0p.sum()
    p_tilde = np.asarray(model.p_mp) + np.outer(model.p_m0, model.t_star_0p / lam0)
    _, first, label = np.unique(p_tilde, axis=0, return_index=True,
                                return_inverse=True)
    order = np.argsort(first)
    u = p_tilde[first[order]]
    b = u @ sol.psi @ np.eye(first.size)[label][:, order]
    vals, vecs = np.linalg.eig(b.T)
    y = vecs[:, np.argmin(np.abs(vals - 1.0))].real
    want = (y / y.sum()) @ u
    got = sol.pi_plus / sol.pi_plus.sum()
    assert np.max(np.abs(got - want)) <= PI_EIG_TOL * np.max(want)


@pytest.mark.parametrize("name", list(ORACLE_MODELS))
def test_lumped_w1_matches_unlumped_law(name):
    # W_1's law on R plus one block per group of D against its law on all
    # n+ states, on the 25-point dist grid and at 40/theta_Z; either law's
    # terms round by about K eps relative
    mix = ORACLE_CASES[name][0]
    model, sol = _oracle_model(name), _shipped(name)
    want = unlumped_w1_law(model, sol.psi, sol.pi_plus)
    theta = decay_rate(mix).theta_z
    grid = np.append(np.linspace(0.0, 60.0 / theta, 25), 40.0 / theta)
    rtol = poisson_terms(max(sol.w1.rate, want.rate) * grid[-2]) * np.finfo(float).eps
    for got, ref in ((sol.w1.ccdf, want.ccdf), (partial(law_density, sol.w1), partial(law_density, want))):
        np.testing.assert_allclose(got(grid), ref(grid), rtol=rtol, atol=0)


@pytest.mark.parametrize("mix", [MIX, HE_MIX, ERLANG3_MIX, _random_mix(9)],
                         ids=["exp", "he", "erlang3", "random9"])
def test_lumped_w1_size(mix):
    # the 2^(m-1) n2 states of D become one copy of S2; a group that pi_+
    # never enters (UNREACHED_MIX's type-1 phase 2) is dropped
    for m in (1, 2, 4):
        sol = stationary_fluid(build_nudge_m_fluid(mix, m))
        assert sol.n_plus_solved == 2 ** (m - 1) * (mix.n1 + 2 * mix.n2)
        assert sol.w1.init.shape == (sol.n_plus_solved + mix.n2,)
    sizes = {name: _shipped(name).w1.init.shape[0]
             for name in ("unreached-fcfs", "unreached-m3", "boundary-fcfs")}
    assert sizes == {"unreached-fcfs": 2, "unreached-m3": 4 * (1 + 2) + 1,
                     "boundary-fcfs": 3}


@pytest.mark.parametrize("seed", [7, 9])
def test_boundary_entry_with_two_phase_laws_is_refused(seed):
    # two components of D's one group (a connected S2) entered with alpha_2
    # and with alpha_2 reversed: pi_+ on them is 9.1e-3 (seed 7) and 2.3e-3
    # (seed 9) max pi_+ off proportional, so no lumped law is built
    model = mixed_entry_fluid(_random_mix(seed), 3)
    with pytest.raises(FloatingPointError, match="not proportional"):
        stationary_fluid(model)


@pytest.mark.parametrize("name", list(ORACLE_MODELS))
def test_sda_matches_two_inverse_oracle(name):
    # the two-inverse loop shares none of the step's arithmetic: on R the
    # two differ by rounding only
    model = _oracle_model(name)
    psi = _shipped(name).psi
    r = reachable_plus(model)
    ref = _two_inverse_psi_r(name)
    assert np.max(np.abs(psi[r] - ref)) <= 1e-14 * np.max(psi)


def _two_inverse_riccati(model, report, psi_r):
    """solve_riccati with Psi[R] = psi_r, from the two-inverse textbook
    loop."""
    r = reachable_plus(model)
    groups = fluid._d_groups(model, np.flatnonzero(~r))
    psi = np.empty((model.n_plus, model.n_minus))
    psi[r] = psi_r
    psi[~r] = _boundary_rows(model, r, psi[r], groups)
    np.clip(psi, 0.0, None, out=psi)
    report.update(reachable=r, groups=groups,
                  residual=riccati_residual(model, psi), steps=0)
    return psi


@pytest.mark.parametrize("recipe, m", [("fig5b", 6), ("fig5b", 7), ("fig5a", 8)],
                         ids=["fig5b-m6", "fig5b-m7", "fig5a-m8"])
def test_tail_matches_two_inverse_law(recipe, m, monkeypatch):
    # P[W_1 > 40 / theta_Z] moves about 65 times as much as Psi, relative
    # to its size: the law built from this Psi stays within 1e-12 relative
    # of the law built from the two-inverse loop's Psi
    name = f"{recipe}-m{m}"
    mix, model = ORACLE_CASES[name][0], _oracle_model(name)
    t = 40.0 / decay_rate(mix).theta_z
    tail = _shipped(name).w1_ccdf(t)
    monkeypatch.setattr(fluid, "solve_riccati", partial(
        _two_inverse_riccati, psi_r=_two_inverse_psi_r(name)))
    want = stationary_fluid(model).w1_ccdf(t)
    assert abs(tail - want) <= 1e-12 * want


@pytest.mark.parametrize("name", list(ORACLE_MODELS))
def test_full_psi_matches_oracles(name):
    # the rows D come from a Sylvester solve, not from SDA: the whole Psi
    # must match SDA on the whole model and (small models) the fixed-point
    # iteration, and solve the whole equation
    model = _oracle_model(name)
    psi = _shipped(name).psi
    oracles = [solve_riccati_dense(model)]
    if model.n_plus <= 128:
        oracles.append(solve_riccati_fixed_point(model))
    for ref in oracles:
        assert np.max(np.abs(psi - ref)) <= 1e-12 * np.max(psi)
    assert riccati_residual(model, psi) <= RICCATI_RESIDUAL_TOL


@pytest.mark.parametrize("mix", [MIX, HE_MIX, ERLANG3_MIX, _random_mix(9)],
                         ids=["exp", "he", "erlang3", "random9"])
def test_reachable_states(mix):
    # D is exactly the subset-3 states with s_1 = 0 (Nudge-M) and subset 4
    # (Nudge-1), and empty for FCFS
    n1, n2 = mix.n1, mix.n2
    for m in (1, 2, 4):
        model = build_nudge_m_fluid(mix, m)
        r = reachable_plus(model)
        assert r.sum() == 2 ** (m - 1) * (n1 + 2 * n2)
        # R holds subsets 1 and 2 and the subset-3 blocks with s_1 = 1;
        # D, between them, the subset-3 blocks with s_1 = 0 (v < half)
        half = 2 ** (m - 1)
        d = slice(half * (n1 + n2), half * (n1 + 2 * n2))
        assert r[:d.start].all() and not r[d].any() and r[d.stop:].all()
        assert not np.asarray(model.t_mp)[:, ~r].any()
        assert not np.asarray(model.t_pp)[np.ix_(r, ~r)].any()
    r1 = reachable_plus(build_nudge1_fluid(mix))
    assert r1.sum() == n1 + 2 * n2 and not r1[n1 + 2 * n2:].any()
    assert reachable_plus(build_fcfs_fluid(mix)).all()


def test_solution_carries_the_checked_residual():
    # every model, FCFS (D empty) included, checks the residual of the
    # clipped Psi, so the carried value is the one a second evaluation
    # would give; the report also carries the S+ states R that SDA ran on
    # and the number of doubling steps it took
    for model in (build_nudge_m_fluid(HE_MIX, 3), build_nudge1_fluid(MIX),
                  build_fcfs_fluid(MIX), ORACLE_MODELS["boundary-fcfs"]()):
        sol = stationary_fluid(model)
        assert sol.riccati_residual == riccati_residual(model, sol.psi)
        report = {}
        assert np.array_equal(solve_riccati(model, report=report), sol.psi)
        assert report.keys() == {"reachable", "groups", "residual", "steps"}
        assert report["residual"] == sol.riccati_residual
        assert report["steps"] == sol.sda_steps
        assert np.array_equal(report["reachable"], reachable_plus(model))
    assert stationary_fluid(build_fcfs_fluid(MIX)).riccati_residual < 1e-12


@pytest.mark.parametrize("name", list(ORACLE_MODELS))
def test_reduced_eigenproblem_matches_dense(name):
    # the Newton step's Perron root of Psi P~ against that of the full
    # n- x n- eigenproblem of P~ Psi (at most 3.4e-15 apart)
    model, sol = _oracle_model(name), _shipped(name)
    want = perron_shift_dense(model, sol.psi)
    assert sol.perron_shift == pytest.approx(want, rel=0, abs=1e-14)


@pytest.mark.parametrize("recipe,m", [("fig5a", 3), ("fig5b", 4), ("fig9a", 5)])
def test_pi_plus_is_perron_vector_of_short_psi(recipe, m, monkeypatch):
    # with Psi's rows 1e-9 short of 1 the Perron root of Psi P~ is
    # 1 - 1e-9, and the Newton step keeps pi_+ its Perron vector (within
    # 8e-16 max pi_+): the solve at rho = 1 alone is 8.0e-10 to 1.2e-9 off
    real = fluid.solve_riccati
    monkeypatch.setattr(fluid, "solve_riccati",
                        lambda model, **kw: (1.0 - 1e-9) * real(model, **kw))
    model = build_nudge_m_fluid(RECIPES[recipe]["mix"](), m)
    sol = stationary_fluid(model)
    pi, _ = stationary_pi_dense(model, sol.psi)
    assert np.max(np.abs(sol.pi_plus - pi)) <= 1e-13 * np.max(pi)
    want = perron_shift_dense(model, sol.psi)
    assert sol.perron_shift == pytest.approx(want, rel=0, abs=1e-14)


@pytest.mark.parametrize("name", ["fcfs", "nudge1", "fig5b-m6", "fig5a-m5",
                                  "he-m4", "random9-m5", "erlang3-m4",
                                  "boundary-fcfs"])
def test_sda_iterates_have_nonnegative_residual(name, monkeypatch):
    # _sda stops on ||R(H) 1||_inf, which is ||R(H)||_inf when R(H) >= 0:
    # on every iterate it tests, each row of the dense residual is at least
    # -gamma_k a_i, with a the same expression in |T| and |H| and
    # k = 2 n- + n+ + 4 the longest chain of products and sums, so rounding
    # is the only slack. With RICCATI_MAX_ITER = j, _sda returns H_j.
    model = _oracle_model(name)
    blocks = model.restrict(reachable_plus(model))
    k = 2 * blocks.n_minus + blocks.n_plus + 4
    unit = np.finfo(float).eps / 2
    gamma_k = k * unit / (1.0 - k * unit)
    t_pm, t_pp, t_mp = (np.asarray(blocks.t_pm), np.asarray(blocks.t_pp),
                        np.asarray(blocks.t_mp))
    abs_pm1 = np.abs(t_pm).sum(axis=1)
    abs_mm1 = np.abs(blocks.t_mm).sum(axis=1)
    abs_pp, abs_mp = np.abs(t_pp), np.abs(t_mp)
    for j in range(1, fluid._sda(blocks)[1] + 1):
        monkeypatch.setattr(fluid, "RICCATI_MAX_ITER", j)
        h, steps = fluid._sda(blocks)
        assert steps == j
        res = (t_pm + h @ blocks.t_mm + t_pp @ h
               + h @ t_mp @ h)
        h1 = h.sum(axis=1)
        a = abs_pm1 + h @ abs_mm1 + abs_pp @ h1 + h @ (abs_mp @ h1)
        assert np.all(res.min(axis=1) >= -gamma_k * a)


def test_structured_residual_matches_dense():
    model = build_nudge_m_fluid(HE_MIX, 4)
    psi = solve_riccati(model) * 0.999  # off the solution: residual ~1e-3
    assert riccati_residual(model, psi) == pytest.approx(
        riccati_residual_dense(model, psi), rel=1e-12)


def test_stationary_fluid_runs_in_small_memory():
    # fig5b, m = 8 (|R| = 640, n+ = 896, n- = 256): build and solve trace
    # 12.4 MiB at their peak, a 0.6 MiB model and the SDA's F F step: F
    # and F F (|R| x |R|, 3.1 MiB each) and four |R| x n- arrays. With the
    # blocks dense it was 35.1 MiB (a 11.9 MiB model, its solve 23.2 MiB
    # above it); a dense T_++[R, R] in the SDA would add 3.1 MiB
    mix = RECIPES["fig5b"]["mix"]()
    tracemalloc.start()
    try:
        stationary_fluid(build_nudge_m_fluid(mix, 8))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 13.5 * 2 ** 20


def test_solve_riccati_runs_in_small_memory():
    # fig5b, m = 7 (SDA on 320 of n+ = 448 states): at most four
    # |R| x |R| arrays live at once
    model = build_nudge_m_fluid(RECIPES["fig5b"]["mix"](), 7)
    tracemalloc.start()
    try:
        solve_riccati(model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2 ** 20


# p in {0, 1}: every arrival is of one type, so the rates of the other
# type's moves are zero
BUILD_MIXES = {
    "fig5a": RECIPES["fig5a"]["mix"](),
    "fig5b": RECIPES["fig5b"]["mix"](),
    "erlang3": ERLANG3_MIX,
    "random7": _random_mix(7),
    "random9": _random_mix(9),
    "p0": normalized_mix(0.0, ph_erlang(2, 1.0), fit_hyperexp(2.0, 2.0, 0.5),
                         lam=0.7),
    "p1": normalized_mix(1.0, ph_erlang(2, 1.0), fit_hyperexp(2.0, 2.0, 0.5),
                         lam=0.7),
}


def _entries(model):
    """Shape, nonzero positions and nonzero values of each array: two
    models' entries are equal exactly when every pair of arrays is
    ``np.array_equal``. Comparing entries lets one model at a time be
    alive, which halves the test's memory at m = 10; a ``SparseRows``
    block gives its ``coo()`` triples, in row-major order, undensified."""
    out = {}
    for f in fields(model):
        a = getattr(model, f.name)
        if isinstance(a, fluid.SparseRows):
            rows, cols, values = a.coo()
            idx = np.ravel_multi_index((rows, cols), a.shape)
        else:
            idx = np.flatnonzero(a)
            values = a.ravel()[idx]
        out[f.name] = (a.shape, idx, values)
    return out


@pytest.mark.parametrize("name", list(BUILD_MIXES))
def test_builder_matches_tuple_layout_oracle(name):
    # the bitmask index arithmetic places every entry where the tuple
    # layout's dicts, _shift and _dec did, with the same value to the last
    # bit, so Psi and every law built on the model are unchanged
    mix = BUILD_MIXES[name]
    for m in range(1, NUDGE_M_CAP + 1):
        want = _entries(build_nudge_m_fluid_tuples(mix, m))
        got = _entries(build_nudge_m_fluid(mix, m))
        for key, (shape, idx, values) in want.items():
            got_shape, got_idx, got_values = got[key]
            assert got_shape == shape, (m, key)
            assert np.array_equal(got_idx, idx), (m, key)
            assert np.array_equal(got_values, values), (m, key)


def test_builder_allocates_only_its_arrays():
    # the row-sum checks of FluidModel run block by block: the build's
    # tracemalloc peak stays within 1.2x the bytes of the arrays it returns
    # (an (n- + n+)^2 generator would double it)
    mix = RECIPES["fig5b"]["mix"]()
    tracemalloc.start()
    try:
        model = build_nudge_m_fluid(mix, 9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = sum(getattr(model, f.name).nbytes for f in fields(model))
    assert peak <= 1.2 * size


@pytest.mark.parametrize("field, message", [
    ("t_mm", "fluid generator rows must sum to zero"),
    ("t_pp", "fluid generator rows must sum to zero"),
    ("p_mp", "boundary transition rows must sum to one"),
    ("p_m0", "boundary transition rows must sum to one"),
], ids=["t_mm", "t_pp", "p_mp", "p_m0"])
def test_model_rejects_a_perturbed_entry(field, message):
    model = build_nudge_m_fluid(HE_MIX, 3)
    arrays = {f.name: getattr(model, f.name) for f in fields(model)}
    FluidModel(**arrays)
    bad = np.array(arrays[field])
    bad[tuple(n // 2 for n in bad.shape)] += 1e-9
    with pytest.raises(ValueError, match=message):
        FluidModel(**{**arrays, field: bad})


@pytest.mark.parametrize("rates", [
    lambda t: np.where(t == 0, -1e-9, t),  # the sum stays positive
    np.zeros_like,
], ids=["negative", "zero-sum"])
def test_model_rejects_bad_level0_rates(rates):
    # level 0 is one state: its exit rates are nonnegative and their sum,
    # lambda_0, divides P~ and c0's boundary term
    model = build_nudge_m_fluid(HE_MIX, 3)
    with pytest.raises(ValueError, match="level-0 exit rates"):
        replace(model, t_star_0p=rates(model.t_star_0p))


@pytest.mark.parametrize("recipe, m, most", [("fig5a", 3, 9), ("fig5b", 4, 10)])
def test_sda_step_stop_ends_the_doubling(recipe, m, most, monkeypatch):
    # every solve stops on the residual first; with that stop out of reach
    # the doubling ends when H moves by at most RICCATI_STEP_TOL, a step or
    # two later, on an H as close to Psi
    model = build_nudge_m_fluid(RECIPES[recipe]["mix"](), m)
    blocks = model.restrict(reachable_plus(model))
    h, steps = fluid._sda(blocks)
    monkeypatch.setattr(fluid, "RICCATI_RESIDUAL_TOL", -1.0)
    h_step, steps_step = fluid._sda(blocks)
    assert steps < steps_step <= most
    assert np.max(np.abs(h_step - h)) <= 1e-12
