"""Independent oracles shared by the test modules (not collected).

Each one recomputes a package result by a slower, generic route (dense
``scipy.linalg.expm``, Sylvester iteration, the textbook SDA loops, with
two inverses a step and with one, with dense residuals, the n+-sized
eigenproblem for pi_+, adaptive quadrature, string enumeration, the
named policies and the (C1)/(C2) checks one string at a time, a dense
counting chain with one inverse per swap and a Kronecker solve, the
arrival-count grid over the counting chain's states, a queue scan per
arrival, the Nudge-M fluid built over tuple-keyed state dicts, the
hand-written Nudge-1 fluid ``build_nudge1_fluid``, the reference for
Nudge-M at m = 1) and so
does not go through the evaluation of ``MatrixExpDist`` (``dense_ccdf``
and ``dense_density`` read only a law's fields), the hitting-time
formula of the swap laws (the grid shares only the arrival-count laws of
``swap``), the window sweep of ``asymptotics.family_prefactors``, the
bitmask rows and array check of ``policy``, the bitmask index arithmetic
of ``fluid.build_nudge_m_fluid`` or the event loop of ``sim.simulate``.
There are three exceptions. ``verify_optimality_enum`` checks the table
array and the code lookups of ``asymptotics.verify_optimality`` by one
``PolicyFn`` per table and per lattice edge, and shares its
``family_prefactors`` (one table per call), which
``family_prefactors_enum`` checks. ``unlumped_w1_law``, the law of W_1
on all n+ states, is a ``MatrixExpDist``: it checks how
``fluid.stationary_fluid`` lumps the set D, not how a law is evaluated,
which ``dense_ccdf`` checks. ``solve_riccati_one_lu_dense`` inverts
with ``fluid._inv_m_matrix``, so that it pins the order of the SDA's
products to the last bit; the test of that helper compares it with
``np.linalg.inv``, and ``solve_riccati_dense`` inverts with
``np.linalg.inv`` throughout. ``build_w2_model_per_k`` is the reference
for ``resp2.build_w2_model``: its extra wait has one block per served
type-1 job, each with its own counting chain and selector matrix, where
the package lumps the blocks onto one chain on W_{M-1}.
``laplace`` is the transform reference: one solve per point and type,
where ``asymptotics.decay_rate`` reads every transform off one
resolvent on the reachable phases.
``decide_sequential`` is the reference for ``sim._decide``: it shares
the bounds, and settles the rows they leave open by a Python loop in
arrival order where the package climbs a numpy fixed point.
``sample_phase_type_gathered`` is the reference for
``sim.sample_phase_type``: every round gathers each live sample's whole
step row, and ``simulate_queue_scan`` draws its services with it.
``batch_means_masked`` is the reference for the batch means of
``sim.SimStats`` and ``sim.empirical_ccdf``: it masks each batch of all
jobs.
The module also holds helpers only tests use: ``count_twos``, the
simulator's tail-prefactor regression ``tail_prefactor_estimate``, the
conditional swap law ``swap_pmf``, the Nudge-K,M against Nudge-M,L
comparison ``compare_km_ml``, the mean-wait identities
``wald_mean_gaps`` and the density ``law_density`` of a
``MatrixExpDist``, by its own evaluation.
"""

import itertools
import math
from collections import deque
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, NamedTuple, Sequence, Tuple

import numpy as np
from scipy.integrate import quad
from scipy.linalg import expm, solve_sylvester

from nudgem.asymptotics import (FAMILY_M_CAP, OPTIMALITY_TIE_TOL, VERIFY_M_CAP,
                                AtirReport, ComplexityError, OptimalityReport,
                                atir_from_prefactors, family_prefactors, m_opt)
from nudgem.fluid import (NUDGE_M_CAP, RICCATI_MAX_ITER, RICCATI_RESIDUAL_TOL,
                          RICCATI_STEP_TOL, FluidModel, SparseRows,
                          _inv_m_matrix, build_nudge_m_fluid, stationary_fluid)
from nudgem.phtype import (JobMix, MatrixExpDist, PhaseType, kron_sum,
                           poisson_terms, poisson_weights)
from nudgem.policy import PolicyError, PolicyFn, all_strings, named_policy
from nudgem.resp2 import (W2Model, _state_index, build_w2_model, chain_size,
                          counting_matrix)
from nudgem.sim import (N_BATCHES, Decisions, EstimationError, SimStats,
                        _capped)
from nudgem.swap import (_binomial_table, _count_law, _swap_pmf_from, mean_swaps,
                         workload_law)


class DecayRateExceededError(ValueError):
    """Raised when a transform is evaluated at or below -theta_i."""


def laplace(law, s: float) -> float:
    """Laplace transform alpha (sI - S)^{-1} s* of a ``PhaseType``, or
    S~(s) = p S~1(s) + (1-p) S~2(s) of a ``JobMix``.

    Valid for s > -theta where theta is the decay rate of the
    distribution; below that the resolvent blows up or changes sign.
    """
    if isinstance(law, JobMix):
        return law.p * laplace(law.ph1, s) + (1.0 - law.p) * laplace(law.ph2, s)
    if s == 0.0:
        return 1.0
    try:
        x = np.linalg.solve(s * np.eye(law.n) - law.S, law.exit)
    except np.linalg.LinAlgError as exc:
        raise DecayRateExceededError(f"sI - S singular at s={s}") from exc
    val = float(law.alpha @ x)
    # Beyond the abscissa of convergence the algebraic expression goes
    # negative or the solve becomes meaningless; flag it.
    if s < 0 and val < 0:
        raise DecayRateExceededError(f"transform not convergent at s={s}")
    return val


def convolution_ccdf(ph, wait_ccdf, t):
    """P[W + X > t] for X ~ PH(alpha, S) independent of W, by quadrature:
    P[X > t] + int_0^t f_X(x) P[W > t - x] dx with f_X(x) = alpha e^{Sx} s*."""
    exit_rates = -ph.S.sum(axis=1)

    def integrand(x):
        return float(ph.alpha @ expm(ph.S * x) @ exit_rates) * wait_ccdf(t - x)

    service = float(ph.alpha @ expm(ph.S * t) @ np.ones(ph.n))
    conv, _ = quad(integrand, 0.0, t, epsabs=1e-12, epsrel=1e-12, limit=200)
    return service + conv


def solve_riccati_fixed_point(model, max_iter=200000, tol=1e-13):
    """Minimal nonnegative Psi of T_+- + Psi T_-- + T_++ Psi + Psi T_-+ Psi = 0
    by Sylvester iteration from Psi = 0, which converges monotonically to
    it. Small models only."""
    t_pm, t_mp, t_pp = (np.asarray(model.t_pm), np.asarray(model.t_mp),
                        np.asarray(model.t_pp))
    psi = np.zeros_like(t_pm)
    for _ in range(max_iter):
        rhs = -t_pm - psi @ t_mp @ psi
        nxt = solve_sylvester(t_pp, model.t_mm, rhs)
        if np.linalg.norm(nxt - psi, np.inf) < tol:
            return nxt
        psi = nxt
    raise AssertionError("fixed-point Riccati iteration did not converge")


def riccati_residual_dense(model, psi):
    """||T_+- + Psi T_-- + T_++ Psi + Psi T_-+ Psi||_inf by dense products."""
    res = (np.asarray(model.t_pm) + psi @ model.t_mm
           + np.asarray(model.t_pp) @ psi + psi @ np.asarray(model.t_mp) @ psi)
    return float(np.linalg.norm(res, np.inf))


def _sda_converged(model, h, prev) -> bool:
    """The SDA stopping test on dense residuals: H moved by at most
    RICCATI_STEP_TOL or its residual is at most RICCATI_RESIDUAL_TOL."""
    return (np.linalg.norm(h - prev, np.inf) <= RICCATI_STEP_TOL
            or riccati_residual_dense(model, h) <= RICCATI_RESIDUAL_TOL)


def _sda_result(model, h):
    """The converged SDA iterate, clipped at 0, after a dense residual
    check."""
    res = riccati_residual_dense(model, h)
    if res > RICCATI_RESIDUAL_TOL:
        raise AssertionError(f"SDA did not converge (residual {res:.3e})")
    return np.clip(h, 0.0, None)


def solve_riccati_dense(model):
    """The two-inverse textbook SDA loop with dense residual checks: both
    set-up inverses W^{-1} and V^{-1}, both step inverses (I - GH)^{-1}
    and (I - HG)^{-1}, and every product of E (I - GH)^{-1} E,
    F (I - HG)^{-1} F, G + E (I - GH)^{-1} G F and H + F (I - HG)^{-1} H E
    formed as written, and the dense residual after every step. Its
    arithmetic is not that of ``fluid.solve_riccati``, so on the blocks
    restricted to the states R of ``fluid.reachable_plus`` it agrees with
    that Psi's rows R to rounding only, about 1e-14 of the largest
    entry."""
    a = -np.asarray(model.t_pp)
    d = -model.t_mm
    b = np.asarray(model.t_pm)
    c = np.asarray(model.t_mp)
    m, n = a.shape[0], d.shape[0]
    gamma = max(np.max(np.diag(a)), np.max(np.diag(d)))
    a_g = a + gamma * np.eye(m)
    d_g = d + gamma * np.eye(n)
    w_g = a_g - b @ np.linalg.solve(d_g, c)
    v_g = d_g - c @ np.linalg.solve(a_g, b)
    e = np.eye(n) - 2.0 * gamma * np.linalg.inv(v_g)
    f = np.eye(m) - 2.0 * gamma * np.linalg.inv(w_g)
    g = 2.0 * gamma * np.linalg.solve(d_g, c) @ np.linalg.inv(w_g)
    h = 2.0 * gamma * np.linalg.solve(w_g, b) @ np.linalg.inv(d_g)

    prev = h.copy()
    for _ in range(RICCATI_MAX_ITER):
        igh = np.linalg.inv(np.eye(n) - g @ h)
        ihg = np.linalg.inv(np.eye(m) - h @ g)
        e_new = e @ igh @ e
        f_new = f @ ihg @ f
        g_new = g + e @ igh @ g @ f
        h_new = h + f @ ihg @ h @ e
        e, f, g, h = e_new, f_new, g_new, h_new
        if _sda_converged(model, h, prev):
            break
        prev = h.copy()
    return _sda_result(model, h)


def solve_riccati_one_lu_dense(model):
    """The textbook SDA loop in the form with one r x r inverse, with
    dense residual checks. Set-up: D_g^{-1} and W^{-1} for
    W = A_g - B D_g^{-1} C, then H = 2 gamma (W^{-1} B) D_g^{-1} and, by
    Woodbury, E = I - 2 gamma D_g^{-1} - (D_g^{-1} C) H. Each step inverts
    only X = (I - GH)^{-1} and forms, as written,
    E X E, F F + (F H X)(G F), G + (E X)(G F) and H + (F H X) E, from
    (I - HG)^{-1} = I + H X G and F (I - HG)^{-1} H = F H X. The three
    inverses come from ``fluid._inv_m_matrix``, as in the package. On the
    blocks restricted to the states R of ``fluid.reachable_plus``, it must
    return the rows R of ``fluid.solve_riccati``'s Psi to the last bit."""
    a = -np.asarray(model.t_pp)
    d = -model.t_mm
    b = np.asarray(model.t_pm)
    c = np.asarray(model.t_mp)
    m, n = a.shape[0], d.shape[0]
    gamma = max(np.max(np.diag(a)), np.max(np.diag(d)))
    idg = _inv_m_matrix(d + gamma * np.eye(n))
    iw = _inv_m_matrix(a + gamma * np.eye(m) - b @ (idg @ c))
    h = 2.0 * gamma * (iw @ b) @ idg
    e = np.eye(n) - 2.0 * gamma * idg - (idg @ c) @ h
    f = np.eye(m) - 2.0 * gamma * iw
    g = 2.0 * gamma * (idg @ c) @ iw

    prev = h.copy()
    for _ in range(RICCATI_MAX_ITER):
        x = _inv_m_matrix(np.eye(n) - g @ h)
        e_new = e @ x @ e
        f_new = f @ f + f @ h @ x @ (g @ f)
        g_new = g + e @ x @ (g @ f)
        h_new = h + f @ h @ x @ e
        e, f, g, h = e_new, f_new, g_new, h_new
        if _sda_converged(model, h, prev):
            break
        prev = h.copy()
    return _sda_result(model, h)


def unlumped_w1_law(model, psi, pi):
    """The law of W_1 on all n+ states of S+, with the set D not lumped:
    init pi_+, generator K = T_++ + Psi T_-+ and tail (-K)^{-1} Psi 1."""
    k = np.asarray(model.t_pp) + psi @ np.asarray(model.t_mp)
    return MatrixExpDist(pi, k, np.linalg.solve(-k, psi @ np.ones(model.n_minus)))


def mixed_entry_fluid(mix: JobMix, m: int) -> FluidModel:
    """The Nudge-M fluid (m >= 3) in which serving from window 3 enters
    the subset-3 state 2 with the type-2 phases in reverse order: two
    components of D with the one block S2 entered with different phase
    laws (when alpha_2 is not its own reverse)."""
    model = build_nudge_m_fluid(mix, m)
    p_mp = np.array(model.p_mp)
    cols = np.flatnonzero(p_mp[3])
    p_mp[3, cols] = p_mp[3, cols[::-1]]
    return replace(model, p_mp=p_mp)


def perron_shift_dense(model, psi):
    """rho - 1, rho the Perron root of the n- x n- matrix P~ Psi (the
    eigenvalue of largest real part of a nonnegative matrix), from its
    full dense eigenproblem."""
    lam0 = model.t_star_0p.sum()
    p_tilde = np.asarray(model.p_mp) + np.outer(model.p_m0, model.t_star_0p / lam0)
    return float(np.max(np.linalg.eigvals(p_tilde @ psi).real)) - 1.0


def stationary_pi_dense(model, psi):
    """pi_+ and c0 from the n+ x n+ eigenproblem of Psi P~: pi_+ is its
    left eigenvector at eigenvalue 1, normalized so eta = 1."""
    lam0 = model.t_star_0p.sum()
    p_tilde = np.asarray(model.p_mp) + np.outer(model.p_m0, model.t_star_0p / lam0)
    k = np.asarray(model.t_pp) + psi @ np.asarray(model.t_mp)
    vals, vecs = np.linalg.eig((psi @ p_tilde).T)
    idx = int(np.argmin(np.abs(vals - 1.0)))
    assert abs(vals[idx] - 1.0) <= 1e-8
    pi = vecs[:, idx].real
    if pi.sum() < 0:
        pi = -pi
    pi = np.clip(pi, 0.0, None)
    boundary = -(psi @ model.p_m0) / lam0
    tail = np.linalg.solve(-k, psi @ np.ones(model.n_minus))
    pi = pi / float(pi @ (tail - boundary))
    return pi, -float(pi @ boundary)


def _shift(s: Tuple[int, ...], v: int) -> Tuple[int, ...]:
    return (v,) + s[:-1]


def _dec(s: Tuple[int, ...]) -> Tuple[int, ...]:
    out = list(s)
    for i in range(len(out) - 1, -1, -1):
        if out[i]:
            out[i] = 0
            return tuple(out)
    raise ValueError("dec of the all-zero state")


@dataclass(frozen=True)
class NudgeMLayout:
    """The tuple state enumeration of ``build_nudge_m_fluid_tuples``.

    S- holds all bit-vectors s in binary order (s_1 the most significant
    bit; s_i = 1 iff the i-th last arrival is a still-waiting type-2 job).
    S+ concatenates subsets 1 (s_1 = 0, type-1 phases), 2 (s_1 = 0,
    type-2 phases) and 3 (all s, type-2 phases).
    """
    m: int
    n1: int
    n2: int
    minus_index: Dict[Tuple[int, ...], int]
    plus_offsets: Tuple[int, int, int]
    plus_index: Dict[Tuple[Tuple[int, ...], int], int]  # (s, subset) -> offset of phase block
    n_plus: int

    @classmethod
    def build(cls, m: int, n1: int, n2: int) -> "NudgeMLayout":
        states = list(itertools.product((0, 1), repeat=m))
        minus_index = {s: i for i, s in enumerate(states)}
        half = [s for s in states if s[0] == 0]
        plus_index = {}
        pos = 0
        off1 = pos
        for s in half:
            plus_index[(s, 1)] = pos
            pos += n1
        off2 = pos
        for s in half:
            plus_index[(s, 2)] = pos
            pos += n2
        off3 = pos
        for s in states:
            plus_index[(s, 3)] = pos
            pos += n2
        return cls(m=m, n1=n1, n2=n2, minus_index=minus_index,
                   plus_offsets=(off1, off2, off3), plus_index=plus_index,
                   n_plus=pos)


def build_nudge_m_fluid_tuples(mix: JobMix, m: int) -> FluidModel:
    """Nudge-M fluid model built on the tuple layout: S- states are
    bit-vectors s, each subset's phase blocks are found through
    ``NudgeMLayout``'s dicts, and ``_shift`` and ``_dec`` move s. It must
    give every array of ``fluid.build_nudge_m_fluid`` to the last bit."""
    if not (1 <= m <= NUDGE_M_CAP):
        raise ValueError(f"window m must be in 1..{NUDGE_M_CAP}")
    layout = NudgeMLayout.build(m, mix.n1, mix.n2)
    lam, p = mix.lam, mix.p
    n1, n2 = mix.n1, mix.n2
    a1, a2 = mix.ph1.alpha, mix.ph2.alpha
    s1, s2 = mix.ph1.S, mix.ph2.S
    e1, e2 = mix.ph1.exit, mix.ph2.exit
    nm = 2 ** m
    npl = layout.n_plus
    mi = layout.minus_index
    pi = layout.plus_index

    # the S+ blocks as (rows, cols, values) parts of SparseRows.scatter,
    # each the entries that a slice assignment to a dense block would set
    def span(o, n):
        return np.arange(o, o + n)

    t_mm = -lam * np.eye(nm)
    t_mp = []
    for s, r in mi.items():
        if s[-1] == 0:
            t_mm[r, mi[_shift(s, 1)]] += lam * (1 - p)
            t_mp.append((r, span(pi[(_shift(s, 0), 1)], n1), lam * p * a1))
        else:
            t_mp.append((r, span(pi[(_shift(s, 0), 2)], n2), lam * p * a2))
            t_mp.append((r, span(pi[(_shift(s, 1), 3)], n2),
                         lam * (1 - p) * a2))

    t_pp, t_pm = [], []
    for (s, sub), o in pi.items():
        if sub == 1:
            t_pp.append((span(o, n1)[:, None], span(o, n1), s1))
            t_pm.append((span(o, n1), mi[s], e1))
        elif sub == 2:
            t_pp.append((span(o, n2)[:, None], span(o, n2), s2))
            t_pp.append((span(o, n2)[:, None], span(pi[(s, 1)], n1),
                         np.outer(e2, a1)))
        else:
            t_pp.append((span(o, n2)[:, None], span(o, n2), s2))
            t_pm.append((span(o, n2), mi[s], e2))

    zero = (0,) * m
    t_star_0p = np.zeros(npl)
    o = pi[(zero, 1)]
    t_star_0p[o: o + n1] = lam * p * a1
    o = pi[(zero, 3)]
    t_star_0p[o: o + n2] = lam * (1 - p) * a2

    p_m0 = np.zeros(nm)
    p_mp = []
    for s, r in mi.items():
        if s == zero:
            p_m0[r] = 1.0
        else:
            p_mp.append((r, span(pi[(_dec(s), 3)], n2), a2))

    t_mp = SparseRows.scatter((nm, npl), *t_mp)
    t_pp = SparseRows.scatter((npl, npl), *t_pp)
    t_pm = SparseRows.scatter((npl, nm), *t_pm)
    p_mp = SparseRows.scatter((nm, npl), *p_mp)
    return FluidModel(t_mm=t_mm, t_mp=t_mp, t_pm=t_pm, t_pp=t_pp,
                      t_star_0p=t_star_0p, p_m0=p_m0, p_mp=p_mp)


def build_nudge1_fluid(mix: JobMix) -> FluidModel:
    """Nudge-1 with the two-state S- and four S+ subsets.

    S- state 0: no passable type-2 job at the back; state 1: one such job
    whose work is not yet in the fluid. Subsets of S+: (1) add a type-1
    job, (2) add a type-2 then a type-1 job, (3) add a type-2 job and
    return to state 1, (4) add a type-2 job and return to state 0 (used
    when the fluid hits zero in state 1).
    """
    lam, p = mix.lam, mix.p
    n1, n2 = mix.n1, mix.n2
    a1 = mix.ph1.alpha.reshape(1, -1)
    a2 = mix.ph2.alpha.reshape(1, -1)
    s1, s2 = mix.ph1.S, mix.ph2.S
    e1, e2 = mix.ph1.exit.reshape(-1, 1), mix.ph2.exit.reshape(-1, 1)
    np_tot = n1 + 3 * n2
    o1, o2, o3, o4 = 0, n1, n1 + n2, n1 + 2 * n2

    t_mm = np.array([[-lam, lam * (1 - p)], [0.0, -lam]])
    t_mp = np.zeros((2, np_tot))
    t_mp[0, o1: o1 + n1] = lam * p * a1
    t_mp[1, o2: o2 + n2] = lam * p * a2
    t_mp[1, o3: o3 + n2] = lam * (1 - p) * a2

    t_pp = np.zeros((np_tot, np_tot))
    t_pp[o1: o1 + n1, o1: o1 + n1] = s1
    t_pp[o2: o2 + n2, o1: o1 + n1] = e2 @ a1
    t_pp[o2: o2 + n2, o2: o2 + n2] = s2
    t_pp[o3: o3 + n2, o3: o3 + n2] = s2
    t_pp[o4: o4 + n2, o4: o4 + n2] = s2

    t_pm = np.zeros((np_tot, 2))
    t_pm[o1: o1 + n1, 0] = e1.ravel()
    t_pm[o3: o3 + n2, 1] = e2.ravel()
    t_pm[o4: o4 + n2, 0] = e2.ravel()

    t_star_0p = np.zeros(np_tot)
    t_star_0p[o1: o1 + n1] = lam * p * a1
    t_star_0p[o4: o4 + n2] = lam * (1 - p) * a2

    p_m0 = np.array([1.0, 0.0])
    p_mp = np.zeros((2, np_tot))
    p_mp[1, o4: o4 + n2] = a2

    return FluidModel(t_mm=t_mm, t_mp=t_mp, t_pm=t_pm, t_pp=t_pp,
                      t_star_0p=t_star_0p, p_m0=p_m0, p_mp=p_mp)


def selector_matrix(k: int) -> np.ndarray:
    """U_k = [0; I]: removes the first k+1 (i = 0) coordinates."""
    n, m = chain_size(k), chain_size(k - 1)
    u = np.zeros((n, m))
    u[k + 1:, :] = np.eye(m)
    return u


def build_extra_wait_per_k(mix: JobMix, m: int) -> np.ndarray:
    """The extra-wait subgenerator Q with one ``counting_matrix`` and one
    ``selector_matrix`` per block: diagonal blocks W_{M-k} (+) S1,
    superdiagonal blocks U_{M-k} x s1* alpha1. Block k (k = 1..M) has width
    chain_size(M - k) n1."""
    if m < 1:
        raise ValueError("window m must be >= 1")
    offsets = np.cumsum([0] + [chain_size(m - k) * mix.n1 for k in range(1, m + 1)])
    q = np.zeros((offsets[-1], offsets[-1]))
    jump = np.outer(mix.ph1.exit, mix.ph1.alpha)  # s1* alpha1
    for k in range(1, m + 1):
        o, o2 = offsets[k - 1], offsets[k]
        q[o: o2, o: o2] = kron_sum(counting_matrix(m - k, mix.lam, mix.p), mix.ph1.S)
        if k < m:
            off = np.kron(selector_matrix(m - k), jump)
            q[o: o2, o2: o2 + off.shape[1]] = off
    return q


def build_w2_model_per_k(mix: JobMix, m: int) -> W2Model:
    """``resp2.build_w2_model`` assembled from ``build_extra_wait_per_k``,
    a second ``counting_matrix`` for W_M and ``selector_matrix`` for U_M:
    T_M = [[W_M (+) T, (U_M x 1 alpha1, 0)], [0, Q]] with terminal vector
    v_2 = [1_W x (-T)^{-1} 1; 1]."""
    q = build_extra_wait_per_k(mix, m)
    t_mat = mix.T
    nw = chain_size(m)
    nt = t_mat.shape[0]
    top = kron_sum(counting_matrix(m, mix.lam, mix.p), t_mat)
    coupler = np.kron(selector_matrix(m),
                      np.outer(np.ones(nt), mix.ph1.alpha))  # U_M x 1 alpha1
    n_top = nw * nt
    size = n_top + q.shape[0]
    t_m = np.zeros((size, size))
    t_m[:n_top, :n_top] = top
    t_m[:n_top, n_top: n_top + coupler.shape[1]] = coupler
    t_m[n_top:, n_top:] = q

    v2 = np.ones(size)
    v2[:n_top] = np.tile(np.linalg.solve(-t_mat, np.ones(nt)), nw)

    init = np.zeros(size)
    init[:nt] = mix.lam * mix.beta  # e_1' x lambda beta
    w2 = MatrixExpDist(init, t_m, v2)
    return W2Model(w2=w2, r2=w2.plus(mix.ph2))


class DenseChain(NamedTuple):
    """Counting chains W_0..W_M and the per-swap transfer matrices."""

    m: int
    w: List[np.ndarray]
    transfer: List[np.ndarray]  # step ell: window M - ell -> M - ell - 1


def dense_chain(mix, m):
    """W_k from ``counting_matrix`` and, for each swap ell, the transfer
    (U_{M-ell} x alpha1)(-(W_k (+) S1))^{-1}(I x s1*) with k = M - ell - 1,
    one dense inverse per step."""
    w = [counting_matrix(k, mix.lam, mix.p) for k in range(m + 1)]
    alpha1 = mix.ph1.alpha.reshape(1, -1)
    s1_star = mix.ph1.exit.reshape(-1, 1)
    transfer = []
    for ell in range(m):
        k = m - ell - 1
        inv = np.linalg.inv(-kron_sum(w[k], mix.ph1.S))
        transfer.append(np.kron(selector_matrix(m - ell), alpha1) @ inv
                        @ np.kron(np.eye(chain_size(k)), s1_star))
    return DenseChain(m=m, w=w, transfer=transfer)


def _arrival_law(mix: JobMix, k: int, s: float) -> np.ndarray:
    """Poisson(lambda s) arrivals during the workload s, counted up to k."""
    start, window = poisson_weights(mix.lam * s)
    w = np.zeros(start + window.shape[0])
    w[start:] = window
    law = np.zeros(k + 1)
    n = min(k, w.shape[0])
    law[:n] = w[:n]
    law[k] = w[k:].sum()  # P[N >= k]
    return law


def initial_distribution(mix: JobMix, m: int, s: float) -> np.ndarray:
    """Row vector e_1' e^{W_m s} over the window-m states in `_state_index`
    order: N ~ Poisson(lambda s) arrivals, counted up to the absorbing
    layer, put P[N = n] Bin(n, p)(i) on the state (i, n - i)."""
    i, j = np.array(_state_index(m)).T
    return _arrival_law(mix, m, s)[i + j] * _binomial_table(m, mix.p)[i + j, i]


def initial_distribution_expm(chain, s):
    """Row vector e_1' e^{W_M s} of the window-M counting chain by a dense
    matrix exponential."""
    e1 = np.zeros(chain.w[chain.m].shape[0])
    e1[0] = 1.0
    return e1 @ expm(chain.w[chain.m] * s)


def mean_swaps_quadrature(mix, m, theta_z):
    """Unconditional mean swap count as the integral of the workload density
    f_Z(s) = lambda beta e^{Ts} 1 against E[X_swap(s)] on [0, 40/theta_Z],
    with E[X_swap(s)] = e_1' e^{W_M s} v_M^swap from ``swap_mean_vector``."""
    chain = dense_chain(mix, m)
    ones = np.ones(mix.T.shape[0])
    v_swap = swap_mean_vector(chain)

    def integrand(s):
        density = mix.lam * float(mix.beta @ expm(mix.T * s) @ ones)
        return density * float(initial_distribution_expm(chain, s) @ v_swap)

    val, _ = quad(integrand, 0.0, 40.0 / theta_z, limit=200,
                  epsabs=1e-10, epsrel=1e-10)
    return val


def swap_pmf_vectors(chain):
    """Vectors u_k with P[X_swap(s) = k] = e_1' e^{W_M s} u_k, from the
    products of the transfer matrices; k = 0..M-1 from the transfer
    products, k = M by complement."""
    m = chain.m
    vecs = []
    prefix = np.eye(chain_size(m))
    for k in range(m):
        vecs.append(prefix @ _accumulator_vector(m - k))
        if k < m - 1:
            prefix = prefix @ chain.transfer[k]
    vecs.append(np.ones(chain_size(m)) - sum(vecs))
    return vecs


def swap_mean_vector(chain):
    """v_M^swap = sum_k (prod_{ell<k} transfer_ell) (1 - F_{M-k}), so that
    E[X_swap(s)] = e_1' e^{W_M s} v_M^swap."""
    m = chain.m
    v = np.zeros(chain_size(m))
    prefix = np.eye(chain_size(m))
    for k in range(m):
        ones = np.ones(chain_size(m - k))
        v += prefix @ (ones - _accumulator_vector(m - k))
        if k < m - 1:
            prefix = prefix @ chain.transfer[k]
    return v


def _accumulator_vector(k):
    """F_k: ones in the first k+1 entries (the i = 0 states)."""
    f = np.zeros(chain_size(k))
    f[: k + 1] = 1.0
    return f


def workload_average(mix, chain, vec):
    """integral of lambda beta e^{Ts} 1 . (e_1' e^{W_M s} vec) ds via the
    Kronecker closed form -lambda (beta x e_1')(T (+) W_M)^{-1}(1 x vec),
    one dense solve of order chain_size(M) n."""
    t_mat = mix.T
    e1 = np.zeros(chain_size(chain.m))
    e1[0] = 1.0
    left = mix.lam * np.kron(mix.beta.reshape(1, -1), e1.reshape(1, -1))
    big = kron_sum(t_mat, chain.w[chain.m])
    rhs = np.kron(np.ones(t_mat.shape[0]).reshape(-1, 1), vec.reshape(-1, 1))
    sol = np.linalg.solve(big, rhs)
    return float(-(left @ sol)[0, 0])


def unconditional_swap_pmf_kron(mix, chain):
    """P[X_swap = k] for an arriving type-2 job: each ``swap_pmf_vectors``
    entry averaged by ``workload_average``, plus the empty-system mass
    1 - lambda at k = 0."""
    pmf = np.array([workload_average(mix, chain, v) for v in swap_pmf_vectors(chain)])
    pmf[0] += 1.0 - mix.lam
    return pmf


def _add_arrivals(grid: np.ndarray, law: np.ndarray, p: float) -> np.ndarray:
    """The window-K grid after N more arrivals, each type-1 w.p. p, counted
    up to the absorbing layer K. law[c] = P[N = c] for c < K, and the
    entries from law[K] on sum to P[N >= K].

    grid[n, i] is the mass of state (i, n - i), n = i + j. Mass on layer
    n reaches layer n + c < K w.p. law[c] and layer K w.p. P[N >= K - n];
    one arrival moves (n, i) to (n + 1, i + 1) w.p. p and to (n + 1, i)
    otherwise. cur holds the source layers 0..K - c after c arrivals, so
    the sweep costs O(K^3).
    """
    k = grid.shape[0] - 1
    tail = np.cumsum(law[::-1])[::-1]
    out = np.zeros_like(grid)
    cur = grid
    for c in range(k + 1):
        out[c:k] += law[c] * cur[:-1]
        out[k] += tail[c] * cur[-1]
        nxt = (1.0 - p) * cur[:-1]
        nxt[:, 1:] += p * cur[:-1, :-1]
        cur = nxt
    return out


def _start_grid(law: np.ndarray, p: float) -> np.ndarray:
    """Window-K grid of a chain started at (0, 0) after N ~ law arrivals."""
    point = np.zeros((law.shape[0], law.shape[0]))
    point[0, 0] = 1.0
    return _add_arrivals(point, law, p)


def swap_pmf(mix, m, s):
    """Distribution of the number of swaps for a tagged type-2 job that
    sees workload s on arrival; entries k = 0..M, by the hitting-time
    formula of ``swap`` with the Poisson(lambda s) count law."""
    if s < 0:
        raise ValueError("workload s must be >= 0")
    return _swap_pmf_from(mix, _arrival_law(mix, m, s))


def swap_pmf_grid(mix, m, s=None):
    """P[X_swap = k] by the arrival-count grid over the window-M states:
    after the workload s (or, with s None, the workload an arrival finds)
    and k swaps, the i = 0 mass ends the wait; the i >= 1 mass loses the
    passing job (grid[1:, 1:]) and gains the arrivals during its service.
    O(M^4) flops; it shares only the count laws with ``swap``."""
    if s is None:
        law = _count_law(mix.lam * mix.beta, mix.T, np.ones(mix.T.shape[0]),
                         mix.lam, m)
        law[0] += 1.0 - mix.lam
    else:
        law = _arrival_law(mix, m, s)
    grid = _start_grid(law, mix.p)
    service = _count_law(mix.ph1.alpha, mix.ph1.S, mix.ph1.exit, mix.lam, m - 1)
    pmf = np.empty(m + 1)
    for k in range(m):
        pmf[k] = grid[:, 0].sum()
        grid = _add_arrivals(grid[1:, 1:], service, mix.p)
    pmf[m] = grid.sum()
    return pmf


def dense_ccdf(law, t):
    """P[X > t] = init e^{gen t} tail of a ``MatrixExpDist`` by one dense
    matrix exponential per point, at a scalar t or on a 1-D grid."""
    return _dense_eval(law, t, law.tail)


def dense_density(law, t):
    """f_X(t) = init e^{gen t} (-gen tail) by one dense matrix exponential
    per point."""
    return _dense_eval(law, t, -law.gen @ law.tail)


def law_density(law, t):
    """f_X(t) = init e^{gen t} (-gen tail) for t > 0 (the atom excluded),
    by the law's own uniformization (``MatrixExpDist._eval``), at a scalar
    t or on a 1-D grid; the package evaluates no density."""
    return law._eval(t, -law.gen @ law.tail)


def _dense_eval(law, t, vec):
    ts = np.asarray(t, dtype=float)
    vals = np.array([law.init @ expm(law.gen * x) @ vec for x in ts.ravel()])
    return float(vals[0]) if ts.ndim == 0 else vals


def sequential_ccdf(law, grid):
    """P[X > t] on a 1-D grid by uniformization with one matrix-vector
    product per term, s_k = init P^k tail for k <= poisson_terms(q t_max):
    the loop that the blocked ``MatrixExpDist`` evaluation replaced."""
    q = law.rate
    p = np.eye(law.init.shape[0]) + law.gen / q
    vec = law.tail
    terms = np.empty(poisson_terms(q * float(np.max(grid))) + 1)
    terms[0] = law.init @ vec
    for k in range(1, terms.shape[0]):
        vec = p @ vec
        terms[k] = law.init @ vec
    return np.array([w @ terms[start:start + w.shape[0]]
                     for start, w in map(poisson_weights, q * grid)])


# The mean-wait identities of ``wald_mean_gaps``. On the reference mixes
# (exp/exp and exp/hyperexp, lambda = 0.7) at m = 1..8, E[W_1] met the swap
# layer within 9.3e-15 and 6.5e-13 relative and E[W_2] within 6.7e-16.
# The W_1 gap is Psi's: SDA stops at a residual up to RICCATI_RESIDUAL_TOL,
# and E[W_1] moves by about that over (1 - lambda)^2. Over 11,000 random
# 1-3-phase mixes (p in [0.05, 0.95], lambda in [0.05, 0.95], m <= 5;
# 8,000 of them with a third at lambda = 0.95 itself, 3,000 drawn as the
# property draws them) the W_1 gap times (1 - lambda)^2 was at most
# 1.9e-12 (5.6e-10 at lambda = 0.95) and the W_2 gap at most 9.8e-15. An
# earlier probe saw 7.3e-12 on an Erlang-3/hyperexp mix at lambda = 0.9.
WALD_W1_TOL = 1e-11  # relative; the property divides it by (1 - lambda)^2
WALD_W2_TOL = 1e-13


def wald_mean_gaps(mix: JobMix, m: int) -> Tuple[float, float]:
    """Relative gaps of E[W_1] = E[Z] - ((1 - p)/p) E[X_swap] E[X_2] and
    E[W_2] = E[Z] + E[X_swap] E[X_1] under Nudge-M, by Wald's identity: a
    type-2 job is passed E[X_swap] times on average, each pass saves the
    passing type-1 job one type-2 service and costs the type-2 job one
    type-1 service, and the passes form a stopping time. The left sides
    come from the fluid and from ``resp2``, E[X_swap] from ``swap`` and E[Z]
    from the workload law, each mean as init (-gen)^{-1} tail."""
    ez, xs = workload_law(mix).mean(), mean_swaps(mix, m)
    w1 = stationary_fluid(build_nudge_m_fluid(mix, m)).w1.mean()
    w2 = build_w2_model(mix, m).w2.mean()
    return (abs(w1 / (ez - (1.0 - mix.p) / mix.p * xs * mix.e2) - 1.0),
            abs(w2 / (ez + xs * mix.e1) - 1.0))


def count_twos(s) -> int:
    """t(s), the number of twos in the string s."""
    return sum(1 for c in s if c == 2)


def family_prefactors_enum(policy, info, mix):
    """Waiting-time prefactors of a family member by direct enumeration of
    the defining sums: strings of length M for the type-1 prefactor and of
    length 2M (tagged type-2 job in position M+1) for the type-2 prefactor.
    Cost O(2^{2M} M) in Python; capped at M <= 6.
    """
    m = policy.m
    if m > FAMILY_M_CAP:
        raise ComplexityError(f"family_prefactors is capped at M <= {FAMILY_M_CAP}")
    p = mix.p
    if not (0.0 < p < 1.0):
        raise ValueError("family_prefactors requires 0 < p < 1")
    s1t, s2t, st = info.s1_tilde, info.s2_tilde, info.s_tilde

    total1 = 0.0
    for s in all_strings(m):
        t = count_twos(s)
        total1 += ((1.0 - p) ** t * p ** (m - t)
                   * s1t ** (m - t) * s2t ** (t - policy.table[s]))
    c_w1 = info.c_z / st ** m * total1

    total2 = 0.0
    for s in all_strings(2 * m):
        if s[m] != 2:  # tagged type-2 job sits in position M+1 (index m)
            continue
        t_all = count_twos(s)
        tail = s[m + 1:]  # positions M+2 .. 2M, the arrivals before the tag
        t_tail = count_twos(tail)
        term = ((1.0 - p) ** t_all * p ** (2 * m - t_all) / (1.0 - p)
                * s1t ** (m - 1 - t_tail) * s2t ** t_tail)
        # a type-1 job in position k passes the tag iff
        # n(s_{k+1}..s_{k+M}) > t(s_{k+1}..s_M)
        for k in range(1, m + 1):
            if s[k - 1] == 1 and policy.table[s[k: k + m]] > count_twos(s[k: m]):
                term *= s1t
        total2 += term
    c_w2 = info.c_z / st ** (m - 1) * total2

    return AtirReport(c_w1=c_w1, c_w2=c_w2,
                      atir=atir_from_prefactors(info, mix, c_w1, c_w2))


# --- the paper's definitions, one string at a time -------------------------

def check_table_strings(m: int, table) -> None:
    """(C1) and (C2) checked string by string, the way ``PolicyFn`` checked
    them before it held its table as a bitmask array: the same
    ``PolicyError`` messages, naming the first violating string (C1 in
    the table's order, C2 in ``all_strings`` order)."""
    if set(table.keys()) != set(all_strings(m)):
        raise PolicyError(f"table must cover all strings in {{1,2}}^{m}")
    for s, n in table.items():
        if not (0 <= n <= count_twos(s)):
            raise PolicyError(f"(C1) violated at {s}: n={n}, t={count_twos(s)}")
    for s in all_strings(m):
        for s0 in (1, 2):
            left = (s0,) + s[: m - 1]
            if table[left] > table[s] + (1 if s0 == 2 else 0):
                raise PolicyError(f"(C2) violated at s0={s0}, s={s}")


def string_mask(s) -> int:
    """The bitmask of a string: bit i set when s_i = 2."""
    return sum(1 << i for i, v in enumerate(s) if v == 2)


def _make(m: int, fn) -> np.ndarray:
    """The by_mask row of the table n = fn, one string at a time."""
    row = np.zeros(1 << m, dtype=np.int64)
    for s in all_strings(m):
        row[string_mask(s)] = fn(s)
    return row


def fcfs_strings(m: int = 1) -> np.ndarray:
    """n = 0: never pass anyone."""
    return _make(m, lambda s: 0)


def nudge_m_strings(m: int) -> np.ndarray:
    """Pass every type-2 job among the last m arrivals: n(s) = t(s)."""
    return _make(m, count_twos)


def nudge_k_strings(k: int) -> np.ndarray:
    """Pass the leading run of twos: a type-2 job is passed at most once."""
    def n(s):
        c = 0
        for v in s:
            if v != 2:
                break
            c += 1
        return c
    return _make(k, n)


def nudge_l_strings(l: int) -> np.ndarray:
    """Pass at most one type-2 job: n(s) = min(t(s), 1)."""
    return _make(l, lambda s: min(count_twos(s), 1))


def nudge_km_strings(k: int, m: int) -> np.ndarray:
    """Nudge-M capped at k passes per type-1 job: n(s) = min(t(s), k)."""
    if not (1 <= k <= m):
        raise PolicyError("Nudge-K,M requires 1 <= K <= M")
    return _make(m, lambda s: min(count_twos(s), k))


def nudge_ml_strings(m: int, l: int) -> np.ndarray:
    """Nudge-M where a type-2 job is passed at most l times: n(s) counts the
    twos before the l-th one in s."""
    if not (1 <= l <= m):
        raise PolicyError("Nudge-M,L requires 1 <= L <= M")

    def n(s):
        ones = 0
        twos = 0
        for v in s:
            if v == 1:
                ones += 1
                if ones == l:
                    break
            else:
                twos += 1
        return twos
    return _make(m, n)


def nudge_kl_strings(k: int, l: int) -> np.ndarray:
    """At most k passes per type-1 job and at most l times passed per type-2
    job; window K+L-1. Count left to right, stopping at the k-th two or the
    l-th one; n(s) is the number of twos counted."""
    if k < 1 or l < 1:
        raise PolicyError("Nudge-K,L requires K, L >= 1")
    m = k + l - 1

    def n(s):
        ones = 0
        twos = 0
        for v in s:
            if v == 2:
                twos += 1
                if twos == k:
                    break
            else:
                ones += 1
                if ones == l:
                    break
        return twos
    return _make(m, n)


def nudge_prefix_strings(m: int, cap: int) -> np.ndarray:
    """Nudge-cap inside F_m (``verify_optimality``'s ``expected``): pass
    exactly the twos within the first cap positions."""
    return _make(m, lambda s: count_twos(s[:cap]))


# registry key of ``policy.NAMED_POLICIES`` -> its string definition
STRING_BUILDERS = {
    "fcfs": lambda p: fcfs_strings(p.get("m", 1)),
    "nudge-m": lambda p: nudge_m_strings(p["m"]),
    "nudge-k": lambda p: nudge_k_strings(p["k"]),
    "nudge-l": lambda p: nudge_l_strings(p["l"]),
    "nudge-km": lambda p: nudge_km_strings(p["k"], p["m"]),
    "nudge-ml": lambda p: nudge_ml_strings(p["m"], p["l"]),
    "nudge-kl": lambda p: nudge_kl_strings(p["k"], p["l"]),
}


def enumerate_policies(m: int) -> Iterator[PolicyFn]:
    """All valid tables for window m (exhaustive; use only for m <= 3)."""
    strings = list(all_strings(m))
    ranges = [range(count_twos(s) + 1) for s in strings]
    for values in itertools.product(*ranges):
        table = dict(zip(strings, values))
        ok = True
        for s in strings:
            ns = table[s]
            for s0 in (1, 2):
                left = (s0,) + s[: m - 1]
                if table[left] > ns + (1 if s0 == 2 else 0):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            yield PolicyFn(m, table)


def increment_edges(policy: PolicyFn):
    """Strings s whose n(s) can be raised by one without leaving the family.

    Yields (s, incremented PolicyFn) pairs; these are the single-increment
    edges of the enumeration lattice.
    """
    m = policy.m
    for s in all_strings(m):
        if policy.table[s] >= count_twos(s):
            continue
        table = dict(policy.table)
        table[s] += 1
        try:
            yield s, PolicyFn(m, table)
        except PolicyError:
            continue


def verify_optimality_enum(m: int, info, mix) -> OptimalityReport:
    """``asymptotics.verify_optimality`` by one ``PolicyFn`` per table and
    per increment edge (``enumerate_policies``, ``increment_edges``) and one
    ``family_prefactors`` call per table. Must give an equal report with
    the same ``best_atir`` bits."""
    if m > VERIFY_M_CAP:
        raise ComplexityError(f"verify_optimality is capped at M <= {VERIFY_M_CAP}")
    mo = m_opt(info)
    # Nudge-min(M, M_opt) inside F_M: pass exactly the twos within the
    # first min(m, mo) positions, i.e. n(s) = t(s_1..s_min(m,mo)).
    cap = min(m, mo)
    expected = PolicyFn(m, nudge_prefix_strings(m, cap))

    atirs: Dict[PolicyFn, float] = {}
    for pol in enumerate_policies(m):
        atirs[pol] = family_prefactors(pol, info, mix).atir

    best_atir = max(atirs.values())
    best = tuple(p for p, a in atirs.items()
                 if a >= best_atir - OPTIMALITY_TIE_TOL)
    is_optimal = any(p == expected for p in best)

    # Increment theorem: raising n(s) by one improves the ATIR iff the
    # position of the (n(s)+1)-st two in s is within the first M_opt slots.
    edge_failures: List[tuple] = []
    n_edges = 0
    for pol, atir in atirs.items():
        for s, nxt in increment_edges(pol):
            n_edges += 1
            # position (1-based) of the (n(s)+1)-st two in s
            want = pol.table[s] + 1
            seen = 0
            k_prime = None
            for pos, v in enumerate(s, start=1):
                if v == 2:
                    seen += 1
                    if seen == want:
                        k_prime = pos
                        break
            improves = atirs[nxt] > atir + OPTIMALITY_TIE_TOL
            degrades = atirs[nxt] < atir - OPTIMALITY_TIE_TOL
            if improves and k_prime > mo:
                edge_failures.append((s, tuple(sorted(pol.table.items()))))
            if degrades and k_prime <= mo:
                edge_failures.append((s, tuple(sorted(pol.table.items()))))

    return OptimalityReport(m=m, best_policies=best, best_atir=best_atir,
                            expected=expected, n_policies=len(atirs),
                            n_edges=n_edges,
                            is_optimal=is_optimal,
                            edge_failures=tuple(edge_failures))


def increment_ratio(info, i: int, m: int) -> float:
    """Ratio of ATIR increments of Nudge-K,M over Nudge-M,L at K = L = i:
    sum_{j<i} C(M,j) w1^{M-j} w^j / sum_{j<i} C(M,j) w^{M-j} w1^j."""
    num = sum(math.comb(m, j) * info.w1 ** (m - j) * info.w ** j for j in range(i))
    den = sum(math.comb(m, j) * info.w ** (m - j) * info.w1 ** j for j in range(i))
    return num / den


@dataclass(frozen=True)
class KmMlComparison:
    atir_km: float
    atir_ml: float
    sign: int          # sign of ATIR_{K,M}(i) - ATIR_{M,L}(i)
    predicate: bool    # S~1(-theta_Z) > (1-p)/p
    ratio: float       # increment ratio of the two policies


def compare_km_ml(i: int, m: int, info, mix) -> KmMlComparison:
    """Compare ATIR of Nudge-K,M and Nudge-M,L at K = L = i for
    1 <= i < M <= M_opt; the ordering is predicted by w1 > w, i.e.
    S~1(-theta_Z) > (1-p)/p."""
    if not (1 <= i < m):
        raise ValueError("requires 1 <= i < M")
    if m > m_opt(info):
        raise ValueError("requires M <= M_opt")
    a_km = family_prefactors(named_policy("nudge-km", k=i, m=m), info, mix).atir
    a_ml = family_prefactors(named_policy("nudge-ml", m=m, l=i), info, mix).atir
    diff = a_km - a_ml
    sign = 0 if abs(diff) < 1e-14 else (1 if diff > 0 else -1)
    predicate = info.s1_tilde > (1.0 - mix.p) / mix.p
    return KmMlComparison(atir_km=a_km, atir_ml=a_ml, sign=sign,
                          predicate=predicate,
                          ratio=increment_ratio(info, i, m))


def random_ph(rng, n):
    """Random PH with n phases: each phase exits at a random share of its
    rate and otherwise moves to a random later phase."""
    s = np.diag(-rng.uniform(0.2, 5.0, n))
    for k in range(n - 1):
        s[k, k + 1:] = -s[k, k] * rng.uniform(0.0, 0.9) * rng.dirichlet(np.ones(n - k - 1))
    return PhaseType(rng.dirichlet(np.ones(n)), s)


def random_family_member(m, steps, rng):
    """A random valid table of F_m: a walk of at most ``steps`` single
    increments (``increment_edges``) from FCFS, each edge picked by
    ``rng.randrange``."""
    pol = named_policy("fcfs", m=m)
    for _ in range(steps):
        edges = list(increment_edges(pol))
        if not edges:
            break
        pol = edges[rng.randrange(len(edges))][1]
    return pol


MIN_EXCEEDANCES = 100


def tail_prefactor_estimate(stats: SimStats, theta_z: float,
                            t_grid: Sequence[float],
                            job_type="any") -> Tuple[float, float]:
    """Prefactor of an assumed c e^{-theta_Z t} waiting-time tail:
    regression of the log ccdf on t with the slope pinned at -theta_Z
    (desk-scale runs cannot resolve slope and intercept jointly)."""
    sel = stats._by_type(job_type)[1]
    logs = []
    for t in t_grid:
        exceed = int((sel > t).sum())
        if exceed < MIN_EXCEEDANCES:
            raise EstimationError(
                f"only {exceed} exceedances at t={t}; need {MIN_EXCEEDANCES}")
        logs.append(np.log(exceed / sel.size) + theta_z * t)
    logs = np.asarray(logs)
    est = float(np.exp(logs.mean()))
    spread = float(logs.std(ddof=1) / np.sqrt(logs.size)) if logs.size > 1 else 0.0
    return est, est * spread


def batch_means_masked(values: np.ndarray,
                       mask: np.ndarray) -> Tuple[float, float]:
    """The batch means of ``SimStats`` by masking each batch of all jobs
    (``values[lo:hi][sel]``), where the package slices one compaction per
    job type; must give the same floats."""
    edges = np.linspace(0, values.shape[0], N_BATCHES + 1).astype(int)
    means = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        sel = mask[lo:hi]
        if sel.any():
            means.append(values[lo:hi][sel].mean())
    means = np.asarray(means)
    return float(means.mean()), float(means.std(ddof=1) / np.sqrt(means.size))


def sample_phase_type_gathered(ph: PhaseType, gen: np.random.Generator,
                               size: int) -> np.ndarray:
    """``sim.sample_phase_type`` by gathering: every round gathers the live
    samples' phases and compares each uniform with its phase's whole
    cumulative step row. Must make the same samples from the same draws."""
    n = ph.alpha.shape[0]
    rates = -np.diag(ph.S)
    jump = ph.S / rates[:, None]
    np.fill_diagonal(jump, 0.0)
    # column 0 = absorption, columns 1.. = next phase
    step = np.column_stack([ph.exit / rates, jump])
    cum = np.cumsum(step, axis=1)

    total = np.zeros(size)
    state = gen.choice(n, size=size, p=ph.alpha / ph.alpha.sum())
    alive = np.arange(size)
    while alive.size:
        st = state[alive]
        total[alive] += gen.exponential(1.0, alive.size) / rates[st]
        nxt = (gen.random(alive.size)[:, None] > cum[st]).sum(axis=1)
        moved = nxt > 0
        state[alive[moved]] = nxt[moved] - 1
        alive = alive[moved]
    return total


def decide_sequential(a: np.ndarray, x: np.ndarray, two: np.ndarray,
                      seen: np.ndarray, mask: np.ndarray, want: np.ndarray,
                      m: int) -> Decisions:
    """``sim._decide`` with the rows its bounds leave open settled one by
    one, in arrival order, by a Python loop; must give the same
    ``Decisions`` (``mask`` holds each arrival's window bitmask). Pass
    decisions of a block from its exact workload chain ``seen``.

    Type-2 jobs start in arrival order, so the ones still waiting at a
    type-1 arrival i are the newest of its window, and i passes
    min(waiting, want) of them. A candidate j waits at t_i when
    a_j + V_j > t_i, and has started when a_j + V_j plus the type-1 work of
    the arrivals between j and i is <= t_i; both counts come from one
    ``searchsorted`` each. A row whose two counts differ below its cap is
    decided in arrival order by the Python loop, on a_j + V_j plus the work
    of the arrivals between j and i that passed j. Every decision is a
    guess that ``_fast_block`` checks."""
    before = np.cumsum(two) - two       # type-2 jobs before each arrival
    rows = np.flatnonzero(want)
    first, newest = before[np.maximum(rows - m, 0)], before[rows]
    keep = newest > first
    rows, first, newest = rows[keep], first[keep], newest[keep]
    t, cap = a[rows], want[rows]
    j2 = np.flatnonzero(two)
    lower = (a + seen)[j2]             # a_j + V_j, type-2 jobs in arrival order
    type1_work = np.cumsum(np.where(two, 0.0, x))
    sure = np.searchsorted(lower, t, side="right")
    maybe = np.searchsorted(lower - type1_work[j2], t - type1_work[rows - 1],
                            side="right")
    passes = _capped(first, newest, sure, cap)
    most = _capped(first, newest, maybe, cap)
    loop = np.flatnonzero(passes != most)
    if loop.size:
        # the work of the bulk-decided passers of j among the arrivals
        # between j and i: passed[i', s] = x[i'] when i' passed slot s,
        # summed along diagonals from (i - k, 0) to (i - 1, k - 1), the
        # entries of slot k's job
        bulk = np.flatnonzero((passes > 0) & (passes == most))
        oldest = rows[bulk] - 1 - j2[newest[bulk] - passes[bulk]]
        passed = np.zeros((a.shape[0], m))
        passed[rows[bulk]] = np.where(np.arange(m) <= oldest[:, None],
                                      x[rows[bulk], None], 0.0)
        for s in range(1, m):
            passed[1:, s] += passed[:-1, s - 1]
        at = rows[loop]
        base = (a + seen)[np.maximum(at[:, None] - 1 - np.arange(m), 0)]
        base[:, 1:] += passed[at - 1, :-1]
        extra = {}  # work of the loop-decided passers of j so far
        counts = []
        for i, ti, most_i, xi, bits, est in zip(
                at.tolist(), t[loop].tolist(), cap[loop].tolist(),
                x[at].tolist(), mask[at].tolist(), base.tolist()):
            got = []
            while bits and len(got) < most_i:  # newest type-2 jobs first
                low = bits & -bits
                bits ^= low
                j = i - low.bit_length()
                if j < 0 or est[i - 1 - j] + extra.get(j, 0.0) <= ti:
                    break  # started, and so have all older type-2 jobs
                got.append(j)
            for j in got:
                extra[j] = extra.get(j, 0.0) + xi
            counts.append(len(got))
        passes[loop] = counts
    return Decisions(rows, first, newest, passes, int(loop.size), 0)


def simulate_queue_scan(config):
    """``sim.simulate`` by the original event loop, which scans the whole
    queue per type-1 arrival (``list.pop(0)``, ``set(queue)``,
    ``queue.index``) and keys the policy table by a tuple of types. Must
    give bit-identical ``SimStats`` for the same config."""
    mix, n = config.mix, config.n_jobs
    base = np.random.Philox(config.seed)
    g_arrival = np.random.Generator(base)
    g_type = np.random.Generator(base.jumped(1))
    g_service = np.random.Generator(base.jumped(2))

    arrivals = np.cumsum(g_arrival.exponential(1.0 / mix.lam, n))
    types = np.where(g_type.random(n) < mix.p, 1, 2)
    service = np.empty(n)
    is1 = types == 1
    service[is1] = sample_phase_type_gathered(mix.ph1, g_service, int(is1.sum()))
    service[~is1] = sample_phase_type_gathered(mix.ph2, g_service, int((~is1).sum()))
    return replay_queue_scan(config, arrivals, types, service)


def replay_queue_scan(config, arrivals, types, service):
    """``simulate_queue_scan``'s run on given arrival times, types (1 or 2)
    and services, as ``sim._replay`` takes them."""
    policy = config.policy
    n, m = arrivals.shape[0], policy.m
    start = np.empty(n)
    workload_seen = np.empty(n)
    times_passed = np.zeros(n, dtype=np.int64)
    n_passes = np.zeros(n, dtype=np.int64)

    queue: list = []            # waiting job ids in service order
    window = deque(maxlen=m)    # ids of last m arrivals, newest first
    in_service = -1
    service_ends = np.inf
    now_workload = 0.0
    prev_t = 0.0

    def begin_service(t: float):
        nonlocal in_service, service_ends
        job = queue.pop(0)
        in_service = job
        start[job] = t
        service_ends = t + service[job]

    for i in range(n):
        t = arrivals[i]
        # departures before this arrival
        while service_ends <= t:
            done, in_service = service_ends, -1
            if queue:
                begin_service(done)
            else:
                service_ends = np.inf
                break
        now_workload = max(0.0, now_workload - (t - prev_t))
        workload_seen[i] = now_workload
        now_workload += service[i]
        prev_t = t

        if types[i] == 1 and window:
            s = tuple(types[j] for j in window)
            want = policy.table[s + (1,) * (m - len(s))]
            waiting = set(queue)
            targets = [j for j in window if types[j] == 2 and j in waiting]
            targets = targets[:want]  # window is newest first
            if targets:
                pos = min(queue.index(j) for j in targets)
                queue.insert(pos, i)
                for j in targets:
                    times_passed[j] += 1
            else:
                queue.append(i)
            n_passes[i] = len(targets)
        else:
            queue.append(i)
        window.appendleft(i)
        if in_service < 0:
            begin_service(t)

    # drain; the last departure ends the busy-time horizon
    while in_service >= 0:
        done, in_service = service_ends, -1
        if queue:
            begin_service(done)

    w = config.warmup
    passes_hist = np.bincount(n_passes[w:][types[w:] == 1], minlength=m + 1)
    passed_hist = np.bincount(times_passed[w:][types[w:] == 2], minlength=m + 1)
    wait = start - arrivals
    # work conservation: from job w's arrival to the last departure the
    # server is busy for the work found then plus all work arriving after
    busy = workload_seen[w] + service[w:].sum()
    return SimStats(
        config=config,
        job_type=types[w:],
        wait=wait[w:],
        response=(wait + service)[w:],
        workload_seen=workload_seen[w:],
        passes_hist=passes_hist,
        passed_hist=passed_hist,
        times_passed=times_passed[w:],
        busy_fraction=float(busy / (done - arrivals[w])),
    )
