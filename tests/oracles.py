"""Independent oracles shared by the test modules (not collected).

Each one recomputes a package result by a slower, generic route (dense
``scipy.linalg.expm``, Sylvester iteration, adaptive quadrature, string
enumeration) and so does not go through ``phtype.expm``, the evaluation of
``MatrixExpDist`` (``dense_ccdf`` and ``dense_density`` read only a law's
fields) or the window sweep of ``asymptotics.family_prefactors``.
"""

import numpy as np
from scipy.integrate import quad
from scipy.linalg import expm, solve_sylvester

from nudgem.asymptotics import (FAMILY_M_CAP, AtirReport, ComplexityError,
                                atir_from_prefactors)
from nudgem.policy import all_strings, count_twos, fcfs_policy, increment_edges
from nudgem.swap import build_swap_chain, mean_swaps_at


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
    psi = np.zeros_like(model.t_pm)
    for _ in range(max_iter):
        rhs = -model.t_pm - psi @ model.t_mp @ psi
        nxt = solve_sylvester(model.t_pp, model.t_mm, rhs)
        if np.linalg.norm(nxt - psi, np.inf) < tol:
            return nxt
        psi = nxt
    raise AssertionError("fixed-point Riccati iteration did not converge")


def initial_distribution_expm(chain, s):
    """Row vector e_1' e^{W_M s} of the window-M counting chain by a dense
    matrix exponential."""
    e1 = np.zeros(chain.w[chain.m].shape[0])
    e1[0] = 1.0
    return e1 @ expm(chain.w[chain.m] * s)


def mean_swaps_quadrature(mix, m, theta_z):
    """Unconditional mean swap count as the integral of the workload density
    f_Z(s) = lambda beta e^{Ts} 1 against E[X_swap(s)] on [0, 40/theta_Z]."""
    chain = build_swap_chain(mix, m)
    ones = np.ones(mix.T.shape[0])

    def integrand(s):
        density = mix.lam * float(mix.beta @ expm(mix.T * s) @ ones)
        return density * mean_swaps_at(chain, s)

    val, _ = quad(integrand, 0.0, 40.0 / theta_z, limit=200,
                  epsabs=1e-10, epsrel=1e-10)
    return val


def dense_ccdf(law, t):
    """P[X > t] = init e^{gen t} tail of a ``MatrixExpDist`` by one dense
    matrix exponential per point, at a scalar t or on a 1-D grid."""
    return _dense_eval(law, t, law.tail)


def dense_density(law, t):
    """f_X(t) = init e^{gen t} (-gen tail) by one dense matrix exponential
    per point."""
    return _dense_eval(law, t, -law.gen @ law.tail)


def _dense_eval(law, t, vec):
    ts = np.asarray(t, dtype=float)
    vals = np.array([law.init @ expm(law.gen * x) @ vec for x in ts.ravel()])
    return float(vals[0]) if ts.ndim == 0 else vals


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


def random_family_member(m, steps, rng):
    """A random valid table of F_m: a walk of at most ``steps`` single
    increments (``policy.increment_edges``) from FCFS, each edge picked by
    ``rng.randrange``."""
    pol = fcfs_policy(m)
    for _ in range(steps):
        edges = list(increment_edges(pol))
        if not edges:
            break
        pol = edges[rng.randrange(len(edges))][1]
    return pol
