"""Independent oracles shared by the test modules (not collected).

Each one recomputes a package result by a slower, generic route (dense
``scipy.linalg.expm``, Sylvester iteration, adaptive quadrature) and so
does not go through ``phtype.expm`` or the evaluation of ``MatrixExpDist``
(``dense_ccdf`` and ``dense_density`` read only a law's fields).
"""

import numpy as np
from scipy.integrate import quad
from scipy.linalg import expm, solve_sylvester

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
