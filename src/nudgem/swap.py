"""Swap counts of a tagged type-2 job under Nudge-M and the resulting
mean response times.

A tagged type-2 job with window M is passed by every type-1 job among
the next M arrivals that comes while it still waits; each arrival is
type-1 w.p. p. a_0 is the law of the arrivals during the work the job
finds, `_count_law`'s average over the workload an arrival finds
(Poisson(lambda s) after a fixed workload s). c is the law of the
arrivals during one type-1 service. After that work and k passing services, R_k jobs
have arrived, T_k of them type-1. The wait ends at the first k with
T_k = k, unless the window closes first (R reaches M): then every
type-1 job of the window passes, and X_swap = T_M ~ Bin(M, p).

Y_k = T_k - k is a walk with i.i.d. steps Bin(N, p) - 1 >= -1. By the
hitting-time theorem (Kemperman, The Passage Problem for a Stationary
Markov Chain, 1961; van der Hofstad & Keane, Amer. Math. Monthly 115(8),
2008), whose cycle lemma keeps the mark R_k (a cyclic shift of the
steps keeps their sum), the first hit is at step k >= 1 with R_k = r
w.p. q(k, r) = (p/k) Bin(r-1, p)(k-1) [(n a_0) * c^{*k}](r), and at
k = 0 w.p. q(0, r) = a_0(r) (1-p)^r. A hit with r < M comes before the
window closes, and the M - r arrivals after it are fresh, so

    P[X_swap = k] = sum_r q(k, r) + Bin(M, p)(k)
                    - sum_{j, r < M} q(j, r) Bin(M - r, p)(k - j).

The complement term of a hit at (j, r) has mean j + (M - r) p, so the
mean needs only s(r) = sum_k q(k, r) = P[R_tau = r], the law of the
arrival count when the wait ends:

    E[X_swap] = p (M - sum_{r < M} s(r) (M - r)).

``mean_swaps`` takes s from the power series of its pgf (``_wait_end_law``,
a busy-period recursion after Takacs, Introduction to the Theory of
Queues, 1962). Cost: O(M^3) flops and O(M^2) memory for a law (M
truncated convolutions and products with a Pascal table of Bin(n, p)),
plus M solves of order n1 + n2 or n1; O((n1 + n2) M J) flops and
O((n1 + n2) M) memory for a mean, after one inverse each of lambda I - S_1
and lambda I - T, where J <= M is how far the series u runs before it
underflows (1,173 to 3,105 on fig5a and fig5b at lambda = 0.5..0.9999).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .phtype import JobMix, MatrixExpDist


def _count_law(init, gen, v, lam: float, k: int) -> np.ndarray:
    """Law of the number N of Poisson(lambda) arrivals during a time with
    density init e^{gen t} v, counted up to k: entries a_0..a_{k-1} and
    a_k = P[N >= k] (a defective time gives a defective law).

    a_n = lambda^n init (lambda I - gen)^{-(n+1)} v, from integral of
    e^{-lambda t} (lambda t)^n / n! e^{gen t} dt = (lambda I - gen)^{-(n+1)}
    / lambda; the tail is lambda^k init (lambda I - gen)^{-k} (-gen)^{-1} v,
    because sum_{n >= 0} lambda^n (lambda I - gen)^{-(n+1)} = (-gen)^{-1}:
    a sum, not a complement, so a tiny mass keeps its digits.
    """
    res_t = (lam * np.eye(gen.shape[0]) - gen).T
    law = np.empty(k + 1)
    y = init
    for n in range(k):
        y = np.linalg.solve(res_t, y)
        law[n] = y @ v
        y = lam * y
    law[k] = y @ np.linalg.solve(-gen, v)
    return law


def _binomial_table(k: int, p: float) -> np.ndarray:
    """b[n, i] = Bin(n, p)(i) for n, i = 0..k, by Pascal's rule."""
    b = np.zeros((k + 1, k + 1))
    b[0, 0] = 1.0
    for n in range(1, k + 1):
        b[n] = (1.0 - p) * b[n - 1]
        b[n, 1:] += p * b[n - 1, :-1]
    return b


# How far a swap pmf entry may fall below zero, or the pmf's sum or an
# arrival law's mass miss 1, by rounding. On 400 random phase-type mixes
# (M up to 24, lambda up to 0.99) the least entry was -1.1e-16 and the sum
# off 1 by at most 4.4e-16 (1.6e-15 on fig5b at lambda = 0.999, M = 301).
# The workload count law's mass error grows like 2.4e-16 / (1 - lambda)
# with the size of (-T)^{-1} 1 (1.9e-11 at 0.99999 for Erlang-20 type-2).
PMF_TOL = 1e-10


def _swap_pmf_from(mix: JobMix, law: np.ndarray) -> np.ndarray:
    """P[X_swap = k], k = 0..M, for a tagged type-2 job that sees N ~ law
    arrivals during the work it finds (law[M] = P[N >= M]), by the
    hitting-time formula of the module docstring.

    [(n a_0) * c^{*k}](r) is E[N_0; R_k = r]; given N_0 and R_k = r the r
    marks are i.i.d., so E[T_0; T_k = k, R_k = r] is p Bin(r-1, p)(k-1)
    times it, and the theorem divides that by k. Both input laws must
    have mass 1: the formula sums to 1 whatever they hold.
    """
    m = law.shape[0] - 1
    c = _count_law(mix.ph1.alpha, mix.ph1.S, mix.ph1.exit, mix.lam, m)
    for what, x in (("the found work", law), ("a type-1 service", c)):
        if abs(x.sum() - 1.0) > PMF_TOL:
            raise FloatingPointError(
                f"swap pmf: the arrivals during {what} sum to 1 "
                f"{x.sum() - 1.0:+.3g}: the count law lost or made mass")
    binom = _binomial_table(m, mix.p)
    closes = binom[m:0:-1]  # Bin(M - r, p), r = 0..M-1
    g = np.arange(m) * law[:m]  # (n a_0) * c^{*k} below M
    q = law[:m] * binom[:m, 0]
    hit, comp = np.zeros(m + 1), np.zeros(m + 1)
    for k in range(m):
        if k:
            g = np.convolve(g, c[:m])[:m]
            q[1:] = mix.p / k * binom[:m - 1, k - 1] * g[1:]
            q[0] = 0.0
        hit[k] = q.sum()
        # q(k, r) = 0 for r < k, and Bin(M - r, p) ends at M - r
        comp[k:] += q[k:] @ closes[k:, :m + 1 - k]
    pmf = hit + binom[m] - comp
    if pmf.min() < -PMF_TOL or abs(pmf.sum() - 1.0) > PMF_TOL:
        raise FloatingPointError(
            f"swap pmf sums to 1 {pmf.sum() - 1.0:+.3g} with least entry "
            f"{pmf.min():.3g}: the hitting-time formula lost or made mass")
    return pmf


def unconditional_swap_pmf(mix: JobMix, m: int) -> np.ndarray:
    """P[X_swap = k] for an arriving type-2 job, mixing over the workload Z
    it observes: arrivals during Z (density lambda beta e^{Ts} 1), plus the
    empty system's 1 - rho with none."""
    if m < 1:
        raise ValueError("window m must be >= 1")
    law = _count_law(mix.lam * mix.beta, mix.T, np.ones(mix.T.shape[0]),
                     mix.lam, m)
    law[0] += 1.0 - mix.rho
    return _swap_pmf_from(mix, law)


def _wait_end_law(mix: JobMix, m: int) -> np.ndarray:
    """s(r) = P[R_tau = r], r = 0..m-1, for an arriving type-2 job: R_tau
    counts the arrivals until its wait ends, the window aside.

    Each arrival in the wait counts itself and, if of type 1, brings the
    arrivals of its service, each counted alike. So one arrival has the
    pgf u(z) = z (1 - p + p h(z)), h = C o u, where C(w) = alpha_1
    (lambda (1 - w) I - S_1)^{-1} s_1 is the pgf of the arrivals during
    one type-1 service, and R_tau has the pgf A_0(u(z)), where A_0(w) =
    1 - rho + lambda beta (lambda (1 - w) I - T)^{-1} 1 is that of the
    arrivals during the found work. x(z) = (lambda (1 - u(z)) I -
    S_1)^{-1} s_1 solves (lambda I - S_1) x = lambda u x + s_1, so

        x_0 = (lambda I - S_1)^{-1} s_1,
        x_r = lambda (lambda I - S_1)^{-1} sum_{j=1..r} u_j x_{r-j},

    h_r = alpha_1 x_r, u_1 = 1 - p + p h_0 and u_r = p h_{r-1}: u_r needs
    x up to r - 1 only, so one pass gives every term. y is the same
    series in T with 1 for s_1, and s(r) = lambda beta y_r plus 1 - rho
    at r = 0. Every term is nonnegative. A term below the least normal
    float is taken as 0, so the sums stop where u underflows: u is the
    law of the arrivals that one arrival brings into the wait, itself
    included, and it has a geometric tail, as the type-1 load is below 1.
    """
    lam, n1, n = mix.lam, mix.n1, mix.T.shape[0]
    # x and y share u: one block-diagonal resolvent steps both
    res = np.zeros((n1 + n, n1 + n))
    res[:n1, :n1] = np.linalg.inv(lam * np.eye(n1) - mix.ph1.S)
    res[n1:, n1:] = np.linalg.inv(lam * np.eye(n) - mix.T)
    xy = np.empty((m, n1 + n))
    xy[0] = res @ np.concatenate([mix.ph1.exit, np.ones(n)])
    step, alpha1, tiny = lam * res, mix.ph1.alpha, np.finfo(float).tiny
    u = np.zeros(m + 1)
    u[1] = 1.0 - mix.p
    top = 1  # u_j < tiny, taken as 0, for top < j < r
    for r in range(1, m):
        u[r] += mix.p * (alpha1 @ xy[r - 1, :n1])
        if u[r] >= tiny:
            top = r
        k = min(r, top)
        row = step @ (u[k:0:-1] @ xy[r - k:r])
        # no subnormal terms: each one takes a slow path in every later
        # product, and it is below tiny = 2.2e-308 in any case
        row[row < tiny] = 0.0
        xy[r] = row
    s = lam * (xy[:, n1:] @ mix.beta)
    s[0] += 1.0 - mix.rho
    if s.sum() > 1.0 + PMF_TOL:
        raise FloatingPointError(f"the wait-end law sums to 1 {s.sum() - 1.0:+.3g} "
                                 "below the window: the series made mass")
    return s


def mean_swaps(mix: JobMix, m: int) -> float:
    """Unconditional mean swap count of a tagged type-2 job,
    p (M - sum_{r < M} s(r) (M - r)) with s from ``_wait_end_law``.

    The sum is M P[R_tau < M] - E[R_tau; R_tau < M], so the difference
    cancels M P[R_tau < M] down to M P[R_tau >= M] + E[R_tau; R_tau < M]:
    its rounding, about M eps, costs log10 of M over that difference in
    digits (README, swap-count laws)."""
    if m < 1:
        raise ValueError("window m must be >= 1")
    s = _wait_end_law(mix, m)
    return float(mix.p * (m - s @ (m - np.arange(m))))


def workload_law(mix: JobMix) -> MatrixExpDist:
    """Law of the workload Z an arrival finds, P[Z > t] = lambda beta e^{Tt}
    (-T)^{-1} 1; under FCFS both types wait W = Z."""
    return MatrixExpDist(mix.lam * mix.beta, mix.T,
                         np.linalg.solve(-mix.T, np.ones(mix.T.shape[0])))


def workload_ccdf(mix: JobMix, t: float) -> float:
    """P[Z > t] = lambda alpha e^{Tt} (-S)^{-1} 1 = lambda beta e^{Tt}
    (-T)^{-1} 1; both forms computed, must agree to 1e-10."""
    if t < 0:
        raise ValueError("t must be >= 0")
    ones = np.ones(mix.T.shape[0])
    a = MatrixExpDist(mix.lam * mix.alpha, mix.T, np.linalg.solve(-mix.S, ones)).ccdf(t)
    b = workload_law(mix).ccdf(t)
    if abs(a - b) > 1e-10:
        raise FloatingPointError(f"workload ccdf forms disagree: {a} vs {b}")
    return a


def fcfs_mean_response(mix: JobMix) -> float:
    """E[R] = E[X] + E[Z] = E[X] + lambda beta T^{-2} 1."""
    return mix.rho / mix.lam + workload_law(mix).mean()


@dataclass(frozen=True)
class MeanResponseReport:
    nudge: float
    fcfs: float
    mean_swaps: float
    mtir: float


def mean_response(mix: JobMix, m: int) -> MeanResponseReport:
    """Mean response time of Nudge-M and FCFS, with
    E[R_Nudge-M] = E[R] + (1-p) E[X_swap] (E[X1] - E[X2]); at p = 1 the
    factor 1 - p zeroes the swap term."""
    er = fcfs_mean_response(mix)
    xs = mean_swaps(mix, m)
    ern = er + (1.0 - mix.p) * xs * (mix.e1 - mix.e2)
    return MeanResponseReport(nudge=ern, fcfs=er, mean_swaps=xs,
                              mtir=1.0 - ern / er)


def priority_mean_response(mix: JobMix) -> float:
    """Two-class non-preemptive priority (type-1 high): classical mean
    waiting times from the mean residual work. Comparison baseline only."""
    lam, p = mix.lam, mix.p
    rho1 = lam * p * mix.e1
    rho2 = lam * (1.0 - p) * mix.e2
    resid = lam * mix.second_moment() / 2.0
    w1 = resid / (1.0 - rho1)
    w2 = resid / ((1.0 - rho1) * (1.0 - rho1 - rho2))
    return p * (w1 + mix.e1) + (1.0 - p) * (w2 + mix.e2)
