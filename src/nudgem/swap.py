"""Swap counts of a tagged type-2 job under Nudge-M and the resulting
mean response times.

A tagged type-2 job with window M watches the arrivals after it: the
state (i, j), i + j <= M, counts the type-1 and type-2 arrivals seen, and
the layer i + j = M absorbs. Every swap-count law is one operator,
`_add_arrivals`, applied to a grid over those states: it adds a random
number N of arrivals, each type-1 w.p. p, counted up to the absorbing
layer. N is Poisson(lambda s) after a workload s; `_count_law` gives
its law averaged over the workload an arriving job finds, and over one
type-1 service for each swap. A grid starts as a
point mass at (0, 0); after k swaps its i = 0 mass is P[X_swap = k], and
the i >= 1 mass, less the passing job, is carried through that job's
service. Every mean is pmf . (0, 1, ..., M).

Cost: O(M^4) flops and O(M^2) memory for a law, plus M solves of order
n1 + n2 or n1; no matrix of order chain_size(M) is formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import phtype
from .phtype import JobMix, MatrixExpDist


def chain_size(k: int) -> int:
    """Number of states (i, j) with i + j <= k."""
    return (k + 1) * (k + 2) // 2


def _state_index(k: int):
    """Lexicographic state order for window k: (0,0), (0,1), ..., (0,k),
    (1,0), ..., so that dropping the first k+1 states leaves the window
    k-1 chain."""
    states = []
    for i in range(k + 1):
        for j in range(k + 1 - i):
            states.append((i, j))
    return states


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


def _service_law(mix: JobMix, k: int) -> np.ndarray:
    """Arrivals during one type-1 service, counted up to k."""
    return _count_law(mix.ph1.alpha, mix.ph1.S, mix.ph1.exit, mix.lam, k)


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


def _arrival_grid(mix: JobMix, m: int, s: float) -> np.ndarray:
    """Window-m grid e_1' e^{W_m s}: N ~ Poisson(lambda s) arrivals during
    the workload s."""
    w = phtype.poisson_weights(mix.lam * s)
    law = np.zeros(m + 1)
    n = min(m, w.shape[0])
    law[:n] = w[:n]
    law[m] = w[m:].sum()  # P[N >= M]
    return _start_grid(law, mix.p)


def initial_distribution(mix: JobMix, m: int, s: float) -> np.ndarray:
    """Row vector e_1' e^{W_m s} over the window-m states in `_state_index`
    order."""
    i, j = np.array(_state_index(m)).T
    return _arrival_grid(mix, m, s)[i + j, i]


# How far a swap pmf entry may fall below zero, or the pmf's sum miss 1,
# by rounding. A scan over exp, hyperexp, Erlang-2, Erlang-20 and random
# phase-type mixes, M up to 24 and s up to 2000 saw no entry below zero
# and sums off by at most 2.4e-15 up to lambda = 0.99. The unconditional
# pmf's error grows like 2.4e-16 / (1 - lambda) with the size of
# (-T)^{-1} 1 (2.4e-13 at lambda = 0.999, 2.3e-11 at 0.99999).
PMF_TOL = 1e-10


def _swap_pmf_from(mix: JobMix, grid: np.ndarray) -> np.ndarray:
    """P[X_swap = k], k = 0..M, for a tagged type-2 job whose window-M
    counting chain has the law `grid` when the work it found is done.

    After k swaps the grid has window M - k. Its i = 0 mass (no type-1
    arrival passed the job) ends the wait at k swaps; its i >= 1 mass
    starts swap k + 1, whose type-1 job leaves the window (grid[1:, 1:])
    while the arrivals during its service are added. After swap M the
    window is spent, and the mass left is P[X_swap = M].
    """
    m = grid.shape[0] - 1
    if m < 1:
        raise ValueError("window m must be >= 1")
    law = _service_law(mix, m - 1)
    pmf = np.empty(m + 1)
    for k in range(m):
        pmf[k] = grid[:, 0].sum()
        grid = _add_arrivals(grid[1:, 1:], law, mix.p)
    pmf[m] = grid.sum()
    if pmf.min() < -PMF_TOL or abs(pmf.sum() - 1.0) > PMF_TOL:
        raise FloatingPointError(
            f"swap pmf sums to 1 {pmf.sum() - 1.0:+.3g} with least entry "
            f"{pmf.min():.3g}: the counting chain lost or made mass")
    return pmf


def swap_pmf(mix: JobMix, m: int, s: float) -> np.ndarray:
    """Distribution of the number of swaps for a tagged type-2 job that
    sees workload s on arrival; entries k = 0..M."""
    if s < 0:
        raise ValueError("workload s must be >= 0")
    return _swap_pmf_from(mix, _arrival_grid(mix, m, s))


def unconditional_swap_pmf(mix: JobMix, m: int) -> np.ndarray:
    """P[X_swap = k] for an arriving type-2 job, mixing over the workload Z
    it observes: arrivals during Z (density lambda beta e^{Ts} 1), plus the
    empty system's 1 - lambda with none."""
    law = _count_law(mix.lam * mix.beta, mix.T, np.ones(mix.T.shape[0]),
                     mix.lam, m)
    law[0] += 1.0 - mix.lam
    return _swap_pmf_from(mix, _start_grid(law, mix.p))


def mean_swaps(mix: JobMix, m: int) -> float:
    """Unconditional mean swap count of a tagged type-2 job."""
    pmf = unconditional_swap_pmf(mix, m)
    return float(pmf @ np.arange(pmf.shape[0]))


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
    """E[R] = 1 + lambda beta T^{-2} 1."""
    t_mat = mix.T
    ones = np.ones(t_mat.shape[0])
    v = np.linalg.solve(t_mat, np.linalg.solve(t_mat, ones))
    return float(1.0 + mix.lam * mix.beta @ v)


@dataclass(frozen=True)
class MeanResponseReport:
    nudge: float
    fcfs: float
    mean_swaps: float
    mtir: float


def mean_response(mix: JobMix, m: int) -> MeanResponseReport:
    """Mean response time of Nudge-M and FCFS, with
    E[R_Nudge-M] = E[R] + (1-p) E[X_swap] (E[X1] - E[X2])."""
    if mix.p >= 1.0:
        raise ValueError("mean_response requires p < 1 (a tagged type-2 job)")
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
    if p >= 1.0:
        w = resid / (1.0 - rho1)
        return w + mix.e1
    w1 = resid / (1.0 - rho1)
    w2 = resid / ((1.0 - rho1) * (1.0 - rho1 - rho2))
    return p * (w1 + mix.e1) + (1.0 - p) * (w2 + mix.e2)
