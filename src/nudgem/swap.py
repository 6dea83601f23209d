"""Swap counts of a tagged type-2 job under Nudge-M and the resulting
mean response times.

The core object is a layered counting chain on states (i, j) with
i + j <= k (i type-1 and j type-2 arrivals observed), absorbing on the
i + j = k layer. Removing the i = 0 states of the chain for window k
yields the chain for window k - 1, which the closed-form expressions
exploit.

Every swap-count law is one push of a probability row vector over the
window-M states through the per-swap transfer matrices. The law at
workload s starts from e_1' e^{W_M s}; the law of an arriving type-2 job
starts from closed-form workload weights (M solves with lambda I - T).
Every mean is pmf . (0, 1, ..., M). Cost: `build_swap_chain` makes one
dense inverse of order chain_size(M - 1) n1, O(M^6 n1^3), and keeps the
dense W_0..W_M; a push is M vector-matrix products, O(M^5) in all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from . import phtype
from .phtype import JobMix, MatrixExpDist, kron_prod, kron_sum


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


def counting_matrix(k: int, lam: float, p: float) -> np.ndarray:
    """Rate matrix of the arrival-counting chain with window k."""
    states = _state_index(k)
    idx = {s: r for r, s in enumerate(states)}
    w = np.zeros((len(states), len(states)))
    for (i, j), r in idx.items():
        if i + j >= k:
            continue  # absorbing layer
        w[r, r] = -lam
        w[r, idx[(i + 1, j)]] = lam * p
        w[r, idx[(i, j + 1)]] = lam * (1.0 - p)
    return w


def selector_matrix(k: int) -> np.ndarray:
    """U_k = [0; I]: removes the first k+1 (i = 0) coordinates."""
    n, m = chain_size(k), chain_size(k - 1)
    u = np.zeros((n, m))
    u[k + 1:, :] = np.eye(m)
    return u


def _layer_split(m: int, p: float, layer_mass: np.ndarray) -> np.ndarray:
    """Row vector over the window-m states (i, j) that gives layer
    n = i + j the mass layer_mass[n], split over i ~ Binomial(n, p)."""
    binom = np.zeros((m + 1, m + 1))  # binom[n, i] = C(n, i) p^i (1-p)^(n-i)
    binom[0, 0] = 1.0
    for n in range(1, m + 1):
        binom[n] = (1.0 - p) * binom[n - 1]
        binom[n, 1:] += p * binom[n - 1, :-1]
    i, j = np.array(_state_index(m)).T
    return layer_mass[i + j] * binom[i + j, i]


@dataclass(frozen=True)
class SwapChain:
    """Precomputed counting chains W_0..W_M and the per-swap transfer
    matrices."""

    m: int
    mix: JobMix
    w: List[np.ndarray]          # W_0 .. W_M
    transfer: List[np.ndarray]   # step ell: (U_{M-ell} x alpha1)(-(W_{M-ell-1} (+) S1))^{-1}(I x s1*)

    def initial_distribution(self, s: float) -> np.ndarray:
        """Row vector e_1' e^{W_M s}: the chain state is (#type-1,
        #type-2) among the first min(N, M) of the N ~ Poisson(lambda s)
        arrivals during s."""
        w = phtype.poisson_weights(self.mix.lam * s)
        layer = np.zeros(self.m + 1)
        n = min(self.m, w.shape[0])
        layer[:n] = w[:n]
        layer[self.m] = w[self.m:].sum()  # P[N >= M]
        return _layer_split(self.m, self.mix.p, layer)


def build_swap_chain(mix: JobMix, m: int) -> SwapChain:
    """Build all counting chains and per-swap transfer matrices.

    Step ell needs the inverse of -(W_k (+) S1) for its own window
    k = M - ell - 1. The operators nest (window k is the trailing block of
    window k+1, and all are block upper triangular), so one dense inverse
    for k = M - 1, costing O(M^6 n1^3), holds every step's inverse as a
    trailing block.
    """
    if m < 1:
        raise ValueError("window m must be >= 1")
    lam, p = mix.lam, mix.p
    w = [counting_matrix(k, lam, p) for k in range(m + 1)]

    s1 = mix.ph1.S
    alpha1 = mix.ph1.alpha.reshape(1, -1)
    s1_star = mix.ph1.exit.reshape(-1, 1)

    inv_largest = np.linalg.inv(-kron_sum(w[m - 1], s1))
    transfer = []
    for ell in range(m):
        k = m - ell - 1  # window of the chain run during the swap service
        n = chain_size(k) * mix.n1
        inv = inv_largest[-n:, -n:]
        left = kron_prod(selector_matrix(m - ell), alpha1)
        right = kron_prod(np.eye(chain_size(k)), s1_star)
        transfer.append(left @ inv @ right)
    return SwapChain(m=m, mix=mix, w=w, transfer=transfer)


# How far a swap pmf entry may fall below zero, or the pmf's sum miss 1,
# by rounding. A scan over exp, hyperexp, Erlang-2, Erlang-20 and random
# phase-type mixes, M up to 24 and s up to 2000 saw no entry below zero
# and sums off by at most 2.4e-15 up to lambda = 0.99. The unconditional
# pmf's error grows like 2.4e-16 / (1 - lambda) with the size of
# (-T)^{-1} 1 (2.4e-13 at lambda = 0.999, 2.3e-11 at 0.99999).
PMF_TOL = 1e-10


def _swap_pmf_from(chain: SwapChain, row: np.ndarray) -> np.ndarray:
    """P[X_swap = k], k = 0..M, for a tagged type-2 job whose window-M
    counting chain has the law `row` (a probability row vector) when the
    work it found is done.

    Push `row` through the swaps from the left: after k swaps it is a
    window-(M-k) vector. Its i = 0 entries (no type-1 arrival passed the
    job) end the wait at k swaps; its i >= 1 entries start swap k + 1,
    and transfer[k] carries them to the window-(M-k-1) vector left when
    that swap's service ends. After swap M the window is spent, so the
    i >= 1 entries of the window-1 vector are P[X_swap = M].
    """
    m = chain.m
    pmf = np.empty(m + 1)
    for k in range(m):
        pmf[k] = row[: m - k + 1].sum()
        if k < m - 1:
            row = row @ chain.transfer[k]
    pmf[m] = row[2:].sum()
    if pmf.min() < -PMF_TOL or abs(pmf.sum() - 1.0) > PMF_TOL:
        raise FloatingPointError(
            f"swap pmf sums to 1 {pmf.sum() - 1.0:+.3g} with least entry "
            f"{pmf.min():.3g}: the counting chain lost or made mass")
    return pmf


def _workload_weights(mix: JobMix, m: int) -> np.ndarray:
    """Row vector integral of e_1' e^{W_M s} against the law of the workload
    Z an arrival finds (atom 1 - lambda at 0, density lambda beta e^{Ts} 1).

    With the rows y_n = lambda^{n+1} beta (lambda I - T)^{-(n+1)}, layer
    n < M holds a_n = y_n 1, from integral of e^{-lambda s} (lambda s)^n / n!
    e^{Ts} ds = (lambda I - T)^{-(n+1)} / lambda, and the empty system adds
    1 - lambda to layer 0. The absorbing layer holds sum_{n >= M} a_n =
    lambda y_{M-1} (-T)^{-1} 1, because (I - lambda (lambda I - T)^{-1})^{-1}
    (lambda I - T)^{-1} = (-T)^{-1}: a sum, not a complement, so a tiny
    mass keeps its digits.
    """
    lam, t_mat = mix.lam, mix.T
    res = lam * np.eye(t_mat.shape[0]) - t_mat
    layer = np.empty(m + 1)
    y = mix.beta
    for n in range(m):
        y = lam * np.linalg.solve(res.T, y)
        layer[n] = y.sum()
    layer[m] = lam * y @ np.linalg.solve(-t_mat, np.ones(t_mat.shape[0]))
    layer[0] += 1.0 - lam
    return _layer_split(m, mix.p, layer)


def swap_pmf(chain: SwapChain, s: float) -> np.ndarray:
    """Distribution of the number of swaps for a tagged type-2 job that
    sees workload s on arrival; entries k = 0..M."""
    if s < 0:
        raise ValueError("workload s must be >= 0")
    return _swap_pmf_from(chain, chain.initial_distribution(s))


def mean_swaps_at(chain: SwapChain, s: float) -> float:
    """E[X_swap(s)] = sum_k k P[X_swap(s) = k]."""
    return float(swap_pmf(chain, s) @ np.arange(chain.m + 1))


def unconditional_swap_pmf(mix: JobMix, m: int, chain: SwapChain = None) -> np.ndarray:
    """P[X_swap = k] for an arriving type-2 job, mixing over the workload
    it observes (empty system contributes mass 1 - lambda at k = 0)."""
    if chain is None:
        chain = build_swap_chain(mix, m)
    return _swap_pmf_from(chain, _workload_weights(mix, chain.m))


def mean_swaps(mix: JobMix, m: int, chain: SwapChain = None) -> float:
    """Unconditional mean swap count of a tagged type-2 job."""
    pmf = unconditional_swap_pmf(mix, m, chain)
    return float(pmf @ np.arange(pmf.shape[0]))


def workload_ccdf(mix: JobMix, t: float) -> float:
    """P[Z > t] = lambda alpha e^{Tt} (-S)^{-1} 1 = lambda beta e^{Tt}
    (-T)^{-1} 1; both forms computed, must agree to 1e-10."""
    if t < 0:
        raise ValueError("t must be >= 0")
    ones = np.ones(mix.T.shape[0])
    a = MatrixExpDist(mix.lam * mix.alpha, mix.T, np.linalg.solve(-mix.S, ones)).ccdf(t)
    b = MatrixExpDist(mix.lam * mix.beta, mix.T, np.linalg.solve(-mix.T, ones)).ccdf(t)
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


def mean_response(mix: JobMix, m: int, chain: SwapChain = None) -> MeanResponseReport:
    """Mean response time of Nudge-M and FCFS, with
    E[R_Nudge-M] = E[R] + (1-p) E[X_swap] (E[X1] - E[X2])."""
    if mix.p >= 1.0:
        raise ValueError("mean_response requires p < 1 (a tagged type-2 job)")
    er = fcfs_mean_response(mix)
    xs = mean_swaps(mix, m, chain)
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
