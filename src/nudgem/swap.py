"""Swap counts of a tagged type-2 job under Nudge-M and the resulting
mean response times.

The core object is a layered counting chain on states (i, j) with
i + j <= k (i type-1 and j type-2 arrivals observed), absorbing on the
i + j = k layer. Removing the i = 0 states of the chain for window k
yields the chain for window k - 1, which the closed-form expressions
exploit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from . import phtype
from .phtype import JobMix, kron_prod, kron_sum


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


def accumulator_vector(k: int) -> np.ndarray:
    """F_k: ones in the first k+1 entries (the i = 0 states)."""
    f = np.zeros(chain_size(k))
    f[: k + 1] = 1.0
    return f


@dataclass(frozen=True)
class SwapChain:
    """Precomputed counting chains W_0..W_M with selectors and
    accumulators, plus the per-swap transfer matrices."""

    m: int
    mix: JobMix
    w: List[np.ndarray]          # W_0 .. W_M
    u: List[np.ndarray]          # u[0] is None; U_1 .. U_M at indices 1..M
    f: List[np.ndarray]          # F_0 .. F_M
    transfer: List[np.ndarray]   # step ell: (U_{M-ell} x alpha1)(-(W_{M-ell-1} (+) S1))^{-1}(I x s1*)
    v_swap: np.ndarray

    def initial_distribution(self, s: float) -> np.ndarray:
        """Row vector e_1' e^{W_M s} via uniformization (exact Poisson
        mixture: off-diagonal jumps occur at rate lambda everywhere)."""
        lam = self.mix.lam
        p = self.mix.p
        m = self.m
        # Probability of the first min(n, m) arrivals of a Poisson(lam s)
        # stream: the chain state is just (#type-1, #type-2) capped at m.
        out = np.zeros(chain_size(m))
        states = _state_index(m)
        idx = {st: r for r, st in enumerate(states)}
        r = lam * s
        # P[N = n] for n < m, P[N >= m] for the absorbing layer.
        tail = 1.0
        for n in range(m):
            pn = math.exp(-r) * r ** n / math.factorial(n)
            tail -= pn
            for i in range(n + 1):
                out[idx[(i, n - i)]] += pn * math.comb(n, i) * p ** i * (1 - p) ** (n - i)
        tail = max(tail, 0.0)
        for i in range(m + 1):
            out[idx[(i, m - i)]] += tail * math.comb(m, i) * p ** i * (1 - p) ** (m - i)
        return out


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
    u = [None] + [selector_matrix(k) for k in range(1, m + 1)]
    f = [accumulator_vector(k) for k in range(m + 1)]

    s1 = mix.ph1.S
    alpha1 = mix.ph1.alpha.reshape(1, -1)
    s1_star = mix.ph1.exit.reshape(-1, 1)

    inv_largest = np.linalg.inv(-kron_sum(w[m - 1], s1))
    transfer = []
    for ell in range(m):
        k = m - ell - 1  # window of the chain run during the swap service
        n = chain_size(k) * mix.n1
        inv = inv_largest[-n:, -n:]
        left = kron_prod(u[m - ell], alpha1)
        right = kron_prod(np.eye(chain_size(k)), s1_star)
        transfer.append(left @ inv @ right)

    # v_M^swap = sum_k (prod_{ell<k} transfer_ell) (1 - F_{M-k})
    v = np.zeros(chain_size(m))
    prefix = np.eye(chain_size(m))
    for k in range(m):
        ones = np.ones(chain_size(m - k))
        v += prefix @ (ones - f[m - k])
        if k < m - 1:
            prefix = prefix @ transfer[k]
    return SwapChain(m=m, mix=mix, w=w, u=u, f=f, transfer=transfer, v_swap=v)


def swap_pmf_vectors(chain: SwapChain) -> List[np.ndarray]:
    """Vectors u_k with P[X_swap(s) = k] = e_1' e^{W_M s} u_k.

    k = 0..M-1 from the transfer products; k = M by complement.
    """
    m = chain.m
    vecs = []
    prefix = np.eye(chain_size(m))
    for k in range(m):
        vecs.append(prefix @ chain.f[m - k])
        if k < m - 1:
            prefix = prefix @ chain.transfer[k]
    vecs.append(np.ones(chain_size(m)) - sum(vecs))
    return vecs


def swap_pmf(chain: SwapChain, s: float) -> np.ndarray:
    """Distribution of the number of swaps for a tagged type-2 job that
    sees workload s on arrival; entries k = 0..M."""
    if s < 0:
        raise ValueError("workload s must be >= 0")
    init = chain.initial_distribution(s)
    pmf = np.array([float(init @ v) for v in swap_pmf_vectors(chain)])
    return pmf


def mean_swaps_at(chain: SwapChain, s: float) -> float:
    """E[X_swap(s)] = e_1' e^{W_M s} v_M^swap."""
    if s < 0:
        raise ValueError("workload s must be >= 0")
    return float(chain.initial_distribution(s) @ chain.v_swap)


def mean_swaps(mix: JobMix, m: int, chain: SwapChain = None) -> float:
    """Unconditional mean swap count of a tagged type-2 job:
    -lambda (beta x e_1')(T (+) W_M)^{-1}(1 x v_M^swap)."""
    if chain is None:
        chain = build_swap_chain(mix, m)
    return _workload_average(mix, chain, chain.v_swap)


def _workload_average(mix: JobMix, chain: SwapChain, vec: np.ndarray) -> float:
    """integral of lambda beta e^{Ts} 1 . (e_1' e^{W_M s} vec) ds via the
    Kronecker closed form."""
    t_mat = mix.T
    e1 = np.zeros(chain_size(chain.m))
    e1[0] = 1.0
    left = mix.lam * kron_prod(mix.beta.reshape(1, -1), e1.reshape(1, -1))
    big = kron_sum(t_mat, chain.w[chain.m])
    rhs = kron_prod(np.ones(t_mat.shape[0]).reshape(-1, 1), vec.reshape(-1, 1))
    sol = np.linalg.solve(big, rhs)
    return float(-(left @ sol)[0, 0])


def unconditional_swap_pmf(mix: JobMix, m: int, chain: SwapChain = None) -> np.ndarray:
    """P[X_swap = k] for an arriving type-2 job, mixing over the workload
    it observes (empty system contributes mass 1 - lambda at k = 0)."""
    if chain is None:
        chain = build_swap_chain(mix, m)
    pmf = np.array([_workload_average(mix, chain, v) for v in swap_pmf_vectors(chain)])
    pmf[0] += 1.0 - mix.lam
    return pmf


def workload_ccdf(mix: JobMix, t: float) -> float:
    """P[Z > t] = lambda alpha e^{Tt} (-S)^{-1} 1 = lambda beta e^{Tt}
    (-T)^{-1} 1; both forms computed, must agree to 1e-10."""
    if t < 0:
        raise ValueError("t must be >= 0")
    t_mat = mix.T
    ones = np.ones(t_mat.shape[0])
    e_tt = phtype.expm(t_mat, t)
    a = mix.lam * mix.alpha @ e_tt @ np.linalg.solve(-mix.S, ones)
    b = mix.lam * mix.beta @ e_tt @ np.linalg.solve(-t_mat, ones)
    if abs(a - b) > 1e-10:
        raise FloatingPointError(f"workload ccdf forms disagree: {a} vs {b}")
    return float(a)


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
