"""Exact waiting- and response-time distributions of type-2 jobs under
Nudge-M.

The extra waiting time of a tagged type-2 job that sees workload s on
arrival is phase-type on one counting chain, W_{M-1}, run alongside the
type-1 service in progress; embedding the workload process, on W_M,
alongside it gives closed matrix-exponential forms for the full
distributions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .phtype import JobMix, MatrixExpDist, kron_sum


def chain_size(k: int) -> int:
    """Number of states (i, j) with i + j <= k."""
    return (k + 1) * (k + 2) // 2


def _state_index(k: int):
    """Lexicographic state order for window k: (0,0), (0,1), ..., (0,k),
    (1,0), ..., so that dropping the first k+1 states leaves the window
    k-1 chain."""
    return [(i, j) for i in range(k + 1) for j in range(k + 1 - i)]


def counting_matrix(k: int, lam: float, p: float) -> np.ndarray:
    """Rate matrix W_k of the arrival-counting chain with window k."""
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


def build_extra_wait(mix: JobMix, m: int, w: np.ndarray) -> np.ndarray:
    """Subgenerator Q = W_{M-1} (+) S1 + J x s1* alpha1 of the extra wait.

    State (i, j): a type-1 job is in service, i more will pass the tag and
    1 + i + j arrivals have been counted. A service end moves (i, j) to
    (i - 1, j + 1) by J, or ends the wait at i = 0. The number served drops
    out, as the future depends on i and the count only: this is the chain
    of blocks W_{M-k} (+) S1, one per served count k, lumped (Kemeny &
    Snell, Finite Markov Chains, 1960, 6.3). W_{M-1} is the trailing
    chain_size(M - 1) block of w = W_M."""
    if m < 1:
        raise ValueError("window m must be >= 1")
    idx = {s: r for r, s in enumerate(_state_index(m - 1))}
    c = len(idx)
    served = np.zeros((c, c))  # J
    for (i, j), r in idx.items():
        if i:
            served[r, idx[(i - 1, j + 1)]] = 1.0
    return kron_sum(w[-c:, -c:], mix.ph1.S) + np.kron(
        served, np.outer(mix.ph1.exit, mix.ph1.alpha))  # s1* alpha1


@dataclass(frozen=True)
class W2Model:
    """Embedded chain for the type-2 waiting time: the workload process
    runs jointly with the counting chain W_M, then hands over to the
    extra-wait phases on W_{M-1}, so T_M has chain_size(M) n_T +
    chain_size(M - 1) n1 states. w2 is the law of W_2,
    P[W_2 > t] = (e_1' x lambda beta, 0) e^{T_M t} v_2, and
    r2 = w2.plus(ph2) the law of R_2."""

    w2: MatrixExpDist
    r2: MatrixExpDist

    @property
    def t_m(self) -> np.ndarray:
        return self.w2.gen


def build_w2_model(mix: JobMix, m: int) -> W2Model:
    """Assemble T_M = [[W_M (+) T, (U_M x 1 alpha1, 0)], [0, Q]] with
    terminal vector v_2 = [1_W x (-T)^{-1} 1; 1]."""
    w = counting_matrix(m, mix.lam, mix.p)
    q = build_extra_wait(mix, m, w)
    t_mat = mix.T
    nw = chain_size(m)
    nt = t_mat.shape[0]
    n_top = nw * nt
    size = n_top + q.shape[0]
    t_m = np.zeros((size, size))
    t_m[:n_top, :n_top] = kron_sum(w, t_mat)
    # U_M x 1 alpha1
    t_m[(m + 1) * nt: n_top, n_top:] = np.kron(
        np.eye(chain_size(m - 1)), np.outer(np.ones(nt), mix.ph1.alpha))
    t_m[n_top:, n_top:] = q

    v2 = np.ones(size)
    v2[:n_top] = np.tile(np.linalg.solve(-t_mat, np.ones(nt)), nw)

    init = np.zeros(size)
    init[:nt] = mix.lam * mix.beta  # e_1' x lambda beta
    w2 = MatrixExpDist(init, t_m, v2)
    return W2Model(w2=w2, r2=w2.plus(mix.ph2))
