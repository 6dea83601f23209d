"""Exact waiting- and response-time distributions of type-2 jobs under
Nudge-M.

The extra waiting time of a tagged type-2 job that sees workload s on
arrival is phase-type with a block bidiagonal subgenerator built from the
swap counting chains; embedding the workload process alongside it gives
closed matrix-exponential forms for the full distributions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .phtype import JobMix, MatrixExpDist, kron_sum
from .swap import _arrival_law, _binomial_table


def chain_size(k: int) -> int:
    """Number of states (i, j) with i + j <= k."""
    return (k + 1) * (k + 2) // 2


def _state_index(k: int):
    """Lexicographic state order for window k: (0,0), (0,1), ..., (0,k),
    (1,0), ..., so that dropping the first k+1 states leaves the window
    k-1 chain."""
    return [(i, j) for i in range(k + 1) for j in range(k + 1 - i)]


def initial_distribution(mix: JobMix, m: int, s: float) -> np.ndarray:
    """Row vector e_1' e^{W_m s} over the window-m states in `_state_index`
    order: N ~ Poisson(lambda s) arrivals, counted up to the absorbing
    layer, put P[N = n] Bin(n, p)(i) on the state (i, n - i)."""
    i, j = np.array(_state_index(m)).T
    return _arrival_law(mix, m, s)[i + j] * _binomial_table(m, mix.p)[i + j, i]


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


def selector_matrix(k: int) -> np.ndarray:
    """U_k = [0; I]: removes the first k+1 (i = 0) coordinates."""
    n, m = chain_size(k), chain_size(k - 1)
    u = np.zeros((n, m))
    u[k + 1:, :] = np.eye(m)
    return u


@dataclass(frozen=True)
class ExtraWaitModel:
    """Phase-type representation (gamma(s), Q) of the extra waiting time."""

    mix: JobMix
    m: int
    q: np.ndarray

    def gamma(self, s: float) -> np.ndarray:
        """Initial vector ((e_1' e^{W_M s} U_M) x alpha1, 0); its total
        mass is the probability of at least one swap."""
        # U_M drops the first M + 1 (i = 0) coordinates
        init = initial_distribution(self.mix, self.m, s)[self.m + 1:]
        head = np.kron(init, self.mix.ph1.alpha)
        out = np.zeros(self.q.shape[0])
        out[: head.shape[0]] = head
        return out

    def ccdf(self, s: float, t: float) -> float:
        """P[W_extra(s) > t] = gamma(s) e^{Qt} 1."""
        if s < 0:
            raise ValueError("s must be >= 0")
        return MatrixExpDist(self.gamma(s), self.q, np.ones(self.q.shape[0])).ccdf(t)


def build_extra_wait(mix: JobMix, m: int) -> ExtraWaitModel:
    """Assemble the block bidiagonal subgenerator: diagonal blocks
    W_{M-k} (+) S1, superdiagonal blocks U_{M-k} x s1* alpha1. Block k
    (k = 1..M) has width chain_size(M - k) n1."""
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
    return ExtraWaitModel(mix=mix, m=m, q=q)


@dataclass(frozen=True)
class W2Model:
    """Embedded chain for the type-2 waiting time: the workload process
    runs jointly with the counting chain, then hands over to the
    extra-wait phases. w2 is the law of W_2, and r2 = w2.plus(ph2) the
    law of R_2."""

    mix: JobMix
    extra: ExtraWaitModel
    w2: MatrixExpDist
    r2: MatrixExpDist

    @property
    def t_m(self) -> np.ndarray:
        return self.w2.gen

    def w2_ccdf(self, t):
        """P[W_2 > t] = (e_1' x lambda beta, 0) e^{T_M t} v_2, at a scalar t
        or on a 1-D grid."""
        return self.w2.ccdf(t)

    def r2_ccdf(self, t):
        """P[R_2 > t] at a scalar t or on a 1-D grid."""
        return self.r2.ccdf(t)


def build_w2_model(mix: JobMix, m: int) -> W2Model:
    """Assemble T_M = [[W_M (+) T, (U_M x 1 alpha1, 0)], [0, Q]] with
    terminal vector v_2 = [1_W x (-T)^{-1} 1; 1]."""
    extra = build_extra_wait(mix, m)
    t_mat = mix.T
    nw = chain_size(m)
    nt = t_mat.shape[0]
    top = kron_sum(counting_matrix(m, mix.lam, mix.p), t_mat)
    coupler = np.kron(selector_matrix(m),
                      np.outer(np.ones(nt), mix.ph1.alpha))  # U_M x 1 alpha1
    n_top = nw * nt
    size = n_top + extra.q.shape[0]
    t_m = np.zeros((size, size))
    t_m[:n_top, :n_top] = top
    t_m[:n_top, n_top: n_top + coupler.shape[1]] = coupler
    t_m[n_top:, n_top:] = extra.q

    v2 = np.ones(size)
    v2[:n_top] = np.tile(np.linalg.solve(-t_mat, np.ones(nt)), nw)

    init = np.zeros(size)
    init[:nt] = mix.lam * mix.beta  # e_1' x lambda beta
    w2 = MatrixExpDist(init, t_m, v2)
    return W2Model(mix=mix, extra=extra, w2=w2, r2=w2.plus(mix.ph2))
