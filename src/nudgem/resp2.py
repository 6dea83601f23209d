"""Exact waiting- and response-time distributions of type-2 jobs under
Nudge-M.

The extra waiting time of a tagged type-2 job that sees workload s on
arrival is phase-type with a block bidiagonal subgenerator whose blocks
are all cut from one counting chain, W_M; embedding the workload process
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
    """Block bidiagonal subgenerator Q of the extra waiting time: diagonal
    blocks W_{M-k} (+) S1, superdiagonal blocks U_{M-k} x s1* alpha1. Block k
    (k = 1..M) has width chain_size(M - k) n1.

    w is W_M = ``counting_matrix(m, ...)``: W_k is its trailing
    chain_size(k) block, and U_k = [0; I] drops the first k + 1 (i = 0)
    states, so U_k x B is I x B placed below the first k + 1 block rows.
    """
    if m < 1:
        raise ValueError("window m must be >= 1")
    n1 = mix.n1
    offsets = np.cumsum([0] + [chain_size(m - k) * n1 for k in range(1, m + 1)])
    q = np.zeros((offsets[-1], offsets[-1]))
    jump = np.outer(mix.ph1.exit, mix.ph1.alpha)  # s1* alpha1
    for k in range(1, m + 1):
        o, o2, c = offsets[k - 1], offsets[k], chain_size(m - k)
        q[o: o2, o: o2] = kron_sum(w[-c:, -c:], mix.ph1.S)
        if k < m:
            q[o + (m - k + 1) * n1: o2, o2: offsets[k + 1]] = np.kron(
                np.eye(chain_size(m - k - 1)), jump)
    return q


@dataclass(frozen=True)
class W2Model:
    """Embedded chain for the type-2 waiting time: the workload process
    runs jointly with the counting chain, then hands over to the
    extra-wait phases. w2 is the law of W_2,
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
    t_m[(m + 1) * nt: n_top, n_top: n_top + chain_size(m - 1) * mix.n1] = np.kron(
        np.eye(chain_size(m - 1)), np.outer(np.ones(nt), mix.ph1.alpha))
    t_m[n_top:, n_top:] = q

    v2 = np.ones(size)
    v2[:n_top] = np.tile(np.linalg.solve(-t_mat, np.ones(nt)), nw)

    init = np.zeros(size)
    init[:nt] = mix.lam * mix.beta  # e_1' x lambda beta
    w2 = MatrixExpDist(init, t_m, v2)
    return W2Model(w2=w2, r2=w2.plus(mix.ph2))
