"""Exact waiting- and response-time distributions of type-2 jobs under
Nudge-M.

The extra waiting time of a tagged type-2 job that sees workload s on
arrival is phase-type with a block bidiagonal subgenerator built from the
swap counting chains; embedding the workload process alongside it gives
closed matrix-exponential forms for the full distributions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .phtype import JobMix, MatrixExpDist, kron_prod, kron_sum
from .swap import SwapChain, build_swap_chain, chain_size


@dataclass(frozen=True)
class BlockLayout:
    """Offsets of the M block rows of the extra-wait subgenerator.

    Block k (k = 1..M) has width |W_{M-k}| * n1; the last block reduces to
    n1 because |W_0| = 1. All block indexing lives here.
    """
    m: int
    n1: int
    offsets: List[int]
    size: int

    @classmethod
    def for_window(cls, m: int, n1: int) -> "BlockLayout":
        offsets = []
        pos = 0
        for k in range(1, m + 1):
            offsets.append(pos)
            pos += chain_size(m - k) * n1
        return cls(m=m, n1=n1, offsets=offsets, size=pos)


@dataclass(frozen=True)
class ExtraWaitModel:
    """Phase-type representation (gamma(s), Q) of the extra waiting time."""

    mix: JobMix
    chain: SwapChain
    layout: BlockLayout
    q: np.ndarray

    def gamma(self, s: float) -> np.ndarray:
        """Initial vector ((e_1' e^{W_M s} U_M) x alpha1, 0); its total
        mass is the probability of at least one swap."""
        init = self.chain.initial_distribution(s)
        head = kron_prod((init @ self.chain.u[self.chain.m]).reshape(1, -1),
                         self.mix.ph1.alpha.reshape(1, -1)).ravel()
        out = np.zeros(self.layout.size)
        out[: head.shape[0]] = head
        return out

    def ccdf(self, s: float, t: float) -> float:
        """P[W_extra(s) > t] = gamma(s) e^{Qt} 1."""
        if s < 0:
            raise ValueError("s must be >= 0")
        return MatrixExpDist(self.gamma(s), self.q, np.ones(self.layout.size)).ccdf(t)


def build_extra_wait(mix: JobMix, m: int, chain: SwapChain = None) -> ExtraWaitModel:
    """Assemble the block bidiagonal subgenerator: diagonal blocks
    W_{M-k} (+) S1, superdiagonal blocks U_{M-k} x s1* alpha1."""
    if m < 1:
        raise ValueError("window m must be >= 1")
    if chain is None:
        chain = build_swap_chain(mix, m)
    layout = BlockLayout.for_window(m, mix.n1)
    q = np.zeros((layout.size, layout.size))
    s1 = mix.ph1.S
    jump = np.outer(mix.ph1.exit, mix.ph1.alpha)  # s1* alpha1
    for k in range(1, m + 1):
        o = layout.offsets[k - 1]
        diag = kron_sum(chain.w[m - k], s1)
        q[o: o + diag.shape[0], o: o + diag.shape[0]] = diag
        if k < m:
            off = kron_prod(chain.u[m - k], jump)
            o2 = layout.offsets[k]
            q[o: o + off.shape[0], o2: o2 + off.shape[1]] = off
    return ExtraWaitModel(mix=mix, chain=chain, layout=layout, q=q)


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


def build_w2_model(mix: JobMix, m: int, chain: SwapChain = None) -> W2Model:
    """Assemble T_M = [[W_M (+) T, (U_M x 1 alpha1, 0)], [0, Q]] with
    terminal vector v_2 = [1_W x (-T)^{-1} 1; 1]."""
    if chain is None:
        chain = build_swap_chain(mix, m)
    extra = build_extra_wait(mix, m, chain)
    t_mat = mix.T
    nw = chain_size(m)
    nt = t_mat.shape[0]
    top = kron_sum(chain.w[m], t_mat)
    coupler = kron_prod(chain.u[m],
                        np.outer(np.ones(nt), mix.ph1.alpha))  # U_M x 1 alpha1
    n_top = nw * nt
    size = n_top + extra.layout.size
    t_m = np.zeros((size, size))
    t_m[:n_top, :n_top] = top
    t_m[:n_top, n_top: n_top + coupler.shape[1]] = coupler
    t_m[n_top:, n_top:] = extra.q

    v2 = np.ones(size)
    v2[:n_top] = kron_prod(np.ones(nw).reshape(-1, 1),
                           np.linalg.solve(-t_mat, np.ones(nt)).reshape(-1, 1)).ravel()

    init = np.zeros(size)
    e1 = np.zeros(nw)
    e1[0] = 1.0
    init[:n_top] = mix.lam * kron_prod(e1.reshape(1, -1),
                                       mix.beta.reshape(1, -1)).ravel()
    w2 = MatrixExpDist(init, t_m, v2)
    return W2Model(mix=mix, extra=extra, w2=w2, r2=w2.plus(mix.ph2))


def w2_ccdf(mix: JobMix, m: int, t: float) -> float:
    return build_w2_model(mix, m).w2_ccdf(t)


def r2_ccdf(mix: JobMix, m: int, t: float) -> float:
    return build_w2_model(mix, m).r2_ccdf(t)
