"""Type-1 waiting and response times via a Markov-modulated fluid queue
with jumps.

The fluid level represents the virtual waiting time of a type-1 arrival;
type-2 jobs at the back of the queue that could still be passed are held
in the background state instead of the fluid. Models are provided for
FCFS, Nudge-1 and general Nudge-M; the stationary fluid distribution
comes from the minimal nonnegative solution of an algebraic Riccati
equation, solved with the structure-preserving doubling algorithm (SDA).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .phtype import JobMix, MatrixExpDist

# Riccati stopping criteria.
RICCATI_STEP_TOL = 1e-14
RICCATI_RESIDUAL_TOL = 1e-12
RICCATI_MAX_ITER = 200
# State count grows as 2^m (n1 + 2 n2).
NUDGE_M_CAP = 10


class RiccatiError(RuntimeError):
    """SDA failed to converge to the requested residual."""


class StationarySolveError(RuntimeError):
    """The pi_+ eigenproblem is ill-conditioned or not simple."""


@dataclass(frozen=True)
class FluidModel:
    """Partitioned matrices of an MMFQ with jumps."""

    t_mm: np.ndarray      # S- x S-
    t_mp: np.ndarray      # S- x S+
    t_pm: np.ndarray      # S+ x S-
    t_pp: np.ndarray      # S+ x S+
    t_star_00: np.ndarray  # S0 x S0
    t_star_0p: np.ndarray  # S0 x S+
    p_m0: np.ndarray      # S- x S0
    p_mp: np.ndarray      # S- x S+

    def __post_init__(self):
        nm = self.t_mm.shape[0]
        np_ = self.t_pp.shape[0]
        n0 = self.t_star_00.shape[0]
        assert self.t_mp.shape == (nm, np_)
        assert self.t_pm.shape == (np_, nm)
        assert self.t_star_0p.shape == (n0, np_)
        assert self.p_m0.shape == (nm, n0)
        assert self.p_mp.shape == (nm, np_)
        gen = np.block([[self.t_mm, self.t_mp], [self.t_pm, self.t_pp]])
        if np.max(np.abs(gen.sum(axis=1))) > 1e-10:
            raise ValueError("fluid generator rows must sum to zero")
        pr = np.hstack([self.p_m0, self.p_mp]).sum(axis=1)
        if np.max(np.abs(pr - 1.0)) > 1e-10:
            raise ValueError("boundary transition rows must sum to one")
        zr = np.hstack([self.t_star_00, self.t_star_0p]).sum(axis=1)
        if np.max(np.abs(zr)) > 1e-10:
            raise ValueError("zero-level generator rows must sum to zero")

    @property
    def n_minus(self) -> int:
        return self.t_mm.shape[0]

    @property
    def n_plus(self) -> int:
        return self.t_pp.shape[0]


def riccati_residual(model: FluidModel, psi: np.ndarray) -> float:
    res = (model.t_pm + psi @ model.t_mm + model.t_pp @ psi
           + psi @ model.t_mp @ psi)
    return float(np.linalg.norm(res, np.inf))


def solve_riccati(model: FluidModel) -> np.ndarray:
    """Minimal nonnegative solution Psi of
    T_+- + Psi T_-- + T_++ Psi + Psi T_-+ Psi = 0 via SDA.

    Cast as the M-matrix equation X C X - X D - A X + B = 0 with
    A = -T_++, D = -T_--, B = T_+-, C = T_-+.
    """
    a = -model.t_pp
    d = -model.t_mm
    b = model.t_pm
    c = model.t_mp
    m, n = a.shape[0], d.shape[0]
    gamma = max(np.max(np.diag(a)), np.max(np.diag(d)))
    a_g = a + gamma * np.eye(m)
    d_g = d + gamma * np.eye(n)
    w_g = a_g - b @ np.linalg.solve(d_g, c)
    v_g = d_g - c @ np.linalg.solve(a_g, b)
    e = np.eye(n) - 2.0 * gamma * np.linalg.inv(v_g)
    f = np.eye(m) - 2.0 * gamma * np.linalg.inv(w_g)
    g = 2.0 * gamma * np.linalg.solve(d_g, c) @ np.linalg.inv(w_g)
    h = 2.0 * gamma * np.linalg.solve(w_g, b) @ np.linalg.inv(d_g)

    prev = h.copy()
    for _ in range(RICCATI_MAX_ITER):
        igh = np.linalg.inv(np.eye(n) - g @ h)
        ihg = np.linalg.inv(np.eye(m) - h @ g)
        e_new = e @ igh @ e
        f_new = f @ ihg @ f
        g_new = g + e @ igh @ g @ f
        h_new = h + f @ ihg @ h @ e
        e, f, g, h = e_new, f_new, g_new, h_new
        step = np.linalg.norm(h - prev, np.inf)
        prev = h.copy()
        if step <= RICCATI_STEP_TOL or riccati_residual(model, h) <= RICCATI_RESIDUAL_TOL:
            break
    psi = h
    res = riccati_residual(model, psi)
    if res > RICCATI_RESIDUAL_TOL:
        raise RiccatiError(f"SDA did not converge (residual {res:.3e})")
    return np.clip(psi, 0.0, None)


@dataclass(frozen=True)
class FluidSolution:
    """Stationary fluid: Psi, the zero-level mass c0 and the law of the
    level W_1, P[W_1 > t] = pi_+ e^{Kt} (-K)^{-1} Psi 1."""

    model: FluidModel
    psi: np.ndarray
    c0: float
    w1: MatrixExpDist

    def w1_ccdf(self, t):
        """P[W_1 > t] at a scalar t or on a 1-D grid."""
        return self.w1.ccdf(t)


def stationary_fluid(model: FluidModel) -> FluidSolution:
    """Stationary distribution of the fluid with jumps: the law of W_1 from
    K and pi_+ (left eigenvector of Psi P~ at eigenvalue 1, normalized so
    eta = 1), and the zero-level mass c0."""
    psi = solve_riccati(model)
    p_tilde = model.p_mp - model.p_m0 @ np.linalg.solve(model.t_star_00,
                                                        model.t_star_0p)
    k = model.t_pp + psi @ model.t_mp

    mat = psi @ p_tilde  # S+ x S+
    vals, vecs = np.linalg.eig(mat.T)
    dist = np.abs(vals - 1.0)
    idx = int(np.argmin(dist))
    if dist[idx] > 1e-8:
        raise StationarySolveError(
            f"no eigenvalue of Psi P~ near 1 (closest {vals[idx]:.6g})")
    if np.sum(dist < 1e-8) > 1:
        raise StationarySolveError("eigenvalue 1 of Psi P~ is not simple")
    pi = vecs[:, idx].real
    if pi.sum() < 0:
        pi = -pi
    if np.any(pi < -1e-8 * np.max(np.abs(pi))):
        raise StationarySolveError("pi_+ eigenvector is not sign-definite")
    pi = np.clip(pi, 0.0, None)

    ones_m = np.ones(model.n_minus)
    ones_0 = np.ones(model.t_star_00.shape[0])
    boundary = psi @ model.p_m0 @ np.linalg.solve(model.t_star_00, ones_0)
    tail = np.linalg.solve(-k, psi @ ones_m)  # (-K)^{-1} Psi 1
    eta = float(pi @ (tail - boundary))
    if eta <= 0:
        raise StationarySolveError(f"normalizing constant eta = {eta:.3e} <= 0")
    pi = pi / eta
    c0 = -float(pi @ boundary)
    if not (0.0 < c0 < 1.0):
        raise StationarySolveError(f"zero-level mass c0 = {c0:.6g} outside (0, 1)")
    w1 = MatrixExpDist(pi, k, tail)
    return FluidSolution(model=model, psi=psi, c0=c0, w1=w1)


# ---------------------------------------------------------------------------
# Model constructions
# ---------------------------------------------------------------------------

def build_fcfs_fluid(mix: JobMix) -> FluidModel:
    """FCFS: the fluid is exactly the workload."""
    lam = mix.lam
    alpha = mix.alpha.reshape(1, -1)
    n = mix.n1 + mix.n2
    return FluidModel(
        t_mm=np.array([[-lam]]),
        t_mp=lam * alpha,
        t_pm=mix.exit.reshape(-1, 1),
        t_pp=mix.S,
        t_star_00=np.array([[-lam]]),
        t_star_0p=lam * alpha,
        p_m0=np.array([[1.0]]),
        p_mp=np.zeros((1, n)),
    )


def build_nudge1_fluid(mix: JobMix) -> FluidModel:
    """Nudge-1 with the two-state S- and four S+ subsets.

    S- state 0: no passable type-2 job at the back; state 1: one such job
    whose work is not yet in the fluid. Subsets of S+: (1) add a type-1
    job, (2) add a type-2 then a type-1 job, (3) add a type-2 job and
    return to state 1, (4) add a type-2 job and return to state 0 (used
    when the fluid hits zero in state 1).
    """
    lam, p = mix.lam, mix.p
    n1, n2 = mix.n1, mix.n2
    a1 = mix.ph1.alpha.reshape(1, -1)
    a2 = mix.ph2.alpha.reshape(1, -1)
    s1, s2 = mix.ph1.S, mix.ph2.S
    e1, e2 = mix.ph1.exit.reshape(-1, 1), mix.ph2.exit.reshape(-1, 1)
    np_tot = n1 + 3 * n2
    o1, o2, o3, o4 = 0, n1, n1 + n2, n1 + 2 * n2

    t_mm = np.array([[-lam, lam * (1 - p)], [0.0, -lam]])
    t_mp = np.zeros((2, np_tot))
    t_mp[0, o1: o1 + n1] = lam * p * a1
    t_mp[1, o2: o2 + n2] = lam * p * a2
    t_mp[1, o3: o3 + n2] = lam * (1 - p) * a2

    t_pp = np.zeros((np_tot, np_tot))
    t_pp[o1: o1 + n1, o1: o1 + n1] = s1
    t_pp[o2: o2 + n2, o1: o1 + n1] = e2 @ a1
    t_pp[o2: o2 + n2, o2: o2 + n2] = s2
    t_pp[o3: o3 + n2, o3: o3 + n2] = s2
    t_pp[o4: o4 + n2, o4: o4 + n2] = s2

    t_pm = np.zeros((np_tot, 2))
    t_pm[o1: o1 + n1, 0] = e1.ravel()
    t_pm[o3: o3 + n2, 1] = e2.ravel()
    t_pm[o4: o4 + n2, 0] = e2.ravel()

    t_star_0p = np.zeros((1, np_tot))
    t_star_0p[0, o1: o1 + n1] = lam * p * a1
    t_star_0p[0, o4: o4 + n2] = lam * (1 - p) * a2

    p_m0 = np.array([[1.0], [0.0]])
    p_mp = np.zeros((2, np_tot))
    p_mp[1, o4: o4 + n2] = a2

    return FluidModel(t_mm=t_mm, t_mp=t_mp, t_pm=t_pm, t_pp=t_pp,
                      t_star_00=np.array([[-lam]]), t_star_0p=t_star_0p,
                      p_m0=p_m0, p_mp=p_mp)


def _shift(s: Tuple[int, ...], v: int) -> Tuple[int, ...]:
    return (v,) + s[:-1]


def _dec(s: Tuple[int, ...]) -> Tuple[int, ...]:
    out = list(s)
    for i in range(len(out) - 1, -1, -1):
        if out[i]:
            out[i] = 0
            return tuple(out)
    raise ValueError("dec of the all-zero state")


@dataclass(frozen=True)
class NudgeMLayout:
    """Canonical state enumeration shared between model build and tests.

    S- holds all bit-vectors s in binary order (s_1 the most significant
    bit; s_i = 1 iff the i-th last arrival is a still-waiting type-2 job).
    S+ concatenates subsets 1 (s_1 = 0, type-1 phases), 2 (s_1 = 0,
    type-2 phases) and 3 (all s, type-2 phases).
    """
    m: int
    n1: int
    n2: int
    minus_index: Dict[Tuple[int, ...], int]
    plus_offsets: Tuple[int, int, int]
    plus_index: Dict[Tuple[Tuple[int, ...], int], int]  # (s, subset) -> offset of phase block
    n_plus: int

    @classmethod
    def build(cls, m: int, n1: int, n2: int) -> "NudgeMLayout":
        states = list(itertools.product((0, 1), repeat=m))
        minus_index = {s: i for i, s in enumerate(states)}
        half = [s for s in states if s[0] == 0]
        plus_index = {}
        pos = 0
        off1 = pos
        for s in half:
            plus_index[(s, 1)] = pos
            pos += n1
        off2 = pos
        for s in half:
            plus_index[(s, 2)] = pos
            pos += n2
        off3 = pos
        for s in states:
            plus_index[(s, 3)] = pos
            pos += n2
        return cls(m=m, n1=n1, n2=n2, minus_index=minus_index,
                   plus_offsets=(off1, off2, off3), plus_index=plus_index,
                   n_plus=pos)


def build_nudge_m_fluid(mix: JobMix, m: int) -> FluidModel:
    """Nudge-M fluid model: the background state remembers which of the
    last m arrivals are still-waiting type-2 jobs."""
    if not (1 <= m <= NUDGE_M_CAP):
        raise ValueError(f"window m must be in 1..{NUDGE_M_CAP}")
    layout = NudgeMLayout.build(m, mix.n1, mix.n2)
    lam, p = mix.lam, mix.p
    n1, n2 = mix.n1, mix.n2
    a1, a2 = mix.ph1.alpha, mix.ph2.alpha
    s1, s2 = mix.ph1.S, mix.ph2.S
    e1, e2 = mix.ph1.exit, mix.ph2.exit
    nm = 2 ** m
    npl = layout.n_plus
    mi = layout.minus_index
    pi = layout.plus_index

    t_mm = -lam * np.eye(nm)
    t_mp = np.zeros((nm, npl))
    for s, r in mi.items():
        if s[-1] == 0:
            t_mm[r, mi[_shift(s, 1)]] += lam * (1 - p)
            o = pi[(_shift(s, 0), 1)]
            t_mp[r, o: o + n1] += lam * p * a1
        else:
            o = pi[(_shift(s, 0), 2)]
            t_mp[r, o: o + n2] += lam * p * a2
            o = pi[(_shift(s, 1), 3)]
            t_mp[r, o: o + n2] += lam * (1 - p) * a2

    t_pp = np.zeros((npl, npl))
    t_pm = np.zeros((npl, nm))
    for (s, sub), o in pi.items():
        if sub == 1:
            t_pp[o: o + n1, o: o + n1] = s1
            t_pm[o: o + n1, mi[s]] = e1
        elif sub == 2:
            t_pp[o: o + n2, o: o + n2] = s2
            o1 = pi[(s, 1)]
            t_pp[o: o + n2, o1: o1 + n1] = np.outer(e2, a1)
        else:
            t_pp[o: o + n2, o: o + n2] = s2
            t_pm[o: o + n2, mi[s]] = e2

    zero = (0,) * m
    t_star_00 = np.array([[-lam]])
    t_star_0p = np.zeros((1, npl))
    o = pi[(zero, 1)]
    t_star_0p[0, o: o + n1] = lam * p * a1
    o = pi[(zero, 3)]
    t_star_0p[0, o: o + n2] = lam * (1 - p) * a2

    p_m0 = np.zeros((nm, 1))
    p_mp = np.zeros((nm, npl))
    for s, r in mi.items():
        if s == zero:
            p_m0[r, 0] = 1.0
        else:
            o = pi[(_dec(s), 3)]
            p_mp[r, o: o + n2] = a2

    return FluidModel(t_mm=t_mm, t_mp=t_mp, t_pm=t_pm, t_pp=t_pp,
                      t_star_00=t_star_00, t_star_0p=t_star_0p,
                      p_m0=p_m0, p_mp=p_mp)
