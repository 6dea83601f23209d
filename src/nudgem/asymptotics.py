"""Workload decay rate and prefactor, closed-form ATIR results for
Nudge-M, heavy-traffic limits, family-wide prefactors and the brute force
optimality verifier.

All exponential-tail constants refer to P[. > t] ~ c e^{-theta_Z t} where
theta_Z is the workload decay rate, shared by every work-conserving
scheduler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .phtype import InstabilityError, JobMix
from .policy import PolicyFn, all_strings, count_twos, enumerate_policies, \
    increment_edges, nudge_km_policy, nudge_ml_policy

# Root cross-check tolerance for theta_Z.
THETA_CROSSCHECK_TOL = 1e-10
# Enumeration caps.
FAMILY_M_CAP = 6
VERIFY_M_CAP = 3


class UnsupportedSpectrumError(ValueError):
    """Dominant eigenvalue of T is complex or defective."""


class ComplexityError(ValueError):
    """The request exceeds a documented enumeration cap."""


@dataclass(frozen=True)
class DecayInfo:
    """Decay rate and prefactor of the workload, plus the two weights that
    drive every Nudge-M prefactor."""

    theta_z: float
    c_z: float
    w1: float   # p S~1(-theta_Z) / S~(-theta_Z)
    w: float    # (1-p) / S~(-theta_Z)
    s_tilde: float    # S~(-theta_Z)
    s1_tilde: float   # S~1(-theta_Z)
    s2_tilde: float   # S~2(-theta_Z)


@dataclass(frozen=True)
class AtirReport:
    c_w1: float
    c_w2: float
    atir: float


def decay_rate(mix: JobMix) -> DecayInfo:
    """Decay rate theta_Z and prefactor c_Z of P[Z > t].

    theta_Z is the negated dominant eigenvalue of T = S + lambda 1 alpha;
    c_Z follows from the left/right eigenpair at -theta_Z. The result is
    cross-checked against the scalar root of lambda (S~(-theta) - 1) =
    theta.
    """
    t_mat = mix.T
    vals, vecs = np.linalg.eig(t_mat)
    idx = int(np.argmax(vals.real))
    dom = vals[idx]
    if abs(dom.imag) > 1e-10:
        raise UnsupportedSpectrumError("dominant eigenvalue of T is complex")
    order = np.argsort(vals.real)
    if len(vals) > 1 and abs(vals[order[-1]].real - vals[order[-2]].real) < 1e-12:
        raise UnsupportedSpectrumError("dominant eigenvalue of T is not simple")
    theta = -float(dom.real)
    if theta <= 0:
        raise InstabilityError("workload decay rate is not positive")

    right = vecs[:, idx].real
    lvals, lvecs = np.linalg.eig(t_mat.T)
    lidx = int(np.argmin(np.abs(lvals - dom)))
    left = lvecs[:, lidx].real

    # P[Z > t] = lambda beta e^{T t} (-T)^{-1} 1 -> c_Z via the spectral
    # projector v u^T / (u^T v); u^T (-T)^{-1} = u^T / theta.
    ones = np.ones(t_mat.shape[0])
    c_z = float(mix.lam * (mix.beta @ right) * (left @ ones)
                / (theta * (left @ right)))

    # Independent cross-check: theta solves lambda (S~(-theta) - 1) = theta.
    res = mix.lam * (mix.laplace(-theta) - 1.0) - theta
    if abs(res) > THETA_CROSSCHECK_TOL * max(theta, 1.0):
        raise UnsupportedSpectrumError(
            f"theta_Z root cross-check failed (residual {res:.3e})")

    s_tilde = mix.laplace(-theta)
    s1_tilde = mix.ph1.laplace(-theta)
    s2_tilde = mix.ph2.laplace(-theta)
    w1 = mix.p * s1_tilde / s_tilde
    w = (1.0 - mix.p) / s_tilde
    return DecayInfo(theta_z=theta, c_z=c_z, w1=w1, w=w,
                     s_tilde=s_tilde, s1_tilde=s1_tilde, s2_tilde=s2_tilde)


def prefactors_nudge_m(info: DecayInfo, m: int) -> Tuple[float, float]:
    """Closed-form waiting-time prefactors of Nudge-M:
    c_W1 = c_Z (w1+w)^m and c_W2 = c_Z (w1+w)^m S~(-theta_Z)^m."""
    if m < 0:
        raise ValueError("m must be >= 0")
    base = info.c_z * (info.w1 + info.w) ** m
    return base, base * info.s_tilde ** m


def atir_from_prefactors(info: DecayInfo, mix: JobMix,
                         c_w1: float, c_w2: float) -> float:
    """ATIR over FCFS from waiting-time prefactors: the response-time
    prefactor adds one service transform factor per type."""
    return 1.0 \
        - mix.p * c_w1 * info.s1_tilde / (info.c_z * info.s_tilde) \
        - (1.0 - mix.p) * c_w2 * info.s2_tilde / (info.c_z * info.s_tilde)


def atir_nudge_m(info: DecayInfo, mix: JobMix, m) -> float:
    """ATIR_M(m) = 1 - w1 (w1+w)^m - (1-w1)(w1+w)^m S~(-theta_Z)^m.

    m may be real-valued for sign analysis of the increments; the public
    optimum is integer.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    g = (info.w1 + info.w) ** m
    return 1.0 - info.w1 * g - (1.0 - info.w1) * g * info.s_tilde ** m


def m_opt_raw(info: DecayInfo) -> float:
    """Unclamped, unfloored optimizer argument of ATIR_M."""
    num = info.s1_tilde * (info.s2_tilde - 1.0)
    den = info.s2_tilde * (info.s1_tilde - 1.0)
    return math.log(num / den) / math.log(info.s_tilde)


def m_opt(info: DecayInfo) -> int:
    """Optimal window M = max(0, floor(log-ratio / log S~(-theta_Z)))."""
    return max(0, math.floor(m_opt_raw(info)))


def heavy_traffic_atir(p: float, e1: float, e2: float) -> float:
    """Heavy-traffic limit of ATIR_M(M_opt):
    1 - (1/e1)^{p e1} (1/e2)^{(1-p) e2}. Requires p e1 + (1-p) e2 = 1."""
    if abs(p * e1 + (1.0 - p) * e2 - 1.0) > 1e-9:
        raise ValueError("means must satisfy p e1 + (1-p) e2 = 1")
    if e2 < e1:
        raise ValueError("heavy-traffic limit assumes e2 >= e1")
    return 1.0 - e1 ** (-p * e1) * e2 ** (-(1.0 - p) * e2)


def m_heavy(mix: JobMix, info: DecayInfo) -> int:
    """Heavy-traffic window floor(log(E[X2]/E[X1]) / log(1+theta_Z))."""
    if mix.e2 < mix.e1:
        raise ValueError("m_heavy assumes E[X2] >= E[X1]")
    return math.floor(math.log(mix.e2 / mix.e1) / math.log1p(info.theta_z))


def family_prefactors(policy: PolicyFn, info: DecayInfo, mix: JobMix) -> AtirReport:
    """Waiting-time prefactors of an arbitrary family member.

    Direct enumeration of the defining sums: strings of length M for the
    type-1 prefactor and of length 2M (tagged type-2 job in position M+1)
    for the type-2 prefactor. Cost O(2^{2M} M); capped at M <= 6.
    """
    m = policy.m
    if m > FAMILY_M_CAP:
        raise ComplexityError(f"family_prefactors is capped at M <= {FAMILY_M_CAP}")
    p = mix.p
    if not (0.0 < p < 1.0):
        raise ValueError("family_prefactors requires 0 < p < 1")
    s1t, s2t, st = info.s1_tilde, info.s2_tilde, info.s_tilde

    total1 = 0.0
    for s in all_strings(m):
        t = count_twos(s)
        total1 += ((1.0 - p) ** t * p ** (m - t)
                   * s1t ** (m - t) * s2t ** (t - policy.table[s]))
    c_w1 = info.c_z / st ** m * total1

    total2 = 0.0
    for s in all_strings(2 * m):
        if s[m] != 2:  # tagged type-2 job sits in position M+1 (index m)
            continue
        t_all = count_twos(s)
        tail = s[m + 1:]  # positions M+2 .. 2M, the arrivals before the tag
        t_tail = count_twos(tail)
        term = ((1.0 - p) ** t_all * p ** (2 * m - t_all) / (1.0 - p)
                * s1t ** (m - 1 - t_tail) * s2t ** t_tail)
        # a type-1 job in position k passes the tag iff
        # n(s_{k+1}..s_{k+M}) > t(s_{k+1}..s_M)
        for k in range(1, m + 1):
            if s[k - 1] == 1 and policy.table[s[k: k + m]] > count_twos(s[k: m]):
                term *= s1t
        total2 += term
    c_w2 = info.c_z / st ** (m - 1) * total2

    return AtirReport(c_w1=c_w1, c_w2=c_w2,
                      atir=atir_from_prefactors(info, mix, c_w1, c_w2))


@dataclass(frozen=True)
class OptimalityReport:
    m: int
    best_policies: Tuple[PolicyFn, ...]
    best_atir: float
    expected: PolicyFn
    n_policies: int
    n_edges: int
    is_optimal: bool
    edge_failures: Tuple[Tuple[tuple, ...], ...]


def verify_optimality(m: int, info: DecayInfo, mix: JobMix,
                      tie_tol: float = 1e-12) -> OptimalityReport:
    """Exhaustively check strong tail optimality of Nudge-min(M, M_opt)
    within F_M, and the single-increment improvement rule on every edge of
    the enumeration lattice. Small M only (cap 3)."""
    if m > VERIFY_M_CAP:
        raise ComplexityError(f"verify_optimality is capped at M <= {VERIFY_M_CAP}")
    mo = m_opt(info)
    # Nudge-min(M, M_opt) inside F_M: pass exactly the twos within the
    # first min(m, mo) positions, i.e. n(s) = t(s_1..s_min(m,mo)).
    cap = min(m, mo)
    expected = PolicyFn(m, {s: count_twos(s[:cap]) for s in all_strings(m)})

    atirs: Dict[PolicyFn, float] = {}
    for pol in enumerate_policies(m):
        atirs[pol] = family_prefactors(pol, info, mix).atir

    best_atir = max(atirs.values())
    best = tuple(p for p, a in atirs.items() if a >= best_atir - tie_tol)
    is_optimal = any(p == expected for p in best)

    # Increment theorem: raising n(s) by one improves the ATIR iff the
    # position of the (n(s)+1)-st two in s is within the first M_opt slots.
    edge_failures: List[tuple] = []
    n_edges = 0
    for pol, atir in atirs.items():
        for s, nxt in increment_edges(pol):
            n_edges += 1
            # position (1-based) of the (n(s)+1)-st two in s
            want = pol.table[s] + 1
            seen = 0
            k_prime = None
            for pos, v in enumerate(s, start=1):
                if v == 2:
                    seen += 1
                    if seen == want:
                        k_prime = pos
                        break
            improves = atirs[nxt] > atir + tie_tol
            degrades = atirs[nxt] < atir - tie_tol
            # A change within tie_tol is an exact tie (integral log ratio in
            # the optimum formula) and counts as neither direction.
            if improves and k_prime > mo:
                edge_failures.append((s, tuple(sorted(pol.table.items()))))
            if degrades and k_prime <= mo:
                edge_failures.append((s, tuple(sorted(pol.table.items()))))

    return OptimalityReport(m=m, best_policies=best, best_atir=best_atir,
                            expected=expected, n_policies=len(atirs),
                            n_edges=n_edges,
                            is_optimal=is_optimal,
                            edge_failures=tuple(edge_failures))


def increment_ratio(info: DecayInfo, i: int, m: int) -> float:
    """Ratio of ATIR increments of Nudge-K,M over Nudge-M,L at K = L = i:
    sum_{j<i} C(M,j) w1^{M-j} w^j / sum_{j<i} C(M,j) w^{M-j} w1^j."""
    num = sum(math.comb(m, j) * info.w1 ** (m - j) * info.w ** j for j in range(i))
    den = sum(math.comb(m, j) * info.w ** (m - j) * info.w1 ** j for j in range(i))
    return num / den


@dataclass(frozen=True)
class KmMlComparison:
    atir_km: float
    atir_ml: float
    sign: int          # sign of ATIR_{K,M}(i) - ATIR_{M,L}(i)
    predicate: bool    # S~1(-theta_Z) > (1-p)/p
    ratio: float       # increment ratio of the two policies


def compare_km_ml(i: int, m: int, info: DecayInfo, mix: JobMix) -> KmMlComparison:
    """Compare ATIR of Nudge-K,M and Nudge-M,L at K = L = i for
    1 <= i < M <= M_opt; the ordering is predicted by w1 > w, i.e.
    S~1(-theta_Z) > (1-p)/p."""
    if not (1 <= i < m):
        raise ValueError("requires 1 <= i < M")
    if m > m_opt(info):
        raise ValueError("requires M <= M_opt")
    a_km = family_prefactors(nudge_km_policy(i, m), info, mix).atir
    a_ml = family_prefactors(nudge_ml_policy(m, i), info, mix).atir
    diff = a_km - a_ml
    sign = 0 if abs(diff) < 1e-14 else (1 if diff > 0 else -1)
    predicate = info.s1_tilde > (1.0 - mix.p) / mix.p
    return KmMlComparison(atir_km=a_km, atir_ml=a_ml, sign=sign,
                          predicate=predicate,
                          ratio=increment_ratio(info, i, m))


def best_nudge_kl(info: DecayInfo, mix: JobMix,
                  k_max: Optional[int] = None) -> Tuple[int, int, float]:
    """Brute-force optimal (K, L) for Nudge-K,L over the admissible
    rectangle K, L <= M_opt (window K+L-1 capped by enumeration limits)."""
    from .policy import nudge_kl_policy
    mo = max(1, m_opt(info))
    cap = k_max if k_max is not None else mo
    best = (1, 1, -math.inf)
    for k in range(1, cap + 1):
        for l in range(1, cap + 1):
            if k + l - 1 > FAMILY_M_CAP:
                continue
            a = family_prefactors(nudge_kl_policy(k, l), info, mix).atir
            if a > best[2]:
                best = (k, l, a)
    return best
