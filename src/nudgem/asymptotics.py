"""Workload decay rate and prefactor, closed-form ATIR results for
Nudge-M, heavy-traffic limits, family-wide prefactors and the brute force
optimality verifier.

All exponential-tail constants refer to P[. > t] ~ c e^{-theta_Z t} where
theta_Z is the workload decay rate, shared by every work-conserving
scheduler.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from .phtype import InstabilityError, JobMix, reachable
from .policy import PolicyFn, PolicyTables, all_strings, c2_pairs, \
    nudge_mkl, valid_tables, windows

# Root cross-check tolerance for theta_Z.
THETA_CROSSCHECK_TOL = 1e-10
# ATIR differences within this are exact ties in verify_optimality (integral
# log ratio in the optimum formula) and count as neither direction.
OPTIMALITY_TIE_TOL = 1e-12
# Enumeration caps.
FAMILY_M_CAP = 6
VERIFY_M_CAP = 3


class UnsupportedSpectrumError(ValueError):
    """Dominant eigenvalue of T is complex, or theta_Z misses its root."""


class ComplexityError(ValueError):
    """The request exceeds a documented enumeration cap."""


@dataclass(frozen=True)
class DecayInfo:
    """Decay rate and prefactor of the workload, plus the two weights that
    drive every Nudge-M prefactor."""

    theta_z: float
    c_z: float
    w1: float   # p S~1(-theta_Z) / S~(-theta_Z), 0 at p = 0
    w: float    # (1-p) / S~(-theta_Z)
    s_tilde: float    # S~(-theta_Z)
    s1_tilde: float   # S~1(-theta_Z), NaN at p = 0
    s2_tilde: float   # S~2(-theta_Z), NaN at p = 1


@dataclass(frozen=True)
class AtirReport:
    c_w1: float
    c_w2: float
    atir: float


def decay_rate(mix: JobMix) -> DecayInfo:
    """Decay rate theta_Z and prefactor c_Z of P[Z > t].

    Both come from R, the phases that alpha's support reaches through S's
    moves; a type of weight 0 has none there. The other phases carry no
    mass. On R, T = S + lambda 1 alpha is irreducible and Metzler, so its
    dominant eigenvalue -theta_Z is real and simple (Perron-Frobenius).
    One resolvent (-theta_Z I - S)^{-1} on R gives S~(-theta_Z), S~1 and
    S~2, and the Cramer-Lundberg residue c_Z = (1 - lambda) / (lambda
    E[X e^{theta_Z X}] - 1) with E[X e^{theta X}] = alpha (-theta I -
    S)^{-2} s*. theta_Z is cross-checked against the scalar root of
    lambda (S~(-theta) - 1) = theta. A type of weight 0 gets S~i = NaN,
    and its w1 or w is 0.
    """
    r = reachable(mix.alpha > 0, *np.nonzero(mix.S))
    vals = np.linalg.eigvals(mix.T[np.ix_(r, r)])
    dom = vals[np.argmax(vals.real)]
    # real by Perron-Frobenius: only rounding can make it complex
    if abs(dom.imag) > 1e-10:
        raise UnsupportedSpectrumError("dominant eigenvalue of T is complex")
    theta = -float(dom.real)
    if theta <= 0:
        raise InstabilityError("workload decay rate is not positive")

    resolvent = np.linalg.inv(-theta * np.eye(r.sum()) - mix.S[np.ix_(r, r)])
    x = np.zeros(r.size)  # (-theta I - S)^{-1} s* on R, 0 off it
    x[r] = resolvent @ mix.exit[r]
    s_tilde = float(mix.alpha @ x)
    x1, x2 = np.split(x, [mix.n1])
    s1_tilde = float(mix.ph1.alpha @ x1) if mix.p > 0 else math.nan
    s2_tilde = float(mix.ph2.alpha @ x2) if mix.p < 1 else math.nan
    moment = float(mix.alpha[r] @ resolvent @ x[r])  # E[X e^{theta X}]
    c_z = (1.0 - mix.lam) / (mix.lam * moment - 1.0)

    res = mix.lam * (s_tilde - 1.0) - theta
    if abs(res) > THETA_CROSSCHECK_TOL * max(theta, 1.0):
        raise UnsupportedSpectrumError(
            f"theta_Z root cross-check failed (residual {res:.3e})")

    w1 = mix.p * s1_tilde / s_tilde if mix.p > 0 else 0.0
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
    prefactor adds one service transform factor per type. Since
    S~ = p S~1 + (1-p) S~2, the ATIR is the prefactors' gaps to c_Z
    weighted by type, and c_w1 = c_w2 = c_Z gives exactly 0."""
    return (mix.p * info.s1_tilde * (info.c_z - c_w1)
            + (1.0 - mix.p) * info.s2_tilde * (info.c_z - c_w2)) \
        / (info.c_z * info.s_tilde)


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
    """Optimal window M = max(0, floor(log-ratio / log S~(-theta_Z))), or
    0 when a type has weight 0: then Nudge passes no one at any M."""
    if info.w1 == 0.0 or info.w == 0.0:
        return 0
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


# 128 keys outlast a pass of the analytic sweep (windows 1..6 at 5 loads);
# a cycle longer than the cache would miss on every call
@functools.lru_cache(maxsize=128)
def _policy_free(m: int, p: float, s1t: float, s2t: float):
    """The factors of ``family_prefactors`` that no table changes, as
    read-only arrays indexed by bitmask: the type-1 weights without their
    S~2 power, the sweep's start weights at k = M, and S~2^0..S~2^M."""
    twos, bit0 = windows(m).twos, windows(m).bits[:, 0]
    base1 = (1.0 - p) ** twos * p ** (m - twos) * s1t ** (m - twos)
    # k = M: the tag (bit 0) followed by the tail s_{M+1}..s_{2M-1}, the
    # arrivals before the tag
    init = np.where(bit0, ((1.0 - p) * s2t) ** (twos - 1)
                    * (p * s1t) ** (m - twos), 0.0)
    out = base1, init, s2t ** np.arange(m + 1)
    for a in out:
        a.flags.writeable = False
    return out


def family_prefactors(policy: Union[PolicyFn, PolicyTables], info: DecayInfo,
                      mix: JobMix) -> AtirReport:
    """Waiting-time prefactors of an arbitrary family member, or of every
    row of a ``PolicyTables`` at once.

    Positions count from 0, newest arrival first. A window w_0..w_{M-1} is
    the bitmask b with bit i set when w_i = 2, and n(b) is
    ``policy.by_mask``: one row for a ``PolicyFn``, one row per table for
    a ``PolicyTables``. Every step below is elementwise over the rows or a
    sum along one row, so a row's prefactors do not depend on the other
    rows, and a ``PolicyFn`` is simply the one-row case. The type-1
    prefactor is one vectorised sum over the 2^M windows. The type-2
    prefactor sums over strings s_0..s_{2M-1} with
    the tagged type-2 job at s_M; a type-1 job at s_{k-1} (k = 1..M) passes
    the tag iff n(s_k..s_{k+M-1}) > t(s_k..s_{M-1}), which depends only on
    s_{k-1} and the window s_k..s_{k+M-1}. So a sweep k = M..1 carries one
    weight per window: it starts from the tag and the M-1 tail symbols,
    prepends s_{k-1} at each step and sums out the dropped last symbol.
    Cost O(M 2^M) per table in numpy; capped at M <= 6. The window bits
    and their popcounts come from ``policy.windows``, built once per M.
    The factors that no table changes (``_policy_free``) are cached, keyed
    by (M, p, S~1, S~2) as exact floats: equal keys give the same arrays,
    so an entry cannot go stale, and a call computes only what depends on
    its rows. A ``PolicyFn`` gives float fields, a ``PolicyTables`` arrays
    with one entry per row.
    """
    m = policy.m
    if m > FAMILY_M_CAP:
        raise ComplexityError(f"family_prefactors is capped at M <= {FAMILY_M_CAP}")
    p = mix.p
    if not (0.0 < p < 1.0):
        raise ValueError("family_prefactors requires 0 < p < 1")
    s1t, s2t, st = info.s1_tilde, info.s2_tilde, info.s_tilde
    w = windows(m)
    n = np.atleast_2d(policy.by_mask)  # n[row, b]
    base1, weight, pw2 = _policy_free(m, p, s1t, s2t)

    c_w1 = info.c_z / st ** m * (base1 * pw2[w.twos - n]).sum(axis=1)

    # step j = M - k: the type-1 job at s_{k-1} passes the tag iff
    # n(b) > prefix[j, b], the twos of s_k..s_{M-1} (bits 0..j-1)
    prefix = np.arange(m)[:, None] - w.ones_before.T
    passes = np.where(n[:, None, :] > prefix, s1t, 1.0)
    weight = weight[None, :]
    half = w.twos.size >> 1
    for j in range(m):
        # s_{k-1} = 1 weighs p, times S~1 if that job passes the tag;
        # s_{k-1} = 2 weighs 1-p
        one = weight * p * passes[:, j]
        two = weight * (1.0 - p)
        # prepending s_{k-1} gives window (b << 1 | [s_{k-1} = 2]) mod 2^M:
        # bit M-1 drops out and is summed over
        weight = np.empty(n.shape)
        np.add(one[:, :half], one[:, half:], out=weight[:, 0::2])
        np.add(two[:, :half], two[:, half:], out=weight[:, 1::2])
    c_w2 = info.c_z / st ** (m - 1) * weight.sum(axis=1)
    # a table with n = 0 passes no one, so W = Z for both types
    idle = ~n.any(axis=1)
    c_w1[idle] = c_w2[idle] = info.c_z

    atir = atir_from_prefactors(info, mix, c_w1, c_w2)
    if isinstance(policy, PolicyFn):
        return AtirReport(c_w1=float(c_w1[0]), c_w2=float(c_w2[0]),
                          atir=float(atir[0]))
    return AtirReport(c_w1=c_w1, c_w2=c_w2, atir=atir)


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


def verify_optimality(m: int, info: DecayInfo, mix: JobMix) -> OptimalityReport:
    """Exhaustively check strong tail optimality of Nudge-min(M, M_opt)
    within F_M, and the single-increment improvement rule on every edge of
    the enumeration lattice. Small M only (cap 3).

    F_M comes from ``policy.valid_tables`` as one table array. An edge
    raises n(s) by one where n(s) < t(s), so (C1) still holds, and is kept
    when the raised row meets (C2) (``policy.c2_pairs``), the check a
    ``PolicyFn`` build would make. One batched ``family_prefactors`` call
    over the tables and the raised rows gives every ATIR. Only
    ``expected`` and the best tables become ``PolicyFn``; edges and
    failures are listed by table in enumeration order, then by string in
    ``all_strings`` order.
    """
    if m > VERIFY_M_CAP:
        raise ComplexityError(f"verify_optimality is capped at M <= {VERIFY_M_CAP}")
    mo = m_opt(info)
    # Nudge-min(M, M_opt) inside F_M: pass exactly the twos within the
    # first min(m, mo) positions, i.e. n(s) = t(s_1..s_min(m,mo)).
    cap = min(m, mo)
    expected = PolicyFn(m, windows(m).bits[:, :cap].sum(axis=1))

    tables = valid_tables(m)
    masks = windows(m).masks  # column j is the j-th string of all_strings
    n = tables.by_mask[:, masks]
    bits = windows(m).bits[masks]
    # Increment theorem: raising n(s) by one improves the ATIR iff the
    # position of the (n(s)+1)-st two in s is within the first M_opt slots.
    rows, cols = np.nonzero(n < bits.sum(axis=1))
    raised = tables.by_mask[rows]
    raised[np.arange(rows.size), masks[cols]] += 1
    keep = c2_pairs(m, raised).all(axis=(1, 2))
    rows, cols, raised = rows[keep], cols[keep], raised[keep]
    both = PolicyTables(m, np.concatenate([tables.by_mask, raised]))
    atirs, raised_atirs = np.split(family_prefactors(both, info, mix).atir,
                                   [len(tables.by_mask)])
    best_atir = float(np.max(atirs))
    best = tuple(PolicyFn(m, tables.by_mask[i])
                 for i in np.flatnonzero(atirs >= best_atir - OPTIMALITY_TIE_TOL))
    is_optimal = any(p == expected for p in best)

    # position (1-based) of the (n(s)+1)-st two in s: one past the number
    # of positions before which fewer than n(s)+1 twos are seen
    seen = np.cumsum(bits, axis=1)[cols]
    k_prime = 1 + np.sum(seen < n[rows, cols][:, None] + 1, axis=1)
    improves = raised_atirs > atirs[rows] + OPTIMALITY_TIE_TOL
    degrades = raised_atirs < atirs[rows] - OPTIMALITY_TIE_TOL
    failed = (improves & (k_prime > mo)) | (degrades & (k_prime <= mo))
    strings = list(all_strings(m))
    edge_failures = tuple(
        (strings[j], tuple(zip(strings, n[i].tolist())))
        for i, j in zip(rows[failed].tolist(), cols[failed].tolist()))

    return OptimalityReport(m=m, best_policies=best, best_atir=best_atir,
                            expected=expected, n_policies=len(atirs),
                            n_edges=int(rows.size),
                            is_optimal=is_optimal,
                            edge_failures=edge_failures)


def best_nudge_kl(info: DecayInfo, mix: JobMix) -> Tuple[int, int, float]:
    """Brute-force optimal (K, L) for Nudge-K,L over the admissible
    rectangle 1 <= K, L <= max(1, M_opt), with windows K+L-1 up to
    ``FAMILY_M_CAP``, and its ATIR. One batched ``family_prefactors``
    call per window holds every pair of that window; a tie goes to the
    lexicographically smallest (K, L). At M_opt = 0 the rectangle is the
    one pair (1, 1), which is Nudge-1, so the result is (1, 1) with a
    negative ATIR: a policy worse than FCFS (fig5a at lambda <= 0.1)."""
    cap = max(1, m_opt(info))
    found = {}
    for w in range(1, min(2 * cap - 1, FAMILY_M_CAP) + 1):
        ks = range(max(1, w + 1 - cap), min(cap, w) + 1)
        rows = np.array([nudge_mkl(w, k, w + 1 - k).by_mask for k in ks])
        atir = family_prefactors(PolicyTables(w, rows), info, mix).atir
        found.update(((k, w + 1 - k), a) for k, a in zip(ks, atir.tolist()))
    (k, l), atir = max(sorted(found.items()), key=lambda pair: pair[1])
    return k, l, atir
