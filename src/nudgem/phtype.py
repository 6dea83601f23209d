"""Phase-type distributions, two-class job mixes and the dense linear
algebra kernel (the Kronecker sum) used by the rest of the package,
and the matrix-exponential law type through which every workload,
waiting- and response-time distribution is evaluated.

Conventions: a phase-type distribution is a pair (alpha, S) where alpha is
a probability row vector over the transient phases and S the subgenerator;
the exit rate vector is s* = (-S) 1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple, Tuple

import numpy as np

# Default relative tolerance used across the package unless an operation
# states otherwise.
DEFAULT_TOL = 1e-9
# Mean normalization tolerance for a JobMix (p E[X1] + (1-p) E[X2] = 1).
MIX_MEAN_TOL = 1e-9


class InvalidDistributionError(ValueError):
    """Raised when (alpha, S) does not describe a valid PH distribution."""


class FitError(ValueError):
    """Raised when no valid hyperexponential matches the requested moments."""


def kron_sum(a, b):
    """Kronecker sum A (+) B = A x I + I x B for square A, B."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.shape[0] != a.shape[1] or b.shape[0] != b.shape[1]:
        raise ValueError("kron_sum requires square matrices")
    return np.kron(a, np.eye(b.shape[0])) + np.kron(np.eye(a.shape[0]), b)


def reachable(start: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Boolean mask of the states reachable from the mask start through
    the moves rows[k] -> cols[k], the nonzero pattern of a square matrix
    as ``np.nonzero`` gives it."""
    reach = start
    while True:
        grown = reach.copy()
        grown[cols[reach[rows]]] = True
        if np.array_equal(grown, reach):
            return reach
        reach = grown


# How far below zero an entry of gen (off the diagonal, relative to the
# uniformization rate q), init or tail (relative to its largest magnitude)
# may fall by rounding. The exit flow -gen tail that plus() puts into the
# response laws would be the largest (2.6e-12 for Erlang-20 type-2 jobs at
# lambda = 0.9999, growing like 1 / (1 - lambda) with the size of tail), so
# plus() sets its rounding negatives to zero.
SIGN_TOL = 1e-10


def poisson_terms(mu: float) -> int:
    """Last Poisson(mu) index kept: mu plus a 10 sqrt(mu) + 40 tail bound,
    beyond which the mass is below 1e-20."""
    return int(math.ceil(mu + 10.0 * math.sqrt(mu) + 40.0))


def poisson_weights(mu: float) -> Tuple[int, np.ndarray]:
    """Poisson(mu) probabilities e^{-mu} mu^k / k! on the window
    k = start..poisson_terms(mu), with the first index start.

    start = max(0, floor(mu - 10 sqrt(mu) - 40)) mirrors the right end:
    by the Chernoff bound P[N <= mu - x] <= e^{-x^2 / (2 mu)}, the mass
    below it is at most e^{-50} < 1e-20. That bounds an absolute error; a
    small value sum_k w_k c_k keeps its relative accuracy too. When the
    terms decay as c_k ~ c_0 rho^k, w_k c_k / sum is the tilted Poisson(mu
    rho) pmf, centred at mu - theta with theta = mu (1 - rho) =
    -log(value / c_0), so the window drops at most e^{-x^2 / (2 mu)} of
    the value, x = 10 sqrt(mu) + 40 - theta: under e^{-50} for values down
    to e^{-40} c_0 and, as start > 0 only for mu > 170, under e^{-35} down
    to e^{-60} c_0. Fox & Glynn (CACM 31(4), 1988):
    ratio recursion outward from the mode, normalized by the sum. No
    e^{-mu}, factorial or logarithm is formed, so the weights near the
    mode stay accurate where e^{-mu} underflows (mu > 745); the far ones
    underflow to 0.
    """
    k_max, mode = poisson_terms(mu), int(mu)
    start = max(0, int(math.floor(mu - 10.0 * math.sqrt(mu) - 40.0)))
    w = np.empty(k_max + 1 - start)
    w[mode - start] = 1.0
    w[mode - start + 1:] = np.cumprod(mu / np.arange(mode + 1, k_max + 1))
    w[:mode - start] = np.cumprod(np.arange(mode, start, -1) / mu)[::-1]
    return start, w / w.sum()


# The uniformization series in blocks of A = 2^BLOCK_LOG2 terms, split
# baby-step/giant-step (Paterson & Stockmeyer, SIAM J. Comput. 2(1), 1973):
# term k = a + bA is (init P^a) . (P^{bA} v). A does not depend on the grid.
BLOCK_LOG2 = 5


class Products(NamedTuple):
    """Matrix products of one grid evaluation (``MatrixExpDist.products``)."""

    rows: int       # init P^a for 0 < a < A: vector-matrix products
    squarings: int  # P^A by repeated squaring: n x n matrix products
    columns: int    # P^{bA} v for 0 < b <= K / A: matrix-vector products


@dataclass(frozen=True)
class MatrixExpDist:
    """Matrix-exponential law of a nonnegative X: P[X > t] = init e^{gen t} tail.

    The atom at zero is 1 - init . tail. Every waiting- and response-time
    law of the package is one of these. A grid is evaluated by
    uniformization (Jensen 1953): with q = max(-diag gen) and the
    entrywise nonnegative P = I + gen / q,
    init e^{gen t} v = sum_k Poisson(qt)(k) init P^k v over
    k <= K = poisson_terms(q t_max), and one sequence of terms serves
    every grid point; each point dots its weights with the terms of its
    own Poisson window only (``poisson_weights``). Term k = a + bA, with
    A = 2^BLOCK_LOG2, is (init P^a) . (P^{bA} v): A rows init P^a, P^A by
    log2 A squarings and K / A + 1 columns P^{bA} v. A grid costs about
    log2(A) n^3 + (A + K / A) n^2 multiply-adds in place of K n^2
    (``products`` counts them), so a lone point with A <= K below a few
    hundred pays for squarings where K matrix-vector products were
    cheaper. Every factor is nonnegative, so e^{-40}-sized tails keep
    their relative accuracy; the construction refuses a law whose terms
    could differ in sign.
    """

    init: np.ndarray
    gen: np.ndarray
    tail: np.ndarray

    def __post_init__(self):
        for name in ("init", "gen", "tail"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        n = self.init.shape[0]
        if self.gen.shape != (n, n) or self.tail.shape != (n,):
            raise ValueError("init, gen and tail dimensions disagree")
        if not all(np.all(np.isfinite(a)) for a in (self.init, self.gen, self.tail)):
            raise FloatingPointError("non-finite entries in a matrix-exponential law")
        off = self.gen.copy()
        np.fill_diagonal(off, 0.0)
        for name, vals, scale in (("gen off the diagonal", off, self.rate),
                                  ("init", self.init, np.max(np.abs(self.init), initial=0.0)),
                                  ("tail", self.tail, np.max(np.abs(self.tail), initial=0.0))):
            if np.any(vals < -SIGN_TOL * scale):
                raise FloatingPointError(
                    f"{name} has an entry {np.min(vals):.3g} below zero: "
                    "uniformization terms would differ in sign")

    @property
    def rate(self) -> float:
        """Uniformization rate q = max(-diag gen), or 1 for a zero diagonal."""
        return float(np.max(-np.diag(self.gen), initial=0.0)) or 1.0

    def products(self, t_max: float) -> Products:
        """The products that ``ccdf`` or ``ccdf_pair`` makes on a grid up to
        t_max: the K + 1 = poisson_terms(q t_max) + 1 terms fill
        K // A + 1 blocks of A = 2^BLOCK_LOG2 terms. ``_eval`` sizes its
        loops from these counts."""
        columns = poisson_terms(self.rate * t_max) >> BLOCK_LOG2
        return Products((1 << BLOCK_LOG2) - 1, BLOCK_LOG2 if columns else 0, columns)

    def _eval(self, t, vec: np.ndarray):
        """init e^{gen t} vec on the grid t for a vector vec, or for each
        column of a matrix vec (one value per point and column)."""
        ts = np.asarray(t, dtype=float)
        if np.any(ts < 0) or not np.all(np.isfinite(ts)):
            raise ValueError("t must be finite and >= 0")
        q = self.rate
        mus = q * ts.ravel()
        plan = self.products(float(np.max(ts, initial=0.0)))
        p = self.gen / q
        p[np.diag_indices_from(p)] += 1.0
        rows = np.empty((plan.rows + 1, p.shape[0]))  # rows[a] = init P^a
        rows[0] = self.init
        for a in range(1, plan.rows + 1):
            rows[a] = rows[a - 1] @ p
        for _ in range(plan.squarings):  # P^A; the first squaring frees P
            p = p @ p
        cols = np.empty((plan.columns + 1,) + vec.shape)  # cols[b] = P^{bA} vec
        cols[0] = vec
        for b in range(1, plan.columns + 1):
            cols[b] = p @ cols[b - 1]
        # terms[a + bA] = init P^{a + bA} vec, by one product of the same
        # shape per column whatever the grid, so each term is the same
        # number on every grid
        terms = np.concatenate([rows @ col for col in cols])
        vals = np.array([w @ terms[start:start + w.shape[0]]
                         for start, w in map(poisson_weights, mus)]
                        ).reshape(mus.shape + vec.shape[1:])
        if not np.all(np.isfinite(vals)):
            raise FloatingPointError("non-finite matrix-exponential law value")
        if ts.ndim:
            return vals
        return float(vals[0]) if vec.ndim == 1 else vals[0]

    def ccdf(self, t):
        """P[X > t] for a scalar t (float) or a 1-D grid (array)."""
        return self._eval(t, self.tail)

    def mean(self) -> float:
        """E[X] = int_0^inf P[X > t] dt = init (-gen)^{-1} tail, one solve."""
        return float(self.init @ np.linalg.solve(-self.gen, self.tail))

    def ccdf_pair(self, head: "MatrixExpDist", t):
        """(P[X > t], P[X + Y > t]) for this law the law of X + Y =
        head.plus(ph), from this law's one generator.

        Its generator is block upper triangular with head's in the leading
        block and init starts with head's, so
        init e^{gen t} [tail_X; 0] = init_X e^{gen_X t} tail_X: [tail_X; 0]
        rides as a second column of every giant step and head's law forms
        no P^A of its own. Its rate is this law's q, at least head's, so
        its values differ from ``head.ccdf``'s by rounding only.
        """
        n = head.init.shape[0]
        if not (np.array_equal(self.gen[:n, :n], head.gen)
                and np.array_equal(self.init[:n], head.init)
                and not self.gen[n:, :n].any()):
            raise ValueError("head is not the leading block of this law")
        vecs = np.zeros((self.tail.shape[0], 2))
        vecs[:n, 0] = head.tail
        vecs[:, 1] = self.tail
        head_vals, vals = self._eval(t, vecs).T
        return head_vals, vals

    def plus(self, ph: "PhaseType") -> "MatrixExpDist":
        """Law of X + Y for an independent Y ~ PH(alpha, S): X's exit flow
        and its atom at zero both start Y's phases."""
        # -gen tail cancels; an entry below zero by no more than the
        # rounding bound of its dot product is a zero flow
        flow = -self.gen @ self.tail
        neg = np.flatnonzero(flow < 0.0)
        bound = (flow.shape[0] * np.finfo(float).eps
                 * (np.abs(self.gen[neg]) @ np.abs(self.tail)))
        flow[neg[flow[neg] >= -bound]] = 0.0
        gen = np.block([[self.gen, np.outer(flow, ph.alpha)],
                        [np.zeros((ph.n, self.init.shape[0])), ph.S]])
        init = np.concatenate([self.init, (1.0 - self.init @ self.tail) * ph.alpha])
        return MatrixExpDist(init, gen, np.concatenate([self.tail, np.ones(ph.n)]))


@dataclass(frozen=True)
class PhaseType:
    """A phase-type distribution PH(alpha, S)."""

    alpha: np.ndarray
    S: np.ndarray

    def __post_init__(self):
        alpha = np.atleast_1d(np.asarray(self.alpha, dtype=float)).ravel()
        S = np.atleast_2d(np.asarray(self.S, dtype=float))
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "S", S)
        n = alpha.shape[0]
        if S.shape != (n, n):
            raise InvalidDistributionError("alpha and S dimensions disagree")
        if np.any(alpha < -1e-14):
            raise InvalidDistributionError("alpha must be nonnegative")
        if abs(alpha.sum() - 1.0) > 1e-12:
            raise InvalidDistributionError("alpha must sum to 1 (no zero-size jobs)")
        if np.any(np.diag(S) >= 0):
            raise InvalidDistributionError("S must have strictly negative diagonal")
        off = S - np.diag(np.diag(S))
        if np.any(off < -1e-14):
            raise InvalidDistributionError("off-diagonal entries of S must be >= 0")
        if np.any(S.sum(axis=1) > 1e-12):
            raise InvalidDistributionError("row sums of S must be <= 0")

    @property
    def n(self) -> int:
        return self.alpha.shape[0]

    @property
    def exit(self) -> np.ndarray:
        """Exit rate vector s* = (-S) 1."""
        return -self.S.sum(axis=1)

    def moment(self, k: int) -> float:
        """k-th moment k! alpha (-S)^{-k} 1."""
        if k < 1:
            raise ValueError("moment order must be a positive integer")
        neg_s = -self.S
        v = np.ones(self.n)
        try:
            for _ in range(k):
                v = np.linalg.solve(neg_s, v)
        except np.linalg.LinAlgError as exc:
            raise InvalidDistributionError("singular (-S)") from exc
        return float(math.factorial(k) * self.alpha @ v)

    @property
    def mean(self) -> float:
        return self.moment(1)

    def ccdf(self, t):
        """P[X > t] = alpha e^{S t} 1, at a scalar t or on a 1-D grid."""
        return MatrixExpDist(self.alpha, self.S, np.ones(self.n)).ccdf(t)

    def scaled(self, c: float) -> "PhaseType":
        """Distribution of c X (job sizes scaled by c > 0)."""
        if c <= 0:
            raise ValueError("scale factor must be positive")
        return PhaseType(self.alpha, self.S / c)


def ph_exponential(rate: float = None, mean: float = None) -> PhaseType:
    """Exponential distribution as a 1-phase PH."""
    if (rate is None) == (mean is None):
        raise ValueError("give exactly one of rate, mean")
    if rate is None:
        rate = 1.0 / mean
    return PhaseType(np.array([1.0]), np.array([[-rate]]))


def ph_erlang(stages: int, mean: float) -> PhaseType:
    """Erlang distribution with the given number of stages and mean."""
    if stages < 1:
        raise ValueError("stages must be >= 1")
    rate = stages / mean
    s = np.diag(np.full(stages, -rate))
    for i in range(stages - 1):
        s[i, i + 1] = rate
    alpha = np.zeros(stages)
    alpha[0] = 1.0
    return PhaseType(alpha, s)


def ph_hyperexp(q: float, mu1: float, mu2: float) -> PhaseType:
    """Two-phase hyperexponential: exp(mu1) w.p. q, exp(mu2) otherwise."""
    if not (0.0 <= q <= 1.0) or mu1 <= 0 or mu2 <= 0:
        raise FitError("invalid hyperexponential parameters")
    return PhaseType(np.array([q, 1.0 - q]), np.diag([-mu1, -mu2]))


def fit_hyperexp(mean: float, scv: float, f: float) -> PhaseType:
    """Fit a 2-phase hyperexponential to (mean, SCV, f).

    f is the fraction of the mean carried by the first phase,
    f = (q/mu1)/mean. Requires scv >= 1 and 0 < f < 1. For f != 1/2 both
    roots q of the fit's quadratic lie in (0, 1) and give two laws with
    the same mean, SCV and f; the one with the larger q is returned. At
    f = 1/2 the two are one law with its phases swapped. At scv = 1 the
    quadratic is (q - f)^2 = 0 and the fit is the exponential split
    q = f, mu1 = mu2 = 1/mean, returned without root finding, which
    would split the double root by about sqrt(eps).
    """
    if scv < 1.0:
        raise FitError("hyperexponential fit requires scv >= 1")
    if not (0.0 < f < 1.0):
        raise FitError("fit requires 0 < f < 1")
    if mean <= 0:
        raise FitError("fit requires mean > 0")
    if scv == 1.0:
        return ph_hyperexp(f, 1.0 / mean, 1.0 / mean)
    a = f * mean          # q / mu1
    b = (1.0 - f) * mean  # (1-q) / mu2
    c = (scv + 1.0) * mean * mean / 2.0  # E[X^2] / 2 = a^2/q + b^2/(1-q)
    # Quadratic c q^2 + (b^2 - a^2 - c) q + a^2 = 0 for q.
    roots = np.roots([c, b * b - a * a - c, a * a])
    for q in sorted(roots.real[np.abs(roots.imag) <= 1e-10], reverse=True):
        if not (0.0 < q < 1.0):
            continue
        cand = ph_hyperexp(float(q), q / a, (1.0 - q) / b)
        m1 = cand.moment(1)
        got_scv = cand.moment(2) / m1**2 - 1.0
        if (abs(m1 - mean) < DEFAULT_TOL * mean
                and abs(got_scv - scv) < DEFAULT_TOL * max(scv, 1.0)
                and abs(q / (q / a) / m1 - f) < DEFAULT_TOL):
            return cand
    raise FitError(f"no feasible hyperexponential for mean={mean}, scv={scv}, f={f}")


class InstabilityError(ValueError):
    """Raised when lambda >= 1 (the system would be unstable)."""


@dataclass(frozen=True)
class JobMix:
    """Two-class workload: type-1 w.p. p, Poisson(lambda) arrivals.

    Construction requires p E[X1] + (1-p) E[X2] = 1 (so the load equals
    lambda); use :func:`normalized_mix` to rescale job sizes first.
    """

    p: float
    ph1: PhaseType
    ph2: PhaseType
    lam: float

    def __post_init__(self):
        if not (0.0 <= self.p <= 1.0):
            raise ValueError("p must be in [0, 1]")
        if not (0.0 < self.lam < 1.0):
            raise InstabilityError("lambda must be in (0, 1)")
        mean = self.p * self.ph1.mean + (1.0 - self.p) * self.ph2.mean
        if abs(mean - 1.0) > MIX_MEAN_TOL:
            raise ValueError(
                f"job mix mean is {mean:.12g}, not 1; rescale with normalized_mix()")

    # -- combined representation ------------------------------------------

    @property
    def n1(self) -> int:
        return self.ph1.n

    @property
    def n2(self) -> int:
        return self.ph2.n

    @property
    def alpha(self) -> np.ndarray:
        """(p alpha_1, (1-p) alpha_2)."""
        return np.concatenate([self.p * self.ph1.alpha, (1.0 - self.p) * self.ph2.alpha])

    @property
    def S(self) -> np.ndarray:
        """Block diagonal of S_1 and S_2."""
        n = self.n1 + self.n2
        s = np.zeros((n, n))
        s[: self.n1, : self.n1] = self.ph1.S
        s[self.n1:, self.n1:] = self.ph2.S
        return s

    @property
    def exit(self) -> np.ndarray:
        return np.concatenate([self.ph1.exit, self.ph2.exit])

    @property
    def beta(self) -> np.ndarray:
        return (1.0 - self.lam) * self.alpha

    @property
    def T(self) -> np.ndarray:
        """Workload-process generator T = S + lambda 1 alpha."""
        return self.S + self.lam * np.outer(np.ones(self.n1 + self.n2), self.alpha)

    # -- scalar summaries --------------------------------------------------

    @property
    def e1(self) -> float:
        return self.ph1.mean

    @property
    def e2(self) -> float:
        return self.ph2.mean

    def second_moment(self) -> float:
        """E[X^2] of a random job."""
        return self.p * self.ph1.moment(2) + (1.0 - self.p) * self.ph2.moment(2)

    def with_lambda(self, lam: float) -> "JobMix":
        return JobMix(self.p, self.ph1, self.ph2, lam)


def normalized_mix(p: float, ph1: PhaseType, ph2: PhaseType, lam: float) -> JobMix:
    """Build a JobMix after rescaling both job sizes by a common factor so
    that p E[X1] + (1-p) E[X2] = 1. The rescaling is explicit here, never
    silent in the JobMix constructor."""
    mean = p * ph1.mean + (1.0 - p) * ph2.mean
    return JobMix(p, ph1.scaled(1.0 / mean), ph2.scaled(1.0 / mean), lam)


def two_class_exp_mix(p: float, ratio: float, lam: float) -> JobMix:
    """Exponential/exponential mix with E[X2]/E[X1] = ratio, normalized."""
    e1 = 1.0 / (p + (1.0 - p) * ratio)
    e2 = ratio * e1
    return JobMix(p, ph_exponential(mean=e1), ph_exponential(mean=e2), lam)


# -- job-mix definition files ---------------------------------------------

def _ph_from_spec(spec: dict) -> PhaseType:
    kind = spec.get("kind", "raw")
    if kind == "exp":
        return ph_exponential(mean=float(spec["mean"]))
    if kind == "erlang":
        return ph_erlang(int(spec["stages"]), float(spec["mean"]))
    if kind == "hyperexp":
        return fit_hyperexp(float(spec["mean"]), float(spec["scv"]), float(spec["f"]))
    if kind == "raw" or ("alpha" in spec and "S" in spec):
        return PhaseType(np.asarray(spec["alpha"], dtype=float),
                         np.asarray(spec["S"], dtype=float))
    raise ValueError(f"unknown job size kind {kind!r}")


def mix_from_dict(doc: dict) -> JobMix:
    """Parse a job-mix definition (JSON-compatible tree).

    Expected fields: p, lambda, type1, type2. Each type is either
    {kind: exp|erlang|hyperexp, ...} or a raw {alpha, S} pair.
    """
    try:
        p = float(doc["p"])
        lam = float(doc["lambda"])
        ph1 = _ph_from_spec(doc["type1"])
        ph2 = _ph_from_spec(doc["type2"])
    except KeyError as exc:
        raise ValueError(f"job-mix file is missing field {exc}") from exc
    if doc.get("normalize", False):
        return normalized_mix(p, ph1, ph2, lam)
    return JobMix(p, ph1, ph2, lam)


def load_mix(path) -> JobMix:
    with open(path, "r", encoding="utf-8") as fh:
        return mix_from_dict(json.load(fh))
