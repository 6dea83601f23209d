"""Phase-type distributions, two-class job mixes and the dense linear
algebra kernels (Kronecker product/sum, matrix exponential) used by the
rest of the package, and the matrix-exponential law type through which
every waiting- and response-time distribution is evaluated.

Conventions: a phase-type distribution is a pair (alpha, S) where alpha is
a probability row vector over the transient phases and S the subgenerator;
the exit rate vector is s* = (-S) 1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm as _scipy_expm

# Default relative tolerance used across the package unless an operation
# states otherwise.
DEFAULT_TOL = 1e-9
# Mean normalization tolerance for a JobMix (p E[X1] + (1-p) E[X2] = 1).
MIX_MEAN_TOL = 1e-9


class InvalidDistributionError(ValueError):
    """Raised when (alpha, S) does not describe a valid PH distribution."""


class DecayRateExceededError(ValueError):
    """Raised when a transform is evaluated at or below -theta_i."""


class FitError(ValueError):
    """Raised when no valid hyperexponential matches the requested moments."""


def kron_prod(a, b):
    """Kronecker product of two dense matrices."""
    return np.kron(np.asarray(a, dtype=float), np.asarray(b, dtype=float))


def kron_sum(a, b):
    """Kronecker sum A (+) B = A x I + I x B for square A, B."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.shape[0] != a.shape[1] or b.shape[0] != b.shape[1]:
        raise ValueError("kron_sum requires square matrices")
    return np.kron(a, np.eye(b.shape[0])) + np.kron(np.eye(a.shape[0]), b)


def expm(q, t: float = 1.0) -> np.ndarray:
    """Matrix exponential e^{Q t} (scipy's scaling-and-squaring Pade-13).

    For a subgenerator Q and t >= 0 the result is entrywise nonnegative
    with row sums at most 1 (up to roundoff).
    """
    q = np.atleast_2d(np.asarray(q, dtype=float))
    if t < 0:
        raise ValueError("expm requires t >= 0")
    m = _scipy_expm(q * t)
    if not np.all(np.isfinite(m)):
        raise FloatingPointError("non-finite entries in matrix exponential")
    return m


@dataclass(frozen=True)
class MatrixExpDist:
    """Matrix-exponential law of a nonnegative X: P[X > t] = init e^{gen t} tail.

    The atom at zero is 1 - init . tail. Every waiting- and response-time
    law of the package is one of these; all of them evaluate through
    :func:`expm`, looked up at call time.
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

    def _eval(self, t, vec: np.ndarray):
        ts = np.asarray(t, dtype=float)
        if np.any(ts < 0):
            raise ValueError("t must be >= 0")
        vals = np.array([(self.init @ expm(self.gen, x)) @ vec for x in ts.ravel()])
        return float(vals[0]) if ts.ndim == 0 else vals

    def ccdf(self, t):
        """P[X > t] for a scalar t (float) or a 1-D grid (array)."""
        return self._eval(t, self.tail)

    def density(self, t):
        """f_X(t) = init e^{gen t} (-gen tail) for t > 0 (the atom excluded)."""
        return self._eval(t, -self.gen @ self.tail)

    def plus(self, ph: "PhaseType") -> "MatrixExpDist":
        """Law of X + Y for an independent Y ~ PH(alpha, S): X's exit flow
        and its atom at zero both start Y's phases."""
        gen = np.block([[self.gen, np.outer(-self.gen @ self.tail, ph.alpha)],
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
        return ph_moment(self, k)

    @property
    def mean(self) -> float:
        return ph_moment(self, 1)

    def laplace(self, s: float) -> float:
        return laplace_at(self, s)

    def ccdf(self, t):
        """P[X > t] = alpha e^{S t} 1, at a scalar t or on a 1-D grid."""
        return MatrixExpDist(self.alpha, self.S, np.ones(self.n)).ccdf(t)

    def scaled(self, c: float) -> "PhaseType":
        """Distribution of c X (job sizes scaled by c > 0)."""
        if c <= 0:
            raise ValueError("scale factor must be positive")
        return PhaseType(self.alpha, self.S / c)


def ph_moment(ph: PhaseType, k: int) -> float:
    """k-th moment k! alpha (-S)^{-k} 1."""
    if k < 1:
        raise ValueError("moment order must be a positive integer")
    neg_s = -ph.S
    v = np.ones(ph.n)
    try:
        for _ in range(k):
            v = np.linalg.solve(neg_s, v)
    except np.linalg.LinAlgError as exc:
        raise InvalidDistributionError("singular (-S)") from exc
    return float(math.factorial(k) * ph.alpha @ v)


def laplace_at(ph: PhaseType, s: float) -> float:
    """Laplace transform alpha (sI - S)^{-1} s* of the PH distribution.

    Valid for s > -theta where theta is the decay rate of the distribution;
    below that the resolvent blows up or changes sign.
    """
    if s == 0.0:
        return 1.0
    a = s * np.eye(ph.n) - ph.S
    try:
        x = np.linalg.solve(a, ph.exit)
    except np.linalg.LinAlgError as exc:
        raise DecayRateExceededError(f"sI - S singular at s={s}") from exc
    val = float(ph.alpha @ x)
    # Beyond the abscissa of convergence the algebraic expression goes
    # negative or the solve becomes meaningless; flag it.
    if s < 0 and val < 0:
        raise DecayRateExceededError(f"transform not convergent at s={s}")
    return val


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
    f = (q/mu1)/mean. Requires scv >= 1 and 0 < f < 1.
    """
    if scv < 1.0:
        raise FitError("hyperexponential fit requires scv >= 1")
    if not (0.0 < f < 1.0):
        raise FitError("fit requires 0 < f < 1")
    if mean <= 0:
        raise FitError("fit requires mean > 0")
    a = f * mean          # q / mu1
    b = (1.0 - f) * mean  # (1-q) / mu2
    c = (scv + 1.0) * mean * mean / 2.0  # E[X^2] / 2 = a^2/q + b^2/(1-q)
    # Quadratic c q^2 + (b^2 - a^2 - c) q + a^2 = 0 for q.
    coef = [c, b * b - a * a - c, a * a]
    roots = np.roots(coef)
    best = None
    for r in roots:
        if abs(r.imag) > 1e-10:
            continue
        q = float(r.real)
        if not (0.0 < q < 1.0):
            continue
        cand = ph_hyperexp(q, q / a, (1.0 - q) / b)
        m1 = cand.moment(1)
        m2 = cand.moment(2)
        got_scv = m2 / m1**2 - 1.0
        got_f = (q / (q / a)) / m1
        if (abs(m1 - mean) < DEFAULT_TOL * mean
                and abs(got_scv - scv) < DEFAULT_TOL * max(scv, 1.0)
                and abs(got_f - f) < DEFAULT_TOL):
            best = cand
            break
    if best is None:
        raise FitError(f"no feasible hyperexponential for mean={mean}, scv={scv}, f={f}")
    return best


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

    def laplace(self, s: float) -> float:
        """S~(s) = p S~1(s) + (1-p) S~2(s)."""
        return self.p * self.ph1.laplace(s) + (1.0 - self.p) * self.ph2.laplace(s)

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
