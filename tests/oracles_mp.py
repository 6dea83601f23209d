"""50-digit oracles with mpmath, on a job mix's floats (not collected).

``theta_z_mp`` is the reference for ``asymptotics.decay_rate``'s theta_Z:
it bisects f(theta) = lambda (S~(-theta) - 1) - theta at 50 digits, where
S~(-theta) = alpha (-theta I - S)^{-1} s* is formed from the mix's float
alpha and S, read exactly, with s* = -S 1 at 50 digits. It shares no code
with the package: no eigenvalue of T and no float resolvent. Every phase
of the mix must be reachable from alpha, as in the exp and hyperexp
mixes that the tests pass.
"""

import mpmath

DIGITS = 50
# The bracket is narrower than the pole, so 180 halvings leave it below
# 2^-180 < 1e-54 of the pole: 50 digits of theta_Z while the pole is less
# than 1e4 theta_Z (2.7 theta_Z on fig9a at lambda = 0.7).
HALVINGS = 180


def _mix_mp(mix):
    """alpha, S and s* = -S 1 of a mix as mpmath values, at the current
    precision."""
    alpha = mpmath.matrix([[float(a) for a in mix.alpha]])
    s = mpmath.matrix([[float(v) for v in row] for row in mix.S])
    exit_ = -s * mpmath.matrix([1] * s.rows)
    return alpha, s, exit_


def theta_z_mp(mix, theta: float):
    """The positive root of lambda (S~(-theta) - 1) = theta at 50 digits,
    by bisection between theta / 2 and the slowest phase rate (the pole of
    S~(-theta)); theta is the float root to bracket.

    The bracket does not start at 0: the float alpha sums to 1 off by about
    3e-17, so S~(0) - 1 is that small nonzero number, and f changes sign
    next to 0 as well. f is convex with f(0) ~ 0 and f'(0) = lambda - 1 < 0,
    so it is negative up to its positive root and positive from there to
    the pole; the lower end is checked to be below the root."""
    with mpmath.workdps(DIGITS):
        alpha, s, exit_ = _mix_mp(mix)
        lam = mpmath.mpf(float(mix.lam))
        eye = mpmath.eye(s.rows)

        def f(t):
            x = mpmath.lu_solve(-t * eye - s, exit_)
            return lam * ((alpha * x)[0] - 1) - t

        pole = -max(mpmath.re(e) for e in mpmath.eig(s, left=False, right=False))
        lo, hi = mpmath.mpf(theta) / 2, pole
        if not f(lo) < 0:
            raise AssertionError(f"theta / 2 = {lo} is not below the root")
        for _ in range(HALVINGS):
            mid = (lo + hi) / 2
            if f(mid) < 0:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2
