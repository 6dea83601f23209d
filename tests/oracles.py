"""Independent oracles shared by the test modules (not collected)."""

import numpy as np
from scipy.integrate import quad
from scipy.linalg import expm


def convolution_ccdf(ph, wait_ccdf, t):
    """P[W + X > t] for X ~ PH(alpha, S) independent of W, by quadrature:
    P[X > t] + int_0^t f_X(x) P[W > t - x] dx with f_X(x) = alpha e^{Sx} s*."""
    exit_rates = -ph.S.sum(axis=1)

    def integrand(x):
        return float(ph.alpha @ expm(ph.S * x) @ exit_rates) * wait_ccdf(t - x)

    service = float(ph.alpha @ expm(ph.S * t) @ np.ones(ph.n))
    conv, _ = quad(integrand, 0.0, t, epsabs=1e-12, epsrel=1e-12, limit=200)
    return service + conv
