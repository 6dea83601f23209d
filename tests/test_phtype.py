import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from oracles import laplace, law_density

from nudgem.phtype import (
    InvalidDistributionError,
    JobMix,
    MIX_MEAN_TOL,
    MatrixExpDist,
    PhaseType,
    fit_hyperexp,
    kron_sum,
    load_mix,
    mix_from_dict,
    normalized_mix,
    ph_erlang,
    ph_exponential,
    ph_hyperexp,
    two_class_exp_mix,
)


def test_exponential_moments():
    ph = ph_exponential(mean=0.5)
    assert ph.mean == pytest.approx(0.5, abs=1e-12)
    # k-th moment of exp(mean m) is k! m^k
    assert ph.moment(2) == pytest.approx(2 * 0.25, abs=1e-12)
    assert ph.moment(3) == pytest.approx(6 * 0.125, abs=1e-12)


def test_erlang_moments_and_ccdf():
    ph = ph_erlang(4, 2.0)
    assert ph.n == 4
    assert ph.mean == pytest.approx(2.0)
    # Erlang(k, rate) second moment: k(k+1)/rate^2, rate = 2
    assert ph.moment(2) == pytest.approx(4 * 5 / 4.0)
    # ccdf integrates back to the mean
    val, _ = quad(ph.ccdf, 0, 60, limit=200)
    assert val == pytest.approx(2.0, abs=1e-8)


def test_matrix_exp_dist_plus_closed_form():
    # W = 0 w.p. 1 - q, else exp(a); X ~ exp(b); W + X has the closed form
    # (1 - q) e^{-bt} + q (b e^{-at} - a e^{-bt}) / (b - a)
    q, a, b = 0.6, 1.0, 3.0
    wait = MatrixExpDist([q], [[-a]], [1.0])
    total = wait.plus(ph_exponential(rate=b))
    grid = np.array([0.0, 0.4, 1.5, 6.0])
    expect = ((1 - q) * np.exp(-b * grid)
              + q * (b * np.exp(-a * grid) - a * np.exp(-b * grid)) / (b - a))
    assert total.ccdf(grid) == pytest.approx(expect, abs=1e-14)
    assert isinstance(total.ccdf(1.5), float)
    assert total.ccdf(1.5) == pytest.approx(expect[2], abs=1e-14)
    assert law_density(wait, grid) == pytest.approx(q * a * np.exp(-a * grid), abs=1e-14)
    with pytest.raises(ValueError):
        total.ccdf(-1.0)
    with pytest.raises(ValueError):
        MatrixExpDist([1.0, 0.0], [[-1.0]], [1.0])


def test_laplace_matches_numeric_transform():
    ph = ph_hyperexp(0.3, 2.0, 0.5)
    for s in (0.1, 1.0, 3.0):
        direct = 0.3 * 2.0 / (2.0 + s) + 0.7 * 0.5 / (0.5 + s)
        assert laplace(ph, s) == pytest.approx(direct, abs=1e-12)


def test_fit_hyperexp_round_trip():
    ph = fit_hyperexp(mean=2.0, scv=2.0, f=0.5)
    assert ph.mean == pytest.approx(2.0, abs=1e-10)
    scv = ph.moment(2) / ph.mean ** 2 - 1.0
    assert scv == pytest.approx(2.0, abs=1e-10)


@pytest.mark.parametrize("f", [0.1, 0.3, 0.7, 0.9])
@pytest.mark.parametrize("scv", [1.5, 2.0, 5.0, 20.0])
def test_fit_hyperexp_returns_the_larger_of_two_fits(f, scv):
    # c q^2 + (b^2 - a^2 - c) q + a^2 = 0 with a = f mean, b = (1 - f) mean
    # and c = E[X^2] / 2 has two roots in (0, 1); each fits (mean, scv, f)
    mean = 2.0
    a, b, c = f * mean, (1.0 - f) * mean, (scv + 1.0) * mean ** 2 / 2.0
    lin = c + a * a - b * b
    disc = math.sqrt(lin * lin - 4.0 * c * a * a)
    roots = ((lin - disc) / (2.0 * c), (lin + disc) / (2.0 * c))
    for q in roots:
        assert 0.0 < q < 1.0
        ph = ph_hyperexp(q, q / a, (1.0 - q) / b)
        assert ph.mean == pytest.approx(mean, rel=1e-12)
        assert ph.moment(2) / ph.mean ** 2 - 1.0 == pytest.approx(scv, rel=1e-12)
        assert q / -ph.S[0, 0] / ph.mean == pytest.approx(f, rel=1e-12)  # q / mu1
    assert roots[1] - roots[0] > 1e-3  # two laws, not one
    assert fit_hyperexp(mean, scv, f).alpha[0] == pytest.approx(roots[1], rel=1e-12)


@pytest.mark.parametrize("f", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
def test_fit_hyperexp_at_scv_one_is_the_exponential_split(f):
    # (q - f)^2 = 0: the double root q = f with mu1 = mu2 = 1 / mean
    ph = fit_hyperexp(mean=2.0, scv=1.0, f=f)
    assert np.array_equal(ph.alpha, [f, 1.0 - f])
    assert np.array_equal(ph.S, np.diag([-0.5, -0.5]))


def test_fit_hyperexp_degenerates_to_exponential():
    ph = fit_hyperexp(mean=1.5, scv=1.0, f=0.5)
    exp = ph_exponential(mean=1.5)
    for s in (0.2, 1.0, 4.0):
        assert laplace(ph, s) == pytest.approx(laplace(exp, s), abs=1e-10)


def test_invalid_phase_type_rejected():
    with pytest.raises(InvalidDistributionError):
        PhaseType(np.array([0.5, 0.6]), np.array([[-1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(InvalidDistributionError):
        # positive off-diagonal mass exceeding the diagonal
        PhaseType(np.array([1.0, 0.0]), np.array([[-1.0, 2.0], [0.0, -1.0]]))


def test_mix_requires_unit_mean_work():
    ph = ph_exponential(mean=1.0)
    with pytest.raises(ValueError):
        JobMix(0.5, ph, ph_exponential(mean=3.0), 0.5)
    mix = normalized_mix(0.5, ph, ph_exponential(mean=3.0), 0.5)
    assert 0.5 * mix.e1 + 0.5 * mix.e2 == pytest.approx(1.0, abs=MIX_MEAN_TOL)


def test_two_class_exp_mix_ratio():
    mix = two_class_exp_mix(p=2 / 3, ratio=4.0, lam=0.7)
    assert mix.e1 == pytest.approx(0.5)
    assert mix.e2 == pytest.approx(2.0)
    assert mix.lam == 0.7


def test_mix_aggregate_structure():
    mix = two_class_exp_mix(p=2 / 3, ratio=4.0, lam=0.7)
    # beta = (1 - lambda) alpha, T = S + lambda 1 alpha
    assert np.allclose(mix.beta, (1 - mix.lam) * mix.alpha)
    assert np.allclose(mix.T, mix.S + mix.lam * np.outer(np.ones(2), mix.alpha))
    # aggregate Laplace transform is the p-mixture of the class transforms,
    # of rates 2 and 0.5
    for s in (0.5, 2.0):
        expect = mix.p * 2.0 / (2.0 + s) + (1 - mix.p) * 0.5 / (0.5 + s)
        assert laplace(mix, s) == pytest.approx(expect, abs=1e-12)


def test_kron_sum_spectrum():
    rng = np.random.default_rng(5)
    a = np.diag(-rng.uniform(1, 2, 3))
    b = np.diag(-rng.uniform(1, 2, 2))
    ev = np.sort(np.linalg.eigvals(kron_sum(a, b)).real)
    expect = np.sort([x + y for x in np.diag(a) for y in np.diag(b)])
    assert np.allclose(ev, expect)


def test_load_mix_round_trip(tmp_path):
    doc = {
        "p": 2 / 3,
        "lambda": 0.7,
        "type1": {"kind": "exp", "mean": 0.5},
        "type2": {"kind": "hyperexp", "mean": 2.0, "scv": 2.0, "f": 0.5},
    }
    path = tmp_path / "mix.json"
    path.write_text(json.dumps(doc))
    mix = load_mix(path)
    ref = mix_from_dict(doc)
    assert mix.lam == ref.lam
    assert np.allclose(mix.S, ref.S)
    assert mix.e2 == pytest.approx(2.0, abs=1e-10)


def test_with_lambda_rejects_overload():
    mix = two_class_exp_mix(p=0.5, ratio=2.0, lam=0.5)
    from nudgem.phtype import InstabilityError
    with pytest.raises(InstabilityError):
        mix.with_lambda(1.0)
