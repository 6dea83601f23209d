"""Grid evaluation of ``MatrixExpDist`` by uniformization, checked against
one dense ``scipy.linalg.expm`` per point (``oracles.dense_ccdf`` and
``oracles.dense_density``); densities by the same evaluation
(``oracles.law_density``)."""

import math
from decimal import Decimal, localcontext
from functools import partial

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaln

from oracles import dense_ccdf, dense_density, law_density, sequential_ccdf

from nudgem import fluid, phtype, resp2, swap
from nudgem.asymptotics import decay_rate
from nudgem.cli import RECIPES
from nudgem.phtype import (BLOCK_LOG2, MatrixExpDist, fit_hyperexp,
                           normalized_mix, ph_erlang, ph_exponential,
                           poisson_terms, poisson_weights)

LAW_RTOL = 1e-12

MIXES = {
    "fig9a": RECIPES["fig9a"]["mix"](),
    "fig5b": RECIPES["fig5b"]["mix"](),
    "erlang3-hyperexp": normalized_mix(2 / 3, ph_erlang(3, 1.0),
                                       fit_hyperexp(4.0, 2.0, 0.5), 0.7),
}


def _laws(mix, m):
    sol = fluid.stationary_fluid(fluid.build_nudge_m_fluid(mix, m))
    w2m = resp2.build_w2_model(mix, m)
    return {"w1": sol.w1, "r1": sol.w1.plus(mix.ph1),
            "w2": w2m.w2, "r2": w2m.r2}


@pytest.mark.parametrize("name", sorted(MIXES))
def test_laws_match_dense_expm(name):
    # the whole default dist grid 0..60/theta_Z plus the 40/theta_Z tail,
    # where the values are e^{-40}-sized
    mix = MIXES[name]
    theta = decay_rate(mix).theta_z
    grid = np.append(np.linspace(0.0, 60.0 / theta, 25), 40.0 / theta)
    for law_name, law in _laws(mix, 3).items():
        np.testing.assert_allclose(law.ccdf(grid), dense_ccdf(law, grid),
                                   rtol=LAW_RTOL, atol=0, err_msg=law_name)
        np.testing.assert_allclose(law_density(law, grid), dense_density(law, grid),
                                   rtol=LAW_RTOL, atol=0, err_msg=law_name)


@pytest.mark.parametrize("name", sorted(MIXES))
def test_mean_matches_quadrature_of_dense_ccdf(name):
    # E[X] = init (-gen)^{-1} tail against the integral of the dense-expm
    # ccdf (within 4.4e-16 relative on these laws); W_1, W_2 and the
    # workload Z have an atom 1 - lambda at zero
    mix = MIXES[name]
    laws = dict(_laws(mix, 3), z=swap.workload_law(mix))
    for law_name in ("w1", "w2", "z"):
        law = laws[law_name]
        assert 1.0 - law.init @ law.tail == pytest.approx(1.0 - mix.lam, abs=1e-12)
    for law_name, law in laws.items():
        want, _ = quad(lambda t: dense_ccdf(law, t), 0.0, np.inf,
                       epsabs=0.0, epsrel=1e-12, limit=200)
        assert law.mean() == pytest.approx(want, rel=1e-12), law_name


@pytest.mark.parametrize("name", sorted(MIXES))
def test_laws_match_sequential_uniformization(name):
    # the blocks reassociate the products of the one-product-per-term loop;
    # each term's relative rounding grows like K eps either way
    mix = MIXES[name]
    grid = np.linspace(0.0, 60.0 / decay_rate(mix).theta_z, 25)
    for law_name, law in _laws(mix, 3).items():
        rtol = poisson_terms(law.rate * grid[-1]) * np.finfo(float).eps
        np.testing.assert_allclose(law.ccdf(grid), sequential_ccdf(law, grid),
                                   rtol=rtol, atol=0, err_msg=law_name)


def test_stiff_law_matches_dense_expm():
    # Erlang-20 type-1 jobs at lambda = 0.99: q/theta_Z is about 5700, so
    # the 40/theta_Z tail takes about 2.3e5 uniformization terms. A
    # relative rounding of gen moves e^{gen t} by about q t eps relative,
    # for either method, so that is the tolerance here.
    mix = normalized_mix(2 / 3, ph_erlang(20, 1.0), ph_exponential(mean=4.0), 0.99)
    theta = decay_rate(mix).theta_z
    law = fluid.stationary_fluid(fluid.build_nudge_m_fluid(mix, 1)).w1
    grid = np.array([0.0, 1.0, 10.0, 40.0]) / theta
    rtol = max(LAW_RTOL, law.rate * grid[-1] * np.finfo(float).eps)
    assert law.rate / theta > 5000
    np.testing.assert_allclose(law.ccdf(grid), dense_ccdf(law, grid),
                               rtol=rtol, atol=0)


def _t_for_terms(law, k):
    """A t whose grid needs exactly K = k: poisson_terms(q t) == k >= 40."""
    root = (-10.0 + np.sqrt(100.0 + 4.0 * (k - 40.5))) / 2.0 if k > 40 else 0.0
    t = root * root / law.rate
    assert poisson_terms(law.rate * t) == k
    return t


@pytest.mark.parametrize("log2", sorted({BLOCK_LOG2, 6}))
def test_block_edges_match_pointwise_and_dense_expm(monkeypatch, log2):
    # grid points whose K sits on either side of the first block edges
    # (K = A - 1 needs no P^A), and one point over twenty blocks; poisson_terms
    # is at least 40, so the edges below 40 are left out
    monkeypatch.setattr(phtype, "BLOCK_LOG2", log2)
    a = 1 << log2
    law = _laws(MIXES["fig9a"], 2)["r2"]
    ks = [k for k in (a - 1, a, a + 1, 2 * a - 1, 2 * a, 2 * a + 1, 20 * a) if k >= 40]
    grid = np.array([_t_for_terms(law, k) for k in ks])
    for k, t in zip(ks, grid):
        plan = law.products(t)
        assert plan == (a - 1, log2 if k >= a else 0, k // a)
    for evaluate, dense in ((law.ccdf, dense_ccdf), (partial(law_density, law), dense_density)):
        vals = evaluate(grid)
        assert np.array_equal(vals, [evaluate(t) for t in grid])
        np.testing.assert_allclose(vals, dense(law, grid), rtol=LAW_RTOL, atol=0)


def test_stiff_response_law_matches_dense_expm():
    # R2 for Erlang-20 type-1 jobs at lambda = 0.99 (n = 84): the 26-point
    # grid to 60/theta_Z needs K of about 8.9e4 terms, which the blocks
    # reach in under 3,000 products; the tolerance is that of
    # test_stiff_law_matches_dense_expm
    mix = normalized_mix(2 / 3, ph_erlang(20, 1.0), ph_exponential(mean=1.0), 0.99)
    law = resp2.build_w2_model(mix, 1).r2
    grid = np.linspace(0.0, 60.0 / decay_rate(mix).theta_z, 26)
    assert law.init.shape == (84,) and poisson_terms(law.rate * grid[-1]) > 85_000
    assert sum(law.products(grid[-1])) < 3000
    rtol = max(LAW_RTOL, law.rate * grid[-1] * np.finfo(float).eps)
    np.testing.assert_allclose(law.ccdf(grid), dense_ccdf(law, grid),
                               rtol=rtol, atol=0)
    np.testing.assert_allclose(law_density(law, grid), dense_density(law, grid),
                               rtol=rtol, atol=0)


def _pairs(mix, m):
    """(W, R) pairs whose R = W.plus(X): the type-1 and type-2 laws of
    Nudge-M, and FCFS's workload with type-1 service."""
    laws = _laws(mix, m)
    fcfs_w = swap.workload_law(mix)
    return {"w1-r1": (laws["w1"], laws["r1"]), "w2-r2": (laws["w2"], laws["r2"]),
            "fcfs": (fcfs_w, fcfs_w.plus(mix.ph1))}


@pytest.mark.parametrize("name", sorted(MIXES))
def test_pair_matches_separate_ccdf(name):
    # W's values come from R's generator, at R's rate q: they differ from
    # W's own evaluation by rounding only, about K eps relative
    mix = MIXES[name]
    theta = decay_rate(mix).theta_z
    grid = np.append(np.linspace(0.0, 60.0 / theta, 25), 40.0 / theta)
    for pair_name, (w, r) in _pairs(mix, 3).items():
        rtol = poisson_terms(r.rate * grid[-2]) * np.finfo(float).eps
        w_vals, r_vals = r.ccdf_pair(w, grid)
        np.testing.assert_allclose(w_vals, w.ccdf(grid), rtol=rtol, atol=0,
                                   err_msg=pair_name)
        np.testing.assert_allclose(r_vals, r.ccdf(grid), rtol=rtol, atol=0,
                                   err_msg=pair_name)


def test_pair_grid_matches_pointwise():
    w, r = _pairs(MIXES["fig9a"], 2)["w1-r1"]
    grid = np.array([30.0, 0.0, 5.0, 30.0, 0.25, 5.0, 120.0])
    w_vals, r_vals = r.ccdf_pair(w, grid)
    pointwise = [r.ccdf_pair(w, t) for t in grid]
    assert np.array_equal(w_vals, [p[0] for p in pointwise])
    assert np.array_equal(r_vals, [p[1] for p in pointwise])
    assert all(isinstance(v, float) for v in pointwise[0])
    assert [v.shape for v in r.ccdf_pair(w, np.array([]))] == [(0,), (0,)]


def test_pair_needs_the_leading_block():
    # only a law whose generator starts with W's, block upper triangular,
    # and whose init starts with W's carries W's values
    w, r = _pairs(MIXES["fig9a"], 2)["w1-r1"]
    w2, _ = _pairs(MIXES["fig9a"], 2)["w2-r2"]
    scaled = MatrixExpDist(w.init, 2.0 * w.gen, w.tail)
    for head in (w2, scaled, MatrixExpDist(0.5 * w.init, w.gen, w.tail)):
        with pytest.raises(ValueError, match="leading block"):
            r.ccdf_pair(head, [1.0])
    lower = MatrixExpDist(r.init, r.gen.T.copy(), r.tail)
    with pytest.raises(ValueError, match="leading block"):
        lower.ccdf_pair(MatrixExpDist(w.init, w.gen.T.copy(), w.tail), [1.0])


@pytest.mark.parametrize("mu", [0.5, 50.0, 900.0, 5000.0])
def test_poisson_weights_match_pmf(mu):
    # e^{-mu} mu^k / k! in 50-digit decimals; beyond mu = 745, e^{-mu}
    # underflows in double precision
    ref = []
    with localcontext() as ctx:
        ctx.prec = 50
        term = (-Decimal(mu)).exp()
        for k in range(poisson_terms(mu) + 1):
            if k:
                term = term * Decimal(mu) / k
            ref.append(float(term))
    start, w = poisson_weights(mu)
    assert w.shape == (poisson_terms(mu) + 1 - start,)
    np.testing.assert_allclose(w, ref[start:], rtol=1e-12, atol=1e-300)
    # the truncated mass is below 1e-20, so the normalized weights keep it
    assert abs(sum(ref) - 1.0) < 1e-15


@pytest.mark.parametrize("mu", [0.5, 30.0, 900.0, 5000.0, 1e5])
def test_poisson_window_loses_under_1e20(mu):
    # against the pmf in log space on every index 0..K + 20 sqrt(mu) + 200:
    # the window is at most 20 sqrt(mu) + 83 wide, the mass left of it and
    # right of it is each below 1e-20, and
    # the window holds the pmf (log-space rounding: k log mu is ~1e6 at
    # mu = 1e5, so about 1e-10 relative)
    start, w = poisson_weights(mu)
    k_max = poisson_terms(mu)
    k = np.arange(k_max + int(20 * math.sqrt(mu)) + 201)
    pmf = np.exp(k * math.log(mu) - mu - gammaln(k + 1))
    assert w.shape[0] <= 20 * math.sqrt(mu) + 83  # mirrors the right end
    assert math.fsum(pmf[:start]) < 1e-20
    assert math.fsum(pmf[k_max + 1:]) < 1e-20
    np.testing.assert_allclose(w, pmf[start:k_max + 1], rtol=1e-8, atol=1e-30)


def test_unsorted_grid_with_duplicates_matches_pointwise():
    law = _laws(MIXES["fig9a"], 2)["r2"]
    grid = np.array([30.0, 0.0, 5.0, 30.0, 0.25, 5.0, 120.0])
    # each point sums its own prefix of the one product sequence
    pointwise = np.array([law.ccdf(t) for t in grid])
    assert np.array_equal(law.ccdf(grid), pointwise)
    assert isinstance(law.ccdf(5.0), float)
    assert law.ccdf(np.array([])).shape == (0,)
    for bad in (-1.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            law.ccdf([0.0, bad])


def test_unsigned_law_is_refused():
    init, gen, tail = [0.5, 0.5], [[-2.0, 1.0], [0.5, -1.0]], [1.0, 1.0]
    MatrixExpDist(init, gen, tail)
    # rounding-sized negatives (relative to q, or to the vector's largest
    # entry) pass
    tiny = -1e-15
    MatrixExpDist([0.5, tiny], [[-2.0, tiny], [0.5, -1.0]], [1.0, tiny])
    for law in (([0.5, -0.1], gen, tail),
                (init, [[-2.0, 1.0], [-0.1, -1.0]], tail),
                (init, gen, [1.0, -0.1])):
        with pytest.raises(FloatingPointError, match="differ in sign"):
            MatrixExpDist(*law)
    with pytest.raises(FloatingPointError, match="non-finite"):
        MatrixExpDist([1.0], [[np.nan]], [1.0])


def test_response_exit_flow_has_no_rounding_negatives():
    # W2's exit flow -gen tail cancels, by about 2.6e-12 q below zero for
    # Erlang-20 type-2 jobs at lambda = 0.9999; plus() zeroes such entries,
    # so R2 = W2 + X2 has no negative rate off the diagonal
    mix = normalized_mix(2 / 3, ph_erlang(3, 1.0), ph_erlang(20, 4.0), 0.9999)
    model = resp2.build_w2_model(mix, 2)
    w2, r2 = model.w2, model.r2
    assert np.min(-w2.gen @ w2.tail) < -1e-12 * w2.rate
    assert np.min(r2.gen - np.diag(np.diag(r2.gen))) >= 0.0
    # a flow that is negative beyond rounding is kept, and refused
    bad = MatrixExpDist([0.5, 0.5], [[-1.0, 1.0], [0.0, -1.0]], [0.1, 1.0])
    with pytest.raises(FloatingPointError, match="gen off the diagonal"):
        bad.plus(ph_exponential(mean=1.0))
