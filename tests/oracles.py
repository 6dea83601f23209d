"""Independent oracles shared by the test modules (not collected).

Each one recomputes a package result by a slower, generic route (dense
``scipy.linalg.expm``, Sylvester iteration, adaptive quadrature, string
enumeration, a queue scan per arrival) and so does not go through
``phtype.expm``, the evaluation of ``MatrixExpDist`` (``dense_ccdf`` and
``dense_density`` read only a law's fields), the window sweep of
``asymptotics.family_prefactors`` or the event loop of ``sim.simulate``.
"""

from collections import deque

import numpy as np
from scipy.integrate import quad
from scipy.linalg import expm, solve_sylvester

from nudgem.asymptotics import (FAMILY_M_CAP, AtirReport, ComplexityError,
                                atir_from_prefactors)
from nudgem.policy import all_strings, count_twos, fcfs_policy, increment_edges
from nudgem.sim import SimStats, sample_phase_type
from nudgem.swap import build_swap_chain, mean_swaps_at


def convolution_ccdf(ph, wait_ccdf, t):
    """P[W + X > t] for X ~ PH(alpha, S) independent of W, by quadrature:
    P[X > t] + int_0^t f_X(x) P[W > t - x] dx with f_X(x) = alpha e^{Sx} s*."""
    exit_rates = -ph.S.sum(axis=1)

    def integrand(x):
        return float(ph.alpha @ expm(ph.S * x) @ exit_rates) * wait_ccdf(t - x)

    service = float(ph.alpha @ expm(ph.S * t) @ np.ones(ph.n))
    conv, _ = quad(integrand, 0.0, t, epsabs=1e-12, epsrel=1e-12, limit=200)
    return service + conv


def solve_riccati_fixed_point(model, max_iter=200000, tol=1e-13):
    """Minimal nonnegative Psi of T_+- + Psi T_-- + T_++ Psi + Psi T_-+ Psi = 0
    by Sylvester iteration from Psi = 0, which converges monotonically to
    it. Small models only."""
    psi = np.zeros_like(model.t_pm)
    for _ in range(max_iter):
        rhs = -model.t_pm - psi @ model.t_mp @ psi
        nxt = solve_sylvester(model.t_pp, model.t_mm, rhs)
        if np.linalg.norm(nxt - psi, np.inf) < tol:
            return nxt
        psi = nxt
    raise AssertionError("fixed-point Riccati iteration did not converge")


def initial_distribution_expm(chain, s):
    """Row vector e_1' e^{W_M s} of the window-M counting chain by a dense
    matrix exponential."""
    e1 = np.zeros(chain.w[chain.m].shape[0])
    e1[0] = 1.0
    return e1 @ expm(chain.w[chain.m] * s)


def mean_swaps_quadrature(mix, m, theta_z):
    """Unconditional mean swap count as the integral of the workload density
    f_Z(s) = lambda beta e^{Ts} 1 against E[X_swap(s)] on [0, 40/theta_Z]."""
    chain = build_swap_chain(mix, m)
    ones = np.ones(mix.T.shape[0])

    def integrand(s):
        density = mix.lam * float(mix.beta @ expm(mix.T * s) @ ones)
        return density * mean_swaps_at(chain, s)

    val, _ = quad(integrand, 0.0, 40.0 / theta_z, limit=200,
                  epsabs=1e-10, epsrel=1e-10)
    return val


def dense_ccdf(law, t):
    """P[X > t] = init e^{gen t} tail of a ``MatrixExpDist`` by one dense
    matrix exponential per point, at a scalar t or on a 1-D grid."""
    return _dense_eval(law, t, law.tail)


def dense_density(law, t):
    """f_X(t) = init e^{gen t} (-gen tail) by one dense matrix exponential
    per point."""
    return _dense_eval(law, t, -law.gen @ law.tail)


def _dense_eval(law, t, vec):
    ts = np.asarray(t, dtype=float)
    vals = np.array([law.init @ expm(law.gen * x) @ vec for x in ts.ravel()])
    return float(vals[0]) if ts.ndim == 0 else vals


def family_prefactors_enum(policy, info, mix):
    """Waiting-time prefactors of a family member by direct enumeration of
    the defining sums: strings of length M for the type-1 prefactor and of
    length 2M (tagged type-2 job in position M+1) for the type-2 prefactor.
    Cost O(2^{2M} M) in Python; capped at M <= 6.
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


def random_family_member(m, steps, rng):
    """A random valid table of F_m: a walk of at most ``steps`` single
    increments (``policy.increment_edges``) from FCFS, each edge picked by
    ``rng.randrange``."""
    pol = fcfs_policy(m)
    for _ in range(steps):
        edges = list(increment_edges(pol))
        if not edges:
            break
        pol = edges[rng.randrange(len(edges))][1]
    return pol


def simulate_queue_scan(config):
    """``sim.simulate`` by the original event loop, which scans the whole
    queue per type-1 arrival (``list.pop(0)``, ``set(queue)``,
    ``queue.index``) and keys the policy table by a tuple of types. Must
    give bit-identical ``SimStats`` for the same config."""
    mix, policy = config.mix, config.policy
    n, m = config.n_jobs, policy.m
    base = np.random.Philox(config.seed)
    g_arrival = np.random.Generator(base)
    g_type = np.random.Generator(base.jumped(1))
    g_service = np.random.Generator(base.jumped(2))

    arrivals = np.cumsum(g_arrival.exponential(1.0 / mix.lam, n))
    types = np.where(g_type.random(n) < mix.p, 1, 2)
    service = np.empty(n)
    is1 = types == 1
    service[is1] = sample_phase_type(mix.ph1, g_service, int(is1.sum()))
    service[~is1] = sample_phase_type(mix.ph2, g_service, int((~is1).sum()))

    start = np.empty(n)
    workload_seen = np.empty(n)
    times_passed = np.zeros(n, dtype=np.int64)
    n_passes = np.zeros(n, dtype=np.int64)

    queue: list = []            # waiting job ids in service order
    window = deque(maxlen=m)    # ids of last m arrivals, newest first
    in_service = -1
    service_ends = np.inf
    now_workload = 0.0
    prev_t = 0.0

    def begin_service(t: float):
        nonlocal in_service, service_ends
        job = queue.pop(0)
        in_service = job
        start[job] = t
        service_ends = t + service[job]

    for i in range(n):
        t = arrivals[i]
        # departures before this arrival
        while service_ends <= t:
            done, in_service = service_ends, -1
            if queue:
                begin_service(done)
            else:
                service_ends = np.inf
                break
        now_workload = max(0.0, now_workload - (t - prev_t))
        workload_seen[i] = now_workload
        now_workload += service[i]
        prev_t = t

        if types[i] == 1 and window:
            s = tuple(types[j] for j in window)
            want = policy.table[s + (1,) * (m - len(s))]
            waiting = set(queue)
            targets = [j for j in window if types[j] == 2 and j in waiting]
            targets = targets[:want]  # window is newest first
            if targets:
                pos = min(queue.index(j) for j in targets)
                queue.insert(pos, i)
                for j in targets:
                    times_passed[j] += 1
            else:
                queue.append(i)
            n_passes[i] = len(targets)
        else:
            queue.append(i)
        window.appendleft(i)
        if in_service < 0:
            begin_service(t)

    # drain; the last departure ends the busy-time horizon
    while in_service >= 0:
        done, in_service = service_ends, -1
        if queue:
            begin_service(done)

    w = config.warmup
    passes_hist = np.bincount(n_passes[w:][types[w:] == 1], minlength=m + 1)
    passed_hist = np.bincount(times_passed[w:][types[w:] == 2], minlength=m + 1)
    wait = start - arrivals
    # work conservation: from job w's arrival to the last departure the
    # server is busy for the work found then plus all work arriving after
    busy = workload_seen[w] + service[w:].sum()
    return SimStats(
        config=config,
        job_type=types[w:],
        wait=wait[w:],
        response=(wait + service)[w:],
        workload_seen=workload_seen[w:],
        passes_hist=passes_hist,
        passed_hist=passed_hist,
        times_passed=times_passed[w:],
        busy_fraction=float(busy / (done - arrivals[w])),
    )
