"""Discrete-event M/G/1 simulator for the Nudge policy family.

Serves as the independent oracle for the analytic modules: Poisson
arrivals, Bernoulli types, phase-type services, and queue reordering at
type-1 arrivals driven by an arbitrary family policy table.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .phtype import InstabilityError, JobMix, PhaseType
from .policy import PolicyFn

DEFAULT_BATCHES = 30
MIN_EXCEEDANCES = 100


class EstimationError(RuntimeError):
    """Too few tail exceedances for a prefactor estimate."""


@dataclass(frozen=True)
class SimConfig:
    mix: JobMix
    policy: PolicyFn
    n_jobs: int
    seed: int
    warmup: int = None
    n_batches: int = DEFAULT_BATCHES

    def __post_init__(self):
        if self.warmup is None:
            object.__setattr__(self, "warmup", self.n_jobs // 10)
        if not (0 <= self.warmup < self.n_jobs):
            raise ValueError("need n_jobs > warmup >= 0")
        if self.mix.lam >= 1.0:
            raise InstabilityError(f"load {self.mix.lam} >= 1")
        if self.n_batches < 2:
            raise ValueError("need at least two batches")


def sample_phase_type(ph: PhaseType, gen: np.random.Generator,
                      size: int) -> np.ndarray:
    """Vectorized absorption-time sampling of a phase-type law."""
    n = ph.alpha.shape[0]
    rates = -np.diag(ph.S)
    jump = ph.S / rates[:, None]
    np.fill_diagonal(jump, 0.0)
    # column 0 = absorption, columns 1.. = next phase
    step = np.column_stack([ph.exit / rates, jump])
    cum = np.cumsum(step, axis=1)

    total = np.zeros(size)
    state = gen.choice(n, size=size, p=ph.alpha / ph.alpha.sum())
    alive = np.arange(size)
    while alive.size:
        st = state[alive]
        total[alive] += gen.exponential(1.0, alive.size) / rates[st]
        nxt = (gen.random(alive.size)[:, None] > cum[st]).sum(axis=1)
        moved = nxt > 0
        state[alive[moved]] = nxt[moved] - 1
        alive = alive[moved]
    return total


@dataclass(frozen=True)
class SimStats:
    """Per-job records plus summary histograms of one replication."""

    config: SimConfig
    job_type: np.ndarray       # 1 or 2, post-warmup jobs in arrival order
    wait: np.ndarray
    response: np.ndarray
    workload_seen: np.ndarray  # workload found on arrival
    passes_hist: np.ndarray    # passes performed per type-1 arrival, index 0..M
    passed_hist: np.ndarray    # times passed per type-2 job, index 0..M
    times_passed: np.ndarray   # per post-warmup job (0 for type-1)
    busy_fraction: float

    def _select(self, job_type) -> np.ndarray:
        if job_type in ("any", 0, None):
            return np.ones(self.job_type.shape[0], dtype=bool)
        return self.job_type == int(job_type)

    def _batch_means(self, values: np.ndarray, mask: np.ndarray) -> Tuple[float, float]:
        b = self.config.n_batches
        edges = np.linspace(0, values.shape[0], b + 1).astype(int)
        means = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            sel = mask[lo:hi]
            if sel.any():
                means.append(values[lo:hi][sel].mean())
        means = np.asarray(means)
        return float(means.mean()), float(means.std(ddof=1) / np.sqrt(means.size))

    def mean_response(self, job_type="any") -> Tuple[float, float]:
        return self._batch_means(self.response, self._select(job_type))

    def mean_wait(self, job_type="any") -> Tuple[float, float]:
        return self._batch_means(self.wait, self._select(job_type))


def simulate(config: SimConfig) -> SimStats:
    """Run one replication; fully determined by config.seed."""
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
    busy = 0.0

    def begin_service(t: float):
        nonlocal in_service, service_ends, busy
        job = queue.pop(0)
        in_service = job
        start[job] = t
        service_ends = t + service[job]
        busy += service[job]

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
    return SimStats(
        config=config,
        job_type=types[w:],
        wait=wait[w:],
        response=(wait + service)[w:],
        workload_seen=workload_seen[w:],
        passes_hist=passes_hist,
        passed_hist=passed_hist,
        times_passed=times_passed[w:],
        busy_fraction=busy / done,
    )


def empirical_ccdf(stats: SimStats, job_type, t: float,
                   kind: str = "wait") -> Tuple[float, float]:
    """Batch-means estimate of P[wait > t] or P[response > t]."""
    values = stats.wait if kind == "wait" else stats.response
    mask = stats._select(job_type)
    return stats._batch_means((values > t).astype(float), mask)


def tail_prefactor_estimate(stats: SimStats, theta_z: float,
                            t_grid: Sequence[float],
                            job_type="any", kind: str = "wait") -> Tuple[float, float]:
    """Prefactor of an assumed c e^{-theta_Z t} tail: regression of the
    log ccdf on t with the slope pinned at -theta_Z (desk-scale runs
    cannot resolve slope and intercept jointly)."""
    values = stats.wait if kind == "wait" else stats.response
    sel = values[stats._select(job_type)]
    logs = []
    for t in t_grid:
        exceed = int((sel > t).sum())
        if exceed < MIN_EXCEEDANCES:
            raise EstimationError(
                f"only {exceed} exceedances at t={t}; need {MIN_EXCEEDANCES}")
        logs.append(np.log(exceed / sel.size) + theta_z * t)
    logs = np.asarray(logs)
    est = float(np.exp(logs.mean()))
    spread = float(logs.std(ddof=1) / np.sqrt(logs.size)) if logs.size > 1 else 0.0
    return est, est * spread

