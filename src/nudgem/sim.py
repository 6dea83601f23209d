"""Discrete-event M/G/1 simulator for the Nudge policy family.

Serves as the independent oracle for the analytic modules: Poisson
arrivals, Bernoulli types, phase-type services, and queue reordering at
type-1 arrivals driven by an arbitrary family policy table. A run is fixed
by its seed, and its event loop costs O(M) per arrival for window M,
independent of the queue length.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .phtype import InstabilityError, JobMix, PhaseType
from .policy import PolicyFn

DEFAULT_BATCHES = 30
MIN_EXCEEDANCES = 100


class EstimationError(RuntimeError):
    """Too little data for an estimate: fewer than two batches hold a job
    of the selected type, or too few tail exceedances for a prefactor."""


@dataclass(frozen=True)
class SimConfig:
    mix: JobMix
    policy: PolicyFn
    n_jobs: int
    seed: int
    warmup: Optional[int] = None
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
        if self.n_jobs - self.warmup < self.n_batches:
            raise ValueError(
                f"{self.n_jobs} jobs leave {self.n_jobs - self.warmup} after "
                f"a warm-up of {self.warmup}, fewer than the "
                f"{self.n_batches} batches")


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
    busy_fraction: float       # after warm-up, to the last departure

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
        if len(means) < 2:
            raise EstimationError(
                f"{len(means)} of {b} batches hold a job of the selected "
                "type; need two")
        means = np.asarray(means)
        return float(means.mean()), float(means.std(ddof=1) / np.sqrt(means.size))

    def mean_response(self, job_type="any") -> Tuple[float, float]:
        return self._batch_means(self.response, self._select(job_type))

    def mean_wait(self, job_type="any") -> Tuple[float, float]:
        return self._batch_means(self.wait, self._select(job_type))


def simulate(config: SimConfig) -> SimStats:
    """Run one replication; the output is fixed by ``config.seed``.

    Arrival times, types and services are drawn up front from three
    Philox streams; the event loop draws nothing. The loop does O(M) work
    per arrival for window M, whatever the queue length: the policy value
    is looked up by the window bitmask, a type-1 job passes the newest
    waiting type-2 jobs among the M arrivals before it, and because
    type-2 jobs keep their arrival order in the queue it goes in front of
    the oldest of them, which sits among the queue's last M slots.
    """
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

    # memoryviews read and write the arrays as Python scalars, copying nothing
    arr, typ, svc = memoryview(arrivals), memoryview(types), memoryview(service)
    beg, seen = memoryview(start), memoryview(workload_seen)
    passed, passes = memoryview(times_passed), memoryview(n_passes)
    by_mask = policy.by_mask.tolist()
    full = (1 << m) - 1
    mask = 0                    # bit k set when job i-1-k is type 2
    queue = deque()             # waiting job ids in service order
    waiting = bytearray(n)      # 1 while the job is in the queue
    inf = math.inf
    service_ends = inf          # inf while the server is idle
    now_workload = 0.0
    prev_t = 0.0

    for i, (t, x, ty) in enumerate(zip(arr, svc, typ)):
        while service_ends <= t:  # departures before this arrival
            if queue:
                job = queue.popleft()
                waiting[job] = 0
                beg[job] = service_ends
                service_ends += svc[job]
            else:
                service_ends = inf
        now_workload -= t - prev_t  # drains at rate one, down to zero
        if now_workload <= 0.0:
            now_workload = 0.0
        seen[i] = now_workload
        now_workload += x
        prev_t = t

        two = ty == 2
        if service_ends == inf:  # idle server, empty queue
            beg[i] = t
            service_ends = t + x
        elif two or not by_mask[mask]:
            queue.append(i)
            waiting[i] = 1
        else:
            want, bits, count = by_mask[mask], mask, 0
            while bits:  # type-2 jobs in the window, newest first
                low = bits & -bits
                bits ^= low
                j = i - low.bit_length()
                if waiting[j]:
                    passed[j] += 1
                    oldest = j
                    count += 1
                    if count == want:
                        break
            if count:
                passes[i] = count
                k = 1
                while queue[-k] != oldest:
                    k += 1
                queue.insert(-k, i)
            else:
                queue.append(i)
            waiting[i] = 1
        mask = ((mask << 1) | two) & full

    # drain; the last departure ends the busy-time horizon
    while queue:
        job = queue.popleft()
        beg[job] = service_ends
        service_ends += svc[job]

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
        busy_fraction=float(busy / (service_ends - arrivals[w])),
    )


def empirical_ccdf(stats: SimStats, job_type, t: float) -> Tuple[float, float]:
    """Batch-means estimate of P[wait > t]."""
    mask = stats._select(job_type)
    return stats._batch_means((stats.wait > t).astype(float), mask)


def tail_prefactor_estimate(stats: SimStats, theta_z: float,
                            t_grid: Sequence[float],
                            job_type="any") -> Tuple[float, float]:
    """Prefactor of an assumed c e^{-theta_Z t} waiting-time tail:
    regression of the log ccdf on t with the slope pinned at -theta_Z
    (desk-scale runs cannot resolve slope and intercept jointly)."""
    sel = stats.wait[stats._select(job_type)]
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

