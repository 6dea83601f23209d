"""Discrete-event M/G/1 simulator for the Nudge policy family.

Serves as the independent oracle for the analytic modules: Poisson
arrivals, Bernoulli types, phase-type services, and queue reordering at
type-1 arrivals driven by an arbitrary family policy table. A run is fixed
by its seed.

The run is cut into blocks of about ``SIM_BLOCK`` arrivals, each starting at
an arrival that finds the system empty; blocks share nothing but the type
window. A block is computed by numpy passes whose every number is the float
the event loop would make, and every guess of those passes is checked
exactly; a block that fails a check is recomputed by the event loop
(``_event_loop``). The passes are:

1. the workload chain V_i = max(0, (V_{i-1} + x_{i-1}) - (a_i - a_{i-1})),
   as sums over [x, -d] restarted at the idle arrivals
   (``_restarted_cumsum``; ``np.cumsum`` adds along a row in order);
2. each type-1 arrival's passes (``_decide``). Type-2 jobs start in arrival
   order, so a type-1 arrival passes the newest min(n(s), waiting) type-2
   jobs of its window. A waiting candidate j starts no earlier than
   a_j + V_j and, by the arrival's time, no later than that plus the
   type-1 work that arrived in between, so most counts follow from these
   bounds. The upper bound is searched only where it can decide: the lower
   count never exceeds it, so a row whose lower count is already
   min(n(s), the window's type-2 jobs) is decided (at λ = 0.95, Nudge-5 on
   the fig5a mix, 21,655 of 115,629 rows needed the search). The rows left
   open are settled on a_j + V_j plus the work that has passed j by then
   (``_settle``): a numpy fixed point recounts every open row from the
   passes of the last round, starting from none, until no count changes;
3. the service order, one stable sort on 2·anchor + [not a passer], where a
   passer's anchor is the oldest job it passed: it goes in front of that
   job, after the passers that went there before it;
4. the service chain in that order, as sums restarted at the idle arrivals
   from a + x.

The checks are that each chain restarts exactly where its values meet the
restart condition, that each type-1 arrival at t passes min(n(s), w) jobs,
w the type-2 jobs of its window that the service chain starts after t, and
that the next block's first arrival finds the system empty. When they
hold, the event loop would have made the same decisions, by induction on
arrivals: with the same decisions before an arrival, it would have served
the same jobs in the same order by then, with the same float sums.
Exactness rests on the checks alone, never on a margin; the bounds only
decide how much is left to the fixed point. A block of B arrivals costs
O(B log B) numpy work (the sorts; the padded sums take at most twice the
block) plus O(M^2) numpy work per fixed-point round for each arrival its
bounds leave open, with no Python step per arrival. Under load the open
arrivals are type-1 arrivals near the end of a busy period. In runs of
2·10⁵ jobs from λ = 0.1 to 0.99 they were at most about 5% of the
arrivals, near λ = 0.75, for Nudge-5 on the fig5a mix, and a block took
at most 6 rounds (7 for Nudge-8 on the fig5b mix), the last of which
only confirms the counts.

Each block also costs about 0.5 ms of numpy calls whatever its size (the
slope of ``simulate``'s time over the block count), while its arrays are
all live at once. On 2·10⁵ jobs at λ = 0.95, Nudge-5 on the fig5a mix, one
core, median of 15 runs, with the peak RSS of the benchmark's sim-heavy
pass (arrays of 1 MB or more mapped on their own):

    SIM_BLOCK   blocks   simulate   peak RSS
    2^13        23       61.4 ms    72.7-73.3 MB
    2^14        12       54.9 ms    73.0-74.8 MB
    2^15         7       53.6 ms    76.0-77.2 MB
    2^16         4       55.8 ms    83.3-83.4 MB

``SIM_BLOCK`` is the fastest of these whose peak stays within about 1 MB
of 2^13's. Where a run is cut changes how it is computed, never what.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .phtype import JobMix, PhaseType
from .policy import PolicyFn

# Batches of the batch-means estimators.
N_BATCHES = 30

# Arrivals per block, before the block is stretched to the next arrival
# that clearly finds the system empty (the module docstring has the sizes
# measured).
SIM_BLOCK = 1 << 14


class EstimationError(RuntimeError):
    """Too little data for an estimate, such as fewer than two batches
    that hold a job of the selected type."""


@dataclass(frozen=True)
class SimConfig:
    mix: JobMix
    policy: PolicyFn
    n_jobs: int
    seed: int
    warmup: Optional[int] = None

    def __post_init__(self):
        if self.warmup is None:
            object.__setattr__(self, "warmup", self.n_jobs // 10)
        if not (0 <= self.warmup < self.n_jobs):
            raise ValueError("need n_jobs > warmup >= 0")
        if self.n_jobs - self.warmup < N_BATCHES:
            raise ValueError(
                f"{self.n_jobs} jobs leave {self.n_jobs - self.warmup} after "
                f"a warm-up of {self.warmup}, fewer than the "
                f"{N_BATCHES} batches")


def _next_phase(cum: np.ndarray, state: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The column of each sample's step law that its uniform u picks,
    (u[:, None] > cum[state]).sum(1), counted column by column within each
    phase, with no row gathered per sample. 0 is absorption, k > 0 phase
    k - 1."""
    if cum.shape[0] == 1:
        return _count_below(cum[0], u)
    nxt = np.empty(u.shape[0], dtype=np.intp)
    for phase, row in enumerate(cum):
        at = state == phase
        nxt[at] = _count_below(row, u[at])
    return nxt


def _count_below(row: np.ndarray, u: np.ndarray) -> np.ndarray:
    """How many entries of ``row`` each u exceeds."""
    count = np.zeros(u.shape[0], dtype=np.intp)
    for c in row:
        count += u > c
    return count


def sample_phase_type(ph: PhaseType, gen: np.random.Generator,
                      size: int) -> np.ndarray:
    """Vectorized absorption-time sampling of a phase-type law.

    After the initial phases, each round draws a sojourn (exponential) and
    then a step (uniform) for every sample still alive, in sample order.
    The first round, with every sample alive, takes whole arrays; the later
    ones gather the few samples left.

    The initial phases are what ``gen.choice(n, size, p=alpha / alpha.sum())``
    returns, from the same draws: with weights, ``Generator.choice`` checks
    p, divides its running sum by the last entry and returns
    ``searchsorted(cdf, random(size), side="right")``. Only the checks are
    skipped (``PhaseType`` checks alpha once, and tolerates entries down to
    -1e-14 that ``choice`` refuses), so the stream stays where ``choice``
    leaves it, one-phase laws included."""
    rates = -np.diag(ph.S)
    jump = ph.S / rates[:, None]
    np.fill_diagonal(jump, 0.0)
    # column 0 = absorption, columns 1.. = next phase
    step = np.column_stack([ph.exit / rates, jump])
    cum = np.cumsum(step, axis=1)

    cdf = np.cumsum(ph.alpha / ph.alpha.sum())
    cdf /= cdf[-1]
    state = np.searchsorted(cdf, gen.random(size), side="right")
    total = gen.exponential(1.0, size) / rates[state]
    nxt = _next_phase(cum, state, gen.random(size))
    alive = np.flatnonzero(nxt)
    while alive.size:
        state = nxt[nxt > 0] - 1
        total[alive] += gen.exponential(1.0, alive.size) / rates[state]
        nxt = _next_phase(cum, state, gen.random(alive.size))
        alive = alive[nxt > 0]
    return total


class SimPath(NamedTuple):
    """How ``simulate`` computed a run: its blocks, the blocks that the
    event loop recomputed after a failed check, the arrivals of the other
    blocks whose lower-bound count needed the upper-bound search and those
    whose pass decisions the bounds left open, and the most fixed-point
    rounds that settled them in any one block."""

    blocks: int = 0
    event_loop_blocks: int = 0
    short_rows: int = 0
    loop_arrivals: int = 0
    decide_rounds: int = 0


class SimWalls(NamedTuple):
    """Wall seconds of ``simulate``'s stages: the draws, and the replay of
    the run block by block."""

    draw_s: float = 0.0
    replay_s: float = 0.0


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
    path: SimPath = SimPath()  # how simulate computed the run
    walls: SimWalls = SimWalls()  # wall seconds of simulate's stages

    @cached_property
    def _compacted(self) -> dict:
        """Per job type (None for any): the batch cut points into the
        type's jobs and their ``wait`` and ``response``, compacted once."""
        return {}

    def _by_type(self, job_type) -> Tuple[list, np.ndarray, np.ndarray]:
        key = None if job_type in ("any", 0, None) else int(job_type)
        got = self._compacted.get(key)
        if got is None:
            edges = np.linspace(0, self.job_type.shape[0],
                                N_BATCHES + 1).astype(int)
            if key is None:
                got = (edges.tolist(), self.wait, self.response)
            else:
                at = np.flatnonzero(self.job_type == key)
                # a batch's jobs of the type are one slice of the compacted
                # arrays, in arrival order
                got = (np.searchsorted(at, edges).tolist(), self.wait[at],
                       self.response[at])
            self._compacted[key] = got
        return got

    def mean_response(self, job_type="any") -> Tuple[float, float]:
        cuts, _, response = self._by_type(job_type)
        return _batch_means(response, cuts)

    def mean_wait(self, job_type="any") -> Tuple[float, float]:
        cuts, wait, _ = self._by_type(job_type)
        return _batch_means(wait, cuts)


def _batch_means(values: np.ndarray, cuts: list) -> Tuple[float, float]:
    """Mean and standard error over the batches values[cuts[k]:cuts[k + 1]]
    that hold a job. A boolean array is averaged as 0.0s and 1.0s by
    counting: their sum is exact in any order, so count / size is the
    float that ``.mean()`` of them gives."""
    batches = [(lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:]) if hi > lo]
    if values.dtype == bool:
        means = [np.count_nonzero(values[lo:hi]) / (hi - lo)
                 for lo, hi in batches]
    else:
        means = [values[lo:hi].mean() for lo, hi in batches]
    if len(means) < 2:
        raise EstimationError(
            f"{len(means)} of {N_BATCHES} batches hold a job of the selected "
            "type; need two")
    means = np.asarray(means)
    return float(means.mean()), float(means.std(ddof=1) / np.sqrt(means.size))


def _restarted_cumsum(z: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """The running sum s += z[k], reset to 0 at each index in ``heads``
    (ascending, heads[0] = 0), float for float. Segments are padded with
    zeros to the next power of two and summed as the rows of one array per
    width; ``np.cumsum`` adds along a row in order."""
    lens = np.diff(heads, append=z.shape[0])
    width = np.int64(1) << np.frexp(lens - 1)[1]
    by = np.argsort(width, kind="stable")
    ends = np.cumsum(width[by])
    base = np.empty_like(heads)
    base[by] = ends - width[by]
    pos = np.arange(z.shape[0]) + np.repeat(base - heads, lens)
    buf = np.zeros(ends[-1])
    buf[pos] = z
    lo = 0
    for last in np.append(np.flatnonzero(np.diff(width[by])), by.shape[0] - 1):
        rows = buf[lo:ends[last]].reshape(-1, width[by[last]])
        np.cumsum(rows, axis=1, out=rows)
        lo = ends[last]
    return buf[pos]


def _next_cut(arrivals: np.ndarray, service: np.ndarray, lo: int,
              size: int) -> Tuple[int, np.ndarray]:
    """The first arrival at or after lo + size that an approximate Lindley
    chain from an empty system at lo sees idle by a clear gap (or the end of
    the run), and that chain's idle flags for the arrivals lo..hi-1. Both
    are guesses: the block's exact chains check them."""
    n = arrivals.shape[0]
    span = size + max(64, size // 8)
    while True:
        top = min(n, lo + span)
        # Z_i - Z_{i-1} = x_{i-1} - (a_i - a_{i-1}) for the arrivals lo+1..top-1
        z = np.cumsum(service[lo:top - 1] - np.diff(arrivals[lo:top]))
        gap = np.minimum.accumulate(np.concatenate(([0.0], z)))[:-1] - z
        tail = slice(size - 1, None)
        clear = np.flatnonzero(gap[tail] > 1e-9 * (1.0 + np.abs(z[tail])))
        if clear.size or top == n:
            hi = lo + size + int(clear[0]) if clear.size else n
            return hi, np.concatenate(([True], gap[:hi - lo - 1] >= 0.0))
        span *= 2


def _masks(two: np.ndarray, lo: int, hi: int, m: int) -> np.ndarray:
    """Window bitmask of each arrival i in lo..hi-1: bit k is set when
    arrival i - 1 - k is type 2 (arrivals before the first count as type 1)."""
    pad = np.zeros(hi - lo + m, dtype=np.int64)
    first = max(lo - m, 0)
    pad[m - (lo - first):] = two[first:hi]
    mask = np.zeros(hi - lo, dtype=np.int64)
    for k in range(m):
        mask |= pad[m - 1 - k:m - 1 - k + hi - lo] << k
    return mask


def _capped(first, newest, from_rank, cap):
    """How many of the ranks first..newest-1 are from_rank or later, at
    most cap."""
    return np.clip(newest - np.maximum(first, from_rank), 0, cap)


class Decisions(NamedTuple):
    """The pass decisions of one block. Row r is the type-1 arrival
    ``rows[r]`` (block index) with type-2 jobs of ranks ``first[r]`` to
    ``newest[r] - 1`` in its window, counting the block's type-2 jobs from
    0 in arrival order; it passes the ``passes[r]`` newest of them."""

    rows: np.ndarray
    first: np.ndarray
    newest: np.ndarray
    passes: np.ndarray
    n_short: int  # rows below full after the lower bound
    n_loop: int   # rows the bounds left open
    rounds: int   # fixed-point rounds that settled them


def _decide(a: np.ndarray, x: np.ndarray, two: np.ndarray, seen: np.ndarray,
            want: np.ndarray, m: int) -> Decisions:
    """Pass decisions of a block from its exact workload chain ``seen``.

    Type-2 jobs start in arrival order, so the ones still waiting at a
    type-1 arrival i are the newest of its window, and i passes
    min(waiting, want) of them. A candidate j waits at t_i when
    a_j + V_j > t_i, and has started when a_j + V_j plus the type-1 work of
    the arrivals between j and i is <= t_i; both counts come from one
    ``searchsorted`` each, capped at min(window's type-2 jobs, want), the
    row's full count. The lower count never exceeds the upper one, so a row
    whose lower count is full is decided, and the upper bound is searched
    only for the rows below it (``n_short``). A row whose two counts differ
    is open: it is settled by ``_settle`` on a_j + V_j plus the work of the
    arrivals between j and i that passed j. Every decision is a guess that
    ``_fast_block`` checks."""
    before = np.cumsum(two) - two       # type-2 jobs before each arrival
    rows = np.flatnonzero(want)
    first, newest = before[np.maximum(rows - m, 0)], before[rows]
    keep = newest > first
    rows, first, newest = rows[keep], first[keep], newest[keep]
    t, cap = a[rows], want[rows]
    j2 = np.flatnonzero(two)
    lower = (a + seen)[j2]             # a_j + V_j, type-2 jobs in arrival order
    type1_work = np.cumsum(np.where(two, 0.0, x))
    full = np.minimum(newest - first, cap)
    passes = _capped(first, newest, np.searchsorted(lower, t, side="right"),
                     cap)
    # the upper count lies between passes and full, so only a row below
    # full can be open, and such a row is open when a rank older than the
    # oldest it surely passes has not surely started
    short = np.flatnonzero(passes < full)
    maybe = np.searchsorted(lower - type1_work[j2],
                            t[short] - type1_work[rows[short] - 1],
                            side="right")
    loop = short[maybe < newest[short] - passes[short]]
    rounds = 0
    if loop.size:
        passes[loop], rounds = _settle(rows, newest, passes, loop, t[loop],
                                       full[loop], lower, j2, x, m)
    return Decisions(rows, first, newest, passes, int(short.size),
                     int(loop.size), rounds)


def _settle(rows: np.ndarray, newest: np.ndarray, passes: np.ndarray,
            loop: np.ndarray, t: np.ndarray, most: np.ndarray,
            lower: np.ndarray, j2: np.ndarray, x: np.ndarray,
            m: int) -> Tuple[np.ndarray, int]:
    """The passes of the open rows ``rows[loop]`` and the rounds of the
    fixed point that found them; the other rows' ``passes`` are final.

    Candidate q of an open row i is its (q+1)-th newest type-2 job j, for
    q < ``most``. The row passes the leading run of its candidates whose
    a_j + V_j (``lower`` by rank), plus the work of the bulk-decided rows
    between j and i that passed j, plus that of the open ones, exceeds
    t_i. Each round counts the runs from the open rows' passes of the last
    round, starting from none. Each sum runs oldest passer first from
    0.0, as in the sequential loop (``oracles.decide_sequential``), so
    every value is that loop's float. Counts only rise with the work and
    the work only with the counts, so the rounds climb to the first fixed
    point; it is the loop's answer by induction in arrival order, since a
    row's work comes from earlier rows only. A round costs O(M) numpy
    work per open row and candidate."""
    n_open = loop.shape[0]
    q = np.arange(m)[:, None]
    cand = q < most                      # (candidate q, open row)
    rank = np.where(cand, newest[loop] - 1 - q, newest[loop] - 1)
    j = j2[rank]
    # the arrivals j + 1 .. j + m hold j in their windows: one layer per
    # offset, oldest first, with at most one arrival per candidate
    row_at = np.full(rows[-1] + m + 1, -1)
    row_at[rows] = np.arange(rows.shape[0])
    later = j + 1 + q[:, None]
    src = row_at[later]
    layer, pair = np.nonzero(
        (cand & (src >= 0) & (later < rows[loop])).reshape(m, -1))
    src = src.reshape(m, -1)[layer, pair]
    is_open = np.zeros(rows.shape[0], dtype=bool)
    is_open[loop] = True
    anchor = newest - passes  # a row passes the ranks anchor .. newest - 1
    anchor[loop] = newest[loop]

    def pairs(sel):
        """The passer, the rank it must reach, its work, the candidate and
        the layer cuts of the pairs ``sel``."""
        return (src[sel], rank.ravel()[pair[sel]], x[rows[src[sel]]],
                pair[sel], np.searchsorted(layer[sel], np.arange(m + 1)).tolist())

    def sums(anchor, by, need, pass_x, into, cuts):
        """Each candidate's sum of the work of the passers that pass it."""
        took = np.where(anchor[by] <= need, pass_x, 0.0)
        out = np.zeros(m * n_open)
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            out[into[lo:hi]] += took[lo:hi]
        return out.reshape(m, n_open)

    est = lower[rank] + sums(anchor, *pairs(~is_open[src]))
    by_open = pairs(is_open[src])
    got = np.zeros(n_open, dtype=np.int64)
    work = np.zeros((m, n_open))
    rounds = 0
    while True:
        rounds += 1
        over = cand & (est + work > t)
        prev, got = got, np.where(over, m, q).min(axis=0)
        if np.array_equal(got, prev):
            return got, rounds
        anchor[loop] = newest[loop] - got
        work = sums(anchor, *by_open)


class Block(NamedTuple):
    """Per-arrival results of one block, in arrival order."""

    start: np.ndarray
    seen: np.ndarray
    passed: np.ndarray   # times passed
    passes: np.ndarray   # passes performed
    n_short: int         # arrivals searched for the upper bound
    n_loop: int          # arrivals the bounds left open
    rounds: int          # fixed-point rounds that settled them


def _fast_block(a: np.ndarray, x: np.ndarray, two: np.ndarray,
                gaps: np.ndarray, idle: np.ndarray, want: np.ndarray,
                m: int) -> Optional[Block]:
    """A block by numpy passes (see the module docstring), or None when a
    check fails. ``gaps[k]`` is a_{k+1} - a_k (the last one reaches into
    the next block, 0 at the end of the run), ``idle`` flags the arrivals
    guessed to find the system empty, idle[0] = True, and ``want`` is each
    arrival's n(s) (0 for type 2)."""
    nb = a.shape[0]
    stream = np.empty(2 * nb)
    stream[0::2] = x
    stream[1::2] = -gaps  # s - d and s + (-d) are the same float
    pre = _restarted_cumsum(stream, 2 * np.flatnonzero(idle))[1:-1:2]
    if not np.array_equal(pre <= 0.0, idle[1:]):
        return None
    seen = np.zeros(nb)
    seen[1:] = np.where(idle[1:], 0.0, pre)

    dec = _decide(a, x, two, seen, want, m)
    j2 = np.flatnonzero(two)
    passer = dec.passes > 0
    # a passer goes in front of the oldest job it passed, after the
    # passers that went there before it
    anchor = dec.newest[passer] - dec.passes[passer]
    key = np.arange(1, 2 * nb, 2)
    key[dec.rows[passer]] = 2 * j2[anchor]
    order = np.argsort(key, kind="stable")
    # rank q is passed once by each passer whose ranks anchor to newest - 1
    # hold it
    times_passed = np.zeros(nb, dtype=np.int64)
    times_passed[j2] = np.cumsum(
        np.bincount(anchor, minlength=j2.size + 1)
        - np.bincount(dec.newest[passer], minlength=j2.size + 1))[:-1]
    a_o, x_o, restart = a[order], x[order], idle[order]
    if not restart[0]:
        return None
    first = x_o.copy()
    first[restart] += a_o[restart]
    ends = _restarted_cumsum(first, np.flatnonzero(restart))
    prev = np.empty(nb)
    prev[0] = -np.inf
    prev[1:] = ends[:-1]
    # a job finding the server free at its arrival (a departure at the same
    # instant is processed first) starts then; any other starts at prev
    if not np.array_equal(prev <= a_o, restart):
        return None
    start = np.where(restart, a_o, prev)
    start[order] = start.copy()
    # the chain starts type-2 jobs in arrival order, so the ones waiting at
    # t are those from the first rank whose start is after t
    waiting = np.searchsorted(start[j2], a[dec.rows], side="right")
    if not np.array_equal(dec.passes, _capped(dec.first, dec.newest, waiting,
                                              want[dec.rows])):
        return None
    n_passes = np.zeros(nb, dtype=np.int64)
    n_passes[dec.rows] = dec.passes
    return Block(start, seen, times_passed, n_passes, dec.n_short, dec.n_loop,
                 dec.rounds)


def _event_loop(arrivals, service, two, want, m: int) -> Block:
    """One block by the event loop, from an empty system at its first
    arrival, on ``_fast_block``'s inputs. It does O(M) work per arrival
    for window M, whatever the queue length: a type-1 job that finds the
    server busy passes the newest waiting type-2 jobs among the M arrivals
    before it, at most its ``want`` of them, and because type-2 jobs keep
    their arrival order in the queue it goes in front of the oldest of
    them, which sits among the queue's last M slots."""
    n = arrivals.shape[0]
    start = np.empty(n)
    workload_seen = np.empty(n)
    times_passed = np.zeros(n, dtype=np.int64)
    n_passes = np.zeros(n, dtype=np.int64)

    # memoryviews read and write the arrays as Python scalars, copying nothing
    arr, svc, cap = memoryview(arrivals), memoryview(service), memoryview(want)
    beg, seen = memoryview(start), memoryview(workload_seen)
    passed, passes = memoryview(times_passed), memoryview(n_passes)
    queue = deque()             # waiting job ids in service order
    waiting = bytearray(two)    # 1 for a type-2 job until it starts
    inf = math.inf
    service_ends = inf          # inf while the server is idle
    now_workload = 0.0
    prev_t = arr[0]

    for i, (t, x, most) in enumerate(zip(arr, svc, cap)):
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

        if service_ends == inf:  # idle server, empty queue
            waiting[i] = 0
            beg[i] = t
            service_ends = t + x
        elif not most:
            queue.append(i)
        else:  # the window's waiting type-2 jobs, newest first
            count, oldest, lo = 0, i, max(i - m, 0)
            while count < most:
                j = waiting.rfind(1, lo, oldest)
                if j < 0:
                    break
                passed[j] += 1
                oldest = j
                count += 1
            if count:
                passes[i] = count
                k = 1
                while queue[-k] != oldest:
                    k += 1
                queue.insert(-k, i)
            else:
                queue.append(i)

    while queue:  # drain
        job = queue.popleft()
        beg[job] = service_ends
        service_ends += svc[job]
    return Block(start, workload_seen, times_passed, n_passes, 0, 0, 0)


def simulate(config: SimConfig) -> SimStats:
    """Run one replication; the output is fixed by ``config.seed``.

    Arrival times, types and services are drawn up front from three Philox
    streams; nothing is drawn later. The run is cut into blocks of about
    ``SIM_BLOCK`` arrivals that each start at an arrival finding the system
    empty, and each block is computed by numpy passes that the event loop
    replaces if one of their exact checks fails (see the module docstring),
    so every output is the event loop's, float for float; exactness rests
    on the checks, not on the bounds that guide the guesses. A cut is a
    guess too: when the next block's first arrival does not find the system
    empty, the block runs on to the next cut. The cost is O(n log B) numpy
    work for blocks of B arrivals plus O(M^2) numpy work per fixed-point
    round for each arrival that the bounds leave open (at most about 5% of
    the arrivals, near λ = 0.75, for Nudge-5 on the fig5a mix, in at most
    6 rounds a block), and no Python step per arrival, where the event
    loop alone takes O(M) Python steps per arrival. ``SimStats.path``
    counts the blocks, the event-loop ones, the arrivals searched for the
    upper bound, the arrivals the bounds left open and the most rounds a
    block took; ``SimStats.walls`` times the draws and the replay.
    """
    began = time.perf_counter()
    mix, n = config.mix, config.n_jobs
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
    drawn = time.perf_counter()
    stats = _replay(config, arrivals, types, service)
    return replace(stats, walls=SimWalls(drawn - began,
                                         time.perf_counter() - drawn))


def _replay(config: SimConfig, arrivals: np.ndarray, types: np.ndarray,
            service: np.ndarray) -> SimStats:
    """``simulate``'s run on given arrival times, types (1 or 2) and
    services, block by block."""
    policy, w = config.policy, config.warmup
    n, m = arrivals.shape[0], policy.m
    two = types == 2
    wait = np.empty(n)
    workload_seen = np.empty(n)
    times_passed = np.empty(n, dtype=np.int64)
    passes_hist = np.zeros(m + 1, dtype=np.int64)
    blocks = loop_blocks = short_rows = loop_arrivals = rounds = 0
    lo = 0
    while lo < n:
        hi, idle = _next_cut(arrivals, service, lo, SIM_BLOCK)
        while True:
            a, x = arrivals[lo:hi], service[lo:hi]
            gaps = np.diff(arrivals[lo:hi + 1])
            if hi == n:
                gaps = np.append(gaps, 0.0)
            want = np.where(two[lo:hi], 0,
                            policy.by_mask[_masks(two, lo, hi, m)])
            blk = _fast_block(a, x, two[lo:hi], gaps, idle, want, m)
            fell_back = blk is None
            if fell_back:
                blk = _event_loop(a, x, two[lo:hi], want, m)
            end = float(np.max(blk.start + x))
            # the next block starts empty when the last departure and the
            # workload's drain both come by its first arrival
            if hi == n or (end <= arrivals[hi]
                           and (blk.seen[-1] + x[-1]) - gaps[-1] <= 0.0):
                break
            hi, idle = _next_cut(arrivals, service, lo, hi - lo + 1)
        blocks += 1
        loop_blocks += fell_back
        short_rows += blk.n_short
        loop_arrivals += blk.n_loop
        rounds = max(rounds, blk.rounds)
        wait[lo:hi] = blk.start - a
        workload_seen[lo:hi] = blk.seen
        times_passed[lo:hi] = blk.passed
        counted = ~two[lo:hi]  # type-1 arrivals after the warm-up
        counted[:max(w - lo, 0)] = False
        passes_hist += np.bincount(blk.passes[counted], minlength=m + 1)
        lo = hi

    passed_hist = np.bincount(times_passed[w:][two[w:]], minlength=m + 1)
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
        busy_fraction=float(busy / (end - arrivals[w])),
        path=SimPath(blocks, loop_blocks, short_rows, loop_arrivals, rounds),
    )


def empirical_ccdf(stats: SimStats, job_type, t: float) -> Tuple[float, float]:
    """Batch-means estimate of P[wait > t]."""
    cuts, wait, _ = stats._by_type(job_type)
    return _batch_means(wait > t, cuts)
