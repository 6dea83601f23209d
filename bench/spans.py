"""Span tracing around the public nudgem functions, installed from outside.

The traced run replaces each public function, at the name its caller looks
it up by, with a wrapper that records a span (name, start, end, parent).
Spans are kept in memory and written out when the run ends. A layer's self
time is the duration of its spans minus the part covered by child spans.
Exact counts come from public dataclass fields of the results; the ones the
benchmark derives by formula are marked computed in ``LAYER_METRICS``.

Nothing under ``src/`` is changed: ``install`` patches module and class
attributes and ``uninstall`` puts the originals back. A name that a later
version of nudgem no longer has is skipped and listed in ``missing``.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

import numpy as np

from nudgem import asymptotics, cli, fluid, phtype, policy, resp2, sim, swap


class Tracer:
    def __init__(self):
        self.spans: List[list] = []   # [name, start, end, parent index]
        self._stack: List[int] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.maxima: Dict[str, float] = defaultdict(float)
        self._patched: List[tuple] = []
        self.missing: List[str] = []

    def span(self, name: str, fn: Callable,
             record: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append([name, time.perf_counter(), 0.0, parent])
            tracer._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                tracer.spans[idx][2] = time.perf_counter()
            if record is not None:
                # bookkeeping gets its own span so it is not billed to a layer
                traced_record = tracer.span("trace.record", record)
                traced_record(tracer, result, *args, **kwargs)
            return result

        return traced

    def patch(self, owner, attr: str, name: str,
              record: Optional[Callable] = None) -> None:
        fn = owner.__dict__.get(attr)
        if fn is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._patched.append((owner, attr, fn))
        setattr(owner, attr, self.span(name, fn, record))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)

    def self_times(self) -> Dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for (name, start, end, _), c in zip(self.spans, child):
            out[name] += end - start - c
        return out

    def totals(self) -> Dict[str, float]:
        out: Dict[str, float] = defaultdict(float)
        for name, start, end, _ in self.spans:
            out[name] += end - start
        return out

    def dump(self) -> List[list]:
        return [[n, round(s, 9), round(e, 9), p] for n, s, e, p in self.spans]


# --- recorders: exact counts from public fields of inputs and results -------

def _nnz_frac(a: np.ndarray) -> float:
    return float(np.count_nonzero(a)) / a.size


def _rec_expm(tr: Tracer, result, q, t=1.0):
    n = np.shape(q)[0]
    tr.counts["phtype.expm.calls"] += 1
    tr.counts["phtype.expm.n3_sum_g"] += n ** 3 / 1e9


def _rec_fluid_model(tr: Tracer, model, *args, **kwargs):
    if model.n_plus >= tr.maxima["fluid.n_plus_max"]:
        tr.maxima["fluid.n_plus_max"] = model.n_plus
        tr.maxima["fluid.t_pp_nnz_frac"] = _nnz_frac(model.t_pp)


def _rec_riccati(tr: Tracer, psi, model, *args, **kwargs):
    tr.counts["fluid.riccati.calls"] += 1
    res = fluid.riccati_residual(model, psi)
    tr.maxima["fluid.riccati.residual_max"] = max(
        tr.maxima["fluid.riccati.residual_max"], res)


def _rec_w2(tr: Tracer, w2m, *args, **kwargs):
    dim = w2m.t_m.shape[0]
    if dim >= tr.maxima["resp2.dim_max"]:
        tr.maxima["resp2.dim_max"] = dim
        tr.maxima["resp2.nnz_frac"] = _nnz_frac(w2m.t_m)


def _rec_chain(tr: Tracer, chain, *args, **kwargs):
    tr.counts["swap.chain_build.calls"] += 1
    tr.maxima["swap.chain_size_max"] = max(tr.maxima["swap.chain_size_max"],
                                           chain.w[chain.m].shape[0])


def _rec_family(tr: Tracer, report, pol, *args, **kwargs):
    tr.counts["asymptotics.family_prefactors.calls"] += 1
    tr.counts["asymptotics.family_strings"] += 2 ** pol.m + 2 ** (2 * pol.m)


def _rec_kl(tr: Tracer, best, info, mix, k_max=None):
    cap = k_max if k_max is not None else max(1, asymptotics.m_opt(info))
    tr.counts["asymptotics.kl_pairs_skipped"] += sum(
        1 for k in range(1, cap + 1) for l in range(1, cap + 1)
        if k + l - 1 > asymptotics.FAMILY_M_CAP)


def _rec_table(tr: Tracer, result, pol):
    tr.counts["policy.tables_built"] += 1


def _rec_sim(tr: Tracer, stats, config):
    tr.counts["sim.jobs"] += config.n_jobs


def install(tr: Tracer) -> None:
    """Wrap every traced public function where its caller looks it up."""
    # every expm_action path (fluid, resp2, swap, PhaseType.ccdf) calls
    # phtype.expm, so one wrapper sees all matrix exponentials
    tr.patch(phtype, "expm", "phtype.expm", _rec_expm)
    tr.patch(fluid.FluidSolution, "w1_ccdf", "fluid.w1_ccdf")
    tr.patch(fluid, "response_ccdf", "fluid.response_ccdf")
    tr.patch(fluid, "build_nudge_m_fluid", "fluid.build", _rec_fluid_model)
    tr.patch(fluid, "build_fcfs_fluid", "fluid.build", _rec_fluid_model)
    tr.patch(fluid, "solve_riccati", "fluid.riccati", _rec_riccati)
    tr.patch(fluid, "stationary_fluid", "fluid.stationary")
    tr.patch(resp2, "build_w2_model", "resp2.build", _rec_w2)
    tr.patch(resp2.W2Model, "w2_ccdf", "resp2.w2_ccdf")
    tr.patch(resp2.W2Model, "r2_ccdf", "resp2.r2_ccdf")
    tr.patch(swap, "build_swap_chain", "swap.chain_build", _rec_chain)
    tr.patch(resp2, "build_swap_chain", "swap.chain_build", _rec_chain)
    tr.patch(swap, "mean_response", "swap.mean_response")
    tr.patch(asymptotics, "decay_rate", "asymptotics.decay_rate")
    tr.patch(cli, "decay_rate", "asymptotics.decay_rate")
    tr.patch(asymptotics, "family_prefactors", "asymptotics.family_prefactors",
             _rec_family)
    tr.patch(asymptotics, "verify_optimality", "asymptotics.verify_optimality")
    tr.patch(asymptotics, "best_nudge_kl", "asymptotics.best_nudge_kl", _rec_kl)
    tr.patch(policy, "named_policy", "policy.table_build")
    tr.patch(policy, "nudge_kl_policy", "policy.table_build")
    tr.patch(policy.PolicyFn, "__post_init__", "policy.table_build", _rec_table)
    tr.patch(sim, "simulate", "sim.simulate", _rec_sim)
    tr.patch(sim, "sample_phase_type", "sim.sample_phase_type")
    tr.patch(sim, "empirical_ccdf", "sim.estimators")
    tr.patch(sim.SimStats, "mean_response", "sim.estimators")
    tr.patch(sim.SimStats, "mean_wait", "sim.estimators")
    tr.patch(cli, "main", "cli.command")
    tr.patch(cli, "write_csv", "cli.write_csv")


# Per-layer metric -> (kind, source): "self" self time of a span name,
# "total" inclusive time, "calls" span count, "count"/"max" recorded values.
LAYER_METRICS = {
    "phtype.expm.s": ("self", "phtype.expm"),
    "phtype.expm.calls": ("count", "phtype.expm.calls"),
    "phtype.expm.n3_sum_g": ("count", "phtype.expm.n3_sum_g"),  # computed
    "fluid.w1_ccdf.s": ("self", "fluid.w1_ccdf"),
    "fluid.w1_ccdf.calls": ("calls", "fluid.w1_ccdf"),
    "fluid.response_ccdf.s": ("self", "fluid.response_ccdf"),
    "fluid.build.s": ("self", "fluid.build"),
    "fluid.riccati.s": ("self", "fluid.riccati"),
    "fluid.riccati.calls": ("count", "fluid.riccati.calls"),
    "fluid.riccati.residual_max": ("max", "fluid.riccati.residual_max"),
    "fluid.stationary.s": ("self", "fluid.stationary"),
    "fluid.n_plus_max": ("max", "fluid.n_plus_max"),
    "fluid.t_pp_nnz_frac": ("max", "fluid.t_pp_nnz_frac"),
    "resp2.build.s": ("self", "resp2.build"),
    "resp2.w2_ccdf.s": ("self", "resp2.w2_ccdf"),
    "resp2.r2_ccdf.s": ("self", "resp2.r2_ccdf"),
    "resp2.dim_max": ("max", "resp2.dim_max"),
    "resp2.nnz_frac": ("max", "resp2.nnz_frac"),
    "swap.chain_build.s": ("self", "swap.chain_build"),
    "swap.chain_build.calls": ("count", "swap.chain_build.calls"),
    "swap.mean_response.s": ("self", "swap.mean_response"),
    "swap.chain_size_max": ("max", "swap.chain_size_max"),
    "asymptotics.decay_rate.s": ("self", "asymptotics.decay_rate"),
    "asymptotics.family_prefactors.s": ("self", "asymptotics.family_prefactors"),
    "asymptotics.family_prefactors.calls": ("count",
                                            "asymptotics.family_prefactors.calls"),
    "asymptotics.family_strings": ("count",  # computed
                                   "asymptotics.family_strings"),
    "asymptotics.verify_optimality.s": ("self", "asymptotics.verify_optimality"),
    "asymptotics.best_nudge_kl.s": ("self", "asymptotics.best_nudge_kl"),
    "asymptotics.kl_pairs_skipped": ("count",  # computed
                                     "asymptotics.kl_pairs_skipped"),
    "policy.table_build.s": ("self", "policy.table_build"),
    "policy.tables_built": ("count", "policy.tables_built"),
    "sim.simulate.s": ("total", "sim.simulate"),
    "sim.sample_phase_type.s": ("self", "sim.sample_phase_type"),
    "sim.event_loop.s": ("self", "sim.simulate"),
    "sim.estimators.s": ("self", "sim.estimators"),
    "cli.command.s": ("self", "cli.command"),
    "cli.write_csv.s": ("self", "cli.write_csv"),
}


def layer_metrics(tr: Tracer) -> Dict[str, float]:
    """Every per-layer metric of one traced pass (0 for an untouched layer)."""
    self_t, total_t = tr.self_times(), tr.totals()
    calls: Dict[str, int] = defaultdict(int)
    for name, *_ in tr.spans:
        calls[name] += 1
    src = {"self": self_t, "total": total_t, "calls": calls,
           "count": tr.counts, "max": tr.maxima}
    out = {k: float(src[kind].get(name, 0.0))
           for k, (kind, name) in LAYER_METRICS.items()}
    sim_s = total_t.get("sim.simulate", 0.0)
    out["sim.jobs_per_s"] = tr.counts["sim.jobs"] / sim_s if sim_s > 0 else 0.0
    return out


def layer_self_sum(tr: Tracer) -> float:
    """Self time of all layer spans (bench and trace bookkeeping excluded)."""
    return sum(v for k, v in tr.self_times().items()
               if not k.startswith(("bench.", "trace.")))
