"""Monte Carlo harness: fresh graph and fresh support per trial.

Per-trial randomness is derived from the master seed and the trial counter, so
results do not depend on worker scheduling when --jobs splits the work.
"""

from __future__ import annotations

import concurrent.futures
import logging
import math
import os
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from .bch import field_degree
from .codec import SupportVector, TestPlan, encode, peel_decode, tests_per_pool
from .design import DesignResult, Plan, make_plan, optimize_design, pool_size
from .gf2m import MAX_DEGREE
from .graphs import sample_graph

log = logging.getLogger(__name__)


@dataclass
class TrialConfig:
    N: int
    K: int
    t: int
    d: int
    trials: int
    seed: int
    margin: float = 1.0
    jobs: int = 1


@dataclass
class SimReport:
    m: int
    M: int
    r: int
    trials: int
    total_defectives: int
    unidentified: int
    false_positives: int
    error_prob: float
    ci_lo: float
    ci_hi: float
    full_recovery: float
    mean_iterations: float
    wall_time: float

    def csv_row(self) -> str:
        return (
            f"{self.m},{self.error_prob:.6g},{self.ci_lo:.6g},{self.ci_hi:.6g},"
            f"{self.full_recovery:.6g},{self.trials}"
        )


CSV_HEADER = "m,error_prob,ci_lo,ci_hi,full_recovery,trials"


def wilson_interval(successes: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    z = 1.959964  # two-sided 95% normal quantile
    if n == 0:
        return 0.0, 1.0
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def sample_support(N: int, gamma: float, seed) -> SupportVector:
    """Each item defective independently with probability gamma."""
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"defect rate {gamma} outside (0, 1)")
    rng = np.random.default_rng(seed)
    return SupportVector(N=N, items=np.flatnonzero(rng.random(N) < gamma))


def _run_chunk(N, K, t, profile, M, r, seed, lo, hi):
    gamma = K / N
    defect_total = 0
    unidentified = 0
    false_pos = 0
    full = 0
    iters = 0
    for i in range(lo, hi):
        graph_seed, support_seed = np.random.SeedSequence(
            entropy=seed, spawn_key=(i,)
        ).spawn(2)
        graph = sample_graph(N, M, r, profile, graph_seed)
        support = sample_support(N, gamma, support_seed)
        plan = TestPlan(graph, t)
        out = peel_decode(plan, encode(plan, support))
        truth = set(support.items.tolist())
        found = set(out.identified.tolist())
        defect_total += len(truth)
        unidentified += len(truth - found)
        false_pos += len(found - truth)
        full += truth == found
        iters += out.iterations
    return defect_total, unidentified, false_pos, full, iters


def run_plan_trials(
    N: int,
    K: int,
    t: int,
    profile,
    M: int,
    r: int,
    trials: int,
    seed: int,
    jobs: int = 1,
) -> SimReport:
    start = time.perf_counter()
    bounds = np.linspace(0, trials, min(max(jobs, 1), trials) * 4 + 1 if jobs > 1 else 2).astype(int)
    chunks = [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
    run = partial(_run_chunk, N, K, t, profile, M, r, seed)
    workers = min(jobs, len(chunks), os.cpu_count() or 1)  # the pool forks every worker up front
    if workers > 1:
        # concurrent.futures loads its process module, and multiprocessing, on
        # first access to this name, so a single-worker run never loads them
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run, *zip(*chunks)))
    else:
        parts = [run(lo, hi) for lo, hi in chunks]
    defect_total = sum(p[0] for p in parts)
    unidentified = sum(p[1] for p in parts)
    false_pos = sum(p[2] for p in parts)
    full = sum(p[3] for p in parts)
    iters = sum(p[4] for p in parts)
    lo, hi = wilson_interval(unidentified, max(defect_total, 1))
    return SimReport(
        m=M * tests_per_pool(t, r),
        M=M,
        r=r,
        trials=trials,
        total_defectives=defect_total,
        unidentified=unidentified,
        false_positives=false_pos,
        error_prob=unidentified / max(defect_total, 1),
        ci_lo=lo,
        ci_hi=hi,
        full_recovery=full / max(trials, 1),
        mean_iterations=iters / max(trials, 1),
        wall_time=time.perf_counter() - start,
    )


def _invert_budget(m: int, N: int, t: int, design: DesignResult) -> tuple[int, int] | None:
    """Find (M, r) realizing about m tests, via the fixed point of
    M = floor(m / s), r = edge balance, s = t * ceil(log2(r + 1)) + 1;
    None if M < 1, r < 3, or r needs a field above GF(2^MAX_DEGREE)."""
    ell = design.profile.avg_degree
    s = tests_per_pool(t, 2**8 - 1)  # neutral start, q = 8; the fixed point below self-corrects
    M = r = None
    for _ in range(12):
        M = m // s
        if M < 1:
            return None
        r = pool_size(ell * N / M, N, M, design.d)
        if r < 3:
            return None
        s_new = tests_per_pool(t, r)
        if s_new == s:
            break
        s = s_new
    if field_degree(r) > MAX_DEGREE:
        return None
    return int(M), int(r)


def _trials_at(config: TrialConfig, design: DesignResult, M: int, r: int) -> SimReport:
    return run_plan_trials(
        config.N, config.K, config.t, design.profile, M, r, config.trials, config.seed, jobs=config.jobs
    )


def run_sweep(config: TrialConfig, m_values) -> list[SimReport]:
    """One SimReport per realizable m; unrealizable entries are skipped with a
    warning."""
    design = optimize_design(config.t, config.d)
    reports = []
    for m in m_values:
        inverted = _invert_budget(int(m), config.N, config.t, design)
        if inverted is None:
            log.warning("budget m=%s not realizable at N=%s, t=%s; skipped", m, config.N, config.t)
            continue
        reports.append(_trials_at(config, design, *inverted))
    return reports


def planner_report(config: TrialConfig) -> tuple[Plan, SimReport]:
    """Run trials at the planner's operating point."""
    design = optimize_design(config.t, config.d)
    plan = make_plan(config.N, config.K, design, margin=config.margin)
    return plan, _trials_at(config, design, plan.M, plan.r)
