"""Monte Carlo harness: fresh graph and fresh support per trial.

Per-trial randomness is derived from the master seed and the trial counter, so
results do not depend on worker scheduling when --jobs splits the work.
"""

from __future__ import annotations

import concurrent.futures
import logging
import math
import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from .bch import field_degree
from .codec import SupportVector, TestPlan, encode, peel_decode, tests_per_pool
from .design import DesignResult, make_plan, optimize_design, pool_size
from .gf2m import MAX_DEGREE
from .graphs import sample_graph

log = logging.getLogger(__name__)


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


def _run_trial(N, K, t, profile, M, r, seed, i):
    """Defectives, unidentified, false positives and full recovery (0/1) of trial i."""
    graph_seed, support_seed = np.random.SeedSequence(entropy=seed, spawn_key=(i,)).spawn(2)
    graph = sample_graph(N, M, r, profile, graph_seed)
    support = sample_support(N, K / N, support_seed)
    plan = TestPlan(graph, t)
    found = set(peel_decode(plan, encode(plan, support)).identified.tolist())
    truth = set(support.items.tolist())
    return len(truth), len(truth - found), len(found - truth), int(truth == found)


def _totals(rows) -> list[int]:
    """Column sums of the per-trial tuples, read one at a time."""
    totals = [0, 0, 0, 0]
    for row in rows:
        totals = [a + b for a, b in zip(totals, row)]
    return totals


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
    run = partial(_run_trial, N, K, t, profile, M, r, seed)
    workers = min(jobs, trials, os.cpu_count() or 1)  # the pool forks every worker up front
    if workers > 1:
        # concurrent.futures loads its process module, and multiprocessing, on
        # first access to this name, so a single-worker run never loads them;
        # about four tasks per worker, each a run of consecutive trials
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            totals = _totals(pool.map(run, range(trials), chunksize=math.ceil(trials / (4 * workers))))
    else:
        totals = _totals(map(run, range(trials)))
    defect_total, unidentified, false_pos, full = totals
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
        r = pool_size(ell * N / M, N, M, design.profile.d)
        if r < 3:
            return None
        s_new = tests_per_pool(t, r)
        if s_new == s:
            break
        s = s_new
    if field_degree(r) > MAX_DEGREE:
        return None
    return int(M), int(r)


def simulate(
    N: int, K: int, t: int, d: int, trials: int, seed: int, *, margin: float = 1.0, jobs: int = 1, m_values=None
) -> list[SimReport]:
    """Trials at the planner's (M, r) for margin, or one report per realizable
    budget in m_values; unrealizable budgets are skipped with a warning."""
    design = optimize_design(t, d)
    run = partial(run_plan_trials, N, K, t, design.profile, trials=trials, seed=seed, jobs=jobs)
    if m_values is None:
        plan = make_plan(N, K, design, margin=margin)
        return [run(plan.M, plan.r)]
    reports = []
    for m in m_values:
        sizes = _invert_budget(int(m), N, t, design)
        if sizes is None:
            log.warning("budget m=%s not realizable at N=%s, t=%s; skipped", m, N, t)
            continue
        reports.append(run(*sizes))
    return reports
