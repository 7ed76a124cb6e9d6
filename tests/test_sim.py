import concurrent.futures
import logging
import math

import numpy as np
import pytest

from qgt import codec, sim
from qgt.design import make_plan, optimize_design
from qgt.sim import CSV_HEADER, run_plan_trials, sample_support, simulate, wilson_interval


def test_sample_support_contract():
    with pytest.raises(ValueError):
        sample_support(100, 0.0, 1)
    with pytest.raises(ValueError):
        sample_support(100, 1.0, 1)
    a = sample_support(5000, 0.01, 42)
    b = sample_support(5000, 0.01, 42)
    assert np.array_equal(a.items, b.items)
    assert a.N == 5000


def test_sample_support_concentration():
    # Binomial(1e5, 1e-3): mean 100, sigma ~ 10; every draw within 4 sigma
    sizes = [sample_support(10**5, 1e-3, s).items.size for s in range(20)]
    assert all(60 <= n <= 140 for n in sizes)
    assert 80 <= np.mean(sizes) <= 120


def test_wilson_interval_properties():
    lo, hi = wilson_interval(30, 100)
    assert lo < 0.3 < hi
    lo2, hi2 = wilson_interval(60, 200)
    ratio = (hi - lo) / (hi2 - lo2)
    assert ratio == pytest.approx(math.sqrt(2), abs=0.1)
    assert wilson_interval(0, 0) == (0.0, 1.0)
    lo3, hi3 = wilson_interval(0, 50)
    assert lo3 == 0.0 and 0.0 < hi3 < 0.2


def test_run_plan_trials_deterministic_across_jobs():
    profile = optimize_design(1, 3).profile
    a = run_plan_trials(2000, 20, 1, profile, 40, 150, 40, seed=11, jobs=1)
    b = run_plan_trials(2000, 20, 1, profile, 40, 150, 40, seed=11, jobs=2)
    assert a == b
    c = run_plan_trials(2000, 20, 1, profile, 40, 150, 40, seed=12)
    assert (a.unidentified, a.full_recovery) != (c.unidentified, c.full_recovery)


@pytest.mark.parametrize(
    "jobs,trials,cpus,workers", [(64, 2, 8, 2), (64, 20, 3, 3), (2, 20, 8, 2), (64, 20, None, None)]
)
def test_worker_pool_bounded_by_chunks_and_cpus(monkeypatch, jobs, trials, cpus, workers):
    # a stand-in executor records its size and chunk size and runs the trials
    # in process, so no worker is ever started
    started = []

    class InlineExecutor:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            started.append(chunksize)
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
    monkeypatch.setattr(sim.os, "cpu_count", lambda: cpus)
    profile = optimize_design(1, 3).profile
    got = run_plan_trials(2000, 20, 1, profile, 40, 150, trials, seed=11, jobs=jobs)
    assert started == ([workers, math.ceil(trials / (4 * workers))] if workers else [])
    assert got == run_plan_trials(2000, 20, 1, profile, 40, 150, trials, seed=11, jobs=1)


def test_report_bookkeeping():
    profile = optimize_design(1, 3).profile
    rep = run_plan_trials(2000, 20, 1, profile, 40, 150, 25, seed=5)
    assert rep.m == rep.M * (1 * rep.r.bit_length() + 1)
    assert rep.trials == 25
    assert rep.ci_lo <= rep.error_prob <= rep.ci_hi
    assert 0.0 <= rep.full_recovery <= 1.0
    assert rep == run_plan_trials(2000, 20, 1, profile, 40, 150, 25, seed=5)
    row = rep.csv_row()
    assert len(row.split(",")) == len(CSV_HEADER.split(","))


def test_sweep_skips_unrealizable_budgets(caplog):
    with caplog.at_level(logging.WARNING, logger="qgt.sim"):
        reports = simulate(100, 20, 1, 3, 30, 3, m_values=[2, 8, 9])
    assert len(reports) == 1
    assert sum("not realizable" in r.message for r in caplog.records) == 2


def test_single_pool_cannot_resolve_many():
    # m just large enough for one pool covering every item; K defectives > t
    (rep,) = simulate(100, 20, 1, 3, 30, 3, m_values=[9])
    assert rep.M == 1
    assert rep.r == 100
    assert rep.error_prob > 0.9
    assert rep.full_recovery == 0.0


def test_sweep_keeps_at_most_four_signatures():
    # each budget has its own pool size r, so each asks for a new signature
    codec.build_signature.cache_clear()
    reports = simulate(2**16, 100, 3, 2, 1, 1, m_values=[1200, 1600, 2400, 3600, 5400])
    assert len({rep.r for rep in reports}) == 5
    assert codec.build_signature.cache_info().currsize <= 4


def test_simulate_end_to_end_error_low():
    N, K, t, d, margin = 2**14, 50, 3, 2, 1.5
    (rep,) = simulate(N, K, t, d, 150, 7, margin=margin)
    res = optimize_design(t, d)
    plan = make_plan(N, K, res, margin=margin)
    assert rep == run_plan_trials(N, K, t, res.profile, plan.M, plan.r, 150, 7)
    assert rep.error_prob < 1e-2
    assert rep.false_positives == 0


def test_t4_desk_scale_recovery():
    # criterion 4's thresholds at t = 4, d = 2.  The margin was fixed on a
    # separate calibration seed (777, 600 trials): 1.5 read full recovery
    # 1.0 and error 0, while 1.4 read 0.9983 and 1.3e-3, above the bound.
    (rep,) = simulate(2**16, 100, 4, 2, trials=500, seed=20261020, margin=1.5)
    assert (rep.M, rep.r) == (45, 2912)
    assert rep.full_recovery >= 0.99
    assert rep.error_prob <= 1e-3
    assert rep.false_positives == 0
