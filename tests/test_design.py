import json
import math

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.special import gammainc
from scipy.stats import binom, poisson

from oracles import DEParams, binom_upper, de_poisson_trajectory, de_step_exact, de_step_poisson, scan_design
from qgt import design
from qgt.design import (
    DEFAULT_PHI_GRID,
    DE_MARGIN,
    LOAD_SCAN_CAP,
    LOAD_SCAN_START,
    LOAD_SCAN_STEP,
    Infeasible,
    OutOfRegime,
    _pois_upper,
    baseline_tests,
    make_plan,
    optimize_design,
    proposed_tests,
)
from qgt.graphs import profile_from_lambda

PURE3 = profile_from_lambda(3, [0.0, 0.0, 1.0])
PURE2 = profile_from_lambda(2, [0.0, 1.0])


def test_pois_upper_matches_gamma_identity():
    # P[Pois(x) >= t] is the regularized lower incomplete gamma P(t, x),
    # which scipy computes accurately even where 1-cdf would underflow
    xs = np.array([1e-9, 1e-6, 1e-4, 0.01, 0.5, 1.0, 3.0, 10.0])
    for t in (1, 2, 3, 4):
        ref = gammainc(t, xs)
        got = _pois_upper(t, xs)
        assert np.allclose(got, ref, rtol=1e-9, atol=1e-300), t


def test_pois_upper_matches_scipy_sf_moderate_x():
    xs = np.array([0.05, 0.3, 0.9, 2.0, 6.0])
    for t in (1, 2, 3, 4):
        assert np.allclose(_pois_upper(t, xs), poisson.sf(t - 1, xs), rtol=1e-9), t


def test_binom_upper_matches_scipy():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(3, 600))
        k = int(rng.integers(0, 4))
        p = float(rng.uniform(1e-7, 0.9))
        ref = float(binom.sf(k, n, p))
        got = binom_upper(k, n, p)
        assert got == pytest.approx(ref, rel=1e-6, abs=1e-300)
    assert binom_upper(1, 10, 0.0) == 0.0
    assert binom_upper(1, 10, 1.0) == 1.0


def test_de_step_exact_hand_value():
    # t=2, r=10, gamma=.05, pure degree 2: gamma * P[Binom(9, .3) >= 2]
    params = DEParams(t=2, gamma=0.05, r=10)
    tail = 1.0 - 0.7**9 - 9 * 0.3 * 0.7**8
    assert de_step_exact(0.3, params, PURE2) == pytest.approx(0.05 * tail, rel=1e-12)


def test_de_step_exact_boundaries():
    params = DEParams(t=1, gamma=0.1, r=8)
    assert de_step_exact(0.0, params, PURE3) == 0.0
    assert de_step_exact(1.0, params, PURE3) == pytest.approx(0.1)
    with pytest.raises(ValueError):
        de_step_exact(1.5, params, PURE3)


def test_de_step_exact_against_tree_monte_carlo():
    # sample the one-round tree neighborhood directly: a degree-3 item stays
    # unidentified when each of its 2 other pools has >= t unresolved others
    params = DEParams(t=1, gamma=0.1, r=8)
    p = 0.05
    rng = np.random.default_rng(123)
    n = 400_000
    fails = rng.binomial(7, p, size=(n, 2)) >= 1
    est = 0.1 * float(fails.all(axis=1).mean())
    exact = de_step_exact(p, params, PURE3)
    sigma = 0.1 * math.sqrt(0.3 * 0.7 / n)  # crude bound on the MC std error
    assert abs(est - exact) < 5 * sigma


def test_de_step_poisson_hand_value():
    val = de_step_poisson(1.0, 2.0, 1, PURE3)
    assert val == pytest.approx((1.0 - math.exp(-2.0)) ** 2, rel=1e-12)


def test_poisson_matches_exact_at_large_r():
    r = 512
    gamma = 0.004
    params = DEParams(t=2, gamma=gamma, r=r)
    for phi in (1.0, 0.7, 0.3, 0.1, 0.01):
        a = de_step_exact(gamma * phi, params, PURE2) / gamma
        b = de_step_poisson(phi, params.load, 2, PURE2)
        assert abs(a - b) < 1e-3


def test_de_step_monotone_in_phi():
    phis = np.linspace(0, 1, 101)
    vals = [de_step_poisson(p, 2.4, 1, PURE3) for p in phis]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_pure_degree2_threshold_at_one():
    # recursion phi' = 1 - exp(-psi*phi) has a positive fixed point iff psi > 1
    lam2 = profile_from_lambda(2, [0.0, 1.0])
    below, _ = de_poisson_trajectory(lam2, 0.9, 1, 300)
    above, _ = de_poisson_trajectory(lam2, 1.5, 1, 300)
    assert below[-1] < 1e-12
    assert above[-1] > 0.5


def test_trajectory_node_perspective_relation():
    phis, unid = de_poisson_trajectory(PURE3, 2.0, 1, 10)
    for j in range(10):
        u = 1.0 - math.exp(-2.0 * phis[j])
        assert phis[j + 1] == pytest.approx(u * u, rel=1e-12)
        assert unid[j + 1] == pytest.approx(u**3, rel=1e-12)


def test_lp_profile_single_degree_when_d3_t1():
    f, profile = design._objective_at(1, 3, 2.0)
    assert profile.lam.tolist() == pytest.approx([0.0, 0.0, 1.0])
    assert f == pytest.approx(-2.0 / 3.0)


def test_lp_profile_matches_scipy_reference():
    # same grid, same margin, independent solver
    t, d, load = 2, 6, 4.0
    f, profile = design._objective_at(t, d, load)
    u = _pois_upper(t, load * DEFAULT_PHI_GRID)
    powers = np.arange(1, d)
    A = u[:, None] ** powers[None, :] / DEFAULT_PHI_GRID[:, None]
    res = linprog(
        -load / np.arange(2, d + 1),
        A_ub=A,
        b_ub=np.full(DEFAULT_PHI_GRID.size, 1.0 - DE_MARGIN),
        A_eq=np.ones((1, d - 1)),
        b_eq=[1.0],
        method="highs",
    )
    assert res.status == 0
    assert f == pytest.approx(res.fun, abs=1e-8)
    assert profile.lam.sum() == pytest.approx(1.0, abs=1e-9)


def test_lp_infeasible_above_threshold():
    assert design._objective_at(1, 3, 5.0) == (math.inf, None)


def test_lp_feasible_profile_certificate():
    t, d, load = 2, 8, 4.5
    _, profile = design._objective_at(t, d, load)
    u = _pois_upper(t, load * DEFAULT_PHI_GRID)
    lhs = np.zeros_like(DEFAULT_PHI_GRID)
    for i in range(2, d + 1):
        lhs += profile.lam[i - 1] * u ** (i - 1)
    assert (lhs <= (1.0 - DE_MARGIN) * DEFAULT_PHI_GRID + 1e-9).all()


def test_lp_beats_feasible_single_degree_profiles():
    t, d, load = 2, 8, 4.5
    f_star, _ = design._objective_at(t, d, load)
    u = _pois_upper(t, load * DEFAULT_PHI_GRID)
    for i in range(2, d + 1):
        feasible = (u ** (i - 1) <= (1.0 - DE_MARGIN) * DEFAULT_PHI_GRID).all()
        if feasible:
            assert f_star <= -load / i + 1e-9


def test_optimize_design_reference_points():
    res = optimize_design(1, 3)
    assert res.nodes_per_defective == pytest.approx(1.222, abs=0.01)
    assert res.profile.avg_degree == pytest.approx(3.0, abs=1e-9)
    assert res.load == pytest.approx(2.455, abs=0.02)

    res = optimize_design(2, 2)
    assert res.nodes_per_defective == pytest.approx(0.597, abs=0.01)
    assert res.profile.lam.tolist() == pytest.approx([0.0, 1.0])

    res = optimize_design(3, 2)
    assert res.nodes_per_defective == pytest.approx(0.388, abs=0.01)


def test_optimize_design_monotone_in_d():
    cs = [optimize_design(1, d).nodes_per_defective for d in (3, 4, 5)]
    assert cs[0] >= cs[1] >= cs[2]


def test_emitted_designs_drive_de_to_zero():
    # contraction with margin must actually reach numerical zero well inside
    # 1000 rounds, not merely shrink by (1-delta) per round
    for t, d in [(1, 3), (2, 2), (3, 2), (2, 6)]:
        res = optimize_design(t, d)
        phis, _ = de_poisson_trajectory(res.profile, res.load, t, 1000)
        assert phis[-1] < 1e-12, (t, d, phis[-1])


def test_optimize_design_infeasible_low_t_low_d():
    with pytest.raises(Infeasible):
        optimize_design(1, 2)


def test_optimize_design_validates_inputs():
    with pytest.raises(OutOfRegime):
        optimize_design(5, 3)
    with pytest.raises(ValueError):
        optimize_design(1, 40)


def test_grid_load_is_the_iterated_scan_load():
    load, i = LOAD_SCAN_START, 0
    while load <= LOAD_SCAN_CAP:
        assert design._grid_load(i) == load, i
        load, i = round(load + LOAD_SCAN_STEP, 10), i + 1
    assert design._LAST_GRID_INDEX == i - 1


def _first_argmin(points):
    return min(range(len(points)), key=lambda i: points[i][1])


SEARCH_ROWS = [(t, d) for t in (1, 2, 3, 4) for d in (2, 3, 5, 17, 32) if (t, d) != (1, 2)]


@pytest.mark.parametrize("t,d", SEARCH_ROWS)
def test_load_search_matches_full_scan(monkeypatch, t, d):
    calls = []  # (load, objective) of every LP the search asked for
    real_objective_at = design._objective_at

    def spy(t, d, load, seed=None):
        out = real_objective_at(t, d, load, seed)
        calls.append((load, out[0]))
        return out

    monkeypatch.setattr(design, "_objective_at", spy)
    mine = optimize_design.__wrapped__(t, d)
    monkeypatch.undo()
    ref, trace = scan_design(t, d)
    # json spells every float exactly, -0.0 included
    assert json.dumps(mine.to_dict()) == json.dumps(ref.to_dict())
    # the grid points among the calls: each evaluated once (index 0, then at
    # most two per halving of the grid), infeasible ones at +inf
    grid = []
    for load, f in calls:
        i = round((load - LOAD_SCAN_START) / LOAD_SCAN_STEP)
        if load == design._grid_load(i):
            grid.append((i, f))
    indices = [i for i, _ in grid]
    assert len(set(indices)) == len(indices) <= 2 * design._LAST_GRID_INDEX.bit_length() + 1
    for i, f in grid:
        assert f == (trace[i][1] if i < len(trace) else math.inf)
    feasible = sorted((i, f) for i, f in grid if math.isfinite(f))
    assert feasible[_first_argmin(feasible)][0] == _first_argmin(trace)


SEEDED_ROWS = [(1, 3), (2, 5), (3, 17), (4, 32)]


def _grid_index(load):
    """The index of the coarse grid point at this load, None off the grid."""
    i = round((load - LOAD_SCAN_START) / LOAD_SCAN_STEP)
    return i if load == design._grid_load(i) else None


@pytest.mark.parametrize("t,d", SEEDED_ROWS)
def test_golden_section_lps_start_from_the_bound_rows(monkeypatch, t, d):
    # a cold LP starts from 43 grid rows; the golden-section LPs after the
    # first start from the rows that bound at the last one (at most 5 at these
    # rows, 11 over every (t, d)) and stay near that size
    lps = []  # per LP: its load and the inequality rows of each of its solves
    real_objective_at, real_solve = design._objective_at, design.simplex_solve

    def spy_objective(t, d, load, seed=None):
        lps.append((load, []))
        return real_objective_at(t, d, load, seed)

    def spy_solve(c, A, b):
        lps[-1][1].append(len(A))
        return real_solve(c, A, b)

    monkeypatch.setattr(design, "_objective_at", spy_objective)
    monkeypatch.setattr(design, "simplex_solve", spy_solve)
    design.optimize_design.__wrapped__(t, d)
    # the golden-section LPs: every LP off the grid but the final one
    golden = [rows for load, rows in lps[:-1] if _grid_index(load) is None]
    assert len(golden) >= 10
    later = [n for rows in golden[1:] for n in rows]
    assert max(later) <= 12, later


def _feasibility_edge(t, d, load):
    """A feasible load and an infeasible one at most 1e-3 above it, the
    first at or above the feasible load given."""
    step = 0.5
    while math.isfinite(design._objective_at(t, d, load + step)[0]):
        load += step
    while step > 1e-3:
        step /= 2
        if math.isfinite(design._objective_at(t, d, load + step)[0]):
            load += step
    return load, load + step


@pytest.mark.parametrize("t,d", SEEDED_ROWS)
def test_seeded_lp_matches_cold_lp(t, d):
    # started from the end rows alone, the LP still certifies on the whole
    # grid: the same verdict as a cold start, and the same optimum up to
    # rounding.  Near the feasibility edge the optimal basis mixes the lowest
    # and highest degrees and is badly conditioned: there the two pivot paths
    # measured up to 1.4e-11 apart (d = 32); near the design loads of these
    # rows they agree within 1e-12.
    load_star = optimize_design(t, d).load
    below, above = _feasibility_edge(t, d, load_star)
    near = [(load_star + dx, 1e-12) for dx in (-0.02, 0.0, 0.02)]
    for load, rel in near + [(below, 1e-10), (above, None)]:
        cold_f, cold_profile = design._objective_at(t, d, load)
        seed = []
        f, profile = design._objective_at(t, d, load, seed)
        assert (profile is None) == (cold_profile is None), load
        if profile is None:
            assert f == cold_f == math.inf and seed == []
        else:
            assert f == pytest.approx(cold_f, rel=rel, abs=0.0), load


@pytest.mark.parametrize("t,d", SEARCH_ROWS)
def test_bisection_skips_f_mid_past_an_infeasible_neighbour(monkeypatch, t, d):
    # replay the bisection on the grid values the search solved: each step
    # solves f(mid + 1), and f(mid) only when f(mid + 1) is finite
    grid = []  # (index, objective) of each grid LP, in the order solved
    real_objective_at = design._objective_at

    def spy(t, d, load, seed=None):
        out = real_objective_at(t, d, load, seed)
        if _grid_index(load) is not None:
            grid.append((_grid_index(load), out[0]))
        return out

    monkeypatch.setattr(design, "_objective_at", spy)
    design.optimize_design.__wrapped__(t, d)
    solved = dict(grid)
    expected = [0]

    def f(i):
        if i > design._LAST_GRID_INDEX:
            return math.inf
        if i not in expected:
            expected.append(i)
        return solved[i]

    best, hi = 0, design._LAST_GRID_INDEX
    while best < hi:
        mid = (best + hi) // 2
        if math.isfinite(f(mid + 1)) and f(mid + 1) < f(mid):
            best = mid + 1
        else:
            hi = mid
    assert [i for i, _ in grid] == expected


def test_design_result_serialization():
    data = optimize_design(1, 3).to_dict()
    assert data["t"] == 1 and data["d"] == 3
    assert data["c"] == pytest.approx(1.222, abs=0.01)
    assert len(data["lambda"]) == 3


def test_make_plan_flagship_sizes():
    res = optimize_design(1, 3)
    plan = make_plan(2**16, 100, res)
    assert plan.M == 123
    assert plan.q == 11
    assert plan.s == 12
    assert plan.m == 1476
    # edge-balance rounding alone would ask for ~1606 items per pool, which
    # exceeds what N*d/M degree stubs can supply; the cap keeps it passable
    assert plan.r == (2**16 * 3) // 123 == 1598
    assert plan.pool_size_target == pytest.approx(3 * 2**16 / (res.nodes_per_defective * 100), rel=1e-9)


def test_make_plan_margin_scales_pools():
    res = optimize_design(1, 3)
    plan = make_plan(2**16, 100, res, margin=1.6)
    assert plan.M == math.ceil(res.nodes_per_defective * 100 * 1.6)
    assert plan.m == plan.M * plan.s
    with pytest.raises(ValueError):
        make_plan(2**16, 100, res, margin=0.9)


def test_make_plan_out_of_regime():
    res = optimize_design(1, 3)
    with pytest.raises(OutOfRegime):
        make_plan(10, 9, res)


def test_make_plan_single_defective():
    res = optimize_design(1, 3)
    plan = make_plan(1000, 1, res)
    assert plan.M == math.ceil(res.nodes_per_defective)
    assert plan.K == 1
    assert plan.r <= plan.N


def test_baselines_match_quoted_formulas():
    N, K = 2**32, 2**10
    assert baseline_tests("regular-graph", N, K) == pytest.approx(
        1.19 * K * math.log2(4.74 * N / K), rel=1e-12
    )
    theta = math.log(K) / math.log(N)
    expect = (1 + math.sqrt(theta)) / (1 - math.sqrt(theta)) * K * math.log(N / K)
    assert baseline_tests("greedy", N, K) == pytest.approx(expect, rel=1e-12)
    # theta = 1/4 means a multiplier of exactly 3 on K ln(N/K)
    assert baseline_tests("greedy", 2**16, 2**4) == pytest.approx(3 * 16 * math.log(2**12), rel=1e-12)


def test_baseline_contract_errors():
    with pytest.raises(ValueError):
        baseline_tests("regular-graph", 100, 1)
    with pytest.raises(ValueError):
        baseline_tests("nonesuch", 100, 10)
    with pytest.raises(OutOfRegime):
        baseline_tests("greedy", 2**20, 2**20 - 1)


def test_proposed_tests_formula():
    res = optimize_design(1, 3)
    c = res.nodes_per_defective
    ell = res.profile.avg_degree
    N, K = 2**16, 100
    expect = c * K * (math.log2(ell * N / (c * K) + 1) + 1)
    assert proposed_tests(N, K, res) == pytest.approx(expect, rel=1e-12)
