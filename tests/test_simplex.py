import json

import numpy as np
import pytest
from scipy.optimize import linprog

import scalar_simplex
from qgt import design, simplex
from qgt.simplex import simplex_solve


def _sum_row(n):
    return np.ones((1, n)), [1.0]


def test_small_known_optimum():
    # min -x1 - 2 x2 - 3 x3, x3 <= 0.5, x2 + x3 <= 0.8 -> corner (0.2, 0.3, 0.5)
    c = np.array([-1.0, -2.0, -3.0])
    x = simplex_solve(c, [[0, 0, 1], [0, 1, 1]], [0.5, 0.8])
    assert x == pytest.approx([0.2, 0.3, 0.5])
    assert c @ x == pytest.approx(-2.3)


def test_equality_with_bound():
    x = simplex_solve([1.0, 2.0], [[1, 0]], [0.7])
    assert x == pytest.approx([0.7, 0.3])


def test_infeasible():
    assert simplex_solve([1.0, 1.0], [[1, 1]], [0.5]) is None


def test_degenerate_vertex():
    # three inequalities and the sum row meet at the optimum corner (1, 0, 0)
    x = simplex_solve([-1.0, -1.0, 0.0], [[1, 0, 0], [1, 1, 0], [1, 2, 0]], [1.0, 1.0, 1.0])
    assert x == pytest.approx([1.0, 0.0, 0.0])


def test_negative_rhs_rejected():
    with pytest.raises(ValueError):
        simplex_solve([1.0, 2.0], [[-1, -1]], [-1.0])


def test_unbounded_direction_raises():
    # one improving column with no positive entry: the design's LP never
    # poses this, since sum(x) = 1 bounds its feasible set
    T = np.array([[1.0, -1.0, 1.0], [0.0, -1.0, 0.0]])
    with pytest.raises(RuntimeError):
        simplex._run_phase(T, [0], 2)


def test_matches_scipy_on_random_instances():
    rng = np.random.default_rng(2024)
    outcomes = {"optimal": 0, "infeasible": 0}
    for trial in range(200):
        c, A, b = _random_lp(rng, trial)
        mine = simplex_solve(c, A, b)
        A_eq, b_eq = _sum_row(c.size)
        ref = linprog(c, A_ub=A, b_ub=b, A_eq=A_eq, b_eq=b_eq, method="highs")

        assert ref.status in (0, 2), (trial, ref.status)
        if ref.status == 0:
            assert mine is not None, trial
            assert c @ mine == pytest.approx(ref.fun, abs=1e-7)
            assert (mine >= -1e-9).all()
            assert (A @ mine <= b + 1e-7).all()
            assert mine.sum() == pytest.approx(1.0, abs=1e-8)
            outcomes["optimal"] += 1
        else:
            assert mine is None, trial
            outcomes["infeasible"] += 1
    # the generator must actually exercise both outcomes
    assert min(outcomes.values()) > 0, outcomes


def _record(monkeypatch, module):
    """Log every pivot and the tableau and basis at the end of each phase."""
    log = []
    run_phase, pivot = module._run_phase, module._pivot

    def logged_pivot(T, basis, row, col):
        log.append(("pivot", row, col))
        pivot(T, basis, row, col)

    def logged_run_phase(T, basis, allowed):
        status = run_phase(T, basis, allowed)
        log.append(("phase", list(basis), T.tobytes()))
        return status

    monkeypatch.setattr(module, "_pivot", logged_pivot)
    monkeypatch.setattr(module, "_run_phase", logged_run_phase)
    return log


def _random_lp(rng, trial):
    """An LP in the solver's shape: c, A and b >= 0, many of b zero."""
    n = int(rng.integers(1, 7))
    m = int(rng.integers(0, 9))
    if trial % 2:
        # small integers: degenerate vertices and exactly equal ratios, so
        # the Bland tie scan really runs
        c = rng.integers(-3, 4, size=n).astype(float)
        A = rng.integers(-2, 3, size=(m, n)).astype(float)
        b = rng.choice([0.0, 0.0, 0.0, 1.0, 2.0], size=m)
    else:
        c = rng.normal(size=n).round(3)
        A = rng.normal(size=(m, n)).round(3)
        b = rng.choice([0.0, 0.5, 1.0], size=m) * rng.random(m).round(3)
    return c, A, b


def test_bit_identical_to_scalar_oracle(monkeypatch):
    mine_log = _record(monkeypatch, simplex)
    ref_log = _record(monkeypatch, scalar_simplex)
    ties = []
    leaving_row = simplex._leaving_row

    def counting_leaving_row(col, rhs, basis):
        ratios = rhs[col > simplex._TOL] / col[col > simplex._TOL]
        if ratios.size:
            ties.append(np.count_nonzero(np.abs(ratios - ratios.min()) <= simplex._TOL) > 1)
        return leaving_row(col, rhs, basis)

    monkeypatch.setattr(simplex, "_leaving_row", counting_leaving_row)
    rng = np.random.default_rng(7)
    outcomes = {"optimal": 0, "infeasible": 0}
    pivoted_out = 0
    for trial in range(400):
        c, A, b = _random_lp(rng, trial)
        mine_log.clear()
        ref_log.clear()
        mine = simplex_solve(c, A, b)
        ref = scalar_simplex.simplex_solve(c, A, b, *_sum_row(c.size))
        assert mine_log == ref_log, trial
        # a feasible LP whose artificial, column n + m, is still basic after
        # phase 1 pivots it out on its row next
        end1 = next(k for k, entry in enumerate(mine_log) if entry[0] == "phase")
        basis1, art = mine_log[end1][1], c.size + len(A)
        if ref.status == "optimal" and art in basis1:
            assert mine_log[end1 + 1][:2] == ("pivot", basis1.index(art)), trial
            pivoted_out += 1
        if ref.status == "optimal":
            assert mine.tobytes() == ref.x.tobytes(), trial
        else:
            assert ref.status == "infeasible" and mine is None, trial
        outcomes[ref.status] += 1
    assert min(outcomes.values()) > 0, outcomes
    # tied ratio tests must be common enough to exercise the sequential scan
    assert sum(ties) > 50, (sum(ties), len(ties))
    # the artificial pivot-out must run, since nothing guards it
    assert pivoted_out > 0, pivoted_out


@pytest.mark.parametrize("seed", range(40))
def test_ratio_ties_follow_the_scalar_scan(seed):
    # one entering column over a permuted identity basis: the single pivot
    # is decided by the ratio test alone, on ratios spaced below, at and
    # above the tie tolerance so the running best can drift
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 12))
    perm = rng.permutation(m)
    col = rng.choice([0.0, 0.5, 1.0, 2.0, 4.0], size=m)
    col[rng.integers(m)] = 1.0
    ratios = 1.0 + rng.integers(0, 4, size=m) * rng.choice([0.4e-9, 0.6e-9, 1e-9, 3e-9])
    T = np.zeros((m + 1, m + 2))
    T[np.arange(m), perm] = 1.0
    T[:m, m] = col
    T[:m, -1] = ratios * col
    T[-1, m] = -1.0
    basis = perm.tolist()
    T_ref, basis_ref = T.copy(), list(basis)
    simplex._run_phase(T, basis, m + 1)
    assert scalar_simplex._run_phase(T_ref, basis_ref, range(m + 1)) == "optimal"
    assert basis == basis_ref
    assert T.tobytes() == T_ref.tobytes()


def test_pivot_keeps_untouched_rows_bitwise():
    rng = np.random.default_rng(3)
    for _ in range(50):
        T = rng.normal(size=(7, 9)) * (rng.random((7, 9)) < 0.6)
        T[rng.random((7, 9)) < 0.2] = -0.0
        row, col = int(rng.integers(6)), int(rng.integers(8))
        T[row, col] = rng.choice([-2.0, 0.5, 3.0])
        mine, ref = T.copy(), T.copy()
        b_mine, b_ref = list(range(6)), list(range(6))
        simplex._pivot(mine, b_mine, row, col)
        scalar_simplex._pivot(ref, b_ref, row, col)
        assert mine.tobytes() == ref.tobytes()
        assert b_mine == b_ref


@pytest.mark.parametrize("t,d", [(1, 3), (2, 2), (2, 4), (3, 3)])
def test_designs_unchanged_against_scalar_oracle(monkeypatch, t, d):
    calls = []  # (load, objective, lambda) of every LP, golden-section ones included
    real_objective_at = design._objective_at

    def spy(t, d, load, seed=None):
        f, profile = real_objective_at(t, d, load, seed)
        calls.append((load, f, None if profile is None else profile.lam.tolist()))
        return f, profile

    monkeypatch.setattr(design, "_objective_at", spy)
    mine = design.optimize_design.__wrapped__(t, d)
    mine_calls = calls[:]
    calls.clear()
    # the oracle is general: hand it the sum-to-one row the library adds
    monkeypatch.setattr(
        design,
        "simplex_solve",
        lambda c, A, b: scalar_simplex.simplex_solve(c, A, b, *_sum_row(len(c))).x,
    )
    ref = design.optimize_design.__wrapped__(t, d)
    # json and repr spell every float exactly, -0.0 included
    assert json.dumps(mine.to_dict()) == json.dumps(ref.to_dict())
    assert repr(mine_calls) == repr(calls)
