import json

import numpy as np
import pytest
from scipy.optimize import linprog

import scalar_simplex
from qgt import design, simplex
from qgt.simplex import simplex_solve


def test_small_known_optimum():
    # min -x - y, x + 2y <= 4, x <= 3 -> corner (3, 0.5)
    res = simplex_solve([-1.0, -1.0], A_ub=[[1, 2], [1, 0]], b_ub=[4, 3])
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-3.5)
    assert res.x == pytest.approx([3.0, 0.5])


def test_equality_with_bound():
    res = simplex_solve([1.0, 2.0], A_ub=[[1, 0]], b_ub=[0.7], A_eq=[[1, 1]], b_eq=[1.0])
    assert res.status == "optimal"
    assert res.objective == pytest.approx(1.3)
    assert res.x == pytest.approx([0.7, 0.3])


def test_infeasible():
    res = simplex_solve([1.0, 1.0], A_ub=[[1, 1]], b_ub=[0.5], A_eq=[[1, 1]], b_eq=[1.0])
    assert res.status == "infeasible"


def test_unbounded():
    res = simplex_solve([-1.0, 0.0], A_ub=[[0, 1]], b_ub=[1.0])
    assert res.status == "unbounded"


def test_negative_rhs_rows():
    # -x1 - x2 <= -1 is x1 + x2 >= 1; needs the sign flip and an artificial
    res = simplex_solve([1.0, 2.0], A_ub=[[-1, -1]], b_ub=[-1.0])
    assert res.status == "optimal"
    assert res.objective == pytest.approx(1.0)
    assert res.x == pytest.approx([1.0, 0.0])


def test_redundant_equalities_keep_artificial_basis_inert():
    res = simplex_solve(
        [1.0, 1.0],
        A_eq=[[1, 1], [1, 1], [2, 2]],
        b_eq=[1.0, 1.0, 2.0],
    )
    assert res.status == "optimal"
    assert res.objective == pytest.approx(1.0)


def test_degenerate_vertex():
    # three constraints meet at the optimum corner (1, 0)
    res = simplex_solve(
        [-1.0, -1.0],
        A_ub=[[1, 0], [1, 1], [1, 2]],
        b_ub=[1.0, 1.0, 1.0],
    )
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-1.0)


def test_matches_scipy_on_random_instances():
    rng = np.random.default_rng(2024)
    statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for trial in range(200):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 9))
        c = rng.normal(size=n).round(3)
        A = rng.normal(size=(m, n)).round(3)
        b = rng.normal(loc=0.5, size=m).round(3)
        use_eq = trial % 3 == 0
        A_eq = np.ones((1, n)) if use_eq else None
        b_eq = [1.0] if use_eq else None

        mine = simplex_solve(c, A_ub=A, b_ub=b, A_eq=A_eq, b_eq=b_eq)
        ref = linprog(c, A_ub=A, b_ub=b, A_eq=A_eq, b_eq=b_eq, method="highs")

        if ref.status == 0:
            assert mine.status == "optimal", (trial, mine.status)
            assert mine.objective == pytest.approx(ref.fun, abs=1e-7)
            x = mine.x
            assert (x >= -1e-9).all()
            assert (A @ x <= b + 1e-7).all()
            if use_eq:
                assert x.sum() == pytest.approx(1.0, abs=1e-8)
        elif ref.status == 2:
            assert mine.status == "infeasible", trial
        elif ref.status == 3:
            assert mine.status == "unbounded", trial
        statuses[mine.status] += 1
    # the generator must actually exercise every branch
    assert min(statuses.values()) > 0, statuses


def test_requires_constraints():
    with pytest.raises(ValueError):
        simplex_solve([1.0])


def _record(monkeypatch, module):
    """Log every pivot and the tableau and basis at the end of each phase."""
    log = []
    run_phase, pivot = module._run_phase, module._pivot

    def logged_pivot(T, basis, row, col):
        log.append(("pivot", row, col))
        pivot(T, basis, row, col)

    def logged_run_phase(T, basis, allowed):
        status = run_phase(T, basis, allowed)
        log.append(("phase", status, list(basis), T.tobytes()))
        return status

    monkeypatch.setattr(module, "_pivot", logged_pivot)
    monkeypatch.setattr(module, "_run_phase", logged_run_phase)
    return log


def _random_lp(rng, trial):
    n = int(rng.integers(1, 7))
    m_ub = int(rng.integers(0, 9))
    m_eq = int(rng.integers(0 if m_ub else 1, 3))
    if trial % 2:
        # small integers and many zero right-hand sides: degenerate vertices
        # and exactly equal ratios, so the Bland tie scan really runs
        c = rng.integers(-3, 4, size=n).astype(float)
        A_ub = rng.integers(-2, 3, size=(m_ub, n)).astype(float)
        b_ub = rng.choice([-1.0, 0.0, 0.0, 0.0, 1.0, 2.0], size=m_ub)
        A_eq = rng.integers(-1, 3, size=(m_eq, n)).astype(float)
        b_eq = rng.choice([0.0, 1.0, 2.0], size=m_eq)
    else:
        c = rng.normal(size=n).round(3)
        A_ub = rng.normal(size=(m_ub, n)).round(3)
        b_ub = rng.normal(loc=0.5, size=m_ub).round(3)
        A_eq = rng.normal(size=(m_eq, n)).round(3)
        b_eq = rng.normal(loc=0.5, size=m_eq).round(3)
    return (
        c,
        A_ub if m_ub else None,
        b_ub if m_ub else None,
        A_eq if m_eq else None,
        b_eq if m_eq else None,
    )


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
    statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for trial in range(400):
        lp = _random_lp(rng, trial)
        mine_log.clear()
        ref_log.clear()
        mine = simplex_solve(*lp)
        ref = scalar_simplex.simplex_solve(*lp)
        assert mine.status == ref.status, trial
        assert mine_log == ref_log, trial
        if ref.status == "optimal":
            assert mine.x.tobytes() == ref.x.tobytes(), trial
            assert mine.objective.hex() == ref.objective.hex(), trial
        else:
            assert mine.x is None and mine.objective is None
        statuses[ref.status] += 1
    assert min(statuses.values()) > 0, statuses
    # tied ratio tests must be common enough to exercise the sequential scan
    assert sum(ties) > 50, (sum(ties), len(ties))


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
    assert simplex._run_phase(T, basis, m + 1) == scalar_simplex._run_phase(
        T_ref, basis_ref, range(m + 1)
    )
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
    monkeypatch.setattr(design, "simplex_solve", scalar_simplex.simplex_solve)
    ref = design.optimize_design.__wrapped__(t, d)
    # json and repr spell every float exactly, -0.0 included
    assert json.dumps(mine.to_dict()) == json.dumps(ref.to_dict())
    assert repr(mine_calls) == repr(calls)
