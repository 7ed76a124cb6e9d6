"""Dense two-phase simplex with Bland's anticycling rule.

Solves  min c.x  subject to  A_ub x <= b_ub,  A_eq x = b_eq,  x >= 0.

Rows are sign-flipped so all right-hand sides are nonnegative; slack variables
then give a starting basis for the inequality rows and artificial variables
cover the rest.  Phase 1 drives the artificials to zero (positive optimum
means infeasible), phase 2 optimizes the real objective with the artificial
columns barred from entering.  Bland's rule (lowest eligible index enters,
lowest-index basic variable leaves on ratio ties) guarantees termination on
degenerate problems at some cost in pivot count, which is fine at the sizes
used here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_TOL = 1e-9


@dataclass
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None
    objective: float | None


def _pivot(T, basis, row, col):
    T[row] /= T[row, col]
    piv = T[row]
    # rank-1 update of the rows with a nonzero factor only: each touched
    # element gets the same multiply and subtract as a row-by-row loop, and
    # skipped rows keep their bits (subtracting a signed zero could flip -0.0)
    factors = T[:, col].copy()
    factors[row] = 0.0
    np.subtract(T, factors[:, None] * piv, out=T, where=(factors != 0.0)[:, None])
    basis[row] = col


def _leaving_row(col, rhs, basis):
    """Bland ratio test: the row of least rhs/col over col > _TOL, where
    ratios within _TOL of the running best go to the lower basic index.

    The running best can drift within the tolerance, so ties are settled by
    the sequential scan.  When the minimum is isolated (every other ratio r
    has min < r - _TOL and |r - min| > _TOL, the two tests the scan makes)
    the scan provably ends on it and is skipped.
    """
    cand = (col > _TOL).nonzero()[0]
    if cand.size == 0:
        return None
    ratios = rhs[cand] / col[cand]
    k = int(ratios.argmin())
    r_min = ratios[k]
    isolated = (r_min < ratios - _TOL) & (np.abs(ratios - r_min) > _TOL)
    isolated[k] = True
    if r_min == r_min and isolated.all():
        return int(cand[k])
    best = None
    for i, ratio in zip(cand.tolist(), ratios.tolist()):
        if best is None or ratio < best[0] - _TOL or (
            abs(ratio - best[0]) <= _TOL and basis[i] < basis[best[1]]
        ):
            best = (ratio, i)
    return best[1]


def _run_phase(T, basis, n_allowed):
    """Pivot until optimal; only columns 0..n_allowed-1 may enter."""
    m = T.shape[0] - 1
    while True:
        improving = T[-1, :n_allowed] < -_TOL
        enter = int(improving.argmax())
        if not improving[enter]:
            return "optimal"
        row = _leaving_row(T[:m, enter], T[:m, -1], basis)
        if row is None:
            return "unbounded"
        _pivot(T, basis, row, enter)


def _stack(A, b, n, kind):
    if A is None:
        return np.zeros((0, n)), np.zeros(0)
    A = np.asarray(A, dtype=float).reshape(-1, n)
    b = np.asarray(b, dtype=float).ravel()
    if b.size != A.shape[0]:
        raise ValueError(f"{kind} constraints: {A.shape[0]} rows but {b.size} right-hand sides")
    return A, b


def simplex_solve(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None) -> LPResult:
    c = np.asarray(c, dtype=float)
    n = c.size
    A_ub, b_ub = _stack(A_ub, b_ub, n, "inequality")
    A_eq, b_eq = _stack(A_eq, b_eq, n, "equality")
    n_slack = A_ub.shape[0]
    m = n_slack + A_eq.shape[0]
    if m == 0:
        raise ValueError("no constraints")
    n_real = n + n_slack

    b = np.concatenate([b_ub, b_eq])
    flip = b < 0
    flipped = np.flatnonzero(flip)
    # a flipped slack has coefficient -1 and cannot start the basis, so
    # flipped inequalities need an artificial just like equalities
    need_art = np.flatnonzero(flip | (np.arange(m) >= n_slack))
    n_art = need_art.size
    total = n_real + n_art

    # rows: inequalities (each with its own slack column), then equalities
    T = np.zeros((m + 1, total + 1), dtype=float)
    T[:n_slack, :n] = A_ub
    T[n_slack:m, :n] = A_eq
    T[np.arange(n_slack), n + np.arange(n_slack)] = 1.0
    T[:m, -1] = b
    T[flipped, :n_real] *= -1.0
    T[flipped, -1] *= -1.0
    basis_arr = n + np.arange(m)
    basis_arr[need_art] = n_real + np.arange(n_art)
    T[need_art, basis_arr[need_art]] = 1.0
    basis = basis_arr.tolist()

    # phase 1: minimize the artificial sum
    if n_art:
        T[-1, n_real:total] = 1.0
        # one row at a time: a single summed subtraction would round differently
        for i in need_art.tolist():
            T[-1] -= T[i]
        status = _run_phase(T, basis, n_real)
        if status != "optimal" or -T[-1, -1] > 1e-7:
            return LPResult("infeasible", None, None)
        # pivot leftover artificials out of the basis where possible; a row
        # with no real coefficients left is redundant and stays inert
        for i in range(m):
            if basis[i] >= n_real:
                nonzero = np.flatnonzero(np.abs(T[i, :n_real]) > _TOL)
                if nonzero.size:
                    _pivot(T, basis, i, int(nonzero[0]))

    # phase 2 on the true objective; artificial columns may not re-enter
    T[-1] = 0.0
    T[-1, :n] = c
    for i in range(m):
        if T[-1, basis[i]] != 0.0:
            T[-1] -= T[-1, basis[i]] * T[i]
    status = _run_phase(T, basis, n_real)
    if status != "optimal":
        return LPResult(status, None, None)
    x = np.zeros(total, dtype=float)
    x[basis] = T[:m, -1]
    return LPResult("optimal", x[:n], float(T[-1, -1] * -1.0))
