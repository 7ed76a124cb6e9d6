"""Scalar reference copy of the row-by-row simplex in qgt.simplex.

The library solver does the same arithmetic with array operations, on the
one LP shape the design poses.  This copy stays general: it solves
min c.x subject to A_ub x <= b_ub, A_eq x = b_eq, x >= 0, flipping rows with
a negative right-hand side.  The differential tests in test_simplex.py hand
it the library's shape, its inequalities and the one row sum(x) = 1, and
require the library to take the same pivots and return the same bits as
this loop version.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qgt.simplex import _TOL


@dataclass
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None
    objective: float | None


def _pivot(T, basis, row, col):
    T[row] /= T[row, col]
    piv = T[row]
    for i in range(T.shape[0]):
        if i != row and T[i, col] != 0.0:
            T[i] -= T[i, col] * piv
    basis[row] = col


def _run_phase(T, basis, allowed):
    m = T.shape[0] - 1
    while True:
        obj = T[-1, :-1]
        enter = -1
        for j in allowed:
            if obj[j] < -_TOL:
                enter = j
                break
        if enter < 0:
            return "optimal"
        col = T[:m, enter]
        rhs = T[:m, -1]
        best = None
        for i in range(m):
            if col[i] > _TOL:
                ratio = rhs[i] / col[i]
                if best is None or ratio < best[0] - _TOL or (
                    abs(ratio - best[0]) <= _TOL and basis[i] < basis[best[1]]
                ):
                    best = (ratio, i)
        if best is None:
            return "unbounded"
        _pivot(T, basis, best[1], enter)


def simplex_solve(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None) -> LPResult:
    c = np.asarray(c, dtype=float)
    n = c.size
    rows = []
    rhs = []
    kinds = []
    if A_ub is not None:
        A_ub = np.asarray(A_ub, dtype=float).reshape(-1, n)
        b_ub = np.asarray(b_ub, dtype=float).ravel()
        for row, b in zip(A_ub, b_ub):
            rows.append(row)
            rhs.append(b)
            kinds.append("ub")
    if A_eq is not None:
        A_eq = np.asarray(A_eq, dtype=float).reshape(-1, n)
        b_eq = np.asarray(b_eq, dtype=float).ravel()
        for row, b in zip(A_eq, b_eq):
            rows.append(row)
            rhs.append(b)
            kinds.append("eq")
    m = len(rows)
    if m == 0:
        raise ValueError("no constraints")

    n_slack = sum(1 for k in kinds if k == "ub")
    # slack coefficient becomes -1 after a sign flip, so such rows still need
    # an artificial; count them after normalizing signs
    A = np.zeros((m, n + n_slack), dtype=float)
    b = np.zeros(m, dtype=float)
    slack_of = {}
    si = 0
    for i, (row, bv, kind) in enumerate(zip(rows, rhs, kinds)):
        A[i, :n] = row
        b[i] = bv
        if kind == "ub":
            A[i, n + si] = 1.0
            slack_of[i] = n + si
            si += 1
        if b[i] < 0:
            A[i] *= -1.0
            b[i] *= -1.0
    need_art = [i for i in range(m) if not (i in slack_of and A[i, slack_of[i]] > 0)]
    n_art = len(need_art)
    total = n + n_slack + n_art

    T = np.zeros((m + 1, total + 1), dtype=float)
    T[:m, : n + n_slack] = A
    T[:m, -1] = b
    basis = [0] * m
    for i in range(m):
        if i in need_art:
            j = n + n_slack + need_art.index(i)
            T[i, j] = 1.0
            basis[i] = j
        else:
            basis[i] = slack_of[i]

    # phase 1: minimize the artificial sum
    if n_art:
        T[-1, n + n_slack : total] = 1.0
        for i in range(m):
            if basis[i] >= n + n_slack:
                T[-1] -= T[i]
        status = _run_phase(T, basis, range(n + n_slack))
        if status != "optimal" or -T[-1, -1] > 1e-7:
            return LPResult("infeasible", None, None)
        # pivot leftover artificials out of the basis where possible; a row
        # with no real coefficients left is redundant and stays inert
        for i in range(m):
            if basis[i] >= n + n_slack:
                j = next(
                    (jj for jj in range(n + n_slack) if abs(T[i, jj]) > _TOL),
                    None,
                )
                if j is not None:
                    _pivot(T, basis, i, j)

    # phase 2 on the true objective; artificial columns may not re-enter
    T[-1] = 0.0
    T[-1, :n] = c
    for i in range(m):
        if T[-1, basis[i]] != 0.0:
            T[-1] -= T[-1, basis[i]] * T[i]
    status = _run_phase(T, basis, range(n + n_slack))
    if status != "optimal":
        return LPResult(status, None, None)
    x = np.zeros(total, dtype=float)
    for i in range(m):
        x[basis[i]] = T[i, -1]
    return LPResult("optimal", x[:n], float(T[-1, -1] * -1.0))
