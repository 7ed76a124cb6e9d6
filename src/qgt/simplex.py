"""Dense two-phase simplex with Bland's anticycling rule.

Solves the one LP shape the design poses:

    min c.x  subject to  A x <= b,  sum(x) = 1,  x >= 0,  with b >= 0.

Each inequality row gets a slack variable that starts the basis; the
sum-to-one row gets the one artificial variable.  Phase 1 drives the
artificial to zero (a positive optimum means infeasible), phase 2 optimizes
the real objective with the artificial column barred from entering.  The
sum-to-one row bounds the feasible set, so phase 2 always ends at an optimum.
Bland's rule (lowest eligible index enters, lowest-index basic variable
leaves on ratio ties) guarantees termination on degenerate problems at some
cost in pivot count, which is fine at the sizes used here.
"""

from __future__ import annotations

import numpy as np

_TOL = 1e-9


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

    The running best can drift within the tolerance, so the rows are scanned
    in order, on Python floats.
    """
    cand = (col > _TOL).nonzero()[0]
    if cand.size == 0:
        return None
    ratios = rhs[cand] / col[cand]
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
            return
        row = _leaving_row(T[:m, enter], T[:m, -1], basis)
        if row is None:
            raise RuntimeError("simplex found an unbounded direction on a bounded LP")
        _pivot(T, basis, row, enter)


def simplex_solve(c, A, b) -> np.ndarray | None:
    """The optimal x of min c.x subject to A x <= b, sum(x) = 1, x >= 0, or
    None when no x satisfies the constraints.  b must be nonnegative."""
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if (b < 0).any():
        raise ValueError("right-hand sides must be nonnegative")
    n = c.size
    n_slack = A.shape[0]
    m = n_slack + 1
    n_real = n + n_slack
    total = n_real + 1

    # rows: inequalities (each with its own slack column), then sum(x) = 1
    # with the artificial column last
    T = np.zeros((m + 1, total + 1), dtype=float)
    T[:n_slack, :n] = A
    T[n_slack, :n] = 1.0
    T[np.arange(n_slack), n + np.arange(n_slack)] = 1.0
    T[:n_slack, -1] = b
    T[n_slack, -1] = 1.0
    T[n_slack, n_real] = 1.0
    basis = [*range(n, n_real), n_real]

    # phase 1: minimize the artificial
    T[-1, n_real] = 1.0
    T[-1] -= T[n_slack]
    _run_phase(T, basis, n_real)
    if -T[-1, -1] > 1e-7:
        return None
    # pivot a leftover artificial out of the basis; its row is the sum row
    # plus sum_j a_j * (inequality row j), so its slack entries are the a_j
    # and its x entries are all 1 if every a_j is 0: a real entry is nonzero
    if n_real in basis:
        i = basis.index(n_real)
        _pivot(T, basis, i, int(np.flatnonzero(np.abs(T[i, :n_real]) > _TOL)[0]))

    # phase 2 on the true objective; the artificial column may not re-enter
    T[-1] = 0.0
    T[-1, :n] = c
    for i in range(m):
        if T[-1, basis[i]] != 0.0:
            T[-1] -= T[-1, basis[i]] * T[i]
    _run_phase(T, basis, n_real)
    x = np.zeros(total, dtype=float)
    x[basis] = T[:m, -1]
    return x[:n]
