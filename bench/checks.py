"""Output checks computed apart from the program.

Nothing here calls into qgt: graph invariants and pool counts are recounted
from the adjacency with plain numpy, the density-evolution contraction uses
scipy.stats.poisson rather than the design module's own tail function, and
recovery is judged by binomial tests rather than against stored outputs, so
a correct change that draws a different random stream still passes.
scipy is imported only where needed, after the timed rounds, so that it
never counts in the peak memory of the run.
"""

from __future__ import annotations

import numpy as np

# Significance of every binomial test: a correct program fails one of them
# with probability at most this much.
ALPHA = 1e-6

# Criterion 4 of the acceptance suite: at the desk-scale operating points at
# least 99% of trials recover the support fully and at most 1e-3 of the
# defectives stay unidentified.
MAX_PARTIAL_RATE = 0.01
MAX_UNIDENTIFIED_RATE = 1e-3

# Published t = 2 table (d = 2..17) and the tolerances criterion 1 of the
# acceptance suite applies to it.
REF_T2_C = [0.597, 0.582, 0.572, 0.562, 0.553, 0.545, 0.538, 0.531,
            0.528, 0.527, 0.526, 0.526, 0.526, 0.525, 0.525, 0.525]
REF_T2_L = [2.0, 2.257, 2.367, 2.474, 2.573, 2.659, 2.741, 2.843,
            2.969, 3.085, 3.126, 3.15, 3.174, 3.193, 3.214, 3.242]
C_TOL = 0.01
ELL_TOL = 0.05

# The grid on which the design is required to contract: 500 log-spaced
# points of phi in [1e-6, 1].
PHI_GRID = np.logspace(-6.0, 0.0, 500)


def field_degree(r: int) -> int:
    """Smallest q with 2^q - 1 >= r."""
    q = 1
    while (1 << q) - 1 < r:
        q += 1
    return q


def tests_per_pool(t: int, r: int) -> int:
    """Counting row plus t*q parity rows."""
    return t * field_degree(r) + 1


def graph_problems(adj: np.ndarray, N: int, M: int, r: int, d: int) -> list[str]:
    """Invariants of a pooling graph with M pools of r items, degrees in [1, d]."""
    out = []
    if adj.shape != (M, r):
        return [f"adjacency shape {adj.shape} is not ({M}, {r})"]
    if adj.min() < 0 or adj.max() >= N:
        out.append("adjacency entry out of range")
    if (np.diff(adj, axis=1) <= 0).any():
        out.append("adjacency row not strictly ascending")
    degrees = np.bincount(adj.ravel(), minlength=N)
    if degrees.min() < 1 or degrees.max() > d:
        out.append(f"item degrees span [{degrees.min()}, {degrees.max()}], not within [1, {d}]")
    if int(degrees.sum()) != M * r:
        out.append("stub total differs from M*r")
    return out


def pool_counts(adj: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Number of defective members of each pool."""
    return np.isin(adj, support).sum(axis=1)


def recovery_problems(identified, truth, stalled: bool, failed_nodes: int) -> list[str]:
    """The decoder may stop short, but never names a non-defective, and a
    decode that reports neither a stall nor a failed pool names them all."""
    found, want = set(identified), set(truth)
    out = []
    if not found <= want:
        out.append(f"{len(found - want)} false positives")
    if not stalled and not failed_nodes and found != want:
        out.append(f"decode reported success but found {len(found & want)} of {len(want)} defectives")
    return out


def too_many(events: int, n: int, p_max: float) -> bool:
    """Binomial test: are `events` out of n too many for a rate of at most p_max?"""
    from scipy import stats

    return n > 0 and float(stats.binom.sf(events - 1, n, p_max)) < ALPHA


def total_out_of_bounds(total: int, n: int, p: float) -> bool:
    """Two-sided binomial test of a Binomial(n, p) total."""
    from scipy import stats

    return float(stats.binom.cdf(total, n, p)) < ALPHA or float(stats.binom.sf(total - 1, n, p)) < ALPHA


def mc_report_problems(point: str, N: int, K: int, trials: int, defectives: int,
                       unidentified: int, partial: int) -> list[str]:
    """Pooled Monte Carlo counts of one operating point against criterion 4."""
    out = []
    if total_out_of_bounds(defectives, trials * N, K / N):
        out.append(f"{point}: {defectives} defectives in {trials} trials is off Binomial(N*trials, K/N)")
    if too_many(partial, trials, MAX_PARTIAL_RATE):
        out.append(f"{point}: {partial} of {trials} trials short of full recovery")
    if too_many(unidentified, defectives, MAX_UNIDENTIFIED_RATE):
        out.append(f"{point}: {unidentified} of {defectives} defectives unidentified")
    return out


def design_row_problems(t: int, d: int, c: float, ell: float, load: float, lam) -> list[str]:
    """One printed design row of the t = 2 table: reference values, profile
    shape, c and ell as the profile and load imply them, and contraction of
    the recursion at the returned load."""
    from scipy import stats

    out = []
    k = d - 2
    if abs(c - REF_T2_C[k]) > C_TOL:
        out.append(f"d={d}: c={c} vs reference {REF_T2_C[k]}")
    if abs(ell - REF_T2_L[k]) > ELL_TOL:
        out.append(f"d={d}: ell={ell} vs reference {REF_T2_L[k]}")
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (d,) or lam[0] != 0.0 or (lam < 0).any() or abs(lam.sum() - 1.0) > 1e-9:
        out.append(f"d={d}: profile is not a distribution on degrees 2..{d}")
        return out
    inv_ell = float((lam / np.arange(1, d + 1)).sum())
    if abs(c * load * inv_ell - 1.0) > 1e-9 or abs(ell * inv_ell - 1.0) > 1e-9:
        out.append(f"d={d}: c={c}, ell={ell} but the profile gives {1 / (load * inv_ell)}, {1 / inv_ell}")
    unresolved = stats.poisson.sf(t - 1, load * PHI_GRID)  # P(Poisson >= t)
    nxt = sum(lam[i - 1] * unresolved ** (i - 1) for i in range(2, d + 1))
    if not (nxt < PHI_GRID).all():
        worst = float((nxt / PHI_GRID).max())
        out.append(f"d={d}: recursion does not contract at load {load:.4f} (max ratio {worst:.6f})")
    return out
