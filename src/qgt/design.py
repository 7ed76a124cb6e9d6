"""Density-evolution analysis and test-plan design.

The peeling decoder on a random pooling graph has a sharp asymptotic
threshold.  Tracking the probability that a random defective item is still
unidentified after each round gives a one-dimensional recursion; a degree
profile works at normalized load psi when the recursion, with margin delta,
contracts at every point of a fixed grid.  That feasibility region is a
polytope in the profile, so the best profile at a given load comes from a
linear program, and an outer one-dimensional search over the load yields the
smallest test budget per defective item.

All public quantities use the edge-perspective profile lambda_1..lambda_d
(lambda_1 is forced to zero: a degree-1 defective connected to no other pool
can never be peeled away by information from elsewhere, so any mass there
leaves a residual error floor).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from .bch import MAX_CORRECTION, field_degree
from .codec import tests_per_pool
from .gf2m import MAX_DEGREE
from .graphs import MAX_PROFILE_DEGREE, DegreeProfile, profile_from_lambda
from .simplex import simplex_solve

DEFAULT_PHI_GRID = np.logspace(-6.0, 0.0, 500)
DE_MARGIN = 1e-3
LOAD_SCAN_START = 0.05
LOAD_SCAN_STEP = 0.02
LOAD_SCAN_CAP = 40.0
LOAD_REFINE_TOL = 1e-4
BIND_TOL = 1e-6

# every active set holds the two end rows of the grid; a cold start adds
# every 12th row
_EDGE_ROWS = (0, DEFAULT_PHI_GRID.size - 1)
_COLD_ROWS = tuple(dict.fromkeys([*_EDGE_ROWS, *range(0, DEFAULT_PHI_GRID.size, 12)]))


class Infeasible(Exception):
    """No degree profile satisfies the contraction constraints."""


class OutOfRegime(ValueError):
    """Parameters outside the regime the construction supports."""


def _pois_upper(t: int, x):
    """P(Poisson(x) >= t) for t in 1..4, elementwise, stable near x = 0."""
    x = np.asarray(x, dtype=float)
    lower = np.zeros_like(x)
    term = np.ones_like(x)
    for k in range(t):
        if k > 0:
            term = term * x / k
        lower += term
    exact = -np.expm1(-x) if t == 1 else 1.0 - np.exp(-x) * lower
    # below 1/2 the complement cancels badly for larger t; sum the tail
    # e^{-x} sum_{k>=t} x^k/k! directly instead (30 terms are plenty there)
    xs = np.where(x < 0.5, x, 0.0)
    tail = np.zeros_like(xs)
    term = xs**t / math.factorial(t)
    for k in range(t, t + 30):
        tail += term
        term = term * xs / (k + 1)
    out = np.where(x < 0.5, np.exp(-xs) * tail, exact)
    return np.clip(out, 0.0, 1.0)


@dataclass
class DesignResult:
    """Optimized profile for one (t, d) pair.

    load is the normalized load psi the profile was optimized at, and
    nodes_per_defective the pool budget multiplier: a plan needs about
    nodes_per_defective * K pools.
    """

    t: int
    d: int
    load: float
    profile: DegreeProfile
    nodes_per_defective: float

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "t": self.t,
            "d": self.d,
            "psi": self.load,
            "lambda": self.profile.lam.tolist(),
            "avg_left_degree": self.profile.avg_degree,
            "c": self.nodes_per_defective,
        }


def _objective_at(t, d, load, seed=None):
    """(f, profile) of the best profile at load, (inf, None) where no profile
    contracts there.

    The LP is min f = -load * sum_i lambda_i / i subject to one contraction
    constraint, with margin DE_MARGIN, per point of DEFAULT_PHI_GRID.  Only a
    handful of grid constraints bind at the optimum, so it is solved on a
    growing active subset of the grid rows and certified against the full
    grid.  Without seed the subset starts cold.  seed is a list of grid rows:
    the subset starts from the end rows plus these, and a feasible solve
    replaces them with the rows that bind at its optimum (slack within
    BIND_TOL of the limit), to start the next LP from.
    """
    # A pool correcting a single error cannot separate two items that share
    # both of their pools.  With M proportional to K there are order-one such
    # degree-2 collisions per instance, each of which stalls the decoder, so
    # mass on degree 2 is only usable when t >= 2.  The asymptotic recursion
    # cannot see this: it would happily mix in degree 2 at t = 1.
    lo = 3 if t == 1 else 2
    grid = DEFAULT_PHI_GRID
    unresolved = _pois_upper(t, load * grid)
    # rows scaled by 1/phi: sum_i lambda_i * u^(i-1) / phi <= 1 - margin
    powers = np.arange(lo - 1, d, dtype=float)  # i - 1 for i = lo..d
    A_full = unresolved[:, None] ** powers[None, :] / grid[:, None]
    limit = 1.0 - DE_MARGIN
    cost = -load / np.arange(lo, d + 1, dtype=float)

    active = list(dict.fromkeys(_COLD_ROWS if seed is None else [*_EDGE_ROWS, *seed]))
    for _ in range(60):
        x = simplex_solve(cost, A_full[active], np.full(len(active), limit))
        if x is None:
            return math.inf, None
        slack = A_full @ x - limit
        worst = np.argsort(slack)[-4:]
        violated = [int(g) for g in worst if slack[g] > 1e-9 and g not in active]
        if not violated:
            if seed is not None:
                seed[:] = np.flatnonzero(slack >= -BIND_TOL).tolist()
            lam = np.zeros(d)
            lam[lo - 1 :] = x
            return float(cost @ x), profile_from_lambda(d, lam)
        active.extend(violated)
    raise RuntimeError("active-set loop did not converge")


def _grid_load(i: int) -> float:
    """Load at index i of the coarse grid: the float that stepping
    LOAD_SCAN_START up by LOAD_SCAN_STEP i times, rounding each sum to ten
    places, arrives at."""
    return round(LOAD_SCAN_START + LOAD_SCAN_STEP * i, 10)


# the highest grid index whose load does not exceed LOAD_SCAN_CAP
_LAST_GRID_INDEX = int((LOAD_SCAN_CAP - LOAD_SCAN_START) / LOAD_SCAN_STEP)


@lru_cache(maxsize=None)
def optimize_design(t: int, d: int) -> DesignResult:
    """Find the best point of the coarse load grid by bisection on the slope,
    then refine the bracket around it by golden section.

    The objective f(load) = -load * sum lambda_i / i is evaluated through the
    LP on the grid LOAD_SCAN_START + i*LOAD_SCAN_STEP (up to LOAD_SCAN_CAP);
    infeasible loads count as +inf.  The bisection finds the first index
    whose right neighbour is not lower, evaluating each grid point at most
    once.  The budget multiplier is -1/f at the minimizer and the mean left
    degree is load * that multiplier.
    """
    if not 1 <= t <= MAX_CORRECTION:
        raise OutOfRegime(f"capability t={t} outside [1, {MAX_CORRECTION}]")
    if not 2 <= d <= MAX_PROFILE_DEGREE:
        raise ValueError(f"max degree d={d} outside [2, {MAX_PROFILE_DEGREE}]")
    if t == 1 and d < 3:
        raise Infeasible("degree-2 items stall single-error pools; need d >= 3 at t=1")
    # Two premises, checked for every (t, d) this function accepts, make the
    # bisection land on the same grid point as a scan of the whole grid: the
    # feasible grid loads form a prefix (raising the load tightens every
    # contraction constraint), and on that prefix f falls strictly, then
    # rises strictly.  With +inf past the prefix, "f(i + 1) < f(i)" holds
    # exactly below the first minimum.
    evaluated = {}  # grid index -> (f, profile)

    def f_at(i):
        if i > _LAST_GRID_INDEX:
            return math.inf
        if i not in evaluated:
            evaluated[i] = _objective_at(t, d, _grid_load(i))
        return evaluated[i][0]

    if not math.isfinite(f_at(0)):
        raise Infeasible(f"no feasible load for t={t}, d={d}")
    best_i, hi_i = 0, _LAST_GRID_INDEX
    while best_i < hi_i:
        mid = (best_i + hi_i) // 2
        # an infeasible f(mid + 1) is not below f(mid), whatever f(mid) is
        if math.isfinite(f_at(mid + 1)) and f_at(mid + 1) < f_at(mid):
            best_i = mid + 1
        else:
            hi_i = mid

    lo = _grid_load(max(best_i - 1, 0))
    # f_at(best_i + 1) was evaluated by the bisection, or lies past the grid
    hi = _grid_load(best_i + 1 if math.isfinite(f_at(best_i + 1)) else best_i)
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    # the golden-section loads lie close together, so each LP starts from the
    # rows that bound at the last feasible one; its f only orders two loads
    seed = []
    f1, _ = _objective_at(t, d, x1, seed)
    f2, _ = _objective_at(t, d, x2, seed)
    while b - a > LOAD_REFINE_TOL:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1, _ = _objective_at(t, d, x1, seed)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2, _ = _objective_at(t, d, x2, seed)
    load_star = (a + b) / 2.0
    f_star, profile = _objective_at(t, d, load_star)
    if profile is None:
        # golden section collapsed onto the feasibility edge; back off to the
        # best grid point
        load_star = _grid_load(best_i)
        f_star, profile = evaluated[best_i]
    return DesignResult(
        t=t,
        d=d,
        load=load_star,
        profile=profile,
        nodes_per_defective=-1.0 / f_star,
    )


@dataclass
class Plan:
    """Concrete sizes for one instance, with the pre-rounding targets kept."""

    N: int
    K: int
    t: int
    d: int
    M: int
    r: int
    q: int
    s: int
    m: int
    margin: float
    pools_target: float
    pool_size_target: float

    def to_dict(self) -> dict:
        return {"version": 1, **asdict(self)}


def pool_size(target: float, N: int, M: int, d: int) -> int:
    """The pool size r nearest the edge-balance target, capped at floor(N*d/M)
    so that left degrees of at most d can supply M*r edge stubs, and at N."""
    return min(round(target), N * d // M, N)


def make_plan(N: int, K: int, design: DesignResult, margin: float = 1.0) -> Plan:
    """Round the asymptotic design to integer sizes for (N, K).

    margin scales the pool count above the asymptotic minimum; the pool size
    comes from pool_size, and is at least 3.
    """
    if not 1 <= K < N:
        raise ValueError(f"need 1 <= K < N, got K={K}, N={N}")
    if margin < 1.0:
        raise ValueError("margin below 1 undercuts the designed budget")
    c = design.nodes_per_defective
    ell = design.profile.avg_degree
    pools_target = margin * c * K
    M = math.ceil(pools_target)
    pool_size_target = ell * N / (c * K * margin)
    r = max(pool_size(pool_size_target, N, M, design.d), 3)
    if M * r > N * design.d or r > N:
        raise OutOfRegime(
            f"K={K} too close to N={N}: no feasible pool size (wanted r={r}, M={M})"
        )
    q = field_degree(r)
    if q > MAX_DEGREE:
        raise OutOfRegime(f"pool size r={r} needs field degree {q} > {MAX_DEGREE}")
    s = tests_per_pool(design.t, r)
    return Plan(
        N=N,
        K=K,
        t=design.t,
        d=design.d,
        M=M,
        r=r,
        q=q,
        s=s,
        m=M * s,
        margin=margin,
        pools_target=pools_target,
        pool_size_target=pool_size_target,
    )


def proposed_tests(N: float, K: float, design: DesignResult) -> float:
    """Closed-form test count c*K*(t*log2(ell*N/(c*K) + 1) + 1), un-rounded."""
    c = design.nodes_per_defective
    ell = design.profile.avg_degree
    return c * K * (design.t * math.log2(ell * N / (c * K) + 1.0) + 1.0)


def baseline_tests(scheme: str, N: float, K: float) -> float:
    """Test counts of the two reference non-adaptive schemes."""
    if not 1 < K < N:
        raise ValueError(f"need 1 < K < N, got K={K}, N={N}")
    if scheme == "regular-graph":
        return 1.19 * K * math.log2(4.74 * N / K)
    if scheme == "greedy":
        theta = math.log(K) / math.log(N)
        root = math.sqrt(theta)
        if 1.0 - root < 1e-6:
            raise OutOfRegime("greedy baseline diverges as K approaches N")
        return (1.0 + root) / (1.0 - root) * K * math.log(N / K)
    raise ValueError(f"unknown scheme {scheme!r}")
