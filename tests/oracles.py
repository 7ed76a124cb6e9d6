"""Reference computations that tests compare the library against.

None of these run in the CLI or the simulator: the large-pool limit of the
peeling recursion, which tests check against the finite-pool-size recursion
and against decoder runs; the full load scan, which checks the search in
`design.optimize_design`; the slot-by-slot dict walk and the assembly
that sorts every row at every pass, which check the multi-edge swap passes
of `graphs._try_assemble`; the degree draw by `rng.choice`, which checks
`graphs._draw_degrees`; the field product, square and inverse (`mul`,
`sqr`, `inv`), which the decoder works without, the bitwise syndrome, the
decoding table built by enumerating every in-range position set, the
decoder that finds the locator of every weight from 2 up by PGZ
elimination (`_pgz_sigma`) and its roots by an exponent-table gather, and
the decoder that finds the roots of every weight from 2 up by one O(r)
sweep over the retained positions (`_roots_sweep`, on the `cyclic_powers`
table), the locator of weight 4 by elimination, which check the BCH
decoder; and the peeling loop on numpy measurement blocks, which checks
`codec.peel_decode`; and the encoder that reads each item's pools from the
graph's full left incidence, which checks `codec.encode`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from qgt import codec, design
from qgt.bch import DecodeFailure, ParityCheckMatrix
from qgt.gf2m import FieldContext
from qgt.graphs import MAX_SWAP_PASSES, DegreeProfile


@dataclass
class DEParams:
    """Finite-size recursion parameters: capability t, defect rate, pool size."""

    t: int
    gamma: float
    r: int

    @property
    def load(self) -> float:
        return self.r * self.gamma


def binom_upper(k_max: int, n: int, p: float) -> float:
    """P(Binomial(n, p) > k_max), with a direct tail sum when cancellation looms."""
    if p <= 0.0:
        return 0.0
    if p >= 1.0:
        return 1.0
    lower = 0.0
    for k in range(k_max + 1):
        lower += math.comb(n, k) * p**k * (1.0 - p) ** (n - k)
    sv = 1.0 - lower
    if sv > 1e-6:
        return sv
    total = 0.0
    for k in range(k_max + 1, min(n, k_max + 80) + 1):
        total += math.comb(n, k) * p**k * (1.0 - p) ** (n - k)
    return total


def de_step_exact(p: float, params: DEParams, profile: DegreeProfile) -> float:
    """One round of the finite-pool-size recursion on the joint probability p.

    p is the probability that a random item is defective and still
    unidentified; the step returns the same quantity one peeling round later,
    under the usual tree-neighborhood approximation with pools of exactly r
    items.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability p={p} outside [0, 1]")
    unresolved = binom_upper(params.t - 1, params.r - 1, p)
    acc = 0.0
    for i, lam_i in enumerate(profile.lam, start=1):
        if lam_i:
            acc += lam_i * unresolved ** (i - 1)
    return params.gamma * acc


def de_step_poisson(phi: float, load: float, t: int, profile: DegreeProfile) -> float:
    """Large-pool limit of the recursion on phi = p / gamma at normalized load."""
    if not 0.0 <= phi <= 1.0:
        raise ValueError(f"phi={phi} outside [0, 1]")
    unresolved = float(design._pois_upper(t, load * phi))
    acc = 0.0
    for i, lam_i in enumerate(profile.lam, start=1):
        if lam_i:
            acc += lam_i * unresolved ** (i - 1)
    return acc


def de_poisson_trajectory(profile: DegreeProfile, load: float, t: int, rounds: int):
    """Iterate the recursion from phi_0 = 1.

    Returns (phis, unidentified) where phis[j] is the edge-message value after
    round j and unidentified[j] the matching node-perspective probability that
    a defective item is still unidentified after round j, i.e. the chance that
    none of its pools has been resolved.  The latter is what a decoder run
    actually exhibits.
    """
    phis = [1.0]
    unid = [1.0]
    phi = 1.0
    for _ in range(rounds):
        q = float(design._pois_upper(t, load * phi))  # P(a given pool stays unresolved)
        node = 0.0
        for i, L_i in enumerate(profile.node_probs, start=1):
            if L_i:
                node += L_i * q**i
        phi = de_step_poisson(phi, load, t, profile)
        phis.append(phi)
        unid.append(node)
    return phis, unid


def scan_design(t: int, d: int) -> tuple[design.DesignResult, list]:
    """optimize_design by a scan of every grid load until the LP gives out.

    Returns the result and the trace: the (load, objective) pairs of the
    feasible grid points in grid order, so that the trace's index of the
    first minimum is the grid argmin and its length one past the last
    feasible index.
    """
    objective_at = design._objective_at
    trace = []
    best_i = -1
    best_f = math.inf
    load = design.LOAD_SCAN_START
    while load <= design.LOAD_SCAN_CAP:
        f, _ = objective_at(t, d, load)
        if not math.isfinite(f):
            break
        trace.append((load, f))
        if f < best_f:
            best_f = f
            best_i = len(trace) - 1
        load = round(load + design.LOAD_SCAN_STEP, 10)
    if not trace:
        raise design.Infeasible(f"no feasible load for t={t}, d={d}")

    lo = trace[max(best_i - 1, 0)][0]
    hi = trace[min(best_i + 1, len(trace) - 1)][0]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, _ = objective_at(t, d, x1)
    f2, _ = objective_at(t, d, x2)
    while b - a > design.LOAD_REFINE_TOL:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1, _ = objective_at(t, d, x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2, _ = objective_at(t, d, x2)
    load_star = (a + b) / 2.0
    f_star, profile = objective_at(t, d, load_star)
    if profile is None:
        load_star = float(trace[best_i][0])
        f_star, profile = objective_at(t, d, load_star)
    result = design.DesignResult(t=t, load=load_star, profile=profile, nodes_per_defective=-1.0 / f_star)
    return result, trace


def assemble_by_dict(N, M, r, degs, rng):
    """graphs._try_assemble by a dict walk over every slot of every bad row.

    Draws the same random stream and returns the same sorted adjacency, or
    None when the pass budget runs out.
    """
    stubs = np.repeat(np.arange(N, dtype=np.int64), degs)
    rng.shuffle(stubs)
    arr = stubs.reshape(M, r)
    for _ in range(MAX_SWAP_PASSES):
        srt = np.sort(arr, axis=1)
        bad_rows = np.flatnonzero((srt[:, 1:] == srt[:, :-1]).any(axis=1))
        if bad_rows.size == 0:
            return np.sort(arr, axis=1)
        for g in bad_rows:
            row = arr[g]
            seen = {}
            for j, v in enumerate(row.tolist()):
                if v in seen:
                    k = int(rng.integers(M * r))
                    arr[g, j], arr[k // r, k % r] = arr[k // r, k % r], arr[g, j]
                else:
                    seen[v] = j
    return None


def assemble_full_resort(N, M, r, degs, rng):
    """graphs._try_assemble with every row sorted again at the start of
    every pass; the same random stream and the same sorted adjacency, or
    None when the pass budget runs out."""
    stubs = np.repeat(np.arange(N, dtype=np.int64), degs)
    rng.shuffle(stubs)
    arr = stubs.reshape(M, r)
    slots = np.arange(r, dtype=np.int64)
    total = M * r
    for _ in range(MAX_SWAP_PASSES):
        srt = np.sort(arr, axis=1)
        bad_rows = np.flatnonzero((srt[:, 1:] == srt[:, :-1]).any(axis=1))
        if bad_rows.size == 0:
            return srt
        for g in bad_rows.tolist():
            keys = arr[g] * r
            keys += slots
            keys.sort()
            items = keys // r
            dup = keys[1:][items[1:] == items[:-1]]
            dup %= r
            dup.sort()
            dup += g * r
            for i in dup.tolist():
                k = int(rng.integers(total))
                stubs[i], stubs[k] = stubs[k], stubs[i]
    return None


def draw_degrees_by_choice(N, profile, rng):
    """graphs._draw_degrees by rng.choice over the degrees 1..d: the same
    int64 values and the same generator state."""
    return rng.choice(np.arange(1, profile.d + 1), size=N, p=profile.node_probs).astype(np.int64)


def mul(field: FieldContext, a: int, b: int) -> int:
    """a * b in GF(2^q) through the log tables, 0 included."""
    if a == 0 or b == 0:
        return 0
    log = field.log_list
    return field.exp_list[log[a] + log[b]]


def sqr(field: FieldContext, a: int) -> int:
    if a == 0:
        return 0
    return field.exp_list[2 * field.log_list[a]]


def inv(field: FieldContext, a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("inverse of 0 in GF(2^q)")
    return field.exp_list[field.order - field.log_list[a]]


def alpha_pow(field: FieldContext, e: int) -> int:
    """alpha^e with the exponent reduced mod 2^q - 1."""
    return field.exp_list[e % field.order]


def block_syndromes(pcm: ParityCheckMatrix, positions) -> list[int]:
    """Power-sum syndromes S_{2k+1} of an error pattern, one per row block."""
    f = pcm.field
    out = []
    for k in range(pcm.t):
        acc = 0
        for p in positions:
            acc ^= alpha_pow(f, (2 * k + 1) * p)
        out.append(acc)
    return out


def syndrome_of(pcm: ParityCheckMatrix, positions) -> np.ndarray:
    """Binary syndrome (length t*q) of the given column positions."""
    bits = np.zeros(pcm.num_rows, dtype=np.uint8)
    for k, s in enumerate(block_syndromes(pcm, positions)):
        for j in range(pcm.q):
            bits[k * pcm.q + j] = (s >> j) & 1
    return bits


def decode_by_enumeration(pcm: ParityCheckMatrix, w: int) -> dict:
    """Syndrome bytes -> the sorted weight-w position set below r producing it.

    Every one of the C(r, w) sets is enumerated once.  For w <= t the
    designed distance 2t + 1 makes the set unique, and a collision raises.
    """
    table = {}
    for pos in itertools.combinations(range(pcm.r), w):
        key = syndrome_of(pcm, pos).tobytes()
        if key in table:
            raise AssertionError(f"positions {table[key]} and {list(pos)} share a syndrome")
        table[key] = list(pos)
    return table


def pack_blocks(pcm: ParityCheckMatrix, bits) -> list[int]:
    """The t syndrome blocks S_1, S_3, ... of a length-t*q syndrome read mod 2,
    as the decoders take them: bit j of block k is row k*q + j."""
    bits = np.asarray(bits, dtype=np.int64) & 1
    if bits.shape != (pcm.num_rows,):
        raise ValueError(f"syndrome length {bits.shape} does not match {pcm.num_rows} rows")
    weights = 1 << np.arange(pcm.q, dtype=np.int64)
    return (bits.reshape(pcm.t, pcm.q) @ weights).tolist()


def _pgz_sigma(field: FieldContext, S: list[int], w: int) -> list[int]:
    """Solve the w x w power-sum system for sigma_1..sigma_w.

    Rows follow Newton's identities: sum_j sigma_j * S[k + w - j] = S[k + w]
    for k = 1..w.  A singular system means no weight-w pattern exists.
    """
    A = [[S[k + w - j] for j in range(1, w + 1)] for k in range(1, w + 1)]
    b = [S[k + w] for k in range(1, w + 1)]
    for col in range(w):
        piv = next((i for i in range(col, w) if A[i][col] != 0), None)
        if piv is None:
            raise DecodeFailure("singular locator system")
        if piv != col:
            A[col], A[piv] = A[piv], A[col]
            b[col], b[piv] = b[piv], b[col]
        a_inv = inv(field, A[col][col])
        A[col] = [mul(field, a_inv, a) for a in A[col]]
        b[col] = mul(field, a_inv, b[col])
        for i in range(w):
            if i != col and A[i][col] != 0:
                f = A[i][col]
                A[i] = [a ^ mul(field, f, p) for a, p in zip(A[i], A[col])]
                b[i] ^= mul(field, f, b[col])
    return b


def cyclic_powers(pcm: ParityCheckMatrix) -> np.ndarray:
    """alpha^j for 0 <= j < n + t*r, so alpha^(L + e*i) for i < r is the
    slice [L : L + e*r : e] for any log L < n and any e <= t."""
    return np.resize(pcm.field.antilog, pcm.n + pcm.t * pcm.r)


def _roots_sweep(pcm: ParityCheckMatrix, sigma: list[int], w: int) -> list[int]:
    # Evaluate X^w + sigma_1 X^(w-1) + ... + sigma_w at X = alpha^i over the
    # first r positions only; out-of-range roots are simply never found.
    if sigma[-1] == 0:
        raise DecodeFailure("zero locator root")
    c, r, log = cyclic_powers(pcm), pcm.r, pcm.field.log_list
    acc = c[: w * r : w] ^ sigma[-1]
    for e, a in zip(range(w - 1, 0, -1), sigma):
        if a:  # sigma_u alpha^(e i) = alpha^(log sigma_u + e i) with e = w - u
            acc ^= c[log[a] : log[a] + e * r : e]
    return (acc == 0).nonzero()[0].tolist()


def roots_by_take(pcm: ParityCheckMatrix, sigma: list[int], w: int) -> list[int]:
    """_roots_sweep with the powers alpha^(e*i) indexed through an
    exponent table and each middle term gathered by one wrapping take."""
    f = pcm.field
    if sigma[-1] == 0:
        raise DecodeFailure("zero locator root")
    exps = np.outer(np.arange(w + 1), np.arange(pcm.r)) % pcm.n
    acc = f.antilog[exps[w]] ^ sigma[-1]
    for u, a in enumerate(sigma[:-1], start=1):
        if a:
            # exps + log a < 2n, so the wrap is the reduction mod n
            acc ^= f.antilog.take(exps[w - u] + f.log_list[a], mode="wrap")
    return (acc == 0).nonzero()[0].tolist()


def pgz_syndrome_decode(pcm: ParityCheckMatrix, blocks, expected_weight: int) -> list[int]:
    """bch.syndrome_decode with the locator of every weight from 2 up found by
    PGZ elimination, its roots found by roots_by_take and the candidate
    rechecked through alpha_pow; same contract and exceptions.
    """
    blocks = list(blocks)
    if len(blocks) != pcm.t or not all(0 <= b < 1 << pcm.q for b in blocks):
        raise ValueError(f"need {pcm.t} syndrome blocks in [0, 2^{pcm.q}), got {blocks}")
    w = expected_weight
    if not 0 <= w <= pcm.t:
        raise ValueError(f"expected weight {w} outside [0, {pcm.t}]")
    if w == 0:
        if any(blocks):
            raise DecodeFailure("nonzero syndrome for an empty pattern")
        return []

    f = pcm.field
    # Power sums S_1..S_2w; odd ones are measured, even ones follow by squaring.
    S = [0] * (2 * w + 1)
    for k in range(w):
        S[2 * k + 1] = blocks[k]
    for i in range(1, w + 1):
        S[2 * i] = sqr(f, S[i])

    if w == 1:
        if S[1] == 0:
            raise DecodeFailure("zero syndrome for a weight-1 pattern")
        positions = [int(f.log[S[1]])]
    else:
        positions = roots_by_take(pcm, _pgz_sigma(f, S, w), w)

    if len(set(positions)) != w or any(p >= pcm.r for p in positions):
        raise DecodeFailure("locator roots not a weight-matched in-range set")
    if block_syndromes(pcm, positions) != blocks:
        raise DecodeFailure("candidate positions do not reproduce the syndrome")
    return sorted(positions)


def _sigma_closed_form(field: FieldContext, blocks: list[int], w: int) -> list[int]:
    """sigma_1..sigma_w for w = 2 or 3 by Peterson's direct solution: sigma_1
    = S_1 and, for w = 2, sigma_2 = (S_3 + S_1^3) / S_1; for w = 3, with
    D = S_1^3 + S_3, sigma_2 = (S_1^2 S_3 + S_5) / D and sigma_3 = D +
    S_1 sigma_2.  A zero divisor means the locators cannot be distinct."""
    log, exp, n = field.log_list, field.exp_list, field.order
    S1, S3 = blocks[0], blocks[1]
    l1 = log[S1] if S1 else 0
    D = S3 ^ exp[3 * l1 % n] if S1 else S3
    if w == 2:
        if not S1:
            raise DecodeFailure("zero syndrome for a weight-2 pattern")
        return [S1, exp[log[D] - l1 + n] if D else 0]
    if not D:
        raise DecodeFailure("singular locator system")
    num = blocks[2] ^ exp[(2 * l1 + log[S3]) % n] if S1 and S3 else blocks[2]
    sigma2 = exp[log[num] - log[D] + n] if num else 0
    sigma3 = D ^ exp[l1 + log[sigma2]] if S1 and sigma2 else D
    return [S1, sigma2, sigma3]


def sweep_syndrome_decode(pcm: ParityCheckMatrix, blocks, expected_weight: int) -> list[int]:
    """bch.syndrome_decode with the roots of every weight from 2 up found by
    _roots_sweep over the first r positions, the locator of weights 2
    and 3 by _sigma_closed_form and of weight 4 by _pgz_sigma; same
    contract and exceptions."""
    if len(blocks) != pcm.t or min(blocks) < 0 or max(blocks) > pcm.n:
        raise ValueError(f"need {pcm.t} syndrome blocks in [0, 2^{pcm.q}), got {list(blocks)}")
    w = expected_weight
    if not 0 <= w <= pcm.t:
        raise ValueError(f"expected weight {w} outside [0, {pcm.t}]")
    if w == 0:
        if any(blocks):
            raise DecodeFailure("nonzero syndrome for an empty pattern")
        return []

    f = pcm.field
    if w == 1:
        if blocks[0] == 0:
            raise DecodeFailure("zero syndrome for a weight-1 pattern")
        positions = [f.log_list[blocks[0]]]
    elif w < 4:
        positions = _roots_sweep(pcm, _sigma_closed_form(f, blocks, w), w)
    else:
        S = [0] * (2 * w + 1)
        for k in range(w):
            S[2 * k + 1] = blocks[k]
        for i in range(1, w + 1):
            S[2 * i] = sqr(f, S[i])
        positions = _roots_sweep(pcm, _pgz_sigma(f, S, w), w)

    if len(set(positions)) != w or max(positions) >= pcm.r:
        raise DecodeFailure("locator roots not a weight-matched in-range set")
    exp, n = f.exp_list, pcm.n
    for k, s in enumerate(blocks):
        e = 2 * k + 1
        for p in positions:
            s ^= exp[e * p % n]
        if s:
            raise DecodeFailure("candidate positions do not reproduce the syndrome")
    return sorted(positions)


def encode_by_incidence(plan: codec.TestPlan, support: codec.SupportVector) -> codec.TestResults:
    """codec.encode with each support item's pools and positions split from
    its flat slots in the graph's left incidence, which this builds."""
    g, sig = plan.graph, plan.signature
    Y = np.zeros((g.M, sig.matrix.shape[0]), dtype=np.int64)
    if support.items.size:
        lo = g.left_ptr[support.items]
        deg = g.left_ptr[support.items + 1] - lo
        csr = np.repeat(lo - (np.cumsum(deg) - deg), deg) + np.arange(deg.sum())
        pools, positions = np.divmod(g.left_slot[csr], g.r)
        np.add.at(Y, pools, sig.matrix.T[positions])
    return codec.TestResults(Y)


def peel_decode_stepwise(
    plan: codec.TestPlan,
    results: codec.TestResults,
    max_iterations: int | None = None,
    iteration_hook=None,
) -> codec.DecodeOutcome:
    """codec.peel_decode on a numpy copy of the measurement blocks: each
    found item's columns are subtracted from its pools row by row, and each
    pool's residual is read from the blocks at its turn and packed by
    pack_blocks for codec.syndrome_decode; same contract, and the same
    decoder calls in the same order.  A found item's pools and positions are
    searched for in right_adj, not read from the graph's left incidence.
    iteration_hook(pass, blocks, identified), when given, sees the residual
    blocks after each pass.
    """
    g, sig = plan.graph, plan.signature
    M, s, t = g.M, sig.matrix.shape[0], sig.parity.t
    if results.blocks.shape != (M, s):
        raise ValueError("results shape does not match plan")
    if max_iterations is None:
        max_iterations = M + 1
    Y = results.blocks.astype(np.int64, copy=True)
    U = sig.matrix
    pcm = sig.parity

    is_defective_found = np.zeros(g.N, dtype=bool)
    identified: list[int] = []
    resolved = np.zeros(M, dtype=bool)
    active = np.arange(M, dtype=np.int64)
    iterations = 0
    per_iter: list[int] = []

    while active.size and iterations < max_iterations:
        counts = Y[active, 0]
        eligible = active[(counts <= t) & ~resolved[active]]
        iterations += 1
        next_active: set[int] = set()
        newly = 0
        progress = False
        for n in eligible.tolist():
            v = int(Y[n, 0])
            if v < 0:
                # only possible on inconsistent input; the pool can never
                # become valid again, so leave it for the failure accounting
                continue
            if v == 0:
                if Y[n, 1:].any():
                    # parity residue with no defective left: no support fits
                    next_active.add(n)
                    continue
                resolved[n] = True
                progress = True
                continue
            try:
                positions = codec.syndrome_decode(pcm, pack_blocks(pcm, Y[n, 1:]), v)
            except DecodeFailure:
                next_active.add(n)
                continue
            items = g.right_adj[n, positions]
            # the syndrome matches mod 2 only: the located columns must also sum
            # to the residual exactly, and none of them may be peeled already
            if is_defective_found[items].any() or (Y[n, 1:] != U[1:, positions].sum(axis=1)).any():
                next_active.add(n)
                continue
            for item in items.tolist():
                is_defective_found[item] = True
                identified.append(item)
                rows, cols = np.nonzero(g.right_adj == item)
                for node2, pos2 in zip(rows.tolist(), cols.tolist()):
                    Y[node2] -= U[:, pos2]
                    if node2 != n and not resolved[node2]:
                        next_active.add(node2)
            resolved[n] = True
            progress = True
            newly += len(items)
        per_iter.append(newly)
        if iteration_hook is not None:
            iteration_hook(iterations, Y, identified)
        if not progress:
            break
        active = np.fromiter(sorted(next_active), dtype=np.int64, count=len(next_active))

    # an item located in one pool may also sit in a pool resolved earlier
    # and drive that pool's residual below zero
    resolved &= ~Y.any(axis=1)
    open_counts = Y[~resolved, 0]
    return codec.DecodeOutcome(
        identified=np.asarray(sorted(identified), dtype=np.int64),
        iterations=iterations,
        resolved_nodes=int(resolved.sum()),
        stalled=bool((open_counts > t).any()),
        failed_nodes=int((open_counts <= t).sum()),
        identified_per_iteration=per_iter,
    )
