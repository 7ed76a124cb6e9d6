"""Irregular bipartite pooling graphs sampled from an edge-degree profile.

Left nodes are items, right nodes are pools.  Every right node has exactly r
distinct left neighbors; left degrees are drawn i.i.d. from the node-perspective
distribution of the profile and then repaired so the stub counts balance.  The
ascending order of each right adjacency list is semantic: it defines which
signature column an item occupies in that pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

MAX_PROFILE_DEGREE = 32
MAX_SWAP_PASSES = 200
CSR_CHUNK = 1 << 14
SWAP_DRAW_SLACK = 16


@dataclass
class DegreeProfile:
    """Edge-perspective degree distribution lambda_1..lambda_d.

    node_probs is the induced node-perspective distribution L_1..L_d and
    avg_degree its mean, avg_degree = 1 / sum_i lambda_i / i.
    """

    d: int
    lam: np.ndarray
    avg_degree: float
    node_probs: np.ndarray = field(repr=False)


def profile_from_lambda(d: int, lam) -> DegreeProfile:
    """Validate and normalize an edge-degree profile."""
    if not 1 <= d <= MAX_PROFILE_DEGREE:
        raise ValueError(f"max degree {d} outside [1, {MAX_PROFILE_DEGREE}]")
    arr = np.asarray(lam, dtype=float).copy()
    if arr.shape != (d,):
        raise ValueError(f"profile length {arr.shape} does not match d={d}")
    if not np.isfinite(arr).all():
        raise ValueError("non-finite profile entry")
    arr[(arr < 0) & (arr > -1e-11)] = 0.0
    if (arr < 0).any():
        raise ValueError("negative profile entry")
    total = arr.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"profile sums to {total}, not 1")
    arr /= total
    degrees = np.arange(1, d + 1, dtype=float)
    avg = 1.0 / float((arr / degrees).sum())
    node = (arr / degrees) * avg
    return DegreeProfile(d=d, lam=arr, avg_degree=avg, node_probs=node)


class BipartiteGraph:
    """Adjacency of N items and M pools with constant right degree r.

    right_adj has shape (M, r) with ascending, distinct entries per row.
    An item v sits in pool n at position p when its entry has the flat slot
    n*r + p in right_adj.  slots_of(items) finds the slots of a few items by
    one gather and records each one's, which item_slots(v) then reads.  The
    full left incidence is built once, on the first read of left_ptr or
    left_slot or the first item_slots miss, in CSR form: for item v,
    left_slot[left_ptr[v]:left_ptr[v+1]] holds its slots, ascending.
    """

    def __init__(self, N: int, M: int, r: int, right_adj: np.ndarray):
        right_adj = np.asarray(right_adj, dtype=np.int64)
        if right_adj.shape != (M, r):
            raise ValueError(f"adjacency shape {right_adj.shape} does not match ({M}, {r})")
        descent = (right_adj[:, 1:] <= right_adj[:, :-1]).any()
        if right_adj.size:
            # an ascending row holds its least and greatest entries at its
            # ends; otherwise every entry is checked, so the range error wins
            lo, hi = (right_adj, right_adj) if descent else (right_adj[:, 0], right_adj[:, -1])
            if lo.min() < 0 or hi.max() >= N:
                raise ValueError("adjacency entry out of range")
        if descent:
            raise ValueError("right adjacency rows must be strictly ascending")
        self.N = N
        self.M = M
        self.r = r
        self.right_adj = right_adj
        self._recorded: dict[int, list[int]] = {}

        n = right_adj.size
        if int(N) * n >= 2**63:
            raise ValueError(f"{N} items x {n} entries overflow the int64 sort keys")

    def slots_of(self, items: np.ndarray) -> np.ndarray:
        """The flat slots of the sorted, distinct items' entries, ascending,
        from one gather over right_adj.  Each item's own slots, ascending
        and empty at degree 0, replace the record that item_slots reads."""
        mask = np.zeros(self.N, dtype=bool)
        mask[items] = True
        slots = np.flatnonzero(mask[self.right_adj])
        owners = self.right_adj.ravel()[slots]
        order = np.argsort(owners, kind="stable")
        grouped = slots[order].tolist()
        bounds = np.searchsorted(owners[order], items).tolist() + [len(grouped)]
        self._recorded = {x: grouped[a:b] for x, a, b in zip(items.tolist(), bounds, bounds[1:])}
        return slots

    def item_slots(self, x: int) -> list[int]:
        """The flat slots of item x, ascending: from the last slots_of call
        if it recorded x, else from the left incidence."""
        slots = self._recorded.get(x)
        if slots is None:
            ptr, slot = self._left_csr
            slots = slot[ptr.item(x) : ptr.item(x + 1)].tolist()
        return slots

    @property
    def left_ptr(self) -> np.ndarray:
        return self._left_csr[0]

    @property
    def left_slot(self) -> np.ndarray:
        return self._left_csr[1]

    @cached_property
    def _left_csr(self) -> tuple[np.ndarray, np.ndarray]:
        # keys item*n + slot are distinct and sort by item, then slot, so the
        # sorted slots are exactly the stable argsort of the flat adjacency;
        # the slot n*r + p is added as a column of row offsets and a row of
        # positions, so no temporary holds n entries; a chunk of sorted keys
        # holds a run of items, so one small bincount counts them, and the
        # temporaries stay chunk-sized
        M, r, n = self.M, self.r, self.right_adj.size
        keys = self.right_adj * n
        keys += (np.arange(M, dtype=np.int64) * r)[:, None]
        keys += np.arange(r, dtype=np.int64)
        keys = keys.ravel()
        keys.sort()
        left_ptr = np.zeros(self.N + 1, dtype=np.int64)
        for start in range(0, n, CSR_CHUNK):
            part = keys[start : start + CSR_CHUNK]
            items = part // n
            left_ptr[items[0] + 1 : items[-1] + 2] += np.bincount(items - items[0])
            items *= n
            part -= items
        return np.cumsum(left_ptr, out=left_ptr), keys


def _repair_degrees(degs: np.ndarray, target: int, d: int, rng) -> np.ndarray:
    diff = target - int(degs.sum())
    while diff != 0:
        step = 1 if diff > 0 else -1
        cand = np.flatnonzero(degs < d if step > 0 else degs > 1)
        take = min(abs(diff), cand.size)
        degs[rng.choice(cand, size=take, replace=False)] += step
        diff -= step * take
    return degs


def _work_dtype(N: int, r: int):
    """The narrowest integer dtype of the sampler's keys item*r + slot < N*r."""
    return np.int32 if N * r < 2**31 else np.int64


def _try_assemble(N, M, r, degs, rng):
    # Swap rule: each pass takes the rows that hold a repeated item at the
    # start of the pass.  Row g is read once, as it stands when its turn
    # comes (an earlier swap of the pass may have changed it).  Every slot
    # whose item already sits at a lower slot of that reading is swapped, in
    # ascending slot order, with the flat slot of the next rng.integers(M*r)
    # draw.  The keys item*r + slot are distinct and sort by item, then
    # slot, so a repeat is a sorted key whose item equals its predecessor's;
    # item*r + slot < N*r fits in int64 as BipartiteGraph requires of N*M*r,
    # and in int32 when N*r < 2**31.  The keys, the rows and their sorts and
    # swaps run in that work dtype; flat slot indices stay Python ints, since
    # M*r may exceed N*r.  The stubs are shuffled as int64, numpy's fast
    # path for 8-byte items, and the sorted rows are written back into that
    # shuffled buffer, so no new int64 array is allocated.
    # A pass takes its draws from batches of one rng.integers(M*r, size=n)
    # call each, n being the repeated slots at its start plus
    # SWAP_DRAW_SLACK, drawing another batch when one runs out.  At its end
    # the generator is rewound to the pass's start and advanced by one call
    # of the size it used, which leaves it where that many scalar draws
    # would: batched draws equal successive scalar ones, values and state.
    # A row that no swap wrote into keeps its sorted copy and cannot repeat
    # an item, so after the first pass only the rows a pass wrote (its bad
    # rows and the rows of its drawn slots) are sorted again, all of them in
    # one sort when that is every row.
    stubs = np.repeat(np.arange(N, dtype=np.int64), degs)
    rng.shuffle(stubs)
    kd = _work_dtype(N, r)
    work = stubs.astype(kd, copy=False)
    arr = work.reshape(M, r)
    slots = np.arange(r, dtype=kd)
    total = M * r
    srt = sub = np.sort(arr, axis=1)
    rows = np.arange(M)
    for _ in range(MAX_SWAP_PASSES):
        repeats = sub[:, 1:] == sub[:, :-1]
        bad_rows = rows[repeats.any(axis=1)]
        if bad_rows.size == 0:
            out = stubs.reshape(M, r)
            out[...] = srt
            return out
        start = rng.bit_generator.state
        batch = int(repeats.sum()) + SWAP_DRAW_SLACK
        draws = rng.integers(total, size=batch).tolist()
        used = 0
        for g in bad_rows.tolist():
            keys = arr[g] * r
            keys += slots
            keys.sort()
            items = keys // r
            dup = keys[1:][items[1:] == items[:-1]]
            dup %= r
            dup.sort()
            base = g * r
            for slot in dup.tolist():
                if used == len(draws):
                    draws += rng.integers(total, size=batch).tolist()
                i, k = base + slot, draws[used]
                used += 1
                work[i], work[k] = work[k], work[i]
        rng.bit_generator.state = start
        drawn = rng.integers(total, size=used)
        written = np.zeros(M, dtype=bool)
        written[bad_rows] = True
        written[drawn // r] = True
        rows = np.flatnonzero(written)
        if rows.size == M:
            srt = sub = np.sort(arr, axis=1)
        else:
            sub = np.sort(arr[rows], axis=1)
            srt[rows] = sub
    return None


def _draw_degrees(N: int, profile: DegreeProfile, rng) -> np.ndarray:
    # The values and generator state of rng.choice(np.arange(1, d + 1),
    # size=N, p=profile.node_probs) as int64: choice draws rng.random(N) and
    # takes the right-side searchsorted of u in the normalized cdf, which is
    # the count of cdf[:-1] entries at or below u.  The counts go into int8
    # and u is freed before they are widened, which keeps the peak memory of
    # a dense trial at that of choice.
    cdf = profile.node_probs.cumsum()
    cdf /= cdf[-1]
    u = rng.random(N)
    counts = np.zeros(N, dtype=np.int8)
    for c in cdf[:-1].tolist():
        counts += u >= c
    del u
    degs = counts.astype(np.int64)
    degs += 1
    return degs


def sample_graph(N: int, M: int, r: int, profile: DegreeProfile, seed) -> BipartiteGraph:
    """Sample a pooling graph via the configuration model.

    Left degrees are i.i.d. from profile.node_probs, drawn as
    rng.choice(np.arange(1, d + 1), size=N, p=profile.node_probs) would draw
    them (same values, same generator state) from one rng.random(N) call,
    then repaired within [1, d] so the stub total equals M * r; multi-edges
    are removed by bounded swap passes, resampling with a derived seed if a
    pass budget runs out or a repaired degree exceeds M.  A pass visits the
    rows that repeat an item at its start, in ascending order; in each it
    swaps, in ascending slot order, every slot whose item sits at a lower
    slot of the row as read at its turn, with the slot of the next
    rng.integers(M * r) draw.  The draws
    come in batches and the generator ends each pass exactly where one
    scalar draw per swapped slot would leave it.  After the first pass only
    the rows the previous pass wrote into are sorted again.  The sort keys
    item * r + slot are < N * r, so the sorts and swaps run on int32 when
    N * r < 2**31 (int64 otherwise); the adjacency is int64 either way.
    """
    if N < 1 or M < 1:
        raise ValueError("need at least one node on each side")
    if r < 1 or r > N:
        raise ValueError(f"pool size r={r} outside [1, {N}]")
    total = M * r
    if not N <= total <= N * profile.d:
        raise ValueError(
            f"stub total M*r={total} outside [{N}, {N * profile.d}]; degree repair infeasible"
        )
    if isinstance(seed, np.random.SeedSequence):
        root = seed
    else:
        root = np.random.SeedSequence(seed)
    for attempt_seq in root.spawn(8):
        rng = np.random.default_rng(attempt_seq)
        degs = _repair_degrees(_draw_degrees(N, profile, rng), total, profile.d, rng)
        if profile.d > M and degs.max() > M:
            continue  # an item in more than M pools repeats in one, whatever the swaps
        arr = _try_assemble(N, M, r, degs, rng)
        if arr is not None:
            return BipartiteGraph(N, M, r, arr)
    raise RuntimeError("could not remove multi-edges; graph too dense for r distinct neighbors")
