"""Test plans, integer-count encoding, and the iterative peeling decoder.

A test plan is a pooling graph plus a signature matrix shared by all pools.
The signature for capability t and pool size r stacks an all-ones counting row
on top of the BCH parity-check rows, so a pool's measurement block holds the
number of its defective members and, mod 2, their BCH syndrome.  The full
m x N measurement matrix is never materialized.

Decoding peels: any pool whose residual count is at most t is resolved by BCH
syndrome decoding, once the located columns account for its whole residual
block; the identified items' signature columns are subtracted from their
other pools, and the process repeats until nothing changes.  Pool
eligibility within a pass is fixed by the counts at the start of the pass, so
the pass index matches the round-by-round schedule that density evolution
tracks.  A pass's subtractions are applied together at its end: within a
pass only the items found earlier in it change a pool's block, so each pool
is read at its turn as its start-of-pass block minus those items' columns,
which is exactly the residual that subtracting each item at once would give.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .bch import DecodeFailure, ParityCheckMatrix, build_parity_check, field_degree, syndrome_decode
from .graphs import BipartiteGraph

PLAN_FORMAT_VERSION = 1


class FormatError(ValueError):
    """Malformed or wrong-version serialized artifact."""


def _ints(values, what: str) -> list:
    """values as a list when each one is an int; a bool, float or string is
    refused, not coerced."""
    values = list(values)
    if not set(map(type, values)) <= {int}:
        bad = next(v for v in values if type(v) is not int)
        raise ValueError(f"{what} must be integers, got {bad!r}")
    return values


def _check_version(version, expected: int, kind: str):
    if type(version) is not int or version != expected:
        raise FormatError(f"unknown {kind} format version {version!r}")


@dataclass
class SignatureMatrix:
    """All-ones counting row stacked on the BCH parity rows; int64, shape (s, r)."""

    t: int
    q: int
    s: int
    r: int
    matrix: np.ndarray = field(repr=False)
    parity: ParityCheckMatrix = field(repr=False)

    @cached_property
    def packed_columns(self) -> tuple[list[int], list[int]]:
        """Per column, its parity rows as one int with row i at bit i (the t
        syndrome blocks of q bits each, end to end), and their exact code
        with row i at bits 3i..3i+2."""
        cols = self.matrix[1:].T
        return _pack_rows(cols, 1), _pack_rows(cols, 3)


def _pack_rows(A: np.ndarray, width: int) -> list[int]:
    """Each row of A as one int with entry j at bits j*width..(j+1)*width-1;
    the entries must lie in [0, 2^width).  The rows are packed in int64
    words of 63 // width entries, joined as Python ints past the first."""
    per = 63 // width
    out = None
    for lo in range(0, A.shape[1], per):
        part = A[:, lo : lo + per]
        word = (part @ (1 << width * np.arange(part.shape[1], dtype=np.int64))).tolist()
        out = word if out is None else [a | b << (lo * width) for a, b in zip(out, word)]
    return out


def tests_per_pool(t: int, r: int) -> int:
    """Measurements s = t*q + 1 per pool: the count plus t parity blocks of q bits."""
    return t * field_degree(r) + 1


def build_signature(t: int, r: int) -> SignatureMatrix:
    pcm = build_parity_check(t, r)
    mat = np.vstack([np.ones((1, r), dtype=np.int64), pcm.rows.astype(np.int64)])
    return SignatureMatrix(t=t, q=pcm.q, s=tests_per_pool(t, r), r=r, matrix=mat, parity=pcm)


class TestPlan:
    """Pooling graph plus signature; the complete description of one design."""

    def __init__(self, graph: BipartiteGraph, signature: SignatureMatrix, seed=None):
        if signature.r != graph.r:
            raise ValueError("signature width does not match pool size")
        self.graph = graph
        self.signature = signature
        self.t = signature.t
        self.seed = seed

    @property
    def N(self) -> int:
        return self.graph.N

    @property
    def M(self) -> int:
        return self.graph.M

    @property
    def r(self) -> int:
        return self.graph.r

    def to_dict(self) -> dict:
        return {
            "version": PLAN_FORMAT_VERSION,
            "N": self.N,
            "M": self.M,
            "r": self.r,
            "t": self.t,
            "q": self.signature.q,
            "seed": self.seed,
            "right_adj": self.graph.right_adj.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TestPlan":
        try:
            version = data["version"]
            N, M, r, t, q = _ints((data[k] for k in ("N", "M", "r", "t", "q")), "N, M, r, t and q")
            adj = data["right_adj"]
            seed = data.get("seed")
            if seed is not None and (type(seed) is not int or seed < 0):
                raise ValueError(f"seed must be null or a non-negative integer, got {seed!r}")
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"bad plan object: {exc}") from exc
        _check_version(version, PLAN_FORMAT_VERSION, "plan")
        if q != field_degree(r):
            raise FormatError(f"stored q={q} inconsistent with r={r}")
        try:
            # no dtype: a float or string entry must not be truncated to an
            # integer; a JSON true among integers still reads as 1
            adj = np.asarray(adj)
            if adj.dtype.kind != "i":
                raise ValueError(f"entries must be integers, got dtype {adj.dtype}")
            graph = BipartiteGraph(N, M, r, adj)
        except ValueError as exc:
            raise FormatError(f"bad adjacency: {exc}") from exc
        try:
            sig = build_signature(t, r)
        except ValueError as exc:
            raise FormatError(f"bad plan parameters: {exc}") from exc
        return cls(graph, sig, seed=seed)


@dataclass
class SupportVector:
    """Defective item indices, 0-based and sorted."""

    N: int
    items: np.ndarray

    def __post_init__(self):
        arr = np.unique(np.asarray(self.items, dtype=np.int64))
        if arr.size and (arr[0] < 0 or arr[-1] >= self.N):
            raise ValueError("support index out of range")
        self.items = arr

    def to_dict(self) -> dict:
        # Files carry 1-based item ids; the library is 0-based throughout.
        return {"version": 1, "N": self.N, "defective": (self.items + 1).tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "SupportVector":
        try:
            version = data["version"]
            N, *items = _ints([data["N"], *data["defective"]], "N and support ids")
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"bad support object: {exc}") from exc
        _check_version(version, 1, "support")
        if any(not 1 <= v <= N for v in items):
            raise FormatError("support ids must be in [1, N]")
        if len(set(items)) != len(items):
            raise FormatError("support ids must be distinct")
        try:
            return cls(N=N, items=np.asarray(items, dtype=np.int64) - 1)
        except OverflowError as exc:
            raise FormatError(f"bad support object: {exc}") from exc


@dataclass
class TestResults:
    """Flat length-m measurement vector, viewed as M blocks of s entries."""

    M: int
    s: int
    values: np.ndarray

    @property
    def blocks(self) -> np.ndarray:
        return self.values.reshape(self.M, self.s)

    def to_dict(self) -> dict:
        return {"version": 1, "values": self.values.tolist()}

    @classmethod
    def from_dict(cls, data: dict, M: int, s: int) -> "TestResults":
        try:
            version = data["version"]
            values = np.asarray(_ints(data["values"], "measurements"), dtype=np.int64)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise FormatError(f"bad results object: {exc}") from exc
        _check_version(version, 1, "results")
        if values.shape != (M * s,):
            raise FormatError(f"expected {M * s} measurements, got {values.size}")
        if (values < 0).any():
            raise FormatError("negative measurement value")
        return cls(M=M, s=s, values=values)


@dataclass
class DecodeOutcome:
    identified: np.ndarray
    iterations: int
    resolved_nodes: int
    stalled: bool
    failed_nodes: int
    identified_per_iteration: list

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "identified": (np.asarray(self.identified) + 1).tolist(),
            "iterations": self.iterations,
            "resolved_nodes": self.resolved_nodes,
            "stalled": self.stalled,
            "failed_nodes": self.failed_nodes,
            "identified_per_iteration": list(self.identified_per_iteration),
        }


def _incidences(g: BipartiteGraph, items: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pools and positions of the given items' incidences, item by item."""
    lo = g.left_ptr[items]
    deg = g.left_ptr[items + 1] - lo
    csr = np.repeat(lo - (np.cumsum(deg) - deg), deg) + np.arange(deg.sum())
    return np.divmod(g.left_slot[csr], g.r)


def encode(plan: TestPlan, support: SupportVector) -> TestResults:
    """Measurement blocks: per pool, the sum of its defective members' columns,
    each item's pools and positions split from its flat indices in left_slot."""
    if support.N != plan.N:
        raise ValueError("support universe does not match plan")
    g, sig = plan.graph, plan.signature
    Y = np.zeros((g.M, sig.s), dtype=np.int64)
    if support.items.size:
        pools, positions = _incidences(g, support.items)
        np.add.at(Y, pools, sig.matrix.T[positions])
    return TestResults(M=g.M, s=sig.s, values=Y.ravel())


def peel_decode(
    plan: TestPlan,
    results: TestResults,
    max_iterations: int | None = None,
    iteration_hook=None,
) -> DecodeOutcome:
    """Iterative peeling recovery.

    Each pass resolves the pools whose residual count was <= t when the pass
    started, in pool order: the residual parity rows are syndrome-decoded and
    the located items subtracted from all their pools.  A pool is resolved
    only when that leaves its whole residual block at zero, and counts as
    resolved at the end only if its block is still zero then, so
    measurements no support can produce are never reported as recovered.  A
    DecodeFailure or such a mismatch leaves the pool unresolved for a later
    retry.  The decoder stops when a pass makes no progress or after
    max_iterations passes (default M + 1, which never truncates a productive
    run).

    A pass's subtractions are applied together at its end, before
    iteration_hook sees the blocks.  The pass's pools are read once as it
    starts, as Python ints: the count, the parity bits, and a code of 3 bits
    per parity entry (-1 if one lies outside 0..7).  At its turn a pool's
    residual is that minus the columns of the items found earlier in the
    pass, the only ones that changed it; a sum of at most t <= 4 column
    codes never carries, so the residual certificate is one int comparison.
    The next pass retries the requeued pools and every pool reached by an
    item found in the pass (read from its flat indices in left_slot), except
    the pools resolved before the pass or resolved in it before any such
    item reached them.
    """
    g, sig = plan.graph, plan.signature
    M, s, t, q = g.M, sig.s, plan.t, sig.q
    if results.M != M or results.s != s:
        raise ValueError("results shape does not match plan")
    if max_iterations is None:
        max_iterations = M + 1
    Y = results.blocks.astype(np.int64, copy=True)
    pcm = sig.parity
    col_parity, col_code = sig.packed_columns
    shifts = range(0, t * q, q)
    low = (1 << q) - 1
    adj, ptr, slot, r = g.right_adj, g.left_ptr, g.left_slot, g.r

    found = bytearray(g.N)
    identified: list[int] = []
    resolved = np.zeros(M, dtype=bool)
    active = np.arange(M, dtype=np.int64)
    iterations = 0
    per_iter: list[int] = []

    while active.size and iterations < max_iterations:
        eligible = active[(Y[active, 0] <= t) & ~resolved[active]]
        iterations += 1
        blocks = Y[eligible]
        counts = blocks[:, 0].tolist()
        parities = _pack_rows(blocks[:, 1:] & 1, 1)
        # a pool with an entry outside 0..7 gets code -1, which no sum of
        # column codes equals
        codes = _pack_rows(blocks[:, 1:], 3)
        for i in np.flatnonzero((blocks[:, 1:] & ~7).any(axis=1)).tolist():
            codes[i] = -1
        earlier = defaultdict(list)  # pool -> positions of items found earlier in the pass
        requeued: list[int] = []
        done: list[int] = []
        unreached: list[int] = []  # resolved before any item of the pass reached them
        items_found: list[int] = []
        for n, v, parity, code in zip(eligible.tolist(), counts, parities, codes):
            for p in earlier.get(n, ()):
                v -= 1
                parity ^= col_parity[p]
                code -= col_code[p]
            if v < 0:
                # only possible on inconsistent input; the pool can never
                # become valid again, so leave it for the failure accounting
                continue
            if v == 0:
                if code:
                    # parity residue with no defective left: no support fits
                    requeued.append(n)
                    continue
            else:
                try:
                    positions = syndrome_decode(pcm, [parity >> k & low for k in shifts], v)
                except DecodeFailure:
                    requeued.append(n)
                    continue
                items = [adj.item(n, p) for p in positions]
                # the syndrome matches mod 2 only: the located columns must also sum
                # to the residual exactly, and none of them may be peeled already
                if any(found[x] for x in items) or code != sum(col_code[p] for p in positions):
                    requeued.append(n)
                    continue
                for x in items:
                    found[x] = 1
                    for i in range(ptr.item(x), ptr.item(x + 1)):
                        n2, p = divmod(slot.item(i), r)
                        if n2 != n:
                            earlier[n2].append(p)
                items_found += items
            done.append(n)
            if n not in earlier:
                unreached.append(n)
        identified += items_found
        per_iter.append(len(items_found))

        # retry the requeued pools and the pools this pass's items reached,
        # except those resolved before the pass or before an item reached them
        next_active = np.zeros(M, dtype=bool)
        next_active[list(earlier)] = True
        next_active &= ~resolved
        next_active[requeued] = True
        next_active[unreached] = False
        resolved[done] = True
        if items_found:
            pools, positions = _incidences(g, np.array(items_found, dtype=np.int64))
            np.subtract.at(Y, pools, sig.matrix.T[positions])
        if iteration_hook is not None:
            iteration_hook(iterations, Y, identified)
        if not done:
            break
        active = np.flatnonzero(next_active)

    # an item located in one pool may also sit in a pool resolved earlier
    # and drive that pool's residual below zero
    resolved &= ~Y.any(axis=1)
    open_counts = Y[~resolved, 0]
    return DecodeOutcome(
        identified=np.asarray(sorted(identified), dtype=np.int64),
        iterations=iterations,
        resolved_nodes=int(resolved.sum()),
        stalled=bool((open_counts > t).any()),
        failed_nodes=int((open_counts <= t).sum()),
        identified_per_iteration=per_iter,
    )
