"""Test plans, integer-count encoding, and the iterative peeling decoder.

A test plan is a pooling graph plus a signature matrix shared by all pools.
The signature for capability t and pool size r stacks an all-ones counting row
on top of the BCH parity-check rows, so a pool's measurement block holds the
number of its defective members and, mod 2, their BCH syndrome; it is built
once per (t, r) and shared, read-only, by every plan with those parameters.
The full m x N measurement matrix is never materialized.

Decoding peels: any pool whose residual count is at most t is resolved by BCH
syndrome decoding, once the located columns account for its whole residual
block; the identified items' signature columns are subtracted from all their
pools at once, and the process repeats until nothing changes.  Encoding
records the support's pool slots on the graph, so decoding the measurements
it made never builds the graph's full item-to-pool incidence.  Pool
eligibility within a pass is fixed by the counts at the start of the pass, so
the pass index matches the round-by-round schedule that density evolution
tracks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

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


@dataclass(frozen=True, eq=False)
class SignatureMatrix:
    """All-ones counting row stacked on the BCH parity rows; int64, shape (s, r),
    read-only.  The parity matrix holds t, q and r.  Signatures compare and
    hash by identity, as build_signature shares one per (t, r)."""

    matrix: np.ndarray = field(repr=False)
    parity: ParityCheckMatrix = field(repr=False)

    @cached_property
    def packed_columns(self) -> tuple[list[int], list[int], int]:
        """Per column, its parity rows as one int with row i at bit i (the t
        syndrome blocks of q bits each, end to end), and their exact code
        with row i in the field of W bits from bit W*i; and the field width
        W = (r + t + 1).bit_length(), which holds every residual entry the
        peeler compares (see peel_decode)."""
        cols = self.matrix[1:].T
        width = (self.parity.r + self.parity.t + 1).bit_length()
        return _pack_rows(cols, 1), _pack_rows(cols, width), width


def _pack_rows(A: np.ndarray, width: int) -> list[int]:
    """Each row of A as one int, the sum of entry j times 2^(j*width); the
    entries must lie in (-2^width, 2^width), so that the sum is 0 only when
    every entry is.  The rows are packed in int64 words of 63 // width
    entries, added as Python ints past the first."""
    per = 63 // width
    out = None
    for lo in range(0, A.shape[1], per):
        part = A[:, lo : lo + per]
        word = (part @ (1 << width * np.arange(part.shape[1], dtype=np.int64))).tolist()
        out = word if out is None else [a + (b << lo * width) for a, b in zip(out, word)]
    return out


def tests_per_pool(t: int, r: int) -> int:
    """Measurements s = t*q + 1 per pool: the count plus t parity blocks of q bits."""
    return t * field_degree(r) + 1


@lru_cache(maxsize=4)
def build_signature(t: int, r: int) -> SignatureMatrix:
    """The signature of capability t at pool size r; one shared object per (t, r)
    among the last four asked for, so a budget sweep does not keep them all."""
    pcm = build_parity_check(t, r)
    mat = np.vstack([np.ones((1, r), dtype=np.int64), pcm.rows.astype(np.int64)])
    mat.flags.writeable = False
    return SignatureMatrix(matrix=mat, parity=pcm)


class TestPlan:
    """Pooling graph plus the signature of capability t; the complete description of one design."""

    def __init__(self, graph: BipartiteGraph, t: int, seed=None):
        self.graph = graph
        self.signature = build_signature(t, graph.r)
        self.seed = seed

    def to_dict(self) -> dict:
        g, pcm = self.graph, self.signature.parity
        return {
            "version": PLAN_FORMAT_VERSION,
            "N": g.N,
            "M": g.M,
            "r": g.r,
            "t": pcm.t,
            "q": pcm.q,
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
            return cls(graph, t, seed=seed)
        except ValueError as exc:
            raise FormatError(f"bad plan parameters: {exc}") from exc


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
    """The m = M * s measurements as M blocks of s entries, shape (M, s);
    a file holds them flat, block by block."""

    blocks: np.ndarray

    def to_dict(self) -> dict:
        return {"version": 1, "values": self.blocks.ravel().tolist()}

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
        return cls(values.reshape(M, s))


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


def encode(plan: TestPlan, support: SupportVector) -> TestResults:
    """Measurement blocks: per pool, the sum of its defective members' columns.
    The members' pools and positions are split from their flat slots, which
    graph.slots_of finds without the full left incidence and records for
    the decoder's lookups."""
    if support.N != plan.graph.N:
        raise ValueError("support universe does not match plan")
    g, sig = plan.graph, plan.signature
    Y = np.zeros((g.M, sig.matrix.shape[0]), dtype=np.int64)
    pools, positions = np.divmod(g.slots_of(support.items), g.r)
    np.add.at(Y, pools, sig.matrix.T[positions])
    return TestResults(Y)


def peel_decode(plan: TestPlan, results: TestResults, max_iterations: int | None = None) -> DecodeOutcome:
    """Iterative peeling recovery.

    Each pass resolves the pools whose residual count was <= t when the pass
    started, in pool order: the residual parity rows are syndrome-decoded and
    the located items subtracted from all their pools at once.  A pool is
    resolved only when that leaves its whole residual block at zero, and
    counts as resolved at the end only if its block is still zero then, so
    measurements no support can produce are never reported as recovered.  A
    DecodeFailure or such a mismatch leaves the pool unresolved for a later
    retry.  The next pass takes the requeued pools and every pool a found
    item reached while it was still unresolved.  The decoder stops when a
    pass makes no progress or after max_iterations passes (default M + 1,
    which never truncates a productive run).

    Each pool's state is read once, into three lists of Python ints updated
    in place: its count, its parity bits end to end, and an exact code of
    its parity entries in fields of W bits (SignatureMatrix.packed_columns),
    each entry clamped to [-1, 2^W - 1] first.  At most r distinct items are
    subtracted from a pool, each lowering an entry by at most 1, so an entry
    clamped down from above r + t stays above t, and one clamped up from
    below 0 stays below 0: neither can equal a sum of at most t columns, or
    0.  Every residual entry minus such a sum lies in (-2^W, 2^W) since
    r + t + 1 < 2^W, so the residual certificate, that the located columns
    account for the whole residual block, is one comparison of ints.

    A found item's pools come from graph.item_slots.  On measurements that
    encode made on this graph, every located item is a support item (BCH
    decoding is unique at weight <= t and the certificate is exact), so its
    slots come from encode's record; any other item's come from the full
    left incidence, built on the first such lookup.
    """
    g, sig = plan.graph, plan.signature
    pcm = sig.parity
    M, t, q = g.M, pcm.t, pcm.q
    if results.blocks.shape != (M, sig.matrix.shape[0]):
        raise ValueError("results shape does not match plan")
    if max_iterations is None:
        max_iterations = M + 1
    col_parity, col_code, width = sig.packed_columns
    shifts = range(0, t * q, q)
    low = (1 << q) - 1
    adj, r = g.right_adj, g.r
    blocks = results.blocks.astype(np.int64, copy=False)
    entries = blocks[:, 1:]
    count = blocks[:, 0].tolist()
    parity = _pack_rows(entries & 1, 1)
    code = _pack_rows(np.clip(entries, -1, (1 << width) - 1), width)

    found = bytearray(g.N)
    identified: list[int] = []
    resolved = bytearray(M)
    active = range(M)
    per_iter: list[int] = []

    while active and len(per_iter) < max_iterations:
        eligible = [n for n in active if count[n] <= t and not resolved[n]]
        retry: set[int] = set()
        newly = 0
        progress = False
        for n in eligible:
            v = count[n]
            if v < 0:
                # only possible on inconsistent input; the pool can never
                # become valid again, so leave it for the failure accounting
                continue
            if v == 0:
                if code[n]:
                    # parity residue with no defective left: no support fits
                    retry.add(n)
                    continue
            else:
                try:
                    positions = syndrome_decode(pcm, [parity[n] >> k & low for k in shifts], v)
                except DecodeFailure:
                    retry.add(n)
                    continue
                items = [adj.item(n, p) for p in positions]
                # the syndrome matches mod 2 only: the located columns must also sum
                # to the residual exactly, and none of them may be peeled already
                if any(found[x] for x in items) or code[n] != sum(col_code[p] for p in positions):
                    retry.add(n)
                    continue
                for x in items:
                    found[x] = 1
                    for slot in g.item_slots(x):
                        n2, p = divmod(slot, r)
                        count[n2] -= 1
                        parity[n2] ^= col_parity[p]
                        code[n2] -= col_code[p]
                        if n2 != n and not resolved[n2]:
                            retry.add(n2)
                identified += items
                newly += len(items)
            resolved[n] = 1
            progress = True
        per_iter.append(newly)
        if not progress:
            break
        active = sorted(retry)

    # an item located in one pool may also sit in a pool resolved earlier
    # and drive that pool's residual below zero
    ok = [done and not v and not c for done, v, c in zip(resolved, count, code)]
    open_counts = [v for v, o in zip(count, ok) if not o]
    return DecodeOutcome(
        identified=np.asarray(sorted(identified), dtype=np.int64),
        iterations=len(per_iter),
        resolved_nodes=sum(ok),
        stalled=any(v > t for v in open_counts),
        failed_nodes=sum(v <= t for v in open_counts),
        identified_per_iteration=per_iter,
    )
