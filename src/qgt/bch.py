"""Parity-check matrices of binary t-error-correcting BCH codes and syndrome
decoding of low-weight error patterns.

The matrix for correction capability t over GF(2^q) has t row blocks of q rows
each.  Column i of block k holds the bit expansion of alpha^((2k+1) * i), bit j
in row k*q + j.  Keeping only the first r columns of the length-(2^q - 1) code
shortens it without losing minimum distance, but a decode may then land on an
out-of-range locator; such events surface as DecodeFailure, never as a wrong
answer.

Decoding recovers the error-locator polynomial from the power-sum syndromes
(Peterson-Gorenstein-Zierler, expected weight known in advance), then takes
the single root of weight 1 in closed form and the roots of every weight from
2 up by one evaluation sweep over the first r positions.  Every candidate
position set is re-verified against the full syndrome before it is returned,
which turns any miscorrection into an explicit failure.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .gf2m import FieldContext, make_field

MAX_CORRECTION = 4


class DecodeFailure(Exception):
    """Syndrome does not correspond to a unique in-range error pattern."""


class ParityCheckMatrix:
    """Shortened BCH parity-check matrix, stored implicitly via the field tables.

    Attributes
    ----------
    t : int
        Correction capability, 1 <= t <= 4.
    q : int
        Field degree, ceil(log2(r + 1)).
    n : int
        Full code length 2^q - 1.
    r : int
        Number of retained columns, 3 <= r <= n.
    """

    def __init__(self, field: FieldContext, t: int, r: int):
        self.field = field
        self.t = t
        self.q = field.q
        self.n = field.order
        self.r = r

    @property
    def num_rows(self) -> int:
        return self.t * self.q

    @cached_property
    def rows(self) -> np.ndarray:
        """Dense 0/1 matrix of shape (t*q, r); built on demand."""
        idx = np.arange(self.r, dtype=np.int64)
        out = np.empty((self.num_rows, self.r), dtype=np.uint8)
        for k in range(self.t):
            vals = self.field.antilog[((2 * k + 1) * idx) % self.n]
            for j in range(self.q):
                out[k * self.q + j] = (vals >> j) & 1
        return out

    @cached_property
    def sweep_powers(self) -> tuple[np.ndarray, np.ndarray]:
        """Exponents e*i mod n and the powers alpha^(e*i), e = 0..t, i < r."""
        exps = np.outer(np.arange(self.t + 1), np.arange(self.r)) % self.n
        return exps, self.field.antilog[exps]

    def block_syndromes(self, positions) -> list[int]:
        """Power-sum syndromes S_{2k+1} of an error pattern, one per row block."""
        f = self.field
        out = []
        for k in range(self.t):
            acc = 0
            for p in positions:
                acc ^= f.alpha_pow((2 * k + 1) * p)
            out.append(acc)
        return out


def field_degree(r: int) -> int:
    """Degree q = ceil(log2(r + 1)) of the smallest field with r nonzero elements."""
    return r.bit_length()


def build_parity_check(t: int, r: int) -> ParityCheckMatrix:
    """Parity-check matrix of the t-error-correcting BCH code, first r columns."""
    if not 1 <= t <= MAX_CORRECTION:
        raise ValueError(f"correction capability t={t} outside [1, {MAX_CORRECTION}]")
    if r < 3:
        raise ValueError(f"need at least 3 columns, got r={r}")
    return ParityCheckMatrix(make_field(field_degree(r)), t, r)


def _pack_blocks(pcm: ParityCheckMatrix, bits: np.ndarray) -> list[int]:
    q = pcm.q
    weights = 1 << np.arange(q, dtype=np.int64)
    return [int(bits[k * q : (k + 1) * q].astype(np.int64) @ weights) for k in range(pcm.t)]


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
        inv = field.inv(A[col][col])
        A[col] = [field.mul(inv, a) for a in A[col]]
        b[col] = field.mul(inv, b[col])
        for i in range(w):
            if i != col and A[i][col] != 0:
                f = A[i][col]
                A[i] = [a ^ field.mul(f, p) for a, p in zip(A[i], A[col])]
                b[i] ^= field.mul(f, b[col])
    return b


def _roots_sweep(pcm: ParityCheckMatrix, sigma: list[int], w: int) -> list[int]:
    # Evaluate X^w + sigma_1 X^(w-1) + ... + sigma_w at X = alpha^i over the
    # first r positions only; out-of-range roots are simply never found.
    f = pcm.field
    if sigma[-1] == 0:
        raise DecodeFailure("zero locator root")
    exps, powers = pcm.sweep_powers
    acc = powers[w] ^ sigma[-1]
    for u, a in enumerate(sigma[:-1], start=1):
        if a:
            # exps + log a < 2n, so the wrap is the reduction mod n
            acc ^= f.antilog.take(exps[w - u] + f.log[a], mode="wrap")
    return np.flatnonzero(acc == 0).tolist()


def syndrome_decode(pcm: ParityCheckMatrix, syndrome, expected_weight: int) -> list[int]:
    """Column positions (sorted, 0-based) whose XOR equals the syndrome.

    Parameters
    ----------
    pcm : ParityCheckMatrix
    syndrome : sequence of 0/1 of length t*q, block k in rows k*q..(k+1)*q-1
        with the bit-j-in-row-j convention of the matrix.
    expected_weight : int
        Exact number of error positions, 0 <= expected_weight <= t.

    Raises
    ------
    DecodeFailure
        When no in-range position set of the expected weight reproduces the
        syndrome.  For shortened matrices this includes locators beyond r.
    """
    bits = np.asarray(syndrome, dtype=np.int64) & 1
    if bits.shape != (pcm.num_rows,):
        raise ValueError(f"syndrome length {bits.shape} does not match {pcm.num_rows} rows")
    w = expected_weight
    if not 0 <= w <= pcm.t:
        raise ValueError(f"expected weight {w} outside [0, {pcm.t}]")
    blocks = _pack_blocks(pcm, bits)
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
        S[2 * i] = f.sqr(S[i])

    if w == 1:
        if S[1] == 0:
            raise DecodeFailure("zero syndrome for a weight-1 pattern")
        positions = [int(f.log[S[1]])]
    else:
        positions = _roots_sweep(pcm, _pgz_sigma(f, S, w), w)

    if len(set(positions)) != w or any(p >= pcm.r for p in positions):
        raise DecodeFailure("locator roots not a weight-matched in-range set")
    if pcm.block_syndromes(positions) != blocks:
        raise DecodeFailure("candidate positions do not reproduce the syndrome")
    return sorted(positions)
