"""Parity-check matrices of binary t-error-correcting BCH codes and syndrome
decoding of low-weight error patterns.

The matrix for correction capability t over GF(2^q) has t row blocks of q rows
each.  Column i of block k holds the bit expansion of alpha^((2k+1) * i), bit j
in row k*q + j.  Keeping only the first r columns of the length-(2^q - 1) code
shortens it without losing minimum distance, but a decode may then land on an
out-of-range locator; such events surface as DecodeFailure, never as a wrong
answer.

Decoding recovers the error locators from the power-sum syndromes, the
expected weight w being known in advance.  The single root of weight 1 is
the syndrome itself.  At weights 2 and 3 a change of variable turns the
locator polynomial into z^2 + z = c or Z^3 + Z = c (Berlekamp, Rumsey and
Solomon, 1967), whose roots come from per-field tables built on first use
(`FieldContext.quadratic_roots` and `cubic_roots`, 4 and 8 MB at q = 20),
or into a cube root.  At weight 4 Peterson-Gorenstein-Zierler elimination
finds the locator and one sweep over the first r positions its roots,
reading each term as a strided slice of one cyclic antilog table.  Every
candidate position set is re-verified against the full syndrome before it
is returned, which turns any miscorrection into an explicit failure.  Since
the designed distance 2t + 1 leaves at most one in-range weight-w set per
syndrome for w <= t, the result depends on the syndrome alone, not on how
the roots were found.
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
    def cyclic_powers(self) -> np.ndarray:
        """alpha^j for 0 <= j < n + t*r, so alpha^(L + e*i) for i < r is the
        slice [L : L + e*r : e] for any log L < n and any e <= t."""
        return np.resize(self.field.antilog, self.n + self.t * self.r)


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
    if sigma[-1] == 0:
        raise DecodeFailure("zero locator root")
    c, r, log = pcm.cyclic_powers, pcm.r, pcm.field.log_list
    acc = c[: w * r : w] ^ sigma[-1]
    for e, a in zip(range(w - 1, 0, -1), sigma):
        if a:  # sigma_u alpha^(e i) = alpha^(log sigma_u + e i) with e = w - u
            acc ^= c[log[a] : log[a] + e * r : e]
    return (acc == 0).nonzero()[0].tolist()


def _roots_quadratic(field: FieldContext, blocks: list[int]) -> list[int]:
    """Logs of the two locators of a weight-2 syndrome, by table lookup.

    The locator X^2 + S_1 X + (S_3 + S_1^3) / S_1 of X_1 + X_2 = S_1 becomes
    z^2 + z = c with c = 1 + S_3 / S_1^3 under X = S_1 z, so a root z of that
    gives the locators S_1 z and S_1 (z + 1).  S_1 = 0 or c = 0 means the
    locators cannot be distinct and nonzero.
    """
    log, exp, n = field.log_list, field.exp_list, field.order
    S1, S3 = blocks[0], blocks[1]
    if not S1:
        raise DecodeFailure("zero syndrome for a weight-2 pattern")
    l1 = log[S1]
    z = field.quadratic_roots[exp[(log[S3] - 3 * l1) % n] ^ 1 if S3 else 1]
    if not z:
        raise DecodeFailure("no two distinct nonzero locators")
    return [(l1 + log[z]) % n, (l1 + log[z ^ 1]) % n]


def _cube_roots(field: FieldContext, k: int) -> list[int]:
    """The three distinct cube roots of k != 0.  They exist only when 3
    divides 2^q - 1, that is for even q, and k = alpha^(3m) is a cube; they
    are alpha^(m + j (2^q - 1) / 3) for j = 0, 1, 2."""
    n, lk = field.order, field.log_list[k]
    if n % 3 or lk % 3:
        raise DecodeFailure("no three distinct cube roots")
    return [field.exp_list[lk // 3 + j * n // 3] for j in range(3)]


def _roots_cubic(field: FieldContext, blocks: list[int]) -> list[int]:
    """Logs of the three locators of a weight-3 syndrome, by table lookup.

    Peterson's direct solution gives the locator X^3 + sigma_1 X^2 +
    sigma_2 X + sigma_3: with S_2 = S_1^2 and S_4 = S_1^4 over GF(2^q),
    Newton's identities give sigma_1 = S_1 and, with D = S_1^3 + S_3 =
    (X_1 + X_2)(X_1 + X_3)(X_2 + X_3), sigma_2 = (S_1^2 S_3 + S_5) / D and
    sigma_3 = D + S_1 sigma_2.  D = 0 means the locators cannot be distinct.
    S_1 = 0 is valid: three distinct locators may sum to zero.

    X = Y + S_1 turns the locator into Y^3 + p Y + D with p = S_1^2 +
    sigma_2.  For p != 0, Y = sqrt(p) Z turns it into Z^3 + Z = D / p^(3/2),
    whose roots, when it has three distinct ones, come from a table; for
    p = 0, Y is a cube root of D.  A root Y = S_1 is the locator X = 0.
    """
    log, exp, n = field.log_list, field.exp_list, field.order
    S1, S3 = blocks[0], blocks[1]
    l1 = log[S1] if S1 else 0
    D = S3 ^ exp[3 * l1 % n] if S1 else S3
    if not D:
        raise DecodeFailure("singular locator system")
    num = blocks[2] ^ exp[(2 * l1 + log[S3]) % n] if S1 and S3 else blocks[2]
    sigma2 = exp[log[num] - log[D] + n] if num else 0
    p = exp[2 * l1] ^ sigma2 if S1 else sigma2
    if not p:
        ys = _cube_roots(field, D)
    else:
        lp = log[p]
        half = (lp + n * (lp & 1)) >> 1  # log sqrt(p): 2 * half = lp mod n
        packed = field.cubic_roots[exp[(log[D] - 3 * half) % n]]
        if not packed:
            raise DecodeFailure("no three distinct locators")
        q = field.q
        ys = exp[half + (packed & n)], exp[half + (packed >> q & n)], exp[half + (packed >> 2 * q)]
    if S1 in ys:
        raise DecodeFailure("zero locator root")
    return [log[S1 ^ ys[0]], log[S1 ^ ys[1]], log[S1 ^ ys[2]]]


def syndrome_decode(pcm: ParityCheckMatrix, blocks, expected_weight: int) -> list[int]:
    """Column positions (sorted, 0-based) whose XOR equals the syndrome.

    Parameters
    ----------
    pcm : ParityCheckMatrix
    blocks : sequence of t integers in [0, 2^q)
        The syndrome block by block, S_1, S_3, ..., S_{2t-1}: bit j of block
        k is row k*q + j of the matrix.
    expected_weight : int
        Exact number of error positions, 0 <= expected_weight <= t.

    Raises
    ------
    DecodeFailure
        When no in-range position set of the expected weight reproduces the
        syndrome.  For shortened matrices this includes locators beyond r.
    """
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
    elif w == 2:
        positions = _roots_quadratic(f, blocks)
    elif w == 3:
        positions = _roots_cubic(f, blocks)
    else:
        # Power sums S_1..S_8; odd ones are measured, even ones follow by squaring.
        S = [0] * (2 * w + 1)
        for k in range(w):
            S[2 * k + 1] = blocks[k]
        for i in range(1, w + 1):
            S[2 * i] = f.sqr(S[i])
        positions = _roots_sweep(pcm, _pgz_sigma(f, S, w), w)

    if len(set(positions)) != w or max(positions) >= pcm.r:
        raise DecodeFailure("locator roots not a weight-matched in-range set")
    exp, n = f.exp_list, pcm.n
    e = 1
    for s in blocks:
        for p in positions:
            s ^= exp[e * p % n]
        if s:
            raise DecodeFailure("candidate positions do not reproduce the syndrome")
        e += 2
    return sorted(positions)
