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
the syndrome itself.  At weights 2, 3 and 4 Peterson's direct solution of
Newton's identities gives the locator polynomial, and two closed-form root
finders give its roots (Berlekamp, Rumsey and Solomon, 1967): a change of
variable turns a quadratic into z^2 + z = c and a cubic into Z^3 + Z = c,
whose roots come from per-field tables built on first use
(`FieldContext.quadratic_roots` and `cubic_roots`, 4 and 8 MB at q = 20),
or into a cube root.  A quartic is depressed and split into two quadratics
through one root of its resolvent cubic.  No step depends on r, so a decode
does the same work at every code length.  Every candidate position set is
re-verified against the full syndrome before it is returned, which turns
any miscorrection into an explicit failure.  Since the designed distance
2t + 1 leaves at most one in-range weight-w set per syndrome for w <= t,
the result depends on the syndrome alone, not on how the roots were found.
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


def _quadratic(field: FieldContext, lb: int, lc: int) -> tuple[int, int]:
    """Logs, below 2 (2^q - 1), of the two roots of X^2 + B X + C, given
    lb = log B < 2^q - 1 and lc = log C.

    X = B z turns it into z^2 + z = C / B^2, whose table root z gives the
    roots B z and B (z + 1).  No table root means no two distinct nonzero
    roots.
    """
    z = field.quadratic_roots[field.exp_list[(lc - 2 * lb) % field.order]]
    if not z:
        raise DecodeFailure("no two distinct nonzero roots")
    log = field.log_list
    return lb + log[z], lb + log[z ^ 1]


def _cubic(field: FieldContext, p: int, c: int) -> tuple[int, int, int]:
    """The three roots of Y^3 + p Y + c, c != 0.

    For p != 0, Y = sqrt(p) Z turns it into Z^3 + Z = c / p^(3/2), whose
    roots, when it has three distinct ones, come from a table.  For p = 0
    the roots are the cube roots of c = alpha^k: three distinct ones exist
    only when 3 divides both 2^q - 1 (even q) and k, and they are
    alpha^(k/3 + j (2^q - 1) / 3) for j = 0, 1, 2.
    """
    log, exp, n = field.log_list, field.exp_list, field.order
    if not p:
        k = log[c]
        if n % 3 or k % 3:
            raise DecodeFailure("no three distinct cube roots")
        return exp[k // 3], exp[k // 3 + n // 3], exp[k // 3 + 2 * n // 3]
    lp = log[p]
    half = (lp + n * (lp & 1)) >> 1  # log sqrt(p): 2 * half = lp mod n
    packed = field.cubic_roots[exp[(log[c] - 3 * half) % n]]
    if not packed:
        raise DecodeFailure("no three distinct roots")
    q = field.q
    return exp[half + (packed & n)], exp[half + (packed >> q & n)], exp[half + (packed >> 2 * q)]


def _quartic(field: FieldContext, blocks) -> list[int]:
    """Logs of the four locators of a weight-4 syndrome.

    Newton's identities, with S_2k = S_k^2, leave sigma_1 = S_1 and, for
    D = S_1^3 + S_3, sigma_3 = D + S_1 sigma_2, where sigma_2 and sigma_4
    solve D sigma_2 + S_1 sigma_4 = S_5 + S_1^2 S_3 and (S_5 + S_1^5)
    sigma_2 + S_3 sigma_4 = S_7 + S_1 S_3^2 + S_1^4 D.  Its determinant is
    Peterson's, nonzero whenever four distinct nonzero locators exist.

    If sigma_1 != 0, X = a + 1/Z with a^2 = sigma_3 / sigma_1, the root of
    the locator's derivative sigma_1 X^2 + sigma_3, removes the terms in X
    and Z^3; the locator's value at a is then e = a^4 + sigma_2 a^2 +
    sigma_4, and e = 0 makes a a repeated root.  If sigma_1 = 0, X = Z.
    Either way Z^4 + b Z^2 + c Z + d remains, and it has four distinct
    roots only with c != 0.  They are the roots of Z^2 + u Z + v and
    Z^2 + u Z + w, where u is any root of the resolvent u^3 + b u + c (the
    three pair sums of the roots) and v, w the roots of y^2 + (c/u) y + d.
    """
    log, exp, n = field.log_list, field.exp_list, field.order

    def mul(x, y):
        return exp[log[x] + log[y]] if x and y else 0

    def div(x, y):
        return exp[log[x] - log[y] + n] if x else 0

    S1, S3, S5, S7 = blocks[:4]
    S1_2 = mul(S1, S1)
    S1_4 = mul(S1_2, S1_2)
    D = S3 ^ mul(S1_2, S1)
    E = S5 ^ mul(S1_4, S1)
    R1 = S5 ^ mul(S1_2, S3)
    R2 = S7 ^ mul(S1, mul(S3, S3)) ^ mul(S1_4, D)
    det = mul(D, S3) ^ mul(S1, E)
    if not det:
        raise DecodeFailure("singular locator system")
    sigma2 = div(mul(R1, S3) ^ mul(S1, R2), det)
    sigma4 = div(mul(D, R2) ^ mul(E, R1), det)
    sigma3 = D ^ mul(S1, sigma2)
    if not sigma4:
        raise DecodeFailure("zero locator root")
    if S1:
        a2 = div(sigma3, S1)
        la2 = log[a2]
        a = exp[(la2 + n * (la2 & 1)) >> 1] if a2 else 0  # 2 log a = la2 mod n
        e = mul(a2, a2) ^ mul(sigma2, a2) ^ sigma4
        if not e:
            raise DecodeFailure("repeated locator root")
        b, c, d = div(mul(S1, a) ^ sigma2, e), div(S1, e), div(1, e)
    else:
        a, b, c, d = 0, sigma2, sigma3, sigma4
        if not c:
            raise DecodeFailure("repeated locator root")
    lu = log[_cubic(field, b, c)[0]]
    lv, lw = _quadratic(field, (log[c] - lu) % n, log[d])
    lz = _quadratic(field, lu, lv) + _quadratic(field, lu, lw)
    if not S1:
        return [lg % n for lg in lz]
    return [log[a ^ exp[n - lg % n]] for lg in lz]


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
    log, exp, n = f.log_list, f.exp_list, f.order
    S1 = blocks[0]
    if w == 1:
        if not S1:
            raise DecodeFailure("zero syndrome for a weight-1 pattern")
        positions = [log[S1]]
    elif w == 2:
        # X = S1 z turns the locator X^2 + S1 X + (S3 + S1^3) / S1 into
        # z^2 + z = 1 + S3 / S1^3; S1 = 0 or S3 = S1^3 means the locators
        # cannot be distinct and nonzero
        if not S1:
            raise DecodeFailure("zero syndrome for a weight-2 pattern")
        l1 = log[S1]
        D = blocks[1] ^ exp[3 * l1 % n]
        if not D:
            raise DecodeFailure("no two distinct nonzero locators")
        z1, z2 = _quadratic(f, l1, log[D] - l1)
        positions = [z1 % n, z2 % n]
    elif w == 3:
        # Peterson's direct solution: sigma_1 = S1 and, with D = S1^3 + S3 =
        # (X1 + X2)(X1 + X3)(X2 + X3), sigma_2 = (S1^2 S3 + S5) / D; then
        # X = Y + S1 gives Y^3 + p Y + D with p = S1^2 + sigma_2.  S1 = 0 is
        # valid: three distinct locators may sum to zero.  A root Y = S1 is
        # the locator X = 0.
        S3 = blocks[1]
        l1 = log[S1] if S1 else 0
        D = S3 ^ exp[3 * l1 % n] if S1 else S3
        if not D:
            raise DecodeFailure("singular locator system")
        num = blocks[2] ^ exp[(2 * l1 + log[S3]) % n] if S1 and S3 else blocks[2]
        sigma2 = exp[log[num] - log[D] + n] if num else 0
        ys = _cubic(f, exp[2 * l1] ^ sigma2 if S1 else sigma2, D)
        if S1 in ys:
            raise DecodeFailure("zero locator root")
        positions = [log[S1 ^ ys[0]], log[S1 ^ ys[1]], log[S1 ^ ys[2]]]
    else:
        positions = _quartic(f, blocks)

    if len(set(positions)) != w or max(positions) >= pcm.r:
        raise DecodeFailure("locator roots not a weight-matched in-range set")
    e = 1
    for s in blocks:
        for p in positions:
            s ^= exp[e * p % n]
        if s:
            raise DecodeFailure("candidate positions do not reproduce the syndrome")
        e += 2
    return sorted(positions)
