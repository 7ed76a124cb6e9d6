"""Arithmetic over binary extension fields GF(2^q).

Field elements are integers in [0, 2^q) whose bit i is the coefficient of
alpha^i in the polynomial basis.  Arithmetic goes through log/antilog tables
indexed by powers of the primitive element alpha: a product of nonzero
elements is exp_list[log_list[a] + log_list[b]], a quotient or an inverse a
difference of logs with the order added, so every field operation is O(1)
after an O(2^q) table build.  The degree is capped at 20, which keeps the
two tables around 8 MB.  Scalar code reads Python-int copies of the tables,
built on first use, since indexing a list is several times cheaper than
indexing an array for a single element.  The root tables of z^2 + z = c
and Z^3 + Z = c, which the BCH decoder reads at weights 2 to 4, are built
on first use, 2^q entries each in a compact `array` (4 and 8 MB at q = 20).
"""

from __future__ import annotations

from array import array
from functools import cached_property, lru_cache

import numpy as np

# Primitive polynomial per extension degree.  Bit i is the coefficient of x^i,
# with the leading x^q bit included.  These are the familiar minimum-weight
# entries from standard coding tables; the table build below verifies that
# alpha = x really has full multiplicative order, so a bad entry cannot pass
# silently.
PRIMITIVE_POLYS = {
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10001001,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
    13: 0b10000000011011,
    14: 0b100010001000011,
    15: 0b1000000000000011,
    16: 0b10001000000001011,
    17: 0b100000000000001001,
    18: 0b1000000000010000001,
    19: 0b10000000000000100111,
    20: 0b100000000000000001001,
}

MAX_DEGREE = max(PRIMITIVE_POLYS)


class FieldContext:
    """GF(2^q), defined by PRIMITIVE_POLYS[q], together with its log and
    antilog tables.

    Attributes
    ----------
    q : int
        Extension degree.
    order : int
        Size of the multiplicative group, 2^q - 1.
    antilog : ndarray
        antilog[i] = alpha^i for 0 <= i < order.
    log : ndarray
        log[x] = discrete log of x for 1 <= x < 2^q, and -1 at index 0.
    """

    def __init__(self, q: int):
        if q not in PRIMITIVE_POLYS:
            raise ValueError(f"no primitive polynomial on file for degree {q}")
        primitive_poly = PRIMITIVE_POLYS[q]
        if primitive_poly >> q != 1:
            raise ValueError(f"polynomial 0x{primitive_poly:x} does not have degree {q}")
        self.q = q
        self.order = (1 << q) - 1

        antilog = np.zeros(self.order, dtype=np.int64)
        log = np.full(1 << q, -1, dtype=np.int64)
        x = 1
        for i in range(self.order):
            antilog[i] = x
            log[x] = i
            x <<= 1
            if x >> q & 1:
                x ^= primitive_poly
        if x != 1 or (log[1:] < 0).any():
            raise ValueError(f"polynomial 0x{primitive_poly:x} is not primitive over GF(2)")
        self.antilog = antilog
        self.log = log

    @cached_property
    def log_list(self) -> list[int]:
        """log as a list of Python ints."""
        return self.log.tolist()

    @cached_property
    def exp_list(self) -> list[int]:
        """antilog twice over as a list of Python ints: exp_list[i] = alpha^i
        for 0 <= i < 2 * order, so a sum or difference of two logs needs no
        reduction once order is added to the difference."""
        powers = self.antilog.tolist()
        return powers + powers

    @cached_property
    def quadratic_roots(self) -> array:
        """Entry c is the even root z of z^2 + z = c, whose other root is
        z + 1, or 0 when the roots are 0 and 1 (c = 0) or c has none."""
        z = np.arange(2, 1 << self.q, 2, dtype=np.int64)
        table = np.zeros(1 << self.q, dtype=np.int32)
        table[self.antilog[2 * self.log[z] % self.order] ^ z] = z
        return array("i", table.tobytes())

    @cached_property
    def cubic_roots(self) -> array:
        """Entry c packs the logs of the three roots of Z^3 + Z = c, q bits
        each, or is 0 when c has fewer than three roots."""
        q = self.q
        # Z^3 + Z = Z (Z + 1)^2 vanishes at 0 and 1 only, so c = 0 has two roots
        z = np.arange(2, 1 << q, dtype=np.int64)
        logs = self.log[z]
        c = self.antilog[3 * logs % self.order] ^ z
        three = np.bincount(c, minlength=1 << q)[c] == 3
        c, logs = c[three], logs[three]
        order = np.argsort(c, kind="stable")
        c, logs = c[order].reshape(-1, 3), logs[order].reshape(-1, 3)
        table = np.zeros(1 << q, dtype=np.int64)
        table[c[:, 0]] = logs[:, 0] | logs[:, 1] << q | logs[:, 2] << 2 * q
        return array("q", table.tobytes())


@lru_cache(maxsize=None)
def make_field(q: int) -> FieldContext:
    """Build (and cache) the GF(2^q) context for 2 <= q <= 20."""
    return FieldContext(q)
