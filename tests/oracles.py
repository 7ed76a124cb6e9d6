"""Reference computations that tests compare the library against.

None of these run in the CLI or the simulator: the finite-pool-size
recursion checks its large-pool limit `design.de_step_poisson`, the bitwise
syndrome checks the BCH decoder, and the field trace checks
`FieldContext.solve_quadratic`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from qgt.bch import ParityCheckMatrix
from qgt.gf2m import FieldContext
from qgt.graphs import DegreeProfile


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


def syndrome_of(pcm: ParityCheckMatrix, positions) -> np.ndarray:
    """Binary syndrome (length t*q) of the given column positions."""
    bits = np.zeros(pcm.num_rows, dtype=np.uint8)
    for k, s in enumerate(pcm.block_syndromes(positions)):
        for j in range(pcm.q):
            bits[k * pcm.q + j] = (s >> j) & 1
    return bits


def field_trace(f: FieldContext, a: int) -> int:
    """Absolute trace a + a^2 + a^4 + ... + a^(2^(q-1)), which lies in {0, 1}."""
    acc = a
    x = a
    for _ in range(f.q - 1):
        x = f.sqr(x)
        acc ^= x
    return acc
