import itertools

import numpy as np
import pytest

from oracles import (
    _roots_sweep,
    alpha_pow,
    decode_by_enumeration,
    mul,
    pack_blocks,
    pgz_syndrome_decode,
    roots_by_take,
    sqr,
    sweep_syndrome_decode,
    syndrome_of,
)
from qgt import bch
from qgt.bch import DecodeFailure, build_parity_check, syndrome_decode
from qgt.gf2m import FieldContext, make_field

H_1_7 = np.array(
    [
        [1, 0, 0, 1, 0, 1, 1],
        [0, 1, 0, 1, 1, 1, 0],
        [0, 0, 1, 0, 1, 1, 1],
    ],
    dtype=np.uint8,
)


def test_single_error_matrix_gf8():
    pcm = build_parity_check(1, 7)
    assert pcm.q == 3
    assert pcm.num_rows == 3
    # column i is the bit expansion of alpha^i, bit j in row j
    assert np.array_equal(pcm.rows, H_1_7)


def test_two_error_matrix_second_block_is_cubes():
    pcm = build_parity_check(2, 7)
    f = make_field(3)
    assert pcm.rows.shape == (6, 7)
    assert np.array_equal(pcm.rows[:3], H_1_7)
    for i in range(7):
        val = alpha_pow(f, 3 * i)
        col = [(val >> j) & 1 for j in range(3)]
        assert pcm.rows[3:, i].tolist() == col


def test_min_distance_supports_capability():
    # no up-to-2t columns may XOR to zero, else two <=t patterns would collide
    for t, r in [(1, 7), (2, 7)]:
        pcm = build_parity_check(t, r)
        cols = pcm.rows.T
        for w in range(1, 2 * t + 1):
            for combo in itertools.combinations(range(r), w):
                xor = np.bitwise_xor.reduce(cols[list(combo)], axis=0)
                assert xor.any(), (t, r, combo)


def test_syndrome_of_matches_dense_rows():
    pcm = build_parity_check(2, 13)
    rng = np.random.default_rng(3)
    for _ in range(30):
        w = int(rng.integers(0, 3))
        pos = sorted(rng.choice(13, size=w, replace=False).tolist())
        manual = np.bitwise_xor.reduce(pcm.rows[:, pos], axis=1) if pos else np.zeros(pcm.num_rows, np.uint8)
        assert np.array_equal(syndrome_of(pcm, pos), manual)


def test_round_trip_small():
    for t in (1, 2, 3, 4):
        for r in (7, 15):
            pcm = build_parity_check(t, r)
            for w in range(t + 1):
                for pos in itertools.combinations(range(r), w):
                    got = syndrome_decode(pcm, pack_blocks(pcm, syndrome_of(pcm, list(pos))), w)
                    assert got == sorted(pos)


@pytest.mark.parametrize("t,r", [(2, 5), (2, 7), (3, 7), (4, 7), (2, 13), (3, 13), (3, 15), (4, 13), (4, 15)])
def test_every_syndrome_matches_enumeration(t, r):
    # the decoder returns the unique in-range weight-w set with the syndrome
    # when there is one and fails otherwise, for every syndrome and w <= t
    pcm = build_parity_check(t, r)
    L = pcm.num_rows
    syndromes = (np.arange(1 << L)[:, None] >> np.arange(L)) & 1
    for w in range(t + 1):
        table = decode_by_enumeration(pcm, w)
        for syn in syndromes.astype(np.uint8):
            expected = table.get(syn.tobytes())
            blocks = pack_blocks(pcm, syn)
            if expected is None:
                with pytest.raises(DecodeFailure):
                    syndrome_decode(pcm, blocks, w)
            else:
                assert syndrome_decode(pcm, blocks, w) == expected


def _outcome(decode, pcm, syn, w):
    try:
        return decode(pcm, syn, w)
    except DecodeFailure:
        return "failure"


def _zero_sum_triples(pcm, count):
    """Up to count position triples a < b < c < r with alpha^a + alpha^b + alpha^c = 0."""
    f = pcm.field
    out = []
    for a, b in itertools.combinations(range(pcm.r), 2):
        c = int(f.log[alpha_pow(f, a) ^ alpha_pow(f, b)])
        if b < c < pcm.r:
            out.append([a, b, c])
            if len(out) == count:
                break
    return out


@pytest.mark.parametrize(
    "t,r", [(3, 358), (1, 1003), (2, 1409), (3, 2221), (1, 802), (4, 200), (3, 1000), (4, 2221)]
)
def test_matches_pgz_oracle(t, r):
    # same set or same failure as elimination at every weight, on random
    # syndromes, on in-range patterns of weight <= t and on patterns with one
    # locator beyond r
    pcm = build_parity_check(t, r)
    rng = np.random.default_rng(t * 10000 + r)
    syndromes = []
    for _ in range(150):
        syndromes.append(rng.integers(0, 2, size=pcm.num_rows))
        pos = rng.choice(r, size=int(rng.integers(1, t + 1)), replace=False).tolist()
        syndromes.append(syndrome_of(pcm, pos))
        syndromes.append(syndrome_of(pcm, pos[:-1] + [int(rng.integers(r, pcm.n))]))
    for syn in syndromes:
        blocks = pack_blocks(pcm, syn)
        for w in range(t + 1):
            assert _outcome(syndrome_decode, pcm, blocks, w) == _outcome(pgz_syndrome_decode, pcm, blocks, w)


def _blocks_of(pcm, positions):
    return pack_blocks(pcm, syndrome_of(pcm, positions))


def _cube_root_triples(pcm, count, rng):
    """Up to count in-range position triples whose locators X_j = s + y w^j,
    w a primitive cube root of 1, make p = sigma_1^2 + sigma_2 vanish."""
    f, n = pcm.field, pcm.n
    omega = alpha_pow(f, n // 3)
    out = []
    for _ in range(50 * count):
        s, y = (int(v) for v in rng.integers(1, n + 1, size=2))
        ys = [y, mul(f, y, omega), mul(f, y, sqr(f, omega))]
        pos = sorted(f.log_list[s ^ v] if s ^ v else n for v in ys)
        if pos[-1] < pcm.r:
            out.append(pos)
            if len(out) == count:
                break
    return out


def _spy_cube_roots(monkeypatch) -> list:
    """The constants c of the cubics Y^3 + c that bch._cubic is asked to
    solve, that is, of its cube-root branch, from here on."""
    calls = []
    real_cubic = bch._cubic

    def spy(field, p, c):
        if not p:
            calls.append(c)
        return real_cubic(field, p, c)

    monkeypatch.setattr(bch, "_cubic", spy)
    return calls


@pytest.mark.parametrize("t,r", [(3, 358), (2, 1409), (3, 2221), (4, 2221), (3, 1000), (3, 13), (4, 63)])
def test_root_tables_match_sweep_oracle(t, r, monkeypatch):
    # same set or same failure as the root sweep at every weight, on random
    # blocks, on in-range sets, on sets with a locator beyond r, on blocks
    # with S_5 = S_1^5 (p = 0 at weight 3) and, at even q, on in-range
    # triples with p = 0, whose locators are cube roots shifted by sigma_1
    cube_calls = _spy_cube_roots(monkeypatch)
    pcm = build_parity_check(t, r)
    f, n = pcm.field, pcm.n
    rng = np.random.default_rng(t * 10000 + r + 1)
    block_sets = []
    for _ in range(200):
        block_sets.append(rng.integers(0, n + 1, size=t).tolist())
        w = int(rng.integers(1, t + 1))
        pos = rng.choice(r, size=w, replace=False).tolist()
        block_sets.append(_blocks_of(pcm, pos))
        block_sets.append(_blocks_of(pcm, pos[:-1] + [int(rng.integers(r, n))] if r < n else pos))
        if t >= 3:
            S1 = int(rng.integers(0, n + 1))
            fifth = f.exp_list[5 * f.log_list[S1] % n] if S1 else 0
            rest = rng.integers(0, n + 1, size=t - 2).tolist()
            block_sets.append([S1, rest[0], fifth] + rest[1:])
    triples = _cube_root_triples(pcm, 40, rng) if t >= 3 and pcm.q % 2 == 0 else []
    block_sets += [_blocks_of(pcm, pos) for pos in triples]
    for blocks in block_sets:
        for w in range(t + 1):
            assert _outcome(syndrome_decode, pcm, blocks, w) == _outcome(sweep_syndrome_decode, pcm, blocks, w)
    for pos in triples:
        assert syndrome_decode(pcm, _blocks_of(pcm, pos), 3) == pos
    if t >= 3:
        assert len(cube_calls) >= 20
        assert len(triples) == (40 if pcm.q % 2 == 0 else 0)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_root_tables_are_lazy_and_exact(q):
    field = FieldContext(q)
    assert "quadratic_roots" not in vars(field) and "cubic_roots" not in vars(field)
    size, n = 1 << q, field.order
    quad, cubic = field.quadratic_roots, field.cubic_roots
    assert len(quad) == len(cubic) == size
    roots = {c: [] for c in range(size)}
    for z in range(size):
        roots[sqr(field, z) ^ z].append(z)
    for c in range(size):
        pair = [z for z in roots[c] if z > 1]
        assert quad[c] == (min(pair) if pair else 0)
    roots = {c: [] for c in range(size)}
    for z in range(size):
        roots[mul(field, sqr(field, z), z) ^ z].append(z)
    for c in range(size):
        packed = cubic[c]
        logs = [packed >> (q * j) & n for j in range(3)]
        if len(roots[c]) == 3:
            assert sorted(field.exp_list[lg] for lg in logs) == roots[c]
        else:
            assert packed == 0


def _locator(field, roots):
    """sigma_1..sigma_w of prod (X + alpha^p) over the given positions."""
    coeffs = [1]
    for p in roots:
        x = alpha_pow(field, p)
        coeffs = [a ^ mul(field, x, b) for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs[1:]


@pytest.mark.parametrize("t,r", [(3, 358), (2, 1409), (3, 2221), (4, 200), (4, 255), (3, 511)])
def test_roots_sweep_matches_take_oracle(t, r):
    # strided slices of the cyclic table against the exponent-table gather,
    # on random locators, on locators of in-range and out-of-range root sets,
    # and with log sigma_u = n - 1 so every slice reaches the end of the table
    pcm = build_parity_check(t, r)
    f, n = pcm.field, pcm.n
    top = alpha_pow(f, n - 1)
    rng = np.random.default_rng(t * 10000 + r)
    for w in range(2, t + 1):
        sigmas = [[top] * (w - 1) + [int(rng.integers(1, n + 1))]]
        for _ in range(60):
            sigmas.append(rng.integers(0, n + 1, size=w).tolist())
            sigmas.append([int(rng.choice([0, top])) for _ in range(w - 1)] + [int(rng.integers(0, n + 1))])
            roots = rng.choice(n, size=w, replace=False).tolist()
            sigmas.append(_locator(f, roots))
            sigmas.append(_locator(f, roots[: w - 2] + [r - 1, n - 1]))
        for sigma in sigmas:
            assert _outcome(_roots_sweep, pcm, sigma, w) == _outcome(roots_by_take, pcm, sigma, w)
        # the sweep finds exactly the in-range roots of a known locator
        roots = sorted(rng.choice(r, size=w, replace=False).tolist())
        assert _roots_sweep(pcm, _locator(f, roots), w) == roots


@pytest.mark.parametrize("t,r", [(3, 358), (3, 2221), (4, 200)])
def test_weight_3_locators_summing_to_zero(t, r):
    # S1 = 0 here, yet the three locators are distinct and in range
    pcm = build_parity_check(t, r)
    triples = _zero_sum_triples(pcm, 40)
    assert len(triples) == 40
    for pos in triples:
        syn = syndrome_of(pcm, pos)
        assert not syn[: pcm.q].any()
        blocks = pack_blocks(pcm, syn)
        assert syndrome_decode(pcm, blocks, 3) == pos == pgz_syndrome_decode(pcm, blocks, 3)


def _zero_sum_quartets(pcm, count, rng):
    """Up to count in-range position sets of four whose locators sum to
    zero, X4 = X1 + X2 + X3, so that S1 = 0."""
    f = pcm.field
    out = []
    for _ in range(50 * count):
        pos = rng.choice(pcm.r, size=3, replace=False).tolist()
        x4 = alpha_pow(f, pos[0]) ^ alpha_pow(f, pos[1]) ^ alpha_pow(f, pos[2])
        if x4 and f.log_list[x4] < pcm.r:
            out.append(sorted(pos + [f.log_list[x4]]))
            if len(out) == count:
                break
    return out


def _cube_root_quartets(pcm, count, rng):
    """Up to count in-range position sets of four whose depressed quartic
    Z^4 + b Z^2 + c Z + d has b = 0, so that its resolvent is u^3 + c.

    The roots Z = z, z + u, z + u w, z + u w^2, w a primitive cube root of
    1 (even q only), have the pair sums u, u w, u w^2, the roots of
    x^3 + u^3.  Half the sets are X = Z, whose locator has sigma_1 = 0, and
    half X = a + 1/Z, whose locator has sigma_1 != 0 and depresses back to
    Z through the same shift a.
    """
    f, n = pcm.field, pcm.n
    omega = alpha_pow(f, n // 3)
    out = []
    for i in range(50 * count):
        z, u, a = (int(v) for v in rng.integers(1, n + 1, size=3))
        zs = [z, z ^ u, z ^ mul(f, u, omega), z ^ mul(f, u, sqr(f, omega))]
        if i % 2 == 0:
            xs = zs
        elif all(zs):
            xs = [a ^ alpha_pow(f, -f.log_list[v]) for v in zs]
        else:
            continue
        if all(xs) and max(f.log_list[x] for x in xs) < pcm.r:
            out.append(sorted(f.log_list[x] for x in xs))
            if len(out) == count:
                break
    return out


@pytest.mark.parametrize("r", [63, 255, 474, 1000, 4095, 5000])
def test_weight_4_matches_oracles(r, monkeypatch):
    # same set or same failure as elimination and as the sweep at every
    # weight, on random blocks, on in-range sets of four, on sets with a
    # locator beyond r, on sets whose locators sum to zero (S1 = 0) and, at
    # even q, on sets whose resolvent is a pure cube (b = 0)
    cube_calls = _spy_cube_roots(monkeypatch)
    pcm = build_parity_check(4, r)
    n = pcm.n
    rng = np.random.default_rng(40000 + r)
    zero_sum = _zero_sum_quartets(pcm, 30, rng)
    pure_cube = _cube_root_quartets(pcm, 30, rng) if pcm.q % 2 == 0 else []
    assert len(zero_sum) == 30 and len(pure_cube) == (30 if pcm.q % 2 == 0 else 0)
    block_sets = [_blocks_of(pcm, pos) for pos in zero_sum + pure_cube]
    for _ in range(40):
        block_sets.append(rng.integers(0, n + 1, size=4).tolist())
        pos = rng.choice(r, size=4, replace=False).tolist()
        block_sets.append(_blocks_of(pcm, pos))
        if r < n:
            block_sets.append(_blocks_of(pcm, pos[:-1] + [int(rng.integers(r, n))]))
    for blocks in block_sets:
        for w in range(5):
            got = _outcome(syndrome_decode, pcm, blocks, w)
            assert got == _outcome(pgz_syndrome_decode, pcm, blocks, w)
            assert got == _outcome(sweep_syndrome_decode, pcm, blocks, w)
    for pos in zero_sum + pure_cube:
        assert syndrome_decode(pcm, _blocks_of(pcm, pos), 4) == pos
    if pure_cube:
        cube_calls.clear()
        for pos in pure_cube:
            syndrome_decode(pcm, _blocks_of(pcm, pos), 4)
        assert len(cube_calls) == len(pure_cube)


def test_every_weight_bypasses_elimination():
    # the elimination, the sweep and its table live only in the oracles, and
    # the decoder multiplies on the log tables alone
    assert not any(hasattr(bch, name) for name in ("_pgz_sigma", "_roots_sweep"))
    assert not hasattr(bch.ParityCheckMatrix, "cyclic_powers")
    assert not any(hasattr(FieldContext, name) for name in ("mul", "sqr", "inv"))
    pcm = build_parity_check(4, 200)
    rng = np.random.default_rng(4)
    for w in (1, 2, 3, 4):
        for _ in range(50):
            pos = sorted(rng.choice(200, size=w, replace=False).tolist())
            assert syndrome_decode(pcm, pack_blocks(pcm, syndrome_of(pcm, pos)), w) == pos


def test_shortened_r5_all_syndromes():
    # q stays 3 but only positions 0..4 exist; the 8 possible weight-1
    # syndromes split into 5 decodes, 2 out-of-range failures and the zero case
    pcm = build_parity_check(1, 5)
    assert pcm.q == 3
    f = make_field(3)
    for val in range(8):
        syn = pack_blocks(pcm, [(val >> j) & 1 for j in range(3)])
        if val == 0:
            with pytest.raises(DecodeFailure):
                syndrome_decode(pcm, syn, 1)
        elif int(f.log[val]) < 5:
            assert syndrome_decode(pcm, syn, 1) == [int(f.log[val])]
        else:
            with pytest.raises(DecodeFailure):
                syndrome_decode(pcm, syn, 1)


def test_weight_zero():
    pcm = build_parity_check(2, 7)
    assert syndrome_decode(pcm, pack_blocks(pcm, np.zeros(6, np.uint8)), 0) == []
    with pytest.raises(DecodeFailure):
        syndrome_decode(pcm, pack_blocks(pcm, syndrome_of(pcm, [2])), 0)


def test_overweight_pattern_never_slips_through():
    # true weight above the expected one: outcome must be a failure or a
    # self-consistent set of the requested weight, never silent garbage
    pcm = build_parity_check(2, 7)
    returned = 0
    for pos in itertools.combinations(range(7), 3):
        syn = syndrome_of(pcm, list(pos))
        try:
            got = syndrome_decode(pcm, pack_blocks(pcm, syn), 2)
        except DecodeFailure:
            continue
        returned += 1
        assert len(got) == 2
        assert np.array_equal(syndrome_of(pcm, got), syn)
    # with full-syndrome verification most of these 35 patterns must fail
    assert returned < 35


def test_random_syndromes_fail_or_verify():
    rng = np.random.default_rng(17)
    pcm = build_parity_check(3, 21)
    for _ in range(500):
        syn = rng.integers(0, 2, size=pcm.num_rows).astype(np.uint8)
        for w in range(1, 4):
            try:
                got = syndrome_decode(pcm, pack_blocks(pcm, syn), w)
            except DecodeFailure:
                continue
            assert len(got) == w
            assert np.array_equal(syndrome_of(pcm, got), syn)


def test_contract_violations():
    pcm = build_parity_check(2, 7)
    with pytest.raises(ValueError):
        pack_blocks(pcm, np.zeros(5, np.uint8))  # bad length
    for decode in (syndrome_decode, pgz_syndrome_decode):
        for blocks in ([0], [0, 0, 0], [], [8, 0], [-1, 0]):  # bad block count or value
            with pytest.raises(ValueError):
                decode(pcm, blocks, 1)
        with pytest.raises(ValueError):
            decode(pcm, [0, 0], 3)  # above capability
        _outcome(decode, pcm, [7, 7], 2)  # the largest block value is in range
    with pytest.raises(ValueError):
        build_parity_check(5, 7)
    with pytest.raises(ValueError):
        build_parity_check(1, 2)
