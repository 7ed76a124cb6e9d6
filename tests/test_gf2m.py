import numpy as np
import pytest

from qgt.gf2m import MAX_DEGREE, PRIMITIVE_POLYS, FieldContext, make_field


def test_gf8_table_values():
    f = make_field(3)
    # x^3 = x + 1 under 0b1011: powers cycle 1, 2, 4, 3, 6, 7, 5
    assert f.antilog.tolist() == [1, 2, 4, 3, 6, 7, 5]
    assert f.log[1] == 0
    assert f.log[3] == 3
    assert f.log[0] == -1


def test_all_degrees_build_and_are_primitive():
    for q in PRIMITIVE_POLYS:
        f = make_field(q)
        assert f.order == (1 << q) - 1
        # every nonzero element appears exactly once among the powers
        assert np.array_equal(np.sort(f.antilog), np.arange(1, 1 << q))


def slow_mul(f, a, b):
    """a * b by shift-and-add with reduction by the primitive polynomial."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a >> f.q & 1:
            a ^= PRIMITIVE_POLYS[f.q]
    return acc


def test_mul_matches_polynomial_reduction():
    # a product of nonzero elements is the antilog of the sum of their logs
    for q in (4, 9):
        f = make_field(q)
        exp, log = f.exp_list, f.log_list
        rng = np.random.default_rng(5)
        for _ in range(200):
            a, b = (int(v) for v in rng.integers(1, 1 << q, size=2))
            assert exp[log[a] + log[b]] == slow_mul(f, a, b)


def test_field_axioms_spot_checks():
    # inverses and squares read off the log tables, as the decoder reads them
    f = make_field(5)
    exp, log, n = f.exp_list, f.log_list, f.order
    rng = np.random.default_rng(11)
    for _ in range(100):
        a = int(rng.integers(1, 32))
        assert slow_mul(f, a, exp[n - log[a]]) == 1
        assert exp[2 * log[a]] == slow_mul(f, a, a)
    assert slow_mul(f, 0, 17) == 0


def test_exp_list_wraps():
    # the decoder indexes it with sums and differences of two logs, unreduced
    for q in (2, 3, 8):
        f = make_field(q)
        exp = f.exp_list
        assert len(exp) == 2 * f.order
        assert exp[: f.order] == f.antilog.tolist()
        assert all(exp[i] == exp[i + f.order] for i in range(f.order))


def test_rejects_bad_polynomials(monkeypatch):
    # the table is the only source of polynomials; a bad entry must not pass
    monkeypatch.setitem(PRIMITIVE_POLYS, 4, 0b11111)  # x^4+x^3+x^2+x+1 divides x^5-1
    with pytest.raises(ValueError, match="not primitive"):
        FieldContext(4)
    monkeypatch.setitem(PRIMITIVE_POLYS, 4, 0b1011)
    with pytest.raises(ValueError, match="does not have degree 4"):
        FieldContext(4)
    for q in (1, 21):
        with pytest.raises(ValueError, match="no primitive polynomial"):
            FieldContext(q)
        with pytest.raises(ValueError, match="no primitive polynomial"):
            make_field(q)


def test_poly_table_degrees_consistent():
    assert sorted(PRIMITIVE_POLYS) == list(range(2, MAX_DEGREE + 1)) and MAX_DEGREE == 20
    for q, poly in PRIMITIVE_POLYS.items():
        assert poly.bit_length() == q + 1
