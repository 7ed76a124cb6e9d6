import numpy as np
import pytest

from qgt.graphs import BipartiteGraph, profile_from_lambda, sample_graph

EXAMPLE_ADJ = np.array(
    [
        [1, 3, 4, 8, 9, 12, 13],
        [2, 3, 6, 7, 9, 11, 12],
        [0, 3, 5, 7, 9, 10, 12],
    ]
)


def test_profile_regular_three():
    p = profile_from_lambda(3, [0.0, 0.0, 1.0])
    assert p.avg_degree == pytest.approx(3.0)
    assert p.node_probs.tolist() == [0.0, 0.0, 1.0]


def test_profile_mixed():
    p = profile_from_lambda(4, [0.0, 0.0, 0.785, 0.215])
    assert p.avg_degree == pytest.approx(3.1704, abs=1e-3)
    # node perspective reweights by 1/i
    expect2 = 0.785 / 3 * p.avg_degree
    assert p.node_probs[2] == pytest.approx(expect2)
    assert p.node_probs.sum() == pytest.approx(1.0)


def test_profile_validation():
    with pytest.raises(ValueError):
        profile_from_lambda(3, [0.0, 0.5, 0.4])  # does not sum to 1
    with pytest.raises(ValueError):
        profile_from_lambda(3, [0.0, -0.1, 1.1])
    with pytest.raises(ValueError):
        profile_from_lambda(2, [0.0, 0.5, 0.5])  # length mismatch
    # tiny negative noise from an LP solution is forgiven
    p = profile_from_lambda(2, [-1e-13, 1.0 + 1e-13])
    assert p.lam[0] == 0.0


def test_bipartite_graph_incidence_structure():
    g = BipartiteGraph(14, 3, 7, EXAMPLE_ADJ)
    degs = np.diff(g.left_ptr)
    assert (degs[3], degs[0], degs[13]) == (3, 1, 1)

    def incidences(v):
        lo, hi = g.left_ptr[v], g.left_ptr[v + 1]
        return sorted(zip(g.left_node[lo:hi].tolist(), g.left_pos[lo:hi].tolist()))

    # item 7 sits in pool 1 position 3 and pool 2 position 3
    assert incidences(7) == [(1, 3), (2, 3)]
    assert incidences(12) == [(0, 5), (1, 6), (2, 6)]
    hist = np.bincount(degs)
    assert hist.sum() == 14
    assert int(hist @ np.arange(hist.size)) == 21


def _stable_argsort_csr(N, r, right_adj):
    flat = right_adj.ravel()
    order = np.argsort(flat, kind="stable")
    ptr = np.zeros(N + 1, dtype=np.int64)
    np.add.at(ptr, flat + 1, 1)
    np.cumsum(ptr, out=ptr)
    return ptr, order // r, order % r


def test_left_csr_matches_stable_argsort():
    p = profile_from_lambda(4, [0.0, 0.3, 0.4, 0.3])
    graphs = [BipartiteGraph(14, 3, 7, EXAMPLE_ADJ), BipartiteGraph(6, 0, 3, np.zeros((0, 3)))]
    graphs += [sample_graph(N, M, r, p, seed=N + M) for N, M, r in [(50, 20, 7), (300, 40, 21), (2000, 90, 60)]]
    for g in graphs:
        ptr, node, pos = _stable_argsort_csr(g.N, g.r, g.right_adj)
        for got, want in [(g.left_ptr, ptr), (g.left_node, node), (g.left_pos, pos)]:
            assert got.dtype == np.int64
            assert np.array_equal(got, want)


def test_bipartite_graph_validation():
    with pytest.raises(ValueError):
        BipartiteGraph(14, 3, 7, EXAMPLE_ADJ[:, ::-1])  # descending rows
    bad = EXAMPLE_ADJ.copy()
    bad[0, 0] = 14
    with pytest.raises(ValueError):
        BipartiteGraph(14, 3, 7, bad)
    with pytest.raises(ValueError):
        BipartiteGraph(14, 2, 7, EXAMPLE_ADJ)


def test_sample_graph_basic_shape():
    p = profile_from_lambda(3, [0.0, 0.0, 1.0])
    g = sample_graph(21, 9, 7, p, seed=1)
    assert g.right_adj.shape == (9, 7)
    # every row strictly ascending means neighbors are distinct
    assert (np.diff(g.right_adj, axis=1) > 0).all()
    # 21 items x degree 3 = 63 = 9 x 7 stubs, no repair slack
    assert np.array_equal(np.diff(g.left_ptr), np.full(21, 3))


def test_sample_graph_determinism_and_seed_sensitivity():
    p = profile_from_lambda(3, [0.0, 0.2, 0.8])
    a = sample_graph(200, 60, 9, p, seed=7)
    b = sample_graph(200, 60, 9, p, seed=7)
    c = sample_graph(200, 60, 9, p, seed=8)
    assert np.array_equal(a.right_adj, b.right_adj)
    assert not np.array_equal(a.right_adj, c.right_adj)


def test_sample_graph_accepts_seed_sequence():
    p = profile_from_lambda(2, [0.0, 1.0])
    seq = np.random.SeedSequence(4242)
    g1 = sample_graph(50, 10, 10, p, seq)
    g2 = sample_graph(50, 10, 10, p, np.random.SeedSequence(4242))
    assert np.array_equal(g1.right_adj, g2.right_adj)


def test_sample_graph_degree_distribution_matches_profile():
    # chi-square-ish check: node degree frequencies concentrate on the profile
    lam = np.array([0.0, 0.0, 0.785, 0.215])
    p = profile_from_lambda(4, lam)
    N = 100_000
    M = round(N * p.avg_degree / 50)
    g = sample_graph(N, M, 50, p, seed=99)
    hist = np.bincount(np.diff(g.left_ptr), minlength=5).astype(float)
    seen = hist[1:5] / N
    for i in range(4):
        expected = p.node_probs[i]
        tol = 4 * np.sqrt(max(expected * (1 - expected), 1e-9) / N) + 2e-3
        assert abs(seen[i] - expected) < tol, (i, seen[i], expected)


def test_sample_graph_infeasible_stub_totals():
    p = profile_from_lambda(3, [0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        sample_graph(10, 1, 5, p, seed=0)  # M*r=5 < N=10
    with pytest.raises(ValueError):
        sample_graph(10, 8, 5, p, seed=0)  # M*r=40 > N*d=30
    with pytest.raises(ValueError):
        sample_graph(10, 2, 11, p, seed=0)  # r > N
