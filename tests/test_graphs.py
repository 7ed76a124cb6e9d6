import copy
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import assemble_by_dict, assemble_full_resort, draw_degrees_by_choice
from qgt import graphs
from qgt.design import Infeasible, make_plan, optimize_design
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
    with pytest.raises(ValueError, match="max degree 33"):
        profile_from_lambda(33, [0.0] * 32 + [1.0])
    # tiny negative noise from an LP solution is forgiven
    p = profile_from_lambda(2, [-1e-13, 1.0 + 1e-13])
    assert p.lam[0] == 0.0


@pytest.mark.parametrize(
    "lam", [[np.nan, 0.5, 0.5], [0.0, 0.5, np.nan], [np.inf, 0.0, 0.0], [0.5, 0.5, np.inf], [np.nan] * 3]
)
def test_profile_rejects_non_finite_entries(lam):
    # a NaN entry makes every sum and comparison after it NaN, which no
    # tolerance check rejects
    with pytest.raises(ValueError, match="non-finite"):
        profile_from_lambda(3, lam)


def test_bipartite_graph_incidence_structure():
    g = BipartiteGraph(14, 3, 7, EXAMPLE_ADJ)
    degs = np.diff(g.left_ptr)
    assert (degs[3], degs[0], degs[13]) == (3, 1, 1)

    def incidences(v):
        lo, hi = g.left_ptr[v], g.left_ptr[v + 1]
        return sorted(divmod(slot, g.r) for slot in g.left_slot[lo:hi].tolist())

    # item 7 sits in pool 1 position 3 and pool 2 position 3
    assert incidences(7) == [(1, 3), (2, 3)]
    assert incidences(12) == [(0, 5), (1, 6), (2, 6)]
    hist = np.bincount(degs)
    assert hist.sum() == 14
    assert int(hist @ np.arange(hist.size)) == 21


def _stable_argsort_csr(N, right_adj):
    flat = right_adj.ravel()
    ptr = np.zeros(N + 1, dtype=np.int64)
    np.add.at(ptr, flat + 1, 1)
    np.cumsum(ptr, out=ptr)
    return ptr, np.argsort(flat, kind="stable")


def test_left_csr_matches_stable_argsort():
    p = profile_from_lambda(4, [0.0, 0.3, 0.4, 0.3])
    graphs = [BipartiteGraph(14, 3, 7, EXAMPLE_ADJ), BipartiteGraph(6, 0, 3, np.zeros((0, 3)))]
    graphs += [sample_graph(N, M, r, p, seed=N + M) for N, M, r in [(50, 20, 7), (300, 40, 21), (2000, 90, 60)]]
    for g in graphs:
        ptr, slot = _stable_argsort_csr(g.N, g.right_adj)
        for got, want in [(g.left_ptr, ptr), (g.left_slot, slot)]:
            assert got.dtype == np.int64
            assert np.array_equal(got, want)


@pytest.mark.parametrize("first", ["left_ptr", "left_slot"])
def test_left_csr_built_once_on_first_read(first, csr_builds):
    g = BipartiteGraph(14, 3, 7, EXAMPLE_ADJ)
    assert csr_builds == []
    getattr(g, first)
    assert csr_builds == [g]
    ptr, slot = g.left_ptr, g.left_slot
    assert g.left_ptr is ptr and g.left_slot is slot
    assert csr_builds == [g]
    want_ptr, want_slot = _stable_argsort_csr(14, g.right_adj)
    assert np.array_equal(ptr, want_ptr) and np.array_equal(slot, want_slot)
    with pytest.raises(AttributeError):
        g.left_ptr = want_ptr


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_left_csr_across_key_chunks(chunk, monkeypatch, csr_builds):
    # chunks of sorted keys that split an item's run, or hold a single key;
    # each incidence is built at its first read below, under the patched chunk
    monkeypatch.setattr(graphs, "CSR_CHUNK", chunk)
    p = profile_from_lambda(4, [0.0, 0.3, 0.4, 0.3])
    for N, M, r in [(14, 3, 7), (50, 20, 7), (300, 40, 21)]:
        adj = EXAMPLE_ADJ if N == 14 else sample_graph(N, M, r, p, seed=N + M).right_adj
        g = BipartiteGraph(N, M, r, adj)
        assert g not in csr_builds
        ptr, slot = _stable_argsort_csr(N, g.right_adj)
        assert np.array_equal(g.left_ptr, ptr)
        assert np.array_equal(g.left_slot, slot)
        assert csr_builds[-1] is g


def _incidence_slices(g, items) -> list:
    """Each item's slots as sliced from the left incidence of a fresh copy of g."""
    copy = BipartiteGraph(g.N, g.M, g.r, g.right_adj)
    return [copy.left_slot[copy.left_ptr[x] : copy.left_ptr[x + 1]].tolist() for x in items.tolist()]


def _item_sets(g, rng) -> list:
    sample = np.sort(rng.choice(g.N, size=min(g.N, 9), replace=False))
    return [sample, np.arange(0), np.arange(g.N)]


def test_recorded_slots_match_the_incidence(csr_builds):
    # sampled graphs, one with degree-0 items (1, 2, 4 and 6), and graphs
    # with no pools or no columns, each on a sample, an empty and an all-N set
    p = profile_from_lambda(4, [0.0, 0.3, 0.4, 0.3])
    cases = [BipartiteGraph(7, 3, 2, [[0, 3], [0, 5], [3, 5]])]
    cases += [BipartiteGraph(6, M, r, np.zeros((M, r))) for M, r in [(0, 3), (3, 0)]]
    cases += [sample_graph(N, M, r, p, seed=N + M) for N, M, r in [(14, 3, 7), (50, 20, 7), (300, 40, 21)]]
    rng = np.random.default_rng(3)
    for g in cases:
        for items in _item_sets(g, rng):
            want = _incidence_slices(g, items)
            slots = g.slots_of(items)
            assert slots.dtype == np.int64
            assert slots.tolist() == sorted(s for item in want for s in item)
            assert [g.item_slots(x) for x in items.tolist()] == want
            assert g not in csr_builds
    assert _incidence_slices(cases[0], np.arange(7)) == [[0, 2], [], [], [1, 4], [], [3, 5], []]


def test_slots_of_replaces_the_record(csr_builds):
    g = sample_graph(300, 40, 21, profile_from_lambda(4, [0.0, 0.3, 0.4, 0.3]), seed=340)
    first, second = np.array([3, 50, 77, 201]), np.array([4, 50, 120])
    want = dict(zip(range(300), _incidence_slices(g, np.arange(300))))
    g.slots_of(first)
    g.slots_of(second)
    assert [g.item_slots(x) for x in second.tolist()] == [want[x] for x in second.tolist()]
    assert g not in csr_builds
    # items of the first set only are looked up in the incidence, built once
    assert [g.item_slots(x) for x in (3, 77, 201, 5)] == [want[x] for x in (3, 77, 201, 5)]
    assert csr_builds.count(g) == 1


def test_bipartite_graph_validation():
    with pytest.raises(ValueError):
        BipartiteGraph(14, 3, 7, EXAMPLE_ADJ[:, ::-1])  # descending rows
    bad = EXAMPLE_ADJ.copy()
    bad[0, 0] = 14
    with pytest.raises(ValueError):
        BipartiteGraph(14, 3, 7, bad)
    with pytest.raises(ValueError):
        BipartiteGraph(14, 2, 7, EXAMPLE_ADJ)


@pytest.mark.parametrize("descending", [False, True])
def test_bipartite_graph_range_error_wins(descending):
    # an entry out of range is reported as such, also in a row that does not
    # ascend, and whether it sits in the first, a middle or the last column
    for col, value in [(0, -1), (3, 14), (3, -5), (6, 14), (6, 99)]:
        bad = EXAMPLE_ADJ.copy()
        bad[1, col] = value
        if descending:
            bad = bad[:, ::-1]
        with pytest.raises(ValueError, match="adjacency entry out of range"):
            BipartiteGraph(14, 3, 7, bad)
    with pytest.raises(ValueError, match="strictly ascending"):
        BipartiteGraph(14, 3, 7, EXAMPLE_ADJ[:, [0, 1, 1, 2, 3, 4, 5]])


def test_bipartite_graph_edge_sizes():
    # one column: no pairs to compare, the range is still checked
    g = BipartiteGraph(5, 3, 1, [[4], [0], [4]])
    assert g.left_ptr.tolist() == [0, 1, 1, 1, 1, 3]
    assert g.left_slot.tolist() == [1, 0, 2]
    for value in (-1, 5):
        with pytest.raises(ValueError, match="out of range"):
            BipartiteGraph(5, 3, 1, [[4], [value], [4]])
    # no pools or no columns: an empty incidence
    for M, r in [(0, 3), (3, 0), (0, 0)]:
        g = BipartiteGraph(6, M, r, np.zeros((M, r)))
        assert g.left_ptr.tolist() == [0] * 7
        assert g.left_slot.size == 0 and g.left_slot.dtype == np.int64
    with pytest.raises(ValueError, match="does not match"):
        BipartiteGraph(6, 1, 0, np.zeros((0, 0)))


def test_bipartite_graph_key_overflow():
    # 2^62 items x 3 entries does not fit the int64 keys item*n + slot; the
    # guard raises at construction, though the keys are built only at the
    # first read of the incidence, and before any array of N entries exists
    with pytest.raises(ValueError, match="overflow the int64 sort keys"):
        BipartiteGraph(2**62, 1, 3, [[0, 1, 2]])


def _feasible_profiles():
    for t in range(1, 5):
        for d in range(2, 33):
            try:
                yield optimize_design(t, d).profile
            except Infeasible:
                pass


def test_degree_draw_matches_choice():
    # every design profile, the one-degree profile, and a hand profile with
    # zero entries first, inside and last, whose cdf has flat steps
    profiles = list(_feasible_profiles())
    profiles += [profile_from_lambda(1, [1.0]), profile_from_lambda(6, [0.0, 0.3, 0.0, 0.0, 0.7, 0.0])]
    for i, p in enumerate(profiles):
        rng = np.random.default_rng(i)
        want_rng = copy.deepcopy(rng)
        got = graphs._draw_degrees(5000, p, rng)
        want = draw_degrees_by_choice(5000, p, want_rng)
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want), (p.d, p.lam)
        assert rng.bit_generator.state == want_rng.bit_generator.state
    assert len(profiles) == 4 * 31 - 1 + 2  # only (t, d) = (1, 2) has no design


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
    with pytest.raises(ValueError, match="at least one node"):
        sample_graph(0, 1, 1, p, seed=0)


class _DrawSpy:
    """A generator that logs its state before each integers() call, and the
    arrays it shuffles."""

    def __init__(self, rng):
        self.rng = rng
        self.bit_generator = rng.bit_generator
        self.states = []
        self.shuffled = []

    def shuffle(self, x):
        self.shuffled.append(x)
        self.rng.shuffle(x)

    def integers(self, n, size=None):
        self.states.append(json.dumps(self.bit_generator.state))
        return self.rng.integers(n, size=size)

    def refills(self):
        # a pass draws its first batch and, after the rewind, the draws it
        # used from the same state; a refill draws from a state seen once
        return sum(n == 1 for n in Counter(self.states).values())


def _assert_same_assembly(N, M, r, degs, rng):
    """The three assemblers from the same degrees and generator state agree."""
    degs = np.asarray(degs, dtype=np.int64)
    want_rng = copy.deepcopy(rng)
    got_rng = copy.deepcopy(rng)
    resort_rng = copy.deepcopy(rng)
    want = assemble_by_dict(N, M, r, degs, want_rng)
    got = graphs._try_assemble(N, M, r, degs, got_rng)
    resorted = assemble_full_resort(N, M, r, degs, resort_rng)
    for other, other_rng in [(want, want_rng), (resorted, resort_rng)]:
        assert (got is None) == (other is None)
        if other is not None:
            assert got.dtype == other.dtype
            assert np.array_equal(got, other)
        assert got_rng.bit_generator.state == other_rng.bit_generator.state
    return got


def _desk_degrees(t, d, margin, seed):
    """The sizes, degrees and generator of sample_graph's first attempt at a
    desk point, right before assembly."""
    des = optimize_design(t, d)
    plan = make_plan(2**16, 100, des, margin)
    N, M, r = plan.N, plan.M, plan.r
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    degs = graphs._repair_degrees(draw_degrees_by_choice(N, des.profile, rng), M * r, d, rng)
    return N, M, r, degs, rng


@pytest.mark.parametrize("t,d,margin", [(1, 3, 1.6), (2, 3, 1.8), (3, 2, 1.5)])
def test_assembly_matches_dict_walk_at_desk_points(t, d, margin):
    adj = _assert_same_assembly(*_desk_degrees(t, d, margin, 5))
    assert (np.diff(adj, axis=1) > 0).all()


# the desk points at seed 5, and the four desk seeds among 0-59 that take the
# most swap passes
DESK_CASES = [
    (1, 3, 1.6, 5), (2, 3, 1.8, 5), (3, 2, 1.5, 5),
    (2, 3, 1.8, 38), (3, 2, 1.5, 1), (3, 2, 1.5, 21), (3, 2, 1.5, 44),
]


def _force_int64_work(monkeypatch) -> list:
    """Make the assembler work in int64 and log the sizes it asks about."""
    asked = []
    monkeypatch.setattr(graphs, "_work_dtype", lambda N, r: asked.append((N, r)) or np.int64)
    return asked


@pytest.mark.parametrize("t,d,margin,seed", DESK_CASES)
def test_int64_work_dtype_matches_int32(t, d, margin, seed, monkeypatch):
    N, M, r, degs, rng = _desk_degrees(t, d, margin, seed)
    assert graphs._work_dtype(N, r) == np.int32
    narrow = _assert_same_assembly(N, M, r, degs, rng)
    asked = _force_int64_work(monkeypatch)
    wide = _assert_same_assembly(N, M, r, degs, rng)
    assert asked == [(N, r)]
    # both runs match the oracles' graph and generator state, so each other's
    assert wide.dtype == narrow.dtype == np.int64
    assert np.array_equal(wide, narrow)


@pytest.mark.parametrize("wide", [False, True])
def test_assembly_writes_into_the_shuffled_buffer(wide, monkeypatch):
    # the sorted rows go back into the shuffled int64 stubs, so no second
    # int64 array of M*r entries is allocated
    if wide:
        _force_int64_work(monkeypatch)
    N, M, r, degs, rng = _desk_degrees(1, 3, 1.6, 5)
    spy = _DrawSpy(rng)
    adj = graphs._try_assemble(N, M, r, degs, spy)
    (stubs,) = spy.shuffled
    assert stubs.dtype == adj.dtype == np.int64
    assert np.shares_memory(adj, stubs)


def test_work_dtype_boundary():
    # the largest key item*r + slot is N*r - 1
    assert graphs._work_dtype(2**16, 2**15 - 1) == np.int32
    assert 2**16 * (2**15 - 1) - 1 <= np.iinfo(np.int32).max
    assert graphs._work_dtype(2**16, 2**15) == np.int64


def test_sampled_adjacency_is_the_assembled_array(monkeypatch):
    assembled = []
    assemble = graphs._try_assemble
    monkeypatch.setattr(graphs, "_try_assemble", lambda *args: assembled.append(assemble(*args)) or assembled[-1])
    des = optimize_design(1, 3)
    plan = make_plan(2**16, 100, des, 1.6)
    g = sample_graph(plan.N, plan.M, plan.r, des.profile, 5)
    adj = g.right_adj
    assert adj.dtype == np.int64 and adj.flags.c_contiguous
    assert np.shares_memory(adj, assembled[-1])


class _SortSpy:
    """Stands in for numpy in graphs and logs the row count of each 2-d sort."""

    def __init__(self):
        self.rows = []

    def __getattr__(self, name):
        return getattr(np, name)

    def sort(self, a, axis=-1):
        if a.ndim == 2:
            self.rows.append(a.shape[0])
        return np.sort(a, axis=axis)


@pytest.mark.parametrize("seed", range(3))
def test_assembly_resorts_only_written_rows(seed, monkeypatch):
    # at desk t = 1 every row is written in pass 1, so pass 2 sorts them all
    # at once; pass 3 sorts only the few rows that pass 2 wrote
    N, M, r, degs, rng = _desk_degrees(1, 3, 1.6, seed)
    spy = _SortSpy()
    monkeypatch.setattr(graphs, "np", spy)
    _assert_same_assembly(N, M, r, degs, rng)
    assert spy.rows[:2] == [M, M]
    assert 0 < spy.rows[2] < M // 4


def test_assembly_matches_dict_walk_in_a_single_row():
    # with M = 1 every swap stays inside the row; item 0 sits there twice, so
    # each of the 200 passes swaps exactly one slot and the budget runs out
    N, M, r, degs = 5, 1, 6, [2, 1, 1, 1, 1]
    assert _assert_same_assembly(N, M, r, degs, np.random.default_rng(11)) is None
    rng = np.random.default_rng(11)
    assert graphs._try_assemble(N, M, r, np.array(degs), rng) is None
    # the swap slots are the first 200 draws after the shuffle, and the
    # assembler consumed exactly those
    ref = np.random.default_rng(11)
    row = np.repeat(np.arange(N), degs)
    ref.shuffle(row)
    draws = ref.integers(M * r, size=graphs.MAX_SWAP_PASSES)
    assert rng.bit_generator.state == ref.bit_generator.state
    later = 0
    for k in draws.tolist():
        j = np.flatnonzero(row == 0)[1]
        later += k > j
        row[j], row[k] = row[k], row[j]
    assert later > 0  # some swaps land at a later slot of the row in hand


@pytest.mark.parametrize("case", ["small-2", "small-3", "small-8", "desk2-1"])
def test_assembly_refills_a_pass_batch(case, monkeypatch):
    # with no slack a batch holds exactly the repeated slots at the start of
    # its pass, so a pass whose swaps make a new repeat draws a second batch
    monkeypatch.setattr(graphs, "SWAP_DRAW_SLACK", 0)
    name, seed = case.split("-")
    if name == "small":
        N, M, r, degs, rng = 16, 6, 8, np.full(16, 3), np.random.default_rng(int(seed))
    else:
        N, M, r, degs, rng = _desk_degrees(2, 3, 1.8, int(seed))
    spy = _DrawSpy(copy.deepcopy(rng))
    got = graphs._try_assemble(N, M, r, degs, spy)
    assert spy.refills() > 0
    assert np.array_equal(_assert_same_assembly(N, M, r, degs, rng), got)


@pytest.mark.parametrize("seed", range(6))
def test_assembly_matches_dict_walk_over_several_passes(seed, monkeypatch):
    N, M, r = 16, 6, 8
    degs = np.full(N, 3)
    want = _assert_same_assembly(N, M, r, degs, np.random.default_rng(seed))
    assert want is not None
    # two swap passes were not enough: the graph needed three or more
    monkeypatch.setattr(graphs, "MAX_SWAP_PASSES", 2)
    assert graphs._try_assemble(N, M, r, degs, np.random.default_rng(seed)) is None


def test_assembly_matches_dict_walk_when_the_budget_runs_out():
    # item 0 has degree 3 but there are only 2 pools
    assert _assert_same_assembly(6, 2, 4, [3, 1, 1, 1, 1, 1], np.random.default_rng(3)) is None


@st.composite
def assemblies(draw):
    M = draw(st.integers(1, 5))
    r = draw(st.integers(1, 8))
    N = draw(st.integers(r, 12))
    if draw(st.booleans()):
        # the degrees of some graph with r distinct items per pool
        stubs = [v for _ in range(M) for v in draw(st.permutations(range(N)))[:r]]
    else:
        stubs = draw(st.lists(st.integers(0, N - 1), min_size=M * r, max_size=M * r))
    seed = draw(st.integers(0, 2**32 - 1))
    return N, M, r, np.bincount(stubs, minlength=N), np.random.default_rng(seed)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(assemblies())
def test_assembly_matches_dict_walk_on_random_degrees(case):
    _assert_same_assembly(*case)
