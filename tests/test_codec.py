import json

import numpy as np
import pytest

from oracles import peel_decode_stepwise
from qgt import codec
from qgt.codec import (
    DecodeOutcome,
    FormatError,
    SupportVector,
    TestPlan,
    TestResults,
    build_signature,
    encode,
    peel_decode,
)
from qgt.graphs import BipartiteGraph, profile_from_lambda, sample_graph

EXAMPLE_ADJ = np.array(
    [
        [1, 3, 4, 8, 9, 12, 13],
        [2, 3, 6, 7, 9, 11, 12],
        [0, 3, 5, 7, 9, 10, 12],
    ]
)
EXAMPLE_DEFECTIVE = [3, 7, 10]

# the same signature under the other common bit-packing convention
# (column i of parity block k reads the bits of alpha^((2k+1)i) top-down)
ALT_SIGNATURE = np.array(
    [
        [1, 1, 1, 1, 1, 1, 1],
        [0, 0, 1, 0, 1, 1, 1],
        [0, 1, 0, 1, 1, 1, 0],
        [1, 0, 0, 1, 0, 1, 1],
    ],
    dtype=np.uint8,
)
ALT_BLOCKS = np.array([[1, 0, 1, 0], [2, 0, 2, 1], [3, 1, 3, 2]])


def example_plan() -> TestPlan:
    g = BipartiteGraph(14, 3, 7, EXAMPLE_ADJ)
    return TestPlan(g, 1, seed=0)


def row_permutation(ours: np.ndarray, theirs: np.ndarray) -> list[int]:
    """perm with ours[perm[i]] == theirs[i]; rows must be distinct."""
    perm = []
    for row in theirs:
        matches = np.flatnonzero((ours == row).all(axis=1))
        assert matches.size == 1
        perm.append(int(matches[0]))
    assert sorted(perm) == list(range(len(theirs)))
    return perm


def test_signature_shape_and_counting_row():
    sig = build_signature(1, 7)
    assert (sig.parity.t, sig.parity.r, sig.parity.q) == (1, 7, 3)
    assert (sig.matrix[0] == 1).all()
    assert sig.matrix.shape == (4, 7)


def test_signature_built_once_per_t_and_r():
    assert build_signature(2, 9) is build_signature(2, 9)
    assert build_signature(2, 9) is not build_signature(1, 9)
    # compared and hashed by identity, never through the matrix
    assert build_signature(2, 9) != build_signature(1, 9) != build_signature(1, 7)
    assert len({build_signature(2, 9), build_signature(2, 9), build_signature(1, 9)}) == 2


def test_shared_signature_is_read_only():
    sig = build_signature(1, 7)
    with pytest.raises(ValueError, match="read-only"):
        sig.matrix[0, 0] = 5
    with pytest.raises(AttributeError):
        sig.parity = build_signature(2, 7).parity
    assert (sig.matrix[0] == 1).all()


def test_plan_signature_is_the_shared_one():
    plan = example_plan()
    assert plan.signature is build_signature(1, plan.graph.r)
    assert TestPlan(plan.graph, 2).signature is build_signature(2, 7)


def test_example_encode_blocks_match_up_to_row_convention():
    plan = example_plan()
    res = encode(plan, SupportVector(14, np.array(EXAMPLE_DEFECTIVE)))
    assert res.blocks.tolist() == [[1, 0, 1, 0], [2, 1, 2, 0], [3, 2, 3, 1]]
    perm = row_permutation(plan.signature.matrix, ALT_SIGNATURE)
    assert np.array_equal(res.blocks[:, perm], ALT_BLOCKS)


def test_example_decode_trace():
    plan = example_plan()
    results = encode(plan, SupportVector(14, np.array(EXAMPLE_DEFECTIVE)))
    out = peel_decode(plan, results)
    assert out.identified.tolist() == EXAMPLE_DEFECTIVE
    assert out.iterations == 3
    assert out.identified_per_iteration == [1, 1, 1]
    assert not out.stalled and out.failed_nodes == 0
    assert out.resolved_nodes == 3
    # pools resolve one per pass, in pool order
    passes = [peel_decode(plan, results, max_iterations=k).identified.tolist() for k in (1, 2, 3)]
    assert passes == [[3], [3, 7], [3, 7, 10]]


def test_encode_matches_materialized_matrix():
    rng = np.random.default_rng(21)
    p = profile_from_lambda(3, [0.0, 0.3, 0.7])
    g = sample_graph(40, 12, 9, p, seed=5)
    plan = TestPlan(g, 2)
    s = plan.signature.matrix.shape[0]
    A = np.zeros((g.M * s, g.N), dtype=np.int64)
    for n in range(g.M):
        for pos, item in enumerate(g.right_adj[n]):
            A[n * s : (n + 1) * s, item] = plan.signature.matrix[:, pos]
    for _ in range(20):
        x = (rng.random(40) < 0.1).astype(np.int64)
        res = encode(plan, SupportVector(40, np.flatnonzero(x)))
        assert np.array_equal(res.blocks.ravel(), A @ x)


def test_encode_empty_support_and_mismatch():
    plan = example_plan()
    res = encode(plan, SupportVector(14, np.array([], dtype=np.int64)))
    assert not res.blocks.any()
    out = peel_decode(plan, res)
    assert out.identified.size == 0
    assert out.iterations == 1
    assert out.resolved_nodes == 3
    with pytest.raises(ValueError):
        encode(plan, SupportVector(10, np.array([1])))


def test_decode_conservation_invariant():
    # running residual + encoding of what was identified == original vector,
    # checked after each pass of the stepwise oracle, which keeps the residual
    # blocks; test_peeler_matches_the_stepwise_oracle ties the library's
    # residuals to the oracle's by requiring equal syndrome decoder calls
    p = profile_from_lambda(3, [0.0, 0.2, 0.8])
    g = sample_graph(60, 18, 9, p, seed=13)
    plan = TestPlan(g, 2)
    support = SupportVector(60, np.array([2, 7, 19, 33, 41, 55]))
    original = encode(plan, support)

    def check(i, Y, ident):
        partial = encode(plan, SupportVector(60, np.array(ident, dtype=np.int64)))
        assert np.array_equal(Y + partial.blocks, original.blocks)

    out = peel_decode_stepwise(plan, original, iteration_hook=check)
    assert set(out.identified.tolist()) <= set(support.items.tolist())
    assert out.to_dict() == peel_decode(plan, original).to_dict()


def test_syndrome_decode_called_positionally_with_int_weight(monkeypatch):
    # the benchmark times each decoded pool by wrapping codec.syndrome_decode
    # and reads the weight as its third positional argument; the syndrome
    # goes in as its t block values
    calls = []
    real = codec.syndrome_decode

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(codec, "syndrome_decode", spy)
    p = profile_from_lambda(3, [0.0, 0.2, 0.8])
    g = sample_graph(60, 18, 9, p, seed=13)
    plan = TestPlan(g, 3)
    support = SupportVector(60, np.array([2, 7, 19, 33, 41, 55]))
    peel_decode(plan, encode(plan, support))
    assert len({args[2] for args, _ in calls}) > 1
    for args, kwargs in calls:
        assert len(args) == 3 and not kwargs
        assert type(args[2]) is int
        assert len(args[1]) == plan.signature.parity.t and all(type(b) is int for b in args[1])


def test_stall_reported():
    g = BipartiteGraph(4, 2, 3, np.array([[0, 1, 2], [1, 2, 3]]))
    plan = TestPlan(g, 1)
    results = encode(plan, SupportVector(4, np.array([1, 2])))
    out = peel_decode(plan, results)
    assert out.stalled
    assert out.identified.size == 0
    assert out.iterations == 1
    assert out.resolved_nodes == 0


def test_decode_failure_requeued_then_left_open_by_residual_check():
    # pool 0 carries a corrupted parity block and fails in pass 1; pool 1
    # identifies their shared item, and pass 2 retries pool 0, whose count is
    # now 0 but whose parity residual is not: no support produces these
    # measurements, so the pool stays open and counts as failed
    g = BipartiteGraph(5, 2, 5, np.array([[0, 1, 2, 3, 4], [0, 1, 2, 3, 4]]))
    plan = TestPlan(g, 1)
    results = encode(plan, SupportVector(5, np.array([0])))
    blocks = results.blocks.copy()
    blocks[0] = [1, 1, 0, 1]  # count 1 with the syndrome of alpha^6: out of range
    tampered = TestResults(blocks)
    out = peel_decode(plan, tampered)
    assert out.identified.tolist() == [0]
    assert out.iterations == 2
    assert out.resolved_nodes == 1
    assert out.failed_nodes == 1
    assert not out.stalled
    # pool 0's residual after each pass, read through the stepwise oracle
    pool0 = []
    oracle = peel_decode_stepwise(plan, tampered, iteration_hook=lambda i, Y, ident: pool0.append(Y[0].tolist()))
    assert pool0 == [[0, 0, 0, 1], [0, 0, 0, 1]]
    assert out.to_dict() == oracle.to_dict()


def test_unresolvable_failure_counted():
    g = BipartiteGraph(5, 1, 5, np.array([[0, 1, 2, 3, 4]]))
    plan = TestPlan(g, 1)
    bad = TestResults(np.array([[1, 1, 0, 1]]))
    out = peel_decode(plan, bad)
    assert out.identified.size == 0
    assert out.failed_nodes == 1
    assert not out.stalled


def test_impossible_measurements_not_recovered():
    # raising each pool's first parity entry by 2*(count//2 + 1) keeps every
    # syndrome mod 2 but leaves integer residuals that no support produces
    p = profile_from_lambda(3, [0.0, 0.2, 0.8])
    g = sample_graph(60, 18, 9, p, seed=13)
    plan = TestPlan(g, 2)
    results = encode(plan, SupportVector(60, np.array([2, 7, 19, 33, 41, 55])))
    assert peel_decode(plan, results).identified.tolist() == [2, 7, 19, 33, 41, 55]
    blocks = results.blocks.copy()
    blocks[:, 1] += 2 * (blocks[:, 0] // 2 + 1)
    out = peel_decode(plan, TestResults(blocks))
    assert out.identified.size == 0
    assert out.resolved_nodes == 0
    assert out.stalled or out.failed_nodes
    # pool 0 holds items 0, 1 and 2, but reads 5 > r in its first S3 entry
    # (same parity); found through pools 1 and 2, they leave a residual 2
    # there, which a clamp of the entries at r would hide
    plan = TestPlan(BipartiteGraph(6, 3, 3, [[0, 1, 2], [0, 3, 4], [1, 2, 5]]), 2)
    blocks = encode(plan, SupportVector(6, np.array([0, 1, 2]))).blocks.copy()
    assert blocks[0, 3] == 3
    blocks[0, 3] = 5
    results = TestResults(blocks)
    out = peel_decode(plan, results)
    assert out.failed_nodes == 1 and out.resolved_nodes == 2
    assert out.to_dict() == peel_decode_stepwise(plan, results).to_dict()


def test_item_that_overdraws_a_resolved_pool_is_not_a_recovery():
    # item 7 sits in pools 1 and 2 only.  Pool 1 reads zero and resolves
    # first; pool 2 holds exactly item 7's column, which then drives pool 1
    # to -1.  No support gives these measurements, so it must not succeed.
    plan = example_plan()
    blocks = np.zeros((3, 4), dtype=np.int64)
    blocks[2] = plan.signature.matrix[:, 3]
    results = TestResults(blocks)
    out = peel_decode(plan, results)
    assert out.identified.tolist() == [7]
    assert out.failed_nodes == 1 and out.resolved_nodes == 2
    assert not np.array_equal(encode(plan, SupportVector(14, out.identified)).blocks, blocks)
    # item 7 reaches pool 1 only after its turn, so no pool is retried
    assert out.iterations == 1 and out.identified_per_iteration == [1]
    assert out.to_dict() == peel_decode_stepwise(plan, results).to_dict()


def test_pool_reached_before_its_turn_is_retried():
    # item 1 sits in pool 0 at position 1 and in pool 1 at position 0.  Pool
    # 0 finds it; pool 1, whose residual it then empties, resolves at its
    # turn in the same pass, but was reached before it, so a second pass
    # retries it and finds it resolved.
    plan = TestPlan(BipartiteGraph(6, 2, 5, [[0, 1, 2, 3, 4], [1, 2, 3, 4, 5]]), 1)
    results = encode(plan, SupportVector(6, np.array([1])))
    out = peel_decode(plan, results)
    assert out.identified.tolist() == [1] and out.resolved_nodes == 2
    assert out.iterations == 2 and out.identified_per_iteration == [1, 0]
    assert out.to_dict() == peel_decode_stepwise(plan, results).to_dict()


def test_pool_resolved_before_the_pass_is_not_retried():
    # pass 1 resolves pool 0 (zero) and pool 2 (item 7's column), which
    # leaves item 12's column in pool 1; pass 2 finds item 12, which also
    # sits in pools 0 and 2.  Both were resolved before that pass, so no
    # third pass runs.  No support gives these measurements.
    plan = example_plan()
    U = plan.signature.matrix
    blocks = np.zeros((3, 4), dtype=np.int64)
    blocks[1] = U[:, 3] + U[:, 6]
    blocks[2] = U[:, 3]
    results = TestResults(blocks)
    out = peel_decode(plan, results)
    assert out.identified.tolist() == [7, 12]
    assert out.iterations == 2 and out.identified_per_iteration == [1, 1]
    assert out.resolved_nodes == 1 and out.failed_nodes == 2
    assert out.to_dict() == peel_decode_stepwise(plan, results).to_dict()


def test_max_iterations_cap():
    plan = example_plan()
    results = encode(plan, SupportVector(14, np.array(EXAMPLE_DEFECTIVE)))
    out = peel_decode(plan, results, max_iterations=1)
    assert out.iterations == 1
    assert out.identified.tolist() == [3]


def test_negative_counts_do_not_crash():
    plan = example_plan()
    blocks = np.zeros((3, 4), dtype=np.int64)
    blocks[0, 0] = 1  # count says one defective, parity says none
    out = peel_decode(plan, TestResults(blocks))
    assert out.identified.size == 0


def test_plan_roundtrip_json():
    plan = example_plan()
    data = json.loads(json.dumps(plan.to_dict()))
    back = TestPlan.from_dict(data)
    assert (back.graph.N, back.graph.M, back.graph.r, back.signature.parity.t) == (14, 3, 7, 1)
    assert np.array_equal(back.graph.right_adj, plan.graph.right_adj)
    assert back.seed == 0
    assert back.graph.M * back.signature.matrix.shape[0] == 12


def test_plan_from_dict_leaves_incidence_unbuilt(csr_builds):
    plan = TestPlan.from_dict(example_plan().to_dict())
    assert csr_builds == []
    results = encode(plan, SupportVector(N=14, items=EXAMPLE_DEFECTIVE))
    assert csr_builds == [plan.graph]
    assert peel_decode(plan, results).identified.tolist() == EXAMPLE_DEFECTIVE
    assert csr_builds == [plan.graph]


def test_plan_format_errors():
    good = example_plan().to_dict()
    bad = dict(good, version=99)
    with pytest.raises(FormatError):
        TestPlan.from_dict(bad)
    bad = dict(good, q=5)
    with pytest.raises(FormatError):
        TestPlan.from_dict(bad)
    bad = dict(good)
    del bad["right_adj"]
    with pytest.raises(FormatError):
        TestPlan.from_dict(bad)
    bad = dict(good, right_adj=[[0, 1], [1, 2]])
    with pytest.raises(FormatError):
        TestPlan.from_dict(bad)
    for t in (0, 9):
        with pytest.raises(FormatError, match="capability"):
            TestPlan.from_dict(dict(good, t=t))


@pytest.mark.parametrize(
    "change",
    [
        {"N": "14"},
        {"N": 14.0},
        {"t": 1.9},
        {"t": True},
        {"r": "7"},
        {"version": "1"},
        {"version": 1.0},
        {"right_adj": (EXAMPLE_ADJ + 0.5).tolist()},
        {"right_adj": EXAMPLE_ADJ.astype(float).tolist()},
        {"right_adj": EXAMPLE_ADJ.astype(str).tolist()},
        {"right_adj": [[None] * 7] * 3},
        {"right_adj": [[2**70] * 7] * 3},
        {"right_adj": [row[:-1] for row in EXAMPLE_ADJ.tolist()]},
        {"seed": "7"},
        {"seed": 7.0},
        {"seed": True},
        {"seed": -1},
    ],
)
def test_plan_values_are_not_coerced(change):
    with pytest.raises(FormatError):
        TestPlan.from_dict(dict(example_plan().to_dict(), **change))


@pytest.mark.parametrize("seed", [None, 2**70])
def test_plan_seed_is_null_or_a_non_negative_int(seed):
    assert TestPlan.from_dict(dict(example_plan().to_dict(), seed=seed)).seed == seed


@pytest.mark.parametrize(
    "data",
    [
        {"version": 1, "N": 14, "defective": [True, 3.7, "5", 5]},
        {"version": 1, "N": 14, "defective": [True]},
        {"version": 1, "N": 14, "defective": [3.7]},
        {"version": 1, "N": 14, "defective": [4.0]},
        {"version": 1, "N": 14, "defective": ["5"]},
        {"version": 1, "N": 14, "defective": [5, 5]},
        {"version": 1, "N": "14", "defective": [5]},
        {"version": 1, "N": 14.0, "defective": [5]},
        {"version": True, "N": 14, "defective": [5]},
        {"version": 1, "N": 2**70, "defective": [2**69]},
        {"version": 1, "N": 14, "defective": "5"},
        {"version": 1, "N": 14, "defective": 5},
    ],
)
def test_support_values_are_not_coerced(data):
    with pytest.raises(FormatError):
        SupportVector.from_dict(data)


@pytest.mark.parametrize(
    "values",
    [[0, 1, 2, 3, 4, 5.0], [0, 1, 2, 3, 4, 5.5], [0, 1, 2, 3, 4, True], [0, 1, 2, 3, 4, "5"], [0] * 5 + [2**70]],
)
def test_result_values_are_not_coerced(values):
    with pytest.raises(FormatError):
        TestResults.from_dict({"version": 1, "values": values}, 2, 3)


def test_plan_adjacency_bool_reads_as_one():
    # known gap: a JSON true among the integers of a row upcasts to 1, since
    # checking every entry in Python would slow down parsing large plans
    adj = EXAMPLE_ADJ.tolist()
    adj[0][0] = True
    assert TestPlan.from_dict(dict(example_plan().to_dict(), right_adj=adj)).graph.right_adj[0, 0] == 1


def test_support_roundtrip_one_based():
    sup = SupportVector(14, np.array(EXAMPLE_DEFECTIVE))
    data = sup.to_dict()
    assert data["defective"] == [4, 8, 11]
    back = SupportVector.from_dict(data)
    assert back.items.tolist() == EXAMPLE_DEFECTIVE
    with pytest.raises(FormatError):
        SupportVector.from_dict({"version": 1, "N": 14, "defective": [0]})
    with pytest.raises(FormatError):
        SupportVector.from_dict({"version": 1, "N": 14, "defective": [15]})
    with pytest.raises(ValueError):
        SupportVector(5, np.array([7]))


def test_results_roundtrip_and_validation():
    res = TestResults(np.arange(6).reshape(2, 3))
    back = TestResults.from_dict(res.to_dict(), 2, 3)
    assert np.array_equal(back.blocks, [[0, 1, 2], [3, 4, 5]])
    with pytest.raises(FormatError):
        TestResults.from_dict({"version": 1, "values": [1, 2]}, 2, 3)
    with pytest.raises(FormatError):
        TestResults.from_dict({"version": 1, "values": [-1] * 6}, 2, 3)
    with pytest.raises(FormatError):
        TestResults.from_dict({"version": 2, "values": [0] * 6}, 2, 3)


def test_outcome_serializes_one_based():
    out = DecodeOutcome(
        identified=np.array([3, 7, 10]),
        iterations=3,
        resolved_nodes=3,
        stalled=False,
        failed_nodes=0,
        identified_per_iteration=[1, 1, 1],
    )
    assert out.to_dict()["identified"] == [4, 8, 11]
