"""Property tests of the file parsers and the decoder on random and mutated
inputs.

Each parser either returns an object whose to_dict gives back the input, up
to the order of support ids, or raises FormatError; no other exception gets
out.  Decoding the measurements of a support never names an item outside
it, and decoding mutated measurements either flags the result or names a
support whose measurements are exactly those, and gives the same outcome
as with the PGZ oracle as its syndrome decoder and as the stepwise peeling
oracle, with the same syndrome decoder calls, also where some entries lie
far above any that a support produces.  The examples are
derandomized, so every run tries the same inputs.
"""

import copy
import json
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import peel_decode_stepwise, pgz_syndrome_decode
from qgt import codec, design
from qgt.codec import FormatError, SupportVector, TestPlan, TestResults, encode, peel_decode
from qgt.graphs import BipartiteGraph, profile_from_lambda, sample_graph
from qgt.sim import sample_support

PROPERTY_SETTINGS = settings(max_examples=300, derandomize=True, deadline=None)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def _near_misses(value):
    """Values a lax parser would coerce into, or confuse with, value."""
    out = [None, str(value), [value]]
    if isinstance(value, int):
        out += [float(value), value + 0.5, bool(value), -value, value + 1, 2**64 + value]
    return out


@st.composite
def mutated(draw, base):
    """base, with up to three random edits anywhere in its nesting."""
    data = copy.deepcopy(base)
    for _ in range(draw(st.integers(0, 3))):
        container, key = data, draw(st.sampled_from(sorted(data)))
        while isinstance(container[key], list) and container[key] and draw(st.booleans()):
            container, key = container[key], draw(st.integers(0, len(container[key]) - 1))
        action = draw(st.sampled_from(["replace", "near", "delete", "duplicate"]))
        if action == "replace":
            container[key] = draw(json_values)
        elif action == "near":
            container[key] = draw(st.sampled_from(_near_misses(container[key])))
        elif action == "delete":
            del container[key]
        elif isinstance(container, list):
            container.insert(key, container[key])
        if isinstance(container, dict) and not container:
            break
    return data


@st.composite
def plan_dicts(draw):
    r = draw(st.integers(1, 8))
    N = draw(st.integers(r, 20))
    M = draw(st.integers(1, 4))
    rows = [sorted(draw(st.permutations(range(N)))[:r]) for _ in range(M)]
    t = draw(st.integers(1, 4))
    base = {"version": 1, "N": N, "M": M, "r": r, "t": t, "q": r.bit_length(), "seed": 7, "right_adj": rows}
    return draw(mutated(base))


@st.composite
def support_dicts(draw):
    N = draw(st.integers(1, 30))
    ids = draw(st.lists(st.integers(1, N), unique=True, max_size=5))
    return draw(mutated({"version": 1, "N": N, "defective": ids}))


@st.composite
def results_dicts(draw):
    values = draw(st.lists(st.integers(0, 9), min_size=6, max_size=6))
    return draw(mutated({"version": 1, "values": values}))


def _assert_round_trip(parse, data, canonical=dict):
    """parse(data) raises FormatError, or gives an object whose to_dict
    spells canonical(data) exactly and parses back to itself."""
    try:
        obj = parse(data)
    except FormatError:
        return
    out = obj.to_dict()
    assert json.dumps(parse(out).to_dict()) == json.dumps(out)
    want = canonical(data)
    for key, value in out.items():
        # == rather than exact JSON for right_adj: a JSON true among the
        # integers of an adjacency row reads as 1 (a known, documented gap)
        same = value == want[key] if key == "right_adj" else json.dumps(value) == json.dumps(want[key])
        assert same, (key, value, want[key])


@PROPERTY_SETTINGS
@given(plan_dicts())
def test_plan_parser_round_trips_or_raises_format_error(data):
    _assert_round_trip(TestPlan.from_dict, data, lambda d: dict(d, seed=d.get("seed")))


@PROPERTY_SETTINGS
@given(support_dicts())
def test_support_parser_round_trips_or_raises_format_error(data):
    # files may list ids in any order; duplicates would show up as a shorter list
    _assert_round_trip(SupportVector.from_dict, data, lambda d: dict(d, defective=sorted(d["defective"])))


@PROPERTY_SETTINGS
@given(results_dicts())
def test_results_parser_round_trips_or_raises_format_error(data):
    _assert_round_trip(lambda d: TestResults.from_dict(d, 2, 3), data)


@st.composite
def plans_and_supports(draw, max_t=3):
    t = draw(st.integers(1, max_t))
    r = draw(st.integers(3, 9))
    N = draw(st.integers(3 * r, 60))
    M = draw(st.integers(3, 12))
    profile = profile_from_lambda(3, [0.0, 0.0, 1.0] if t == 1 else [0.0, 0.5, 0.5])
    try:
        graph = sample_graph(N, M, r, profile, seed=draw(st.integers(0, 2**16)))
    except (ValueError, RuntimeError):
        assume(False)
    plan = TestPlan(graph, t)
    items = draw(st.lists(st.integers(0, N - 1), unique=True, max_size=8))
    return plan, SupportVector(N, np.array(items, dtype=np.int64))


def _mutated_measurements(plan, support, data, min_edits):
    """The support's measurement blocks with min_edits to 3 entries moved by 1 or 2."""
    blocks = encode(plan, support).blocks.copy()
    for _ in range(data.draw(st.integers(min_edits, 3))):
        i = data.draw(st.integers(0, blocks.size - 1))
        blocks.flat[i] = max(blocks.flat[i] + data.draw(st.sampled_from([-2, -1, 1, 2])), 0)
    return blocks


@PROPERTY_SETTINGS
@given(plans_and_supports())
def test_decode_never_names_an_item_outside_the_support(case):
    plan, support = case
    out = peel_decode(plan, encode(plan, support))
    assert set(out.identified.tolist()) <= set(support.items.tolist())


@PROPERTY_SETTINGS
@given(plans_and_supports(), st.data())
def test_decode_of_mutated_results_is_flagged_or_exact(case, data):
    plan, support = case
    blocks = _mutated_measurements(plan, support, data, min_edits=1)
    out = peel_decode(plan, TestResults(blocks))
    if not (out.stalled or out.failed_nodes):
        found = encode(plan, SupportVector(plan.graph.N, out.identified))
        assert np.array_equal(found.blocks, blocks)


def _mutated_or_random_results(plan, support, data):
    """The support's measurements with up to 3 edits, or random small values,
    or the support's measurements with 1 to 4 entries, counts included, set
    above r + t + 1 and up to 2^62, where the decoder clamps them; powers of
    two among them, which a packing into int64 words would wrap to 0."""
    kind = data.draw(st.sampled_from(["mutated", "random", "huge"]))
    M, s = plan.graph.M, plan.signature.matrix.shape[0]
    if kind == "mutated":
        blocks = _mutated_measurements(plan, support, data, min_edits=0)
    elif kind == "random":
        values = data.draw(st.lists(st.integers(0, 4), min_size=M * s, max_size=M * s))
        blocks = np.array(values, dtype=np.int64).reshape(M, s)
    else:
        blocks = encode(plan, support).blocks.copy()
        low = plan.graph.r + plan.signature.parity.t + 2
        huge = st.integers(low, 2**62) | st.sampled_from([2**k for k in range(low.bit_length(), 63)])
        for i in data.draw(st.lists(st.integers(0, M * s - 1), min_size=1, max_size=4)):
            blocks.flat[i] = data.draw(huge)
    return TestResults(blocks)


@PROPERTY_SETTINGS
@given(plans_and_supports(max_t=4), st.data())
def test_decode_matches_the_pgz_oracle_decoder(case, data):
    plan, support = case
    results = _mutated_or_random_results(plan, support, data)
    out = peel_decode(plan, results).to_dict()
    with mock.patch.object(codec, "syndrome_decode", pgz_syndrome_decode):
        assert peel_decode(plan, results).to_dict() == out


# t*q = 64 > 62: the pool states no longer fit one int64 word
WIDE_T, WIDE_R = 4, 2**15


@st.composite
def wide_plans_and_supports(draw):
    """Pools of r = 2^15 distinct items among slightly more, t = 4, q = 16."""
    N = draw(st.integers(WIDE_R + 1, WIDE_R + 3000))
    M = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    adj = np.sort(np.array([rng.choice(N, size=WIDE_R, replace=False) for _ in range(M)]), axis=1)
    plan = TestPlan(BipartiteGraph(N, M, WIDE_R, adj), WIDE_T)
    items = draw(st.lists(st.integers(0, N - 1), unique=True, max_size=6))
    return plan, SupportVector(N, np.array(items, dtype=np.int64))


def _decode_with_calls(decode, plan, results):
    """decode's outcome as a dict, and the weight and blocks of every
    syndrome_decode call it made, in order."""
    calls = []
    real = codec.syndrome_decode

    def spy(pcm, blocks, w):
        calls.append((w, list(blocks)))
        return real(pcm, blocks, w)

    with mock.patch.object(codec, "syndrome_decode", spy):
        return decode(plan, results).to_dict(), calls


@PROPERTY_SETTINGS
@given(plans_and_supports(max_t=4) | wide_plans_and_supports(), st.data())
def test_peeler_matches_the_stepwise_oracle(case, data):
    plan, support = case
    results = _mutated_or_random_results(plan, support, data)
    got = _decode_with_calls(peel_decode, plan, results)
    assert got == _decode_with_calls(peel_decode_stepwise, plan, results)


def test_peeler_matches_the_stepwise_oracle_at_the_desk_points():
    N, K = 2**16, 100
    for t, d, margin in [(1, 3, 1.6), (2, 3, 1.8), (3, 2, 1.5)]:
        res = design.optimize_design(t, d)
        sizes = design.make_plan(N, K, res, margin=margin)
        for seed in (1, 2, 3):
            plan = TestPlan(sample_graph(N, sizes.M, sizes.r, res.profile, seed), t)
            results = encode(plan, sample_support(N, K / N, seed))
            got = _decode_with_calls(peel_decode, plan, results)
            assert got[1] and got == _decode_with_calls(peel_decode_stepwise, plan, results)
