"""End-to-end acceptance checks for the whole pipeline.

Each test prints one PASS/FAIL line (bypassing capture so the lines show up
in a plain pytest run).  Tolerances and scales are fixed; see the test
bodies for the operating points.
"""

import itertools
import math
import statistics
import time

import numpy as np
import pytest

from oracles import de_poisson_trajectory, pack_blocks
from qgt.bch import build_parity_check, syndrome_decode
from qgt.codec import (
    SupportVector,
    TestPlan,
    build_signature,
    encode,
    peel_decode,
)
from qgt.design import (
    Infeasible,
    baseline_tests,
    make_plan,
    optimize_design,
    proposed_tests,
)
from qgt.graphs import BipartiteGraph, sample_graph
from qgt.sim import run_plan_trials, sample_support, simulate

# c and ell reference values per max degree d, t = 1 (d = 3..18)
REF_T1_C = [1.222, 1.217, 1.208, 1.197, 1.186, 1.175, 1.164, 1.153,
            1.142, 1.133, 1.123, 1.114, 1.106, 1.098, 1.093, 1.09]
REF_T1_L = [3.0, 3.17, 3.312, 3.437, 3.563, 3.678, 3.783, 3.88,
            3.993, 4.084, 4.177, 4.273, 4.356, 4.473, 4.592, 4.709]
# t = 2 (d = 2..17)
REF_T2_C = [0.597, 0.582, 0.572, 0.562, 0.553, 0.545, 0.538, 0.531,
            0.528, 0.527, 0.526, 0.526, 0.526, 0.525, 0.525, 0.525]
REF_T2_L = [2.0, 2.257, 2.367, 2.474, 2.573, 2.659, 2.741, 2.843,
            2.969, 3.085, 3.126, 3.15, 3.174, 3.193, 3.214, 3.242]
# t = 3 (d = 2..17)
REF_T3_C = [0.388, 0.388, 0.387, 0.384, 0.381, 0.378, 0.375, 0.372,
            0.37, 0.367, 0.365, 0.363, 0.363, 0.362, 0.362, 0.362]
REF_T3_L = [2.0, 2.021, 2.118, 2.207, 2.295, 2.366, 2.442, 2.515,
            2.577, 2.639, 2.709, 2.781, 2.848, 2.909, 2.945, 2.952]

C_TOL = 0.01
ELL_TOL = 0.05

# per-t operating points for the recovery run: max degree and pool overhead
RECOVERY_SETS = {1: (3, 1.6), 2: (3, 1.8), 3: (2, 1.5)}

EXAMPLE_ADJ = np.array(
    [
        [1, 3, 4, 8, 9, 12, 13],
        [2, 3, 6, 7, 9, 11, 12],
        [0, 3, 5, 7, 9, 10, 12],
    ]
)
# same example under the other popular bit convention for H rows: a row of
# ones on top, parity rows listed highest power first
ALT_SIGNATURE = np.array(
    [
        [1, 1, 1, 1, 1, 1, 1],
        [0, 0, 1, 0, 1, 1, 1],
        [0, 1, 0, 1, 1, 1, 0],
        [1, 0, 0, 1, 0, 1, 1],
    ]
)
ALT_BLOCKS = np.array([[1, 0, 1, 0], [2, 0, 2, 1], [3, 1, 3, 2]])


@pytest.fixture()
def report(capfd):
    # verdict lines go to the real stdout, past pytest's fd capture
    def _emit(num: int, name: str, ok: bool, extra: str = "") -> None:
        verdict = "PASS" if ok else "FAIL"
        line = f"criterion {num} ({name}): {verdict}"
        if extra:
            line += f" [{extra}]"
        with capfd.disabled():
            print("\n" + line, flush=True)
        assert ok, line

    return _emit


def test_criterion_1_table_reproduction(report):
    start = time.perf_counter()
    bad = []
    with pytest.raises(Infeasible):
        optimize_design(1, 2)
    for t, d0, ref_c, ref_l in [
        (1, 3, REF_T1_C, REF_T1_L),
        (2, 2, REF_T2_C, REF_T2_L),
        (3, 2, REF_T3_C, REF_T3_L),
    ]:
        for k, (c_ref, l_ref) in enumerate(zip(ref_c, ref_l)):
            res = optimize_design(t, d0 + k)
            if abs(res.nodes_per_defective - c_ref) > C_TOL:
                bad.append((t, d0 + k, "c", res.nodes_per_defective, c_ref))
            if abs(res.profile.avg_degree - l_ref) > ELL_TOL:
                bad.append((t, d0 + k, "ell", res.profile.avg_degree, l_ref))
    elapsed = time.perf_counter() - start
    report(1, "table reproduction", not bad and elapsed < 300,
            f"48 rows, {elapsed:.1f}s" + (f", off: {bad}" if bad else ""))


def _row_permutation(ours: np.ndarray, theirs: np.ndarray) -> np.ndarray:
    perm = []
    for row in theirs:
        matches = np.flatnonzero((ours == row).all(axis=1))
        assert matches.size == 1
        perm.append(matches[0])
    assert sorted(perm) == list(range(theirs.shape[0]))
    return np.array(perm)


def test_criterion_2_worked_example(report):
    graph = BipartiteGraph(N=14, M=3, r=7, right_adj=EXAMPLE_ADJ)
    plan = TestPlan(graph, 1)
    support = SupportVector(N=14, items=np.array([3, 7, 10]))  # files call them 4, 8, 11
    results = encode(plan, support)
    perm = _row_permutation(plan.signature.matrix, ALT_SIGNATURE)
    blocks_ok = np.array_equal(results.blocks[:, perm], ALT_BLOCKS)
    out = peel_decode(plan, results)
    decode_ok = (
        sorted(out.identified.tolist()) == [3, 7, 10]
        and out.iterations == 3
        and not out.stalled
        and out.failed_nodes == 0
    )
    report(2, "worked example fidelity", blocks_ok and decode_ok,
            f"iterations={out.iterations}")


def test_criterion_3_bch_round_trip(report):
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    total = 0
    failures = 0
    for t in (1, 2, 3, 4):
        for r in (7, 15, 31, 63):
            pcm = build_parity_check(t, r)
            parity = build_signature(t, r).matrix[1:]

            def check(pos):
                nonlocal total, failures
                if pos:
                    syn = np.bitwise_xor.reduce(parity[:, list(pos)], axis=1)
                else:
                    syn = np.zeros(parity.shape[0], np.int64)
                got = syndrome_decode(pcm, pack_blocks(pcm, syn), len(pos))
                total += 1
                failures += sorted(got) != sorted(pos)

            if math.comb(r, t) <= 10**5:
                for w in range(t + 1):
                    for pos in itertools.combinations(range(r), w):
                        check(pos)
            else:
                check(())
                for w in range(1, t + 1):
                    for _ in range(2500):
                        check(tuple(int(v) for v in rng.choice(r, size=w, replace=False)))
    report(3, "syndrome round trip", failures == 0,
            f"{total} cases, {time.perf_counter() - start:.1f}s")


def test_criterion_4_desk_scale_recovery(report):
    start = time.perf_counter()
    lines = []
    ok = True
    for t, (d, margin) in RECOVERY_SETS.items():
        (rep,) = simulate(2**16, 100, t, d, trials=2000, seed=20260823, margin=margin)
        ok &= rep.full_recovery >= 0.99 and rep.error_prob <= 1e-3
        ok &= rep.false_positives == 0
        lines.append(f"t={t}: full={rep.full_recovery:.4f} err={rep.error_prob:.1e}")
    elapsed = time.perf_counter() - start
    report(4, "desk-scale recovery", ok and elapsed < 600,
            "; ".join(lines) + f"; {elapsed:.0f}s")


def test_criterion_5_recursion_vs_empirical(report):
    # per-trial predictions conditioned on the realized defective count; the
    # pooled statistic is then binomial to good approximation
    des = optimize_design(2, 2)
    N, K, t = 10**5, 500, 2
    plan = make_plan(N, K, des, margin=1.5)
    emp = np.zeros(5)
    mean = np.zeros(5)
    var = np.zeros(5)
    for i in range(6):
        gs, ss = np.random.SeedSequence(entropy=902, spawn_key=(i,)).spawn(2)
        graph = sample_graph(N, plan.M, plan.r, des.profile, gs)
        support = sample_support(N, K / N, ss)
        tp = TestPlan(graph, t)
        out = peel_decode(tp, encode(tp, support))
        got = np.cumsum(out.identified_per_iteration)
        Ki = support.items.size
        _, unid = de_poisson_trajectory(des.profile, plan.r * Ki / N, t, 5)
        for j in range(1, 6):
            done = got[min(j - 1, got.size - 1)] if got.size else 0
            emp[j - 1] += Ki - done
            mean[j - 1] += Ki * unid[j]
            var[j - 1] += Ki * unid[j] * (1.0 - unid[j])
    z = (emp - mean) / np.sqrt(var)
    report(5, "recursion tracks experiment", bool(np.abs(z).max() < 3.0),
            "z=" + ",".join(f"{v:+.2f}" for v in z))


def test_criterion_6_analytic_comparison(report):
    N = 2**32
    des = optimize_design(2, 17)
    gaps_reg = []
    gaps_greedy = []
    ok = True
    for exp in (10, 12, 14, 16, 18, 20):
        K = 2**exp
        ours = proposed_tests(N, K, des)
        reg = baseline_tests("regular-graph", N, K)
        greedy = baseline_tests("greedy", N, K)
        ok &= ours < reg and ours < greedy
        gaps_reg.append(reg - ours)
        gaps_greedy.append(greedy - ours)
    ok &= all(b > a for a, b in zip(gaps_reg, gaps_reg[1:]))
    ok &= all(b > a for a, b in zip(gaps_greedy, gaps_greedy[1:]))
    report(6, "beats baseline curves", ok,
            f"gap to regular {gaps_reg[0]:.3g} -> {gaps_reg[-1]:.3g}")


def test_criterion_7_exhaustive_oracle(report):
    start = time.perf_counter()
    rng = np.random.default_rng(20260823)
    successes = 0
    ambiguous = 0
    mismatches = 0
    false_pos = 0
    for _ in range(500):
        while True:
            N = int(rng.integers(8, 21))
            M = int(rng.integers(2, 5))
            t = int(rng.integers(1, 3))
            r = int(rng.integers(3, min(N, 12) + 1))
            adj = np.stack([np.sort(rng.choice(N, size=r, replace=False)) for _ in range(M)])
            if np.unique(adj).size == N:  # every item observed by some pool
                break
        plan = TestPlan(BipartiteGraph(N=N, M=M, r=r, right_adj=adj), t)
        truth = np.flatnonzero(rng.random(N) < rng.uniform(0.08, 0.35))
        y = encode(plan, SupportVector(N=N, items=truth))
        out = peel_decode(plan, y)
        found = set(out.identified.tolist())
        false_pos += bool(found - set(truth.tolist()))
        if out.stalled or out.failed_nodes:
            continue
        successes += 1
        # all supports with matching per-pool counts, then exact measurement match
        xs = np.arange(1 << N, dtype=np.uint32)
        keep = np.ones(xs.size, bool)
        for m in range(M):
            mask = np.uint32(0)
            for i in adj[m]:
                mask |= np.uint32(1 << int(i))
            keep &= np.bitwise_count(xs & mask) == y.blocks[m, 0]
        consistent = []
        for x in xs[keep]:
            items = np.flatnonzero([(int(x) >> i) & 1 for i in range(N)])
            if np.array_equal(encode(plan, SupportVector(N=N, items=items)).blocks, y.blocks):
                consistent.append(set(items.tolist()))
        ambiguous += len(consistent) != 1
        mismatches += bool(consistent) and consistent[0] != found

    # separate bulk run on an undersized plan: plenty of partial decodes,
    # still not a single invented defective
    rep = run_plan_trials(400, 10, 1, optimize_design(1, 3).profile, 13, 90, 10000, seed=5)
    ok = ambiguous == 0 and mismatches == 0 and false_pos == 0 and rep.false_positives == 0
    report(7, "exhaustive-search agreement", ok,
            f"{successes}/500 full decodes, bulk fp={rep.false_positives}, "
            f"{time.perf_counter() - start:.0f}s")


def test_criterion_8_scaling(report):
    des = optimize_design(1, 3)
    cases = []
    for exp in (14, 15, 16):
        N = 2**exp
        plan = make_plan(N, 100, des, margin=1.6)
        graph = sample_graph(N, plan.M, plan.r, des.profile, 7)
        tp = TestPlan(graph, 1)
        cases.append((tp, sample_support(N, 100 / N, 9)))
    # time the sizes round-robin, so that a drift in machine speed hits all
    # three alike instead of one size's whole batch
    enc = [[] for _ in cases]
    dec = [[] for _ in cases]
    for _ in range(50):
        for k, (tp, support) in enumerate(cases):
            a = time.perf_counter()
            y = encode(tp, support)
            b = time.perf_counter()
            peel_decode(tp, y)
            c = time.perf_counter()
            enc[k].append(b - a)
            dec[k].append(c - b)
    rows = [(statistics.median(e), statistics.median(d)) for e, d in zip(enc, dec)]
    ok = True
    ratios = []
    for (e1, d1), (e2, d2) in zip(rows, rows[1:]):
        ratios.append(f"enc x{e2 / e1:.2f} dec x{d2 / d1:.2f}")
        ok &= e2 / e1 <= 2.5 and d2 / d1 <= 1.5
    report(8, "doubling-N scaling", ok, "; ".join(ratios))
