"""Digests of seeded decodes and of the designs, for showing that a change to
the decoder or to the design search leaves its outputs identical.

Run from the root of a source checkout:

    python tests/decode_digest.py

and compare the printed lines with those of the other tree.  The script
runs `sim.run_plan_trials` at the three desk operating points (N = 2^16,
K = 100; 3 trials each, seeds 1-6) and at the dense point (N = 2^20,
K = 10^4, t = 3, d = 2; 1 trial, seeds 1-4), and prints the sha256 of

- the `DecodeOutcome.to_dict` of each run's first trial,
- the `DecodeOutcome.iterations` of every trial of every run, in order,
- each run's report,
- every `codec.syndrome_decode` call, as its weight and its t syndrome
  blocks in order,
- every sampled graph, as its sizes, `right_adj`, `left_ptr` and its left
  incidence: the (pool, position) pairs item by item, each item's in
  ascending order;
- the same for the `graphs.sample_graph` graphs at the desk points that
  take the most swap passes among seeds 0-59: four passes and a final
  check, at t = 2 seed 38 and t = 3 seeds 1, 21 and 44;
- the generator states of the `graphs.sample_graph` calls at those four
  most-pass desk seeds and at the dense point's seeds 1-4 (their first
  attempt): `bit_generator.state` as `graphs._try_assemble` receives it,
  after the degree draw and repair, and as it leaves it, after the swap
  passes, for every attempt in order;
- a plan file's round trip at the three desk points (seed 1 each): the
  sampled plan's `to_dict` as JSON text, the `to_dict` of the plan that
  `TestPlan.from_dict` reads back from that text, and the `to_dict` of
  that plan's `encode` of a sampled support and of its `peel_decode`;
- the `DecodeOutcome.to_dict` and the syndrome decoder calls of decodes of
  measurements no support produces, at the three desk points (seeds 1-3):
  a support's measurements with each pool's first parity entry raised by
  2*(count//2 + 1), as in the benchmark's decode-impossible check, and with
  every entry of pool `seed` set to 2^62;
- the outcome, sorted positions or failure, of `bch.syndrome_decode` at
  every weight w <= t on seeded random blocks and on the syndromes of
  seeded in-range sets of every weight 1..t, at the codes (t, r) = (3, 358),
  (2, 1409), (3, 2221), (4, 2221), (3, 1000) and (3, 13);
- the `design.optimize_design(t, d).to_dict()` of every t = 1..4 and
  d = 2..32, as json, with the `Infeasible` message in place of the one
  pair that has none, (1, 2);
- the solution of every LP those designs solve (uncached, through
  `design.optimize_design.__wrapped__`), in call order: the bytes of each
  `design.simplex_solve` result's x as hex, or null where the LP is
  infeasible, with the number of solves;
- every `(row, col)` handed to `simplex._pivot` over that same sweep, in
  call order, with the number of pivots;
- at t = 4, lines marked `t=4`: the first four digests and the sampled
  graphs of runs at the desk point (N = 2^16, K = 100, d = 2, margin 1.5;
  3 trials each, seeds 1-6) and the dense point (N = 2^20, K = 10^4, d = 2,
  margin 1.5; 1 trial, seeds 1-2), and the syndrome decoder outcomes, as
  above, at the codes (t, r) = (4, 474), (4, 4095) and (4, 65535).

pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from qgt import bch, codec, design, graphs, sim, simplex  # noqa: E402

DESK = (2**16, 100, [(1, 3, 1.6), (2, 3, 1.8), (3, 2, 1.5)], 3, range(1, 7))
DENSE = (2**20, 10**4, [(3, 2, 1.5)], 1, range(1, 5))
MOST_PASSES = [(2, 38), (3, 1), (3, 21), (3, 44)]  # (t, seed) at the desk points
CODES = [(3, 358), (2, 1409), (3, 2221), (4, 2221), (3, 1000), (3, 13)]
DESK4 = (2**16, 100, [(4, 2, 1.5)], 3, range(1, 7))
DENSE4 = (2**20, 10**4, [(4, 2, 1.5)], 1, range(1, 3))
CODES4 = [(4, 474), (4, 4095), (4, 65535)]  # odd and even q: 9, 12 and 16


def _digest_graph(digest, g):
    for a in [(g.N, g.M, g.r), g.right_adj, g.left_ptr, *np.divmod(g.left_slot, g.r)]:
        digest.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())


def _most_pass_graphs() -> str:
    N, K, points, _, _ = DESK
    digest = hashlib.sha256()
    for t, seed in MOST_PASSES:
        _, d, margin = points[t - 1]
        res = design.optimize_design(t, d)
        sizes = design.make_plan(N, K, res, margin=margin)
        _digest_graph(digest, graphs.sample_graph(N, sizes.M, sizes.r, res.profile, seed))
    return digest.hexdigest()


def _sampler_states() -> list:
    """The generator states around each `_try_assemble` of the most-pass
    desk graphs and of the dense graphs at seeds 1-4."""
    states = []
    real_assemble = graphs._try_assemble

    def spy_assemble(N, M, r, degs, rng):
        states.append(rng.bit_generator.state)
        out = real_assemble(N, M, r, degs, rng)
        states.append(rng.bit_generator.state)
        return out

    desk_N, desk_K, desk_points, _, _ = DESK
    dense_N, dense_K, (dense_point,), _, dense_seeds = DENSE
    cases = [(desk_N, desk_K, desk_points[t - 1], seed) for t, seed in MOST_PASSES]
    cases += [(dense_N, dense_K, dense_point, seed) for seed in dense_seeds]
    graphs._try_assemble = spy_assemble
    try:
        for N, K, (t, d, margin), seed in cases:
            res = design.optimize_design(t, d)
            sizes = design.make_plan(N, K, res, margin=margin)
            graphs.sample_graph(N, sizes.M, sizes.r, res.profile, seed)
    finally:
        graphs._try_assemble = real_assemble
    return states


def _syndrome_outcomes(codes) -> list:
    """syndrome_decode at every weight on seeded blocks at each code."""
    out = []
    for t, r in codes:
        pcm = bch.build_parity_check(t, r)
        exp, n = pcm.field.exp_list, pcm.n
        rng = np.random.default_rng(t * 10000 + r)
        block_sets = [rng.integers(0, n + 1, size=t).tolist() for _ in range(300)]
        for w in range(1, t + 1):
            for _ in range(300):
                blocks = [0] * t
                for p in rng.choice(r, size=w, replace=False).tolist():
                    for k in range(t):
                        blocks[k] ^= exp[(2 * k + 1) * p % n]
                block_sets.append(blocks)
        for blocks in block_sets:
            for w in range(t + 1):
                try:
                    out.append(bch.syndrome_decode(pcm, blocks, w))
                except bch.DecodeFailure:
                    out.append("failure")
    return out


def _inconsistent_decodes() -> list:
    """Outcomes of decodes of tampered measurements at the desk points."""
    N, K, points, _, _ = DESK
    out = []
    for t, d, margin in points:
        res = design.optimize_design(t, d)
        sizes = design.make_plan(N, K, res, margin=margin)
        for seed in (1, 2, 3):
            plan = codec.TestPlan(graphs.sample_graph(N, sizes.M, sizes.r, res.profile, seed), t)
            blocks = codec.encode(plan, sim.sample_support(N, K / N, seed)).blocks
            raised, huge = blocks.copy(), blocks.copy()
            raised[:, 1] += 2 * (raised[:, 0] // 2 + 1)
            huge[seed] = 2**62
            for tampered in (raised, huge):
                out.append(codec.peel_decode(plan, codec.TestResults(tampered)).to_dict())
    return out


def _plan_round_trips() -> list:
    """A sampled plan through its file format and back, then encoded and
    decoded, at each desk point."""
    N, K, points, _, _ = DESK
    out = []
    for t, d, margin in points:
        res = design.optimize_design(t, d)
        sizes = design.make_plan(N, K, res, margin=margin)
        graph = graphs.sample_graph(N, sizes.M, sizes.r, res.profile, 1)
        text = json.dumps(codec.TestPlan(graph, t, seed=1).to_dict())
        plan = codec.TestPlan.from_dict(json.loads(text))
        results = codec.encode(plan, sim.sample_support(N, K / N, 1))
        out += [text, plan.to_dict(), results.to_dict(), codec.peel_decode(plan, results).to_dict()]
    return out


@contextlib.contextmanager
def _recorded_decodes():
    """The list of (weight, blocks) of every codec.syndrome_decode call made
    inside the block."""
    calls = []
    real_decode = codec.syndrome_decode

    def spy_decode(pcm, syndrome, w):
        calls.append((w, list(syndrome)))
        return real_decode(pcm, syndrome, w)

    codec.syndrome_decode = spy_decode
    try:
        yield calls
    finally:
        codec.syndrome_decode = real_decode


def _trial_lines(point_sets, prefix="") -> list[str]:
    """Digest lines of the seeded Monte Carlo runs at the given points."""
    outcomes, iterations = [], []
    graph_digest = hashlib.sha256()
    graph_count = 0
    real_peel, real_sample = sim.peel_decode, sim.sample_graph

    def spy_peel(plan, results):
        out = real_peel(plan, results)
        outcomes.append(out.to_dict())
        iterations.append(out.iterations)
        return out

    def spy_sample(*args):
        nonlocal graph_count
        g = real_sample(*args)
        graph_count += 1
        _digest_graph(graph_digest, g)
        return g

    sim.peel_decode, sim.sample_graph = spy_peel, spy_sample
    first, reports = [], []
    with _recorded_decodes() as calls:
        for N, K, points, trials, seeds in point_sets:
            for t, d, margin in points:
                res = design.optimize_design(t, d)
                plan = design.make_plan(N, K, res, margin=margin)
                for seed in seeds:
                    outcomes.clear()
                    rep = sim.run_plan_trials(N, K, t, res.profile, plan.M, plan.r, trials, seed)
                    first.append(outcomes[0])
                    reports.append(dataclasses.asdict(rep))
    sim.peel_decode, sim.sample_graph = real_peel, real_sample

    lines = []
    for name, data in [
        ("first-trial outcomes", first),
        ("trial iterations", iterations),
        ("reports", reports),
        ("syndrome_decode calls", calls),
    ]:
        digest = hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()
        lines.append(f"{prefix}{name} ({len(data)}): {digest}")
    lines.append(f"{prefix}sampled graphs ({graph_count}): {graph_digest.hexdigest()}")
    return lines


def main():
    for line in _trial_lines((DESK, DENSE)):
        print(line)
    print(f"most-pass desk graphs ({len(MOST_PASSES)}): {_most_pass_graphs()}")
    states = _sampler_states()
    digest = hashlib.sha256(json.dumps(states, sort_keys=True).encode()).hexdigest()
    print(f"sampler generator states ({len(states)}): {digest}")

    with _recorded_decodes() as calls:
        inconsistent = {"outcomes": _inconsistent_decodes(), "calls": calls}
    digest = hashlib.sha256(json.dumps(inconsistent, sort_keys=True).encode()).hexdigest()
    print(f"inconsistent decodes ({len(inconsistent['outcomes'])}, {len(calls)} calls): {digest}")

    digest = hashlib.sha256(json.dumps(_plan_round_trips()).encode()).hexdigest()
    print(f"plan round trips ({len(DESK[2])}): {digest}")

    print(_outcome_line(_syndrome_outcomes(CODES)))

    designs, solutions, pivots = _designs_lp_solutions_and_pivots()
    digest = hashlib.sha256(json.dumps(designs).encode()).hexdigest()
    print(f"designs ({len(designs)}): {digest}")

    for line in _trial_lines((DESK4, DENSE4), prefix="t=4 "):
        print(line)
    print("t=4 " + _outcome_line(_syndrome_outcomes(CODES4)))
    digest = hashlib.sha256(json.dumps(solutions).encode()).hexdigest()
    print(f"LP solutions ({len(solutions)} solves, {solutions.count(None)} infeasible): {digest}")
    digest = hashlib.sha256(json.dumps(pivots).encode()).hexdigest()
    print(f"LP pivots ({len(pivots)}): {digest}")


def _designs_lp_solutions_and_pivots() -> tuple[list, list, list]:
    """The design of every t = 1..4, d = 2..32, the solution of every LP
    solved on the way, None where it is infeasible, and every simplex pivot
    as its (row, col)."""
    designs, solutions, pivots = [], [], []
    real_solve, real_pivot = design.simplex_solve, simplex._pivot

    def spy_solve(*args, **kwargs):
        x = real_solve(*args, **kwargs)
        solutions.append(None if x is None else x.tobytes().hex())
        return x

    def spy_pivot(T, basis, row, col):
        pivots.append((int(row), int(col)))
        real_pivot(T, basis, row, col)

    design.simplex_solve, simplex._pivot = spy_solve, spy_pivot
    try:
        for t in range(1, 5):
            for d in range(2, 33):
                try:
                    designs.append(json.dumps(design.optimize_design.__wrapped__(t, d).to_dict()))
                except design.Infeasible as exc:
                    designs.append(str(exc))
    finally:
        design.simplex_solve, simplex._pivot = real_solve, real_pivot
    return designs, solutions, pivots


def _outcome_line(outcomes) -> str:
    digest = hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()
    return f"syndrome_decode outcomes ({len(outcomes)}, {outcomes.count('failure')} failures): {digest}"


if __name__ == "__main__":
    main()
