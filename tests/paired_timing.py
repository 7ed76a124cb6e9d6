"""Paired in-process timing of one layer of two qgt trees.

Run from the root of a source checkout, with the `src` directory of the
other tree (for example an unpacked copy of the parent commit):

    python tests/paired_timing.py OTHER/src LAYER [--point P] [--pairs N]

The other tree's `qgt` is loaded as a second package, `qgt_other`, beside
this tree's `qgt`; its imports are relative, so its modules resolve among
themselves.  LAYER is one of

- `sample_graph`: one `graphs.sample_graph` at the point's sizes;
- `BipartiteGraph`: one build of a sampled graph's adjacency;
- `syndrome_decode`: 2000 `bch.syndrome_decode` calls of weight `--weight`
  at the point's code, 3 in 4 on the syndrome of a random in-range set of
  that weight and 1 in 4 on random blocks; the weight must lie in 1..t
  of the point, and the default of 2 needs `--point` at t >= 2;
- `encode`: one `codec.encode` of a sampled support, each tree on its own
  plan built from the same adjacency, compared as the results' `to_dict()`;
- `peel_decode`: one `codec.peel_decode` of a sampled support's
  measurements, each tree on its own plan built from the same adjacency;
- `trial`: one `sim.run_plan_trials` trial, as the Monte Carlo runs it;
- `optimize_design`: the 16 rows of `qgt tables --t 2` (d = 2..17), each
  a cold `design.optimize_design.__wrapped__` call, compared as their
  `to_dict()` JSON; the point and the seed do not enter.

The points are `desk1`, `desk2`, `desk3` (N = 2^16, K = 100, t = 1/2/3 at
the criterion-4 designs), `dense` (N = 2^20, K = 10^4, t = 3, d = 2) and
the t = 4 points `desk4` and `dense4` (the same N and K, d = 2, margin 1.5;
M = 45, r = 2912 and M = 4419, r = 474).
Pair i feeds both trees the inputs of seed `--seed` + i, times each tree's
call once, alternating which tree runs first, and checks that the two
outputs are equal; one untimed call per tree, on the inputs of the seed
after the last pair's, runs first and fills the lazy caches.  It prints
each pair, then the median time of each tree, the median of the per-pair
ratios this/other and the number of pairs this tree won; `--json` prints
the same as one JSON object.  pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib
import importlib.util
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

import qgt  # noqa: E402

MODULES = ("bch", "codec", "design", "graphs", "sim")
POINTS = {
    "desk1": (2**16, 100, 1, 3, 1.6),
    "desk2": (2**16, 100, 2, 3, 1.8),
    "desk3": (2**16, 100, 3, 2, 1.5),
    "dense": (2**20, 10**4, 3, 2, 1.5),
    "desk4": (2**16, 100, 4, 2, 1.5),
    "dense4": (2**20, 10**4, 4, 2, 1.5),
}
SYNDROMES_PER_PAIR = 2000
TABLES_T, TABLES_D = 2, range(2, 18)  # the rows of `qgt tables --t 2`


def load_tree(name: str, pkg_dir: Path) -> dict:
    """The modules of the qgt package in pkg_dir, imported as package `name`."""
    spec = importlib.util.spec_from_file_location(
        name, pkg_dir / "__init__.py", submodule_search_locations=[str(pkg_dir)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return {m: importlib.import_module(f"{name}.{m}") for m in MODULES}


def this_tree() -> dict:
    return {m: importlib.import_module(f"qgt.{m}") for m in MODULES}


class Point:
    def __init__(self, name: str, tree: dict):
        self.N, self.K, self.t, d, margin = POINTS[name]
        res = tree["design"].optimize_design(self.t, d)
        plan = tree["design"].make_plan(self.N, self.K, res, margin=margin)
        self.profile, self.M, self.r = res.profile, plan.M, plan.r

    def adjacency(self, tree: dict, seed: int) -> np.ndarray:
        return tree["graphs"].sample_graph(self.N, self.M, self.r, self.profile, seed).right_adj


def make_plan(tree: dict, point: Point, adj: np.ndarray):
    """The tree's TestPlan of the point's capability on this adjacency."""
    codec = tree["codec"]
    graph = tree["graphs"].BipartiteGraph(point.N, point.M, point.r, adj)
    return codec.TestPlan(graph, point.t)


def _graph_arrays(g) -> list:
    return [g.right_adj, g.left_ptr, g.left_slot]


def _syndromes(pcm, w: int, seed: int) -> list[list[int]]:
    """Block syndromes of random weight-w sets below r, and random blocks."""
    rng = np.random.default_rng(seed)
    exp, n = pcm.field.exp_list, pcm.n
    out = []
    for i in range(SYNDROMES_PER_PAIR):
        if i % 4 == 3:
            out.append(rng.integers(0, n + 1, size=pcm.t).tolist())
            continue
        blocks = [0] * pcm.t
        for p in rng.choice(pcm.r, size=w, replace=False).tolist():
            for k in range(pcm.t):
                blocks[k] ^= exp[(2 * k + 1) * p % n]
        out.append(blocks)
    return out


def prepare(layer: str, point: Point, trees: dict, seed: int, weight: int) -> dict:
    """Per tree, a call of the layer on the inputs of this seed."""
    if layer == "optimize_design":
        return {
            k: (
                lambda design=tr["design"]: [
                    json.dumps(design.optimize_design.__wrapped__(TABLES_T, d).to_dict()) for d in TABLES_D
                ]
            )
            for k, tr in trees.items()
        }
    this = trees["this"]
    sizes = (point.N, point.M, point.r)
    if layer == "sample_graph":
        return {
            k: (lambda g=tr["graphs"]: _graph_arrays(g.sample_graph(*sizes, point.profile, seed)))
            for k, tr in trees.items()
        }
    if layer == "BipartiteGraph":
        adj = point.adjacency(this, seed)
        return {k: (lambda g=tr["graphs"]: _graph_arrays(g.BipartiteGraph(*sizes, adj))) for k, tr in trees.items()}
    if layer == "syndrome_decode":
        calls = {}
        for k, tr in trees.items():
            bch = tr["bch"]
            pcm = bch.build_parity_check(point.t, point.r)
            syndromes = _syndromes(pcm, weight, seed)

            def run(bch=bch, pcm=pcm, syndromes=syndromes):
                out = []
                for blocks in syndromes:
                    try:
                        out.append(bch.syndrome_decode(pcm, blocks, weight))
                    except bch.DecodeFailure:
                        out.append(None)
                return out

            calls[k] = run
        return calls
    if layer in ("encode", "peel_decode"):
        adj = point.adjacency(this, seed)
        items = this["sim"].sample_support(point.N, point.K / point.N, seed).items
        calls = {}
        for k, tr in trees.items():
            codec = tr["codec"]
            plan = make_plan(tr, point, adj)
            support = codec.SupportVector(N=point.N, items=items)
            if layer == "encode":
                calls[k] = lambda codec=codec, plan=plan, support=support: codec.encode(plan, support).to_dict()
                continue
            results = codec.encode(plan, support)
            calls[k] = lambda codec=codec, plan=plan, results=results: codec.peel_decode(plan, results).to_dict()
        return calls
    if layer == "trial":
        return {
            k: (
                lambda sim=tr["sim"]: dataclasses.asdict(
                    sim.run_plan_trials(point.N, point.K, point.t, point.profile, point.M, point.r, 1, seed)
                )
            )
            for k, tr in trees.items()
        }
    raise ValueError(f"unknown layer {layer!r}")


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


def timed(call) -> tuple[float, object]:
    gc.collect()
    start = time.perf_counter()
    out = call()
    return time.perf_counter() - start, out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("other_src", type=Path, help="the src directory of the other tree")
    ap.add_argument("layer", choices=["sample_graph", "BipartiteGraph", "syndrome_decode", "encode", "peel_decode", "trial", "optimize_design"])
    ap.add_argument("--point", choices=sorted(POINTS), default="dense")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--weight", type=int, default=2, help="syndrome_decode only")
    ap.add_argument("--json", action="store_true")
    args = ap.parse_args(argv)
    t = POINTS[args.point][2]
    if args.layer == "syndrome_decode" and not 1 <= args.weight <= t:
        ap.error(f"--weight {args.weight} outside [1, {t}] at {args.point} (t = {t})")

    other_pkg = (args.other_src / "qgt").resolve()
    if other_pkg == Path(qgt.__file__).resolve().parent:
        ap.error("the other tree is this tree")
    trees = {"this": this_tree(), "other": load_tree("qgt_other", other_pkg)}
    point = None if args.layer == "optimize_design" else Point(args.point, trees["this"])
    for call in prepare(args.layer, point, trees, args.seed + args.pairs, args.weight).values():
        call()  # fills each tree's lazy tables and caches before any timing
    times = {"this": [], "other": []}
    for i in range(args.pairs):
        seed = args.seed + i
        calls = prepare(args.layer, point, trees, seed, args.weight)
        order = ("other", "this") if i % 2 == 0 else ("this", "other")
        outs = {}
        for k in order:
            dt, outs[k] = timed(calls[k])
            times[k].append(dt)
        if not _same(outs["this"], outs["other"]):
            raise SystemExit(f"outputs differ at seed {seed}")
        if not args.json:
            print(f"seed {seed} ({order[0]} first): this {times['this'][-1] * 1e3:.3f} ms, "
                  f"other {times['other'][-1] * 1e3:.3f} ms")

    ratios = [a / b for a, b in zip(times["this"], times["other"])]
    summary = {
        "layer": args.layer,
        "point": args.point if point else None,
        "weight": args.weight if args.layer == "syndrome_decode" else None,
        "seeds": [args.seed, args.seed + args.pairs - 1],
        "pairs": args.pairs,
        "this_median_ms": round(statistics.median(times["this"]) * 1e3, 4),
        "other_median_ms": round(statistics.median(times["other"]) * 1e3, 4),
        "median_ratio": round(statistics.median(ratios), 4),
        "this_faster_pairs": sum(r < 1 for r in ratios),
        "outputs_equal": True,
    }
    if args.json:
        print(json.dumps(summary))
    else:
        print(f"{args.layer}{f' at {args.point}' if point else ''}: this {summary['this_median_ms']} ms, other "
              f"{summary['other_median_ms']} ms (medians); median ratio this/other "
              f"{summary['median_ratio']}, this faster in {summary['this_faster_pairs']} of {args.pairs} pairs")


if __name__ == "__main__":
    main()
