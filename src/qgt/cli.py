"""Command-line interface.

Exit codes: 0 success, 1 malformed input files or a decode that did not
fully recover, 2 invalid, infeasible or out-of-regime parameters.  Items are
1-indexed at this boundary and in all files; the library itself is 0-indexed.
"""

from __future__ import annotations

import argparse
import json
import math
import secrets
import sys

from . import codec, design
from .bch import MAX_CORRECTION
from .graphs import MAX_PROFILE_DEGREE, sample_graph

TABLE_D_RANGE = {1: range(2, 19), 2: range(2, 18), 3: range(2, 18)}
COMPARE_DEFAULT_D = {1: 18, 2: 17, 3: 17}


class UsageError(Exception):
    """Parameter values a command cannot run with (exit code 2)."""


class FileError(Exception):
    """A file that cannot be read or written, or files that do not fit together (exit code 1)."""


def _require(ok, message):
    if not ok:
        raise UsageError(message)


def _check_d(args):
    _require(2 <= args.d <= MAX_PROFILE_DEGREE, f"--d {args.d} outside [2, {MAX_PROFILE_DEGREE}]")


def _check_plan_args(args):
    _check_d(args)
    _require(1 <= args.K < args.N, f"need 1 <= K < N, got --K {args.K} --N {args.N}")
    _require(
        math.isfinite(args.margin) and args.margin >= 1.0,
        f"--margin {args.margin} must be a finite number >= 1",
    )


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers bad JSON and undecodable bytes
        raise FileError(f"cannot read {path}: {exc}") from None


def _emit(text, out):
    """Write text and one newline to the file out, or to stdout; the newline
    is written after the text, so a large text is never copied to add it."""
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
                fh.write("\n")
        except OSError as exc:
            raise FileError(f"cannot write {out}: {exc}") from None
    else:
        print(text)


def _pick_seed(args):
    if args.seed is not None:
        _require(args.seed >= 0, f"--seed {args.seed} must be a non-negative integer")
        return args.seed
    seed = secrets.randbits(32)
    print(f"seed: {seed}", file=sys.stderr)
    return seed


def cmd_design(args):
    _check_d(args)
    res = design.optimize_design(args.t, args.d)
    _emit(json.dumps(res.to_dict(), indent=2), args.out)


def cmd_plan(args):
    _check_plan_args(args)
    res = design.optimize_design(args.t, args.d)
    plan = design.make_plan(args.N, args.K, res, margin=args.margin)
    _emit(json.dumps(plan.to_dict(), indent=2), args.out)


def cmd_gen(args):
    _check_plan_args(args)
    _require((args.M is None) == (args.r is None), "--M and --r must be given together")
    _require(args.M is None or min(args.M, args.r) >= 1, f"--M {args.M} and --r {args.r} must be at least 1")
    seed = _pick_seed(args)
    res = design.optimize_design(args.t, args.d)
    if args.M is None:
        plan = design.make_plan(args.N, args.K, res, margin=args.margin)
        M, r = plan.M, plan.r
    else:
        M, r = args.M, args.r
    try:
        test_plan = codec.TestPlan(sample_graph(args.N, M, r, res.profile, seed), args.t, seed=seed)
    except (ValueError, RuntimeError) as exc:
        raise UsageError(f"--M {M} --r {r}: {exc}") from None
    data = test_plan.to_dict()
    del test_plan  # the graph is not needed while its JSON text is built
    _emit(json.dumps(data), args.out)


def cmd_encode(args):
    plan = codec.TestPlan.from_dict(_load_json(args.plan))
    support = codec.SupportVector.from_dict(_load_json(args.support))
    if support.N != plan.graph.N:
        raise FileError(f"support is over N={support.N}, plan over N={plan.graph.N}")
    results = codec.encode(plan, support)
    _emit(json.dumps(results.to_dict()), args.out)


def cmd_decode(args):
    _require(
        args.max_iterations is None or args.max_iterations >= 1,
        f"--max-iterations {args.max_iterations} must be at least 1",
    )
    plan = codec.TestPlan.from_dict(_load_json(args.plan))
    results = codec.TestResults.from_dict(_load_json(args.results), plan.graph.M, plan.signature.matrix.shape[0])
    outcome = codec.peel_decode(plan, results, max_iterations=args.max_iterations)
    _emit(json.dumps(outcome.to_dict(), indent=2), args.out)
    if outcome.stalled or outcome.failed_nodes:
        return 1


def cmd_simulate(args):
    from . import sim  # only this command runs trials; the others start without it

    _check_plan_args(args)
    _require(args.trials >= 1, f"--trials {args.trials} must be at least 1")
    _require(args.jobs >= 1, f"--jobs {args.jobs} must be at least 1")
    m_values = None
    if args.m:
        try:
            m_values = [int(v) for v in args.m.split(",")]
        except ValueError:
            raise UsageError(f"--m {args.m!r} is not a comma-separated list of integers") from None
        _require(all(m >= 1 for m in m_values), f"--m {args.m!r} must list positive budgets")
    seed = _pick_seed(args)
    try:
        reports = sim.simulate(
            args.N, args.K, args.t, args.d, args.trials, seed, margin=args.margin, jobs=args.jobs, m_values=m_values
        )
    except RuntimeError as exc:  # the sampler gives up on a graph too dense for its pools
        raise UsageError(str(exc)) from None
    _emit("\n".join([sim.CSV_HEADER] + [report.csv_row() for report in reports]), args.out)


def cmd_tables(args):
    d_range = TABLE_D_RANGE[args.t]
    d_max = max(d_range)
    header = ["t", "d", "c", "ell"] + [f"lambda_{i}" for i in range(2, d_max + 1)]
    lines = [",".join(header)]
    for d in d_range:
        try:
            res = design.optimize_design(args.t, d)
        except design.Infeasible:
            lines.append(",".join([str(args.t), str(d), "infeasible", ""] + [""] * (d_max - 1)))
            continue
        lam = [f"{v:.4g}" if v > 5e-5 else "" for v in res.profile.lam[1:]]
        lam += [""] * (d_max - d)
        row = [str(args.t), str(d), f"{res.nodes_per_defective:.4g}", f"{res.profile.avg_degree:.4g}"]
        lines.append(",".join(row + lam))
    _emit("\n".join(lines), args.out)


def cmd_compare(args):
    try:
        K_values = [int(v) for v in args.K_list.split(",")]
    except ValueError:
        raise UsageError(f"--K-list {args.K_list!r} is not a comma-separated list of integers") from None
    for K in K_values:
        _require(1 < K < args.N, f"need 1 < K < N, got K={K} in --K-list, --N {args.N}")
    designs = {t: design.optimize_design(t, d) for t, d in COMPARE_DEFAULT_D.items()}
    lines = [",".join(["K"] + [f"m_t{t}" for t in designs] + ["m_regular", "m_greedy"])]
    for K in K_values:
        cols = [str(K)] + [f"{design.proposed_tests(args.N, K, res):.6g}" for res in designs.values()]
        cols.append(f"{design.baseline_tests('regular-graph', args.N, K):.6g}")
        cols.append(f"{design.baseline_tests('greedy', args.N, K):.6g}")
        lines.append(",".join(cols))
    _emit("\n".join(lines), args.out)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="qgt", description="Quantitative group testing toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def common_design(sp):
        sp.add_argument("--t", type=int, required=True, choices=range(1, MAX_CORRECTION + 1))
        sp.add_argument("--d", type=int, required=True)

    def common_out(sp):
        sp.add_argument("--out", help="write output to this file instead of stdout")

    sp = sub.add_parser("design", help="optimize a degree profile")
    common_design(sp)
    common_out(sp)
    sp.set_defaults(func=cmd_design)

    sp = sub.add_parser("plan", help="integer plan sizes for (N, K)")
    common_design(sp)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--K", type=int, required=True)
    sp.add_argument("--margin", type=float, default=1.0)
    common_out(sp)
    sp.set_defaults(func=cmd_plan)

    sp = sub.add_parser("gen", help="sample a reusable test plan")
    common_design(sp)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--K", type=int, required=True)
    sp.add_argument("--M", type=int)
    sp.add_argument("--r", type=int)
    sp.add_argument("--margin", type=float, default=1.0)
    sp.add_argument("--seed", type=int)
    common_out(sp)
    sp.set_defaults(func=cmd_gen)

    sp = sub.add_parser("encode", help="measurements of a known support")
    sp.add_argument("--plan", required=True)
    sp.add_argument("--support", required=True)
    common_out(sp)
    sp.set_defaults(func=cmd_encode)

    sp = sub.add_parser("decode", help="recover the support from measurements")
    sp.add_argument("--plan", required=True)
    sp.add_argument("--results", required=True)
    sp.add_argument("--max-iterations", type=int)
    common_out(sp)
    sp.set_defaults(func=cmd_decode)

    sp = sub.add_parser("simulate", help="Monte Carlo error-rate estimation")
    common_design(sp)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--K", type=int, required=True)
    sp.add_argument("--trials", type=int, default=1000)
    sp.add_argument("--m", help="comma-separated test budgets to sweep")
    sp.add_argument("--margin", type=float, default=1.0)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--jobs", type=int, default=1)
    common_out(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("tables", help="profile constants over the tabulated d range")
    sp.add_argument("--t", type=int, required=True, choices=list(TABLE_D_RANGE))
    common_out(sp)
    sp.set_defaults(func=cmd_tables)

    sp = sub.add_parser("compare", help="closed-form test counts vs baselines")
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--K-list", required=True, dest="K_list")
    common_out(sp)
    sp.set_defaults(func=cmd_compare)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args) or 0
    except (codec.FormatError, FileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (UsageError, design.Infeasible, design.OutOfRegime) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
