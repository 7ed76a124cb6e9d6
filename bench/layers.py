"""Tracing hooks on the qgt modules and the per-layer metrics read from them.

Each hook replaces the name the calling module looks up, so a span sits at
exactly one layer boundary: ``design.simplex_solve`` is the design module's
call into the simplex solver, ``codec.syndrome_decode`` the decoder's call
into bch, ``cli.json`` the CLI's JSON parsing and writing.
"""

from __future__ import annotations

import json
import os
import statistics
import types

from qgt import cli, codec, design, gf2m, graphs, sim

from spans import Tracer

# (module or class, attribute, span name, keep the return value)
HOOKS = [
    (design, "simplex_solve", "simplex.simplex_solve", False),
    (design, "optimize_design", "design.optimize_design", False),
    (sim, "sample_graph", "graphs.sample_graph", True),
    (sim, "sample_support", "sim.sample_support", True),
    (sim, "encode", "codec.encode", True),
    (sim, "peel_decode", "codec.peel_decode", True),
    (graphs, "BipartiteGraph", "graphs.BipartiteGraph", False),
    (codec, "BipartiteGraph", "graphs.BipartiteGraph", False),
    (gf2m, "FieldContext", "gf2m.FieldContext", False),
    (codec, "build_parity_check", "bch.build_parity_check", False),
    (cli, "sample_graph", "graphs.sample_graph", False),
    (codec, "encode", "codec.encode", False),
    (codec, "peel_decode", "codec.peel_decode", False),
    (codec.TestPlan, "to_dict", "codec.TestPlan.to_dict", False),
    (codec.TestPlan, "from_dict", "codec.TestPlan.from_dict", False),
    (codec.TestResults, "from_dict", "codec.TestResults.from_dict", False),
]

# Per workload, (caller, callee) span pairs: when the caller ran, the callee
# must have run under it, or a hook has come loose from the code it measured.
EXPECTED_CALLS = {
    "desk-mc": [
        ("workload.setup", "design.optimize_design"),
        ("design.optimize_design", "simplex.simplex_solve"),
        ("workload.setup", "gf2m.FieldContext"),
        ("workload.setup", "bch.build_parity_check"),
        ("sim.run_plan_trials", "graphs.sample_graph"),
        ("sim.run_plan_trials", "graphs.BipartiteGraph"),
        ("sim.run_plan_trials", "sim.sample_support"),
        ("sim.run_plan_trials", "codec.encode"),
        ("sim.run_plan_trials", "codec.peel_decode"),
        ("sim.run_plan_trials", "bch.syndrome_decode"),
    ],
    "design-tables": [
        ("cli.design", "design.optimize_design"),
        ("design.optimize_design", "simplex.simplex_solve"),
    ],
    "cli-roundtrip": [
        ("workload.setup", "design.optimize_design"),
        ("cli.gen", "graphs.sample_graph"),
        ("cli.gen", "codec.TestPlan.to_dict"),
        ("cli.gen", "json.dumps"),
        ("cli.encode", "json.load"),
        ("cli.encode", "codec.TestPlan.from_dict"),
        ("cli.encode", "graphs.BipartiteGraph"),
        ("cli.encode", "codec.encode"),
        ("cli.decode", "codec.TestPlan.from_dict"),
        ("cli.decode", "codec.TestResults.from_dict"),
        ("cli.decode", "codec.peel_decode"),
        ("cli.decode", "bch.syndrome_decode"),
    ],
}
EXPECTED_CALLS["dense-mc"] = EXPECTED_CALLS["desk-mc"]


def install(tracer: Tracer):
    for owner, attr, name, keep in HOOKS:
        tracer.patch(owner, attr, name, keep=keep)
    tracer.patch(codec, "syndrome_decode", "bch.syndrome_decode", attrs=lambda pcm, syn, w: w)
    tracer.replace(cli, "json", types.SimpleNamespace(
        load=tracer.wrap(json.load, "json.load", attrs=lambda fh: os.path.basename(fh.name)),
        dumps=tracer.wrap(json.dumps, "json.dumps"),
        JSONDecodeError=json.JSONDecodeError,
    ))


def missing_calls(tracer: Tracer, workload: str) -> list[str]:
    ran = {s[0] for s in tracer.spans}
    return [
        f"{callee} never ran under {caller}"
        for caller, callee in EXPECTED_CALLS[workload]
        if caller in ran and not tracer.durations(callee, under=caller)
    ]


def _median(xs, scale=1.0) -> float:
    return statistics.median(xs) * scale if xs else 0.0


def _share(part, whole) -> float:
    return sum(part) / sum(whole) if whole else 0.0


def tail(xs) -> tuple[float, int]:
    """The highest whole percentile with at least ten samples beyond it, and
    its value; the median below forty samples."""
    if len(xs) < 40:
        return _median(xs), 50
    pct = int(100 * (1 - 10 / len(xs)))
    return statistics.quantiles(xs, n=100)[pct - 1], pct


def metrics(run) -> dict[str, float]:
    """Every per-layer metric of a traced workload.Run; 0 where the workload
    does not reach the layer."""
    tracer, counts = run.tracer, run.counts
    d = tracer.durations
    trial = d("sim.run_plan_trials")
    sample_graph = d("graphs.sample_graph", under="sim.run_plan_trials")
    peel = d("codec.peel_decode")
    trial_tail, trial_pct = tail([x * 1e3 for x in trial])

    syn = {1: [], 2: [], 3: []}
    failures = 0
    for name, a, b, _, attrs in tracer.spans:
        if name != "bch.syndrome_decode":
            continue
        if isinstance(attrs, dict):
            failures += 1
            attrs = attrs["attrs"]
        syn.setdefault(attrs, []).append(b - a)
    calls = sum(len(v) for v in syn.values())

    cold_design = tracer.enclosing("design.optimize_design", "simplex.simplex_solve")
    cold_parity = tracer.enclosing("bch.build_parity_check", "gf2m.FieldContext")
    lp_solves = len(d("simplex.simplex_solve", under="design.optimize_design"))

    plan_load = [b - a for n, a, b, _, f in tracer.spans if n == "json.load" and f == "plan.json"]
    decode = d("cli.decode")
    decode_io = (
        d("json.load", under="cli.decode")
        + d("codec.TestPlan.from_dict", under="cli.decode")
        + d("codec.TestResults.from_dict", under="cli.decode")
    )
    out = {
        "graphs.sample_graph_ms": _median(sample_graph, 1e3),
        "graphs.sample_graph_share": _share(sample_graph, trial),
        "graphs.graph_build_ms": _median(d("graphs.BipartiteGraph"), 1e3),
        "sim.sample_support_ms": _median(d("sim.sample_support"), 1e3),
        "sim.trial_ms": _median(trial, 1e3),
        "sim.trial_ms.tail": trial_tail,
        "sim.trial_ms.tail_pct": trial_pct if trial else 0,
        # same definition as trials_per_s in an untraced run's record
        "sim.traced_trials_per_s": _median(run.samples.get("trials_per_s", (None, []))[1]),
        "codec.encode_ms": _median(d("codec.encode"), 1e3),
        "codec.peel_decode_ms": _median(peel, 1e3),
        "codec.peel_decode_share": _share(d("codec.peel_decode", under="sim.run_plan_trials"), trial),
        "codec.decode_passes": statistics.fmean(counts["decode_passes"]) if counts.get("decode_passes") else 0.0,
        "bch.decode_failures": failures / len(peel) if peel else 0.0,
        "design.optimize_design_s": _median(d("design.optimize_design", where=cold_design.__contains__)),
        "design.lp_solves": lp_solves / len(cold_design) if cold_design else 0.0,
        "simplex.solve_ms": _median(d("simplex.simplex_solve"), 1e3),
        "gf2m.make_field_ms": _median(d("gf2m.FieldContext"), 1e3),
        "bch.build_parity_check_ms": _median(d("bch.build_parity_check", where=cold_parity.__contains__), 1e3),
        "codec.plan_to_dict_s": _median(d("codec.TestPlan.to_dict")),
        "codec.plan_from_dict_s": _median(d("codec.TestPlan.from_dict")),
        "codec.results_from_dict_ms": _median(d("codec.TestResults.from_dict"), 1e3),
        "cli.plan_json_load_s": _median(plan_load),
        "cli.plan_json_dump_s": _median(d("json.dumps", under="cli.gen")),
        "cli.startup_s": _median(counts.get("startup_s", [])),
        "cli.gen_s": _median(d("cli.gen")),
        "cli.encode_s": _median(d("cli.encode")),
        "cli.decode_s": _median(decode),
        "cli.decode_io_share": _share(decode_io, decode),
    }
    for w in (1, 2, 3):
        out[f"bch.syndrome_decode_us.w{w}"] = _median(syn[w], 1e6)
        out[f"bch.syndrome_decode_calls.w{w}"] = len(syn[w]) / len(peel) if peel else 0.0
    out["bch.decode_ok_ratio"] = 1.0 - failures / calls if calls else 0.0
    return out
