#!/usr/bin/env python3
"""qgt benchmark: one workload, one run.

    python3 bench/run.py --workload desk-mc --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory and CLI commands run as ``python -m qgt.cli`` against the
same tree.  ``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` puts spans around calls into every qgt module and reports the
per-layer metrics instead.  The metric names and units are the ones listed in
BENCHMARK.json.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a fuller record (medians,
quartiles and sample counts, versions, operations by kind, self time per
layer) goes to ``.qgtbench/runs/``, and the spans of a traced run beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".qgtbench"
WORKLOAD_NAMES = ("desk-mc", "dense-mc", "design-tables", "cli-roundtrip")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1, help="workload seed, a non-negative integer")
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def summary(values: list[float]) -> dict:
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    src = ROOT / "src"
    if not (src / "qgt" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} lacks the qgt sources (src/qgt) or BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(src))

    start = perf_counter()
    import numpy
    import qgt.cli  # noqa: F401

    import_s = perf_counter() - start

    import layers
    from spans import Tracer
    from workloads import WORKLOADS, Run, probe, speed

    workload, probe_parts = WORKLOADS[args.workload]
    import_s *= speed(probe(), probe(), probe_parts)

    work = OUT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.trace:
        tracer = Tracer()
        layers.install(tracer)
    run = Run(ROOT, work, args.seed, args.seconds, import_s, probe_parts, tracer)
    try:
        workload(run)
    finally:
        if tracer:
            tracer.restore()
        shutil.rmtree(work, ignore_errors=True)

    if tracer:
        missing = layers.missing_calls(tracer, args.workload)
        if missing:
            print("error: a traced layer recorded no calls: " + "; ".join(missing), file=sys.stderr)
            return 3
        values = layers.metrics(run)
        listed = spec["per_layer"]
    else:
        values = {name: statistics.median(v) for name, (_, v) in run.samples.items()}
        listed = spec["end_to_end"]

    attempted = sum(a for a, _ in run.ops.values())
    failed = sum(f for _, f in run.ops.values())
    result = {
        "correct": not run.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }

    runs = OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "operations": {args.workload: {"attempted": attempted, "failed": failed},
                       **{kind: {"attempted": a, "failed": f} for kind, (a, f) in run.ops.items()}},
        "correct": result["correct"],
        "problems": run.problems,
        "samples": {name: {"unit": unit, **summary(v)} for name, (unit, v) in run.samples.items()},
        "metrics": result["metrics"],
    }
    if tracer:
        record["layer_self_s"] = tracer.layer_self_times()
        record["span_self_s"] = tracer.self_times()
        tracer.write(runs / f"{stem}-spans.json")
    (runs / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
