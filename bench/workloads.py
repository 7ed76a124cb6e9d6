"""The four benchmark workloads and what one run of them collects.

Each workload sets itself up (timed, several times over), then runs whole
rounds of the same operations until the run's time is used, checks every
output against the computations in checks.py, and records samples for the
metrics.  Rounds are whole so that the share of failed operations is the
same in every run.

- desk-mc: one Monte Carlo trial at each of the three operating points of
  acceptance criterion 4 (N = 2^16, K = 100).  Graph sampling dominates.
- dense-mc: one trial at N = 2^20, K = 10^4, t = 3, d = 2: about 10^4
  defectives per trial, so the peeling decoder and syndrome decoding carry
  a large share, and the sampler runs at 16 times the item count.
- design-tables: the 16 rows of ``qgt tables --t 2`` (d = 2..17), each a
  cold ``qgt design`` run in-process.  Only the design module and the
  simplex solver do work.
- cli-roundtrip: fresh ``qgt gen``, ``encode`` and ``decode`` processes at
  N = 2^20, K = 2000 (a 25 MB plan file), then a decode of measurements no
  support can produce, which must exit 1.

Timing.  The machines this runs on are shared, and their speed drifts by
tens of percent over a minute.  Every timed operation therefore sits between
two runs of a fixed probe (probe()), and its time is reported at the
reference speed: wall time times speed(), the ratio of the probe parts'
reference times to their mean measured times.  Wall times are kept beside
the scaled ones in the run record.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
from qgt import cli, codec, design, gf2m, sim

# the cached originals, kept before any tracing patch replaces them
OPTIMIZE_DESIGN = design.optimize_design
MAKE_FIELD = gf2m.make_field

SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 120
# Each probe part's wall time at the reference speed: its tenth percentile
# over 400 probes on the 2-core machine the README figures come from.
PROBE_REF_S = {"loop": 0.0029, "small": 0.0028, "large": 0.0024}

DESK = dict(N=2**16, K=100, points=[(1, 3, 1.6), (2, 3, 1.8), (3, 2, 1.5)])
DENSE = dict(N=2**20, K=10**4, points=[(3, 2, 1.5)])
TABLES_T = 2
TABLES_D = range(2, 18)
# plan size each design row implies, summed into tests_m
TABLES_PLAN = dict(N=2**16, K=100, margin=1.0)
CLI = dict(N=2**20, K=2000, t=1, d=3, margin=1.6)

_PROBE_SMALL = np.arange(64, dtype=np.float64)
_PROBE_LARGE = np.arange(4096, dtype=np.float64)


def probe() -> dict[str, float]:
    """Wall time of each part of a fixed probe of the three kinds of work the
    program does: an interpreted loop, numpy calls on small arrays (call
    overhead, as in the simplex pivots) and on larger ones (streaming, as in
    the sampler)."""
    out = {}
    start = perf_counter()
    acc = 0
    for k in range(45_000):
        acc += k * k % 7
    out["loop"] = perf_counter() - start
    for part, data, reps in (("small", _PROBE_SMALL, 2000), ("large", _PROBE_LARGE, 250)):
        start = perf_counter()
        x = data
        for _ in range(reps):
            x = np.sqrt(x * x + 1.0)
        out[part] = perf_counter() - start
    return out


def speed(before: dict, after: dict, parts) -> float:
    """How much faster than the reference the machine ran between two probes,
    judged by the probe parts that resemble the workload."""
    return sum(PROBE_REF_S[p] for p in parts) / sum((before[p] + after[p]) / 2 for p in parts)


def clear_caches():
    OPTIMIZE_DESIGN.cache_clear()
    MAKE_FIELD.cache_clear()


def derive(*key: int) -> int:
    """A 32-bit seed determined by the key."""
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


class Run:
    """One benchmark run: operations attempted and failed, check failures,
    metric samples and, when traced, the tracer."""

    def __init__(self, root: Path, work: Path, seed: int, seconds: float, import_s: float,
                 probe_parts, tracer=None):
        self.root = root
        self.work = work
        self.seed = seed
        self.seconds = seconds
        self.import_s = import_s  # at the reference speed
        self.probe_parts = probe_parts
        self.tracer = tracer
        self.ops: dict[str, list[int]] = {}  # kind -> [attempted, failed]
        self.problems: list[str] = []  # check failures that make the run incorrect
        self.samples: dict[str, tuple[str, list[float]]] = {}
        self.counts: dict[str, list[float]] = defaultdict(list)

    def sample(self, name: str, unit: str, value: float):
        self.samples.setdefault(name, (unit, []))[1].append(value)

    def op(self, kind: str, problems: list[str], known_fault: bool = False):
        """Count one operation; it failed if any check on it failed.  A
        failure of a known fault is counted but leaves the run correct."""
        tally = self.ops.setdefault(kind, [0, 0])
        tally[0] += 1
        if problems:
            tally[1] += 1
            if not known_fault:
                self.problems.extend(f"{kind}: {p}" for p in problems[:3])

    def timed(self, fn, span: str):
        """fn() in a span, between two probes: (result, wall seconds, seconds
        at the reference speed)."""
        before = probe()
        with self.tracer.span(span) if self.tracer else contextlib.nullcontext():
            start = perf_counter()
            out = fn()
            wall = perf_counter() - start
        return out, wall, wall * speed(before, probe(), self.probe_parts)

    def setup(self, build):
        """Time build() SETUP_REPEATS times from cold; setup_s adds the import
        time of numpy and qgt, paid once per process."""
        state = None
        for _ in range(SETUP_REPEATS):
            state, _, scaled = self.timed(build, "workload.setup")
            self.sample("setup_s", "s", self.import_s + scaled)
        return state

    def rounds(self, do_round):
        """Whole rounds until the run's time is used, at least one."""
        start = perf_counter()
        j = 0
        while True:
            do_round(j)
            j += 1
            if perf_counter() - start >= self.seconds:
                break
        self.sample("peak_rss_mb", "MB", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    def cli_main(self, name: str, argv: list) -> tuple[int, str, float, float]:
        """Exit code, stderr, wall and scaled seconds of one qgt command run
        in-process."""
        err = io.StringIO()

        def call():
            try:
                return cli.main([str(a) for a in argv])
            except Exception:
                traceback.print_exc()
                return 1

        with contextlib.redirect_stderr(err):
            code, wall, scaled = self.timed(call, f"cli.{name}")
        return code, err.getvalue(), wall, scaled

    def cli_process(self, argv: list) -> tuple[int, str, float, float]:
        """Exit code, stderr, wall and scaled seconds of one fresh qgt process."""

        def call():
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "qgt.cli", *map(str, argv)],
                    cwd=self.root, env=self.child_env(), capture_output=True, text=True,
                    timeout=CHILD_TIMEOUT_S,
                )
            except subprocess.TimeoutExpired:
                return -1, f"timed out after {CHILD_TIMEOUT_S} s"
            return proc.returncode, proc.stderr

        (code, err), wall, scaled = self.timed(call, f"cli.{argv[0]}")
        return code, err, wall, scaled

    def child_env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(self.root / "src"), env.get("PYTHONPATH")]))
        return env


# -- Monte Carlo -------------------------------------------------------------


def monte_carlo(run: Run, N: int, K: int, points):
    def build():
        clear_caches()
        state = []
        for t, d, margin in points:
            res = design.optimize_design(t, d)
            plan = design.make_plan(N, K, res, margin=margin)
            codec.build_signature(t, plan.r)  # field and parity tables
            state.append((t, d, res.profile, plan.M, plan.r))
        return state

    state = run.setup(build)
    # per operating point: trials, defectives, unidentified, trials short of full recovery
    tally = [[0, 0, 0, 0] for _ in points]

    def do_round(j):
        wall_total = scaled_total = 0.0
        for k, (t, d, profile, M, r) in enumerate(state):
            if run.tracer:
                run.tracer.last.clear()
            try:
                rep, wall, scaled = run.timed(
                    lambda: sim.run_plan_trials(N, K, t, profile, M, r, 1, derive(run.seed, k, j)),
                    "sim.run_plan_trials",
                )
            except Exception as exc:
                run.op("trial", [f"raised {exc!r}"])
                continue
            wall_total += wall
            scaled_total += scaled
            problems = []
            if rep.false_positives:
                problems.append(f"{rep.false_positives} false positives")
            if rep.m != M * checks.tests_per_pool(t, r):
                problems.append(f"report has m={rep.m}")
            if run.tracer:
                problems += traced_trial_problems(run, N, d, M, r, rep)
            run.op("trial", problems)
            row = tally[k]
            row[0] += 1
            row[1] += rep.total_defectives
            row[2] += rep.unidentified
            row[3] += rep.full_recovery < 1.0
        if wall_total:
            run.sample("round_s", "s", scaled_total)
            run.sample("round_wall_s", "s", wall_total)
            run.sample("trials_per_s", "trials/s", len(state) / scaled_total)

    run.rounds(do_round)
    for (t, d, margin), (trials, defectives, unidentified, partial) in zip(points, tally):
        run.problems += checks.mc_report_problems(
            f"t={t} d={d} margin={margin}", N, K, trials, defectives, unidentified, partial
        )
    run.sample("tests_m", "tests", sum(M * checks.tests_per_pool(t, r) for t, _, _, M, r in state))


def traced_trial_problems(run: Run, N: int, d: int, M: int, r: int, rep) -> list[str]:
    """Recount the trial the tracer saw: graph invariants, every pool's count
    row, and the decoder's claims against the support."""
    last = run.tracer.last
    try:
        graph = last["graphs.sample_graph"]
        support = last["sim.sample_support"]
        results = last["codec.encode"]
        out = last["codec.peel_decode"]
    except KeyError as exc:
        return [f"traced call {exc} not seen"]
    adj = graph.right_adj
    problems = checks.graph_problems(adj, N, M, r, d)
    if not np.array_equal(checks.pool_counts(adj, support.items), results.blocks[:, 0]):
        problems.append("count row differs from the recount")
    problems += checks.recovery_problems(
        out.identified.tolist(), support.items.tolist(), out.stalled, out.failed_nodes
    )
    if rep.total_defectives != support.items.size:
        problems.append("report total differs from the support")
    run.counts["decode_passes"].append(out.iterations)
    return problems


def desk_mc(run: Run):
    monte_carlo(run, **DESK)


def dense_mc(run: Run):
    monte_carlo(run, **DENSE)


# -- design tables -------------------------------------------------------------


def design_tables(run: Run):
    run.setup(clear_caches)  # nothing but the imports precedes the first row
    out = run.work / "design.json"
    rows = []  # (d, exit code, stderr, printed design, cached DesignResult)

    def do_round(j):
        wall_total = scaled_total = 0.0
        for d in TABLES_D:
            clear_caches()
            code, err, wall, scaled = run.cli_main("design", ["design", "--t", TABLES_T, "--d", d, "--out", out])
            wall_total += wall
            scaled_total += scaled
            printed = json.loads(out.read_text()) if code == 0 else None
            rows.append((d, code, err, printed, OPTIMIZE_DESIGN(TABLES_T, d) if code == 0 else None))
        run.sample("round_s", "s", scaled_total)
        run.sample("round_wall_s", "s", wall_total)

    run.rounds(do_round)
    plans = {}
    for d, code, err, printed, res in rows:
        if code != 0:
            run.op("design-row", [f"d={d}: qgt design exited {code}: {err.strip()[-200:]}"])
            continue
        try:
            problems = checks.design_row_problems(
                TABLES_T, d, printed["c"], printed["avg_left_degree"], printed["psi"], printed["lambda"]
            )
        except (KeyError, TypeError, ValueError) as exc:
            problems = [f"d={d}: unreadable design output: {exc!r}"]
        if res.nodes_per_defective != printed.get("c"):
            problems.append(f"d={d}: printed c differs from the design result")
        run.op("design-row", problems)
        plans[d] = design.make_plan(TABLES_PLAN["N"], TABLES_PLAN["K"], res, margin=TABLES_PLAN["margin"])
    run.sample("tests_m", "tests", sum(p.M * checks.tests_per_pool(TABLES_T, p.r) for p in plans.values()))


# -- CLI round trip --------------------------------------------------------------


def cli_roundtrip(run: Run):
    N, K, t, d, margin = (CLI[k] for k in ("N", "K", "t", "d", "margin"))
    path = {name: run.work / f"{name}.json" for name in
            ("plan", "support", "results", "decoded", "impossible", "impossible-decoded")}

    def build():
        clear_caches()
        plan = design.make_plan(N, K, design.optimize_design(t, d), margin=margin)
        rng = np.random.default_rng(derive(run.seed, 0))
        truth = np.sort(rng.choice(N, size=K, replace=False))
        path["support"].write_text(json.dumps({"version": 1, "N": N, "defective": (truth + 1).tolist()}))
        return plan.M, plan.r, truth

    M, r, truth = run.setup(build)
    s = checks.tests_per_pool(t, r)
    if run.tracer:
        run.counts["startup_s"] = [startup_s(run) for _ in range(3)]

    def command(kind, argv):
        # fresh processes when timing; in-process, where spans reach, when tracing
        if run.tracer:
            code, err, wall, scaled = run.cli_main(kind, argv)
        else:
            code, err, wall, scaled = run.cli_process(argv)
        name = kind.replace("-", "_")
        run.sample(f"cli_{name}_s", "s", scaled)
        run.sample(f"cli_{name}_wall_s", "s", wall)
        return code, err, scaled

    def do_round(j):
        total = 0.0
        code, err, secs = command("gen", [
            "gen", "--t", t, "--d", d, "--N", N, "--K", K, "--margin", margin,
            "--seed", derive(run.seed, 1, j), "--out", path["plan"],
        ])
        total += secs
        adj = None
        if code != 0:
            run.op("gen", [f"exit {code}: {err.strip()[-200:]}"])
        else:
            adj, problems = read_plan(path["plan"], N, M, r, t, d)
            run.op("gen", problems)
        code, err, secs = command("encode", [
            "encode", "--plan", path["plan"], "--support", path["support"], "--out", path["results"],
        ])
        total += secs
        values = None
        if code != 0 or adj is None:
            run.op("encode", [f"exit {code}: {err.strip()[-200:]}" if code else "no valid plan to check against"])
        else:
            values = np.asarray(json.loads(path["results"].read_text())["values"], dtype=np.int64)
            problems = []
            if values.shape != (M * s,):
                problems.append(f"{values.size} measurements, expected {M * s}")
            elif not np.array_equal(values.reshape(M, s)[:, 0], checks.pool_counts(adj, truth)):
                problems.append("count row differs from the recount")
            run.op("encode", problems)
        code, err, secs = command("decode", [
            "decode", "--plan", path["plan"], "--results", path["results"], "--out", path["decoded"],
        ])
        total += secs
        run.op("decode", decode_problems(code, err, path["decoded"], truth))
        run.sample("round_s", "s", total)

        # Every entry of a pool's parity rows is at most its defective count;
        # raising the first one above it, by an even amount so its parity is
        # unchanged, gives measurements no support can produce.
        problems = ["no valid measurements to alter"]
        if values is not None and values.shape == (M * s,):
            blocks = values.reshape(M, s).copy()
            blocks[:, 1] += 2 * (blocks[:, 0] // 2 + 1)
            path["impossible"].write_text(json.dumps({"version": 1, "values": blocks.ravel().tolist()}))
            code, err, _ = command("decode-impossible", [
                "decode", "--plan", path["plan"], "--results", path["impossible"],
                "--out", path["impossible-decoded"],
            ])
            problems = []
            if code != 1 or "Traceback" in err:
                problems.append(f"exit {code} on measurements no support can produce, expected 1")
        run.op("decode-impossible", problems, known_fault=True)

    run.rounds(do_round)
    if run.tracer is None:
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        run.samples["peak_rss_mb"] = ("MB", [peak])
    run.sample("tests_m", "tests", M * s)


def read_plan(plan_path: Path, N: int, M: int, r: int, t: int, d: int):
    """The plan's adjacency if the file is a valid plan of the expected sizes."""
    try:
        data = json.loads(plan_path.read_text())
        adj = np.asarray(data["right_adj"], dtype=np.int64)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return None, [f"unreadable plan: {exc}"]
    problems = []
    for key, want in (("N", N), ("M", M), ("r", r), ("t", t), ("q", checks.field_degree(r))):
        if data.get(key) != want:
            problems.append(f"plan {key}={data.get(key)}, expected {want}")
    problems += checks.graph_problems(adj, N, M, r, d)
    return (None if problems else adj), problems


def decode_problems(code: int, err: str, decoded: Path, truth: np.ndarray) -> list[str]:
    """Exit 0 with the exact support, or exit 1 with a stall and no false positive."""
    if code not in (0, 1) or "Traceback" in err:
        return [f"exit {code}: {err.strip()[-200:]}"]
    try:
        out = json.loads(decoded.read_text())
        found = [v - 1 for v in out["identified"]]
        stalled = bool(out["stalled"])
        failed_nodes = out["failed_nodes"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable decode output: {exc}"]
    problems = checks.recovery_problems(found, truth.tolist(), stalled, failed_nodes)
    if code == 0 and set(found) != set(truth.tolist()):
        problems.append("exit 0 without full recovery")
    if code == 1 and not stalled:
        problems.append("exit 1 without a reported stall")
    return problems


def startup_s(run: Run) -> float:
    """Wall time of a fresh interpreter that imports qgt.cli and exits."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import qgt.cli"], cwd=run.root, env=run.child_env(),
                   check=True, timeout=CHILD_TIMEOUT_S)
    return perf_counter() - start


# workload -> (function, the probe parts its speed is judged by).  A design
# row is mostly numpy calls on small arrays; a trial and a CLI command mostly
# interpreted code and large arrays.
WORKLOADS = {
    "desk-mc": (desk_mc, ("loop", "large")),
    "dense-mc": (dense_mc, ("loop", "large")),
    "design-tables": (design_tables, ("loop", "small")),
    "cli-roundtrip": (cli_roundtrip, ("loop", "large")),
}
