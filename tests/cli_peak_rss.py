"""Peak resident memory of each plan command, one fresh process per command.

    python tests/cli_peak_rss.py TREE [TREE ...] [--repeats R] [--seed S]

TREE is a source checkout (it holds src/qgt).  For each tree, in turn, this
runs `qgt gen`, `qgt encode` and `qgt decode` as fresh `python -m qgt.cli`
children at the sizes of the benchmark's cli-roundtrip workload (N=2^20,
K=2000, t=1, d=3, margin 1.6, a 25 MB plan file), and prints each child's
ru_maxrss, read for that child alone by os.wait4.  The benchmark's
peak_rss_mb is the maximum over every child of a run, so it cannot say which
command moved; this can.  The trees alternate their order from one repeat to
the next, and the last lines give each tree's median per command.  With two
or more trees, the plan, results and decoded files of every tree and repeat
must be byte-identical to the first tree's, or the script exits 1.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

N, K, T, D, MARGIN = 2**20, 2000, 1, 3, 1.6
COMMANDS = ("gen", "encode", "decode")
OUTPUTS = ("plan", "results", "decoded")


def run_child(tree: Path, argv: list) -> tuple[int, float]:
    """Exit code and ru_maxrss in MB of one `python -m qgt.cli` child of tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, "-m", "qgt.cli", *map(str, argv)], env=env,
                            stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def round_trip(tree: Path, work: Path, support: Path, seed: int) -> dict[str, float]:
    """Peak MB per command of one gen, encode, decode round in work."""
    path = {name: work / f"{name}.json" for name in OUTPUTS}
    argvs = {
        "gen": ["gen", "--t", T, "--d", D, "--N", N, "--K", K, "--margin", MARGIN, "--seed", seed,
                "--out", path["plan"]],
        "encode": ["encode", "--plan", path["plan"], "--support", support, "--out", path["results"]],
        "decode": ["decode", "--plan", path["plan"], "--results", path["results"], "--out", path["decoded"]],
    }
    peaks = {}
    for command in COMMANDS:
        code, peaks[command] = run_child(tree, argvs[command])
        if code not in ((0, 1) if command == "decode" else (0,)):
            sys.exit(f"error: {tree}: qgt {command} exited {code}")
    return peaks


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("trees", nargs="+", type=Path)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--seed", type=int, default=1, help="seed of the support and of qgt gen")
    args = p.parse_args(argv)
    trees = [tree.resolve() for tree in args.trees]
    for tree in trees:
        if not (tree / "src" / "qgt" / "__init__.py").is_file():
            p.error(f"{tree} has no src/qgt")

    peaks = {tree: {command: [] for command in COMMANDS} for tree in trees}
    identical = True
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        rng = np.random.default_rng(args.seed)
        support = tmp / "support.json"
        ids = (np.sort(rng.choice(N, size=K, replace=False)) + 1).tolist()
        support.write_text(f'{{"version": 1, "N": {N}, "defective": {ids}}}\n')
        reference = None
        for rep in range(args.repeats):
            for i, tree in enumerate(trees[::-1] if rep % 2 else trees):
                work = tmp / f"tree{i}"
                work.mkdir(exist_ok=True)
                for command, mb in round_trip(tree, work, support, args.seed).items():
                    peaks[tree][command].append(mb)
                    print(f"{tree}  {command:6}  repeat {rep}  {mb:8.2f} MB", flush=True)
                files = [(work / f"{name}.json").read_bytes() for name in OUTPUTS]
                if reference is None:
                    reference = files
                for name, got, want in zip(OUTPUTS, files, reference):
                    if got != want:
                        identical = False
                        print(f"{tree}: {name}.json differs from the first tree's", flush=True)

    width = max(len(str(tree)) for tree in trees)
    print(f"{'median ru_maxrss, MB':{width}}  " + "  ".join(f"{command:>8}" for command in COMMANDS))
    for tree in trees:
        print(f"{str(tree):{width}}  " + "  ".join(f"{statistics.median(peaks[tree][c]):8.2f}" for c in COMMANDS))
    if len(trees) > 1:
        print("outputs byte-identical across trees" if identical else "outputs differ")
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
