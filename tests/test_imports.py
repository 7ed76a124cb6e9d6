"""Each module loads only what it uses.

A CLI process imports the package afresh for every command, so a module that
pulls in the design LP, the simulator or multiprocessing costs every encode
and decode run its import time.  Each check runs a fresh interpreter, since
this one has long since imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")
WATCHED = ("qgt", "concurrent", "multiprocessing")


def loaded_after(statement):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    code = f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    return {m for m in json.loads(proc.stdout.splitlines()[-1]) if m.split(".")[0] in WATCHED}


SIMULATE_ONE_JOB = (
    "from qgt import cli\n"
    "cli.main(['simulate', '--t', '1', '--d', '3', '--N', '300', '--K', '8', '--trials', '2', '--seed', '3'])"
)
NO_POOL = ["concurrent.futures.process", "multiprocessing"]


@pytest.mark.parametrize(
    "statement,present,absent",
    [
        ("import qgt.codec", "qgt.codec", ["qgt.design", "qgt.sim", "qgt.simplex", *NO_POOL]),
        ("import qgt.cli", "qgt.cli", ["qgt.sim", *NO_POOL]),
        (SIMULATE_ONE_JOB, "qgt.sim", NO_POOL),
    ],
    ids=["codec", "cli", "simulate-jobs-1"],
)
def test_loads_only_what_it_runs(statement, present, absent):
    loaded = loaded_after(statement)
    assert present in loaded
    assert not loaded & set(absent)
