import json
import logging
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qgt
from qgt import cli, codec, graphs
from qgt.graphs import BipartiteGraph, profile_from_lambda

EXAMPLE_ADJ = [
    [1, 3, 4, 8, 9, 12, 13],
    [2, 3, 6, 7, 9, 11, 12],
    [0, 3, 5, 7, 9, 10, 12],
]


def example_plan():
    graph = BipartiteGraph(N=14, M=3, r=7, right_adj=np.array(EXAMPLE_ADJ))
    return codec.TestPlan(graph, 1)


def write(path, obj):
    path.write_text(json.dumps(obj) + "\n")
    return str(path)


def test_gen_encode_decode_round_trip(tmp_path, capsys):
    plan_file = str(tmp_path / "plan.json")
    rc = cli.main(
        ["gen", "--t", "1", "--d", "3", "--N", "300", "--K", "8",
         "--margin", "1.6", "--seed", "77", "--out", plan_file]
    )
    assert rc == 0
    support_file = write(tmp_path / "support.json", {"version": 1, "N": 300, "defective": [5, 17, 100]})
    results_file = str(tmp_path / "results.json")
    assert cli.main(["encode", "--plan", plan_file, "--support", support_file,
                     "--out", results_file]) == 0
    out_file = str(tmp_path / "out.json")
    assert cli.main(["decode", "--plan", plan_file, "--results", results_file,
                     "--out", out_file]) == 0
    outcome = json.loads(open(out_file).read())
    assert sorted(outcome["identified"]) == [5, 17, 100]
    assert outcome["stalled"] is False


def test_gen_deterministic_per_seed(tmp_path):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    argv = ["gen", "--t", "2", "--d", "2", "--N", "200", "--K", "6", "--seed", "5", "--out"]
    assert cli.main(argv + [a]) == 0
    assert cli.main(argv + [b]) == 0
    assert open(a).read() == open(b).read()


def test_only_decode_builds_the_incidence(tmp_path, csr_builds):
    # gen writes the pool lists and encode gathers the support's slots from
    # them; decode reads a plan with no recorded slots and builds it once
    plan_file = str(tmp_path / "plan.json")
    assert cli.main(["gen", "--t", "1", "--d", "3", "--N", "300", "--K", "8",
                     "--margin", "1.6", "--seed", "77", "--out", plan_file]) == 0
    support_file = write(tmp_path / "support.json", {"version": 1, "N": 300, "defective": [5, 17, 100]})
    results_file = str(tmp_path / "results.json")
    assert cli.main(["encode", "--plan", plan_file, "--support", support_file,
                     "--out", results_file]) == 0
    assert csr_builds == []
    out_file = str(tmp_path / "out.json")
    assert cli.main(["decode", "--plan", plan_file, "--results", results_file, "--out", out_file]) == 0
    assert json.loads(open(out_file).read())["identified"] == [5, 17, 100]
    assert len(csr_builds) == 1


def test_gen_without_seed_announces_choice(tmp_path, capsys):
    rc = cli.main(["gen", "--t", "1", "--d", "3", "--N", "300", "--K", "8",
                   "--out", str(tmp_path / "p.json")])
    assert rc == 0
    assert "seed: " in capsys.readouterr().err


def test_worked_example_via_cli(tmp_path):
    plan = example_plan()
    plan_file = write(tmp_path / "plan.json", plan.to_dict())
    support_file = write(tmp_path / "support.json", {"version": 1, "N": 14, "defective": [4, 8, 11]})
    results_file = str(tmp_path / "results.json")
    assert cli.main(["encode", "--plan", plan_file, "--support", support_file,
                     "--out", results_file]) == 0
    out_file = str(tmp_path / "out.json")
    assert cli.main(["decode", "--plan", plan_file, "--results", results_file,
                     "--out", out_file]) == 0
    outcome = json.loads(open(out_file).read())
    assert sorted(outcome["identified"]) == [4, 8, 11]
    assert outcome["iterations"] == 3


def test_decode_reports_stall_with_exit_1(tmp_path):
    graph = BipartiteGraph(N=4, M=2, r=3, right_adj=np.array([[0, 1, 2], [1, 2, 3]]))
    plan = codec.TestPlan(graph, 1)
    results = codec.encode(plan, codec.SupportVector(N=4, items=np.array([1, 2])))
    plan_file = write(tmp_path / "plan.json", plan.to_dict())
    results_file = write(tmp_path / "results.json", results.to_dict())
    out_file = str(tmp_path / "out.json")
    rc = cli.main(["decode", "--plan", plan_file, "--results", results_file, "--out", out_file])
    assert rc == 1
    assert json.loads(open(out_file).read())["stalled"] is True


def test_decode_iteration_cap(tmp_path):
    plan = example_plan()
    results = codec.encode(plan, codec.SupportVector(N=14, items=np.array([3, 7, 10])))
    plan_file = write(tmp_path / "plan.json", plan.to_dict())
    results_file = write(tmp_path / "results.json", results.to_dict())
    out_file = str(tmp_path / "out.json")
    rc = cli.main(["decode", "--plan", plan_file, "--results", results_file,
                   "--max-iterations", "1", "--out", out_file])
    assert rc == 1
    assert json.loads(open(out_file).read())["identified"] == [4]


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["design", "--t", "9", "--d", "3"])
    assert exc.value.code == 2


def test_infeasible_design_exits_2(capsys):
    assert cli.main(["design", "--t", "1", "--d", "2"]) == 2
    assert "error" in capsys.readouterr().err


def test_out_of_regime_plan_exits_2(capsys):
    assert cli.main(["plan", "--t", "1", "--d", "3", "--N", "10", "--K", "9"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["plan", "--t", "1", "--d", "3", "--N", "1000", "--K", "0"],
        ["plan", "--t", "1", "--d", "3", "--N", "1000", "--K", "10", "--margin", "0.5"],
        ["design", "--t", "2", "--d", "40"],
        ["compare", "--N", "1000", "--K-list", "1,5000"],
        ["simulate", "--t", "1", "--d", "3", "--N", "300", "--K", "8", "--trials", "0"],
        ["gen", "--t", "1", "--d", "3", "--N", "300", "--K", "8", "--M", "0", "--r", "5"],
        ["gen", "--t", "1", "--d", "3", "--N", "300", "--K", "8", "--M", "7"],
        ["gen", "--t", "1", "--d", "3", "--N", "300", "--K", "8", "--r", "5"],
        ["gen", "--t", "1", "--d", "3", "--N", "300", "--K", "8", "--M", "7", "--r", "5", "--seed", "1"],
        ["gen", "--t", "1", "--d", "5", "--N", "20", "--K", "2", "--M", "4", "--r", "18", "--seed", "1"],
        ["simulate", "--t", "1", "--d", "3", "--N", "300", "--K", "8", "--m", "1x"],
        ["simulate", "--t", "1", "--d", "3", "--N", "300", "--K", "8", "--m", "150,0"],
        ["decode", "--plan", "plan.json", "--results", "results.json", "--max-iterations", "0"],
        ["decode", "--plan", "plan.json", "--results", "results.json", "--max-iterations", "-3"],
        ["simulate", "--t", "1", "--d", "3", "--N", "300", "--K", "8", "--trials", "2", "--seed", "-3"],
        ["gen", "--t", "1", "--d", "3", "--N", "300", "--K", "8", "--M", "10", "--r", "90", "--seed", "-1"],
        ["simulate", "--t", "1", "--d", "32", "--N", "300", "--K", "8", "--m", "100", "--trials", "2", "--seed", "1"],
        ["plan", "--t", "1", "--d", "3", "--N", "1099511627776", "--K", "100"],
        ["compare", "--N", "1000", "--K-list", "1x"],
    ],
)
def test_bad_parameters_exit_2_with_one_line(argv, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_gen_gives_up_before_swap_passes_that_cannot_succeed(monkeypatch, capsys):
    # every attempt at seed 1 repairs some degree to 32, above M = 30, so no
    # swap can remove its repeats; the sampler skips the passes and gives up
    # with the line it gave after running them
    monkeypatch.setattr(graphs, "_try_assemble", lambda *args: pytest.fail("swap passes reached"))
    argv = ["gen", "--t", "1", "--d", "32", "--N", "300", "--K", "8", "--M", "30", "--r", "290", "--seed", "1"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: --M 30 --r 290: could not remove multi-edges; graph too dense for r distinct neighbors\n"
    )


def test_negative_seed_is_named_in_the_error(capsys):
    argv = ["gen", "--t", "1", "--d", "3", "--N", "300", "--K", "8", "--M", "10", "--r", "90", "--seed", "-1"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: --seed -1 must be a non-negative integer\n"


def test_plan_file_with_bad_t_exits_1(tmp_path, capsys):
    plan_file = write(tmp_path / "plan.json", dict(example_plan().to_dict(), t=9))
    support_file = write(tmp_path / "support.json", {"version": 1, "N": 14, "defective": [4]})
    assert cli.main(["encode", "--plan", plan_file, "--support", support_file]) == 1
    assert capsys.readouterr().err.startswith("error: bad plan parameters")


def test_missing_file_exits_1(tmp_path, capsys):
    rc = cli.main(["decode", "--plan", str(tmp_path / "nope.json"),
                   "--results", str(tmp_path / "nope2.json")])
    assert rc == 1
    assert "cannot read" in capsys.readouterr().err


def test_truncated_json_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"version": 1, "N": 14')
    assert cli.main(["encode", "--plan", str(bad), "--support", str(bad)]) == 1


@pytest.mark.parametrize(
    "content",
    [b'{"version": 1, "N": \xff}', b"[" * 100_000 + b"]" * 100_000],
    ids=["non-utf8", "deeply-nested"],
)
def test_unreadable_plan_file_exits_1_with_one_line(tmp_path, capsys, content):
    bad = tmp_path / "plan.json"
    bad.write_bytes(content)
    support_file = write(tmp_path / "support.json", {"version": 1, "N": 14, "defective": [4]})
    assert cli.main(["encode", "--plan", str(bad), "--support", support_file]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot read ") and captured.err.count("\n") == 1


def test_unwritable_out_exits_1_with_one_line(tmp_path, capsys):
    out = str(tmp_path / "missing-dir" / "x.json")
    assert cli.main(["design", "--t", "1", "--d", "3", "--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out}: ") and captured.err.count("\n") == 1


def test_unknown_version_exits_1(tmp_path, capsys):
    plan = example_plan().to_dict()
    plan["version"] = 99
    plan_file = write(tmp_path / "plan.json", plan)
    support_file = write(tmp_path / "support.json", {"version": 1, "N": 14, "defective": [4]})
    assert cli.main(["encode", "--plan", plan_file, "--support", support_file]) == 1


@pytest.mark.parametrize(
    "plan_change,support",
    [
        ({}, {"version": 1, "N": 14, "defective": [True, 3.7, "5", 5]}),
        ({}, {"version": 1, "N": 14, "defective": [5, 5]}),
        ({"N": "14"}, {"version": 1, "N": 14, "defective": [4]}),
        ({"t": 1.9}, {"version": 1, "N": 14, "defective": [4]}),
        ({"right_adj": [[v + 0.5 for v in row] for row in EXAMPLE_ADJ]}, {"version": 1, "N": 14, "defective": [4]}),
    ],
)
def test_encode_rejects_coercible_values_with_one_line(tmp_path, capsys, plan_change, support):
    plan_file = write(tmp_path / "plan.json", dict(example_plan().to_dict(), **plan_change))
    support_file = write(tmp_path / "support.json", support)
    assert cli.main(["encode", "--plan", plan_file, "--support", support_file]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("bad", [1.0, True, "1"])
def test_decode_rejects_non_integer_results_with_one_line(tmp_path, capsys, bad):
    plan_file = write(tmp_path / "plan.json", example_plan().to_dict())
    results_file = write(tmp_path / "results.json", {"version": 1, "values": [0] * 11 + [bad]})
    assert cli.main(["decode", "--plan", plan_file, "--results", results_file]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_encode_dimension_mismatch_exits_1(tmp_path, capsys):
    plan_file = write(tmp_path / "plan.json", example_plan().to_dict())
    support_file = write(tmp_path / "support.json", {"version": 1, "N": 20, "defective": [4]})
    assert cli.main(["encode", "--plan", plan_file, "--support", support_file]) == 1
    assert capsys.readouterr().err == "error: support is over N=20, plan over N=14\n"


def test_design_command_output(tmp_path):
    out = str(tmp_path / "design.json")
    assert cli.main(["design", "--t", "1", "--d", "3", "--out", out]) == 0
    data = json.loads(open(out).read())
    assert data["c"] == pytest.approx(1.222, abs=0.01)
    assert len(data["lambda"]) == 3
    assert data["psi"] == pytest.approx(2.455, abs=0.02)


def test_tables_t1_layout(tmp_path):
    out = str(tmp_path / "t1.csv")
    assert cli.main(["tables", "--t", "1", "--out", out]) == 0
    lines = open(out).read().strip().split("\n")
    assert lines[0].startswith("t,d,c,ell,lambda_2")
    assert len(lines) == 1 + 17  # d = 2..18
    first = lines[1].split(",")
    assert first[1] == "2" and first[2] == "infeasible"
    cs = [float(row.split(",")[2]) for row in lines[2:]]
    assert all(a >= b - 1e-9 for a, b in zip(cs, cs[1:]))


def test_compare_orders_schemes(tmp_path):
    out = str(tmp_path / "cmp.csv")
    assert cli.main(["compare", "--N", "4294967296", "--K-list", "1024,4096", "--out", out]) == 0
    lines = open(out).read().strip().split("\n")
    assert lines[0] == "K,m_t1,m_t2,m_t3,m_regular,m_greedy"
    for row in lines[1:]:
        K, m1, m2, m3, reg, greedy = (float(v) for v in row.split(","))
        assert m2 < reg and m2 < greedy


def test_simulate_smoke(tmp_path):
    out = str(tmp_path / "sim.csv")
    rc = cli.main(["simulate", "--t", "1", "--d", "3", "--N", "300", "--K", "8",
                   "--trials", "5", "--margin", "1.6", "--seed", "3", "--out", out])
    assert rc == 0
    lines = open(out).read().strip().split("\n")
    assert lines[0] == "m,error_prob,ci_lo,ci_hi,full_recovery,trials"
    assert len(lines) == 2
    assert lines[1].split(",")[-1] == "5"


def test_simulate_sweep_rows(tmp_path):
    out = str(tmp_path / "sweep.csv")
    rc = cli.main(["simulate", "--t", "1", "--d", "3", "--N", "300", "--K", "8",
                   "--trials", "4", "--m", "150,300", "--seed", "3", "--out", out])
    assert rc == 0
    lines = open(out).read().strip().split("\n")
    assert len(lines) == 3


def test_simulate_skips_a_budget_beyond_the_largest_field(tmp_path, caplog):
    # m=500 at N=2^30 asks for pools of about 2^27 items, which need GF(2^28)
    out = str(tmp_path / "sweep.csv")
    with caplog.at_level(logging.WARNING, logger="qgt.sim"):
        rc = cli.main(["simulate", "--t", "1", "--d", "3", "--N", "1073741824", "--K", "100",
                       "--m", "500", "--trials", "1", "--seed", "1", "--out", out])
    assert rc == 0
    assert [r.getMessage() for r in caplog.records] == [
        "budget m=500 not realizable at N=1073741824, t=1; skipped"
    ]
    assert open(out).read() == "m,error_prob,ci_lo,ci_hi,full_recovery,trials\n"


def _command_argvs(tmp_path):
    plan_file = write(tmp_path / "plan.json", example_plan().to_dict())
    support_file = write(tmp_path / "support.json", {"version": 1, "N": 14, "defective": [4, 8, 11]})
    results_file = write(
        tmp_path / "results.json",
        codec.encode(example_plan(), codec.SupportVector(N=14, items=np.array([3, 7, 10]))).to_dict(),
    )
    small = ["--t", "1", "--d", "3", "--N", "300", "--K", "8", "--margin", "1.6"]
    return {
        "design": ["design", "--t", "1", "--d", "3"],
        "plan": ["plan", *small],
        "gen": ["gen", *small, "--seed", "7"],
        "encode": ["encode", "--plan", plan_file, "--support", support_file],
        "decode": ["decode", "--plan", plan_file, "--results", results_file],
        "tables": ["tables", "--t", "3"],
        "compare": ["compare", "--N", "65536", "--K-list", "16,64"],
        "simulate": ["simulate", *small, "--trials", "2", "--seed", "3"],
    }


@pytest.mark.parametrize("command", ["design", "plan", "gen", "encode", "decode", "tables", "compare", "simulate"])
def test_out_file_equals_stdout(command, tmp_path, capsys):
    argv = _command_argvs(tmp_path)[command]
    assert cli.main(argv) == 0
    printed = capsys.readouterr().out.encode()
    out_file = tmp_path / "out.txt"
    assert cli.main(argv + ["--out", str(out_file)]) == 0
    assert capsys.readouterr().out == ""
    assert out_file.read_bytes() == printed
    assert printed.endswith(b"\n") and not printed.endswith(b"\n\n")


def test_plan_commands_traced_peak_per_adjacency_entry(tmp_path):
    # tracemalloc's peak over each command, per entry of the M x r adjacency
    # (M*r = 196588 here): gen never builds the incidence and drops its graph
    # before the JSON text is built, encode and decode build the incidence
    # only after the parsed plan is freed, and the sort keys are built without
    # an arange of M*r entries; with an eager incidence and a graph kept
    # through the JSON dump, the three read 82.6, 60.7 and 61.0 bytes
    files = {name: str(tmp_path / f"{name}.json") for name in ("plan", "results", "decoded")}
    support = write(tmp_path / "support.json", {"version": 1, "N": 2**16, "defective": list(range(1, 65536, 656))})
    argvs = {
        "gen": ["gen", "--t", "1", "--d", "3", "--N", str(2**16), "--K", "100", "--margin", "1.6",
                "--seed", "1", "--out", files["plan"]],
        "encode": ["encode", "--plan", files["plan"], "--support", support, "--out", files["results"]],
        "decode": ["decode", "--plan", files["plan"], "--results", files["results"], "--out", files["decoded"]],
    }
    for argv in argvs.values():  # fill the design, field and signature caches first
        assert cli.main(argv) == 0
    plan = json.loads(open(files["plan"]).read())
    entries = plan["M"] * plan["r"]
    assert entries == 196588
    bounds = {"gen": 72, "encode": 54, "decode": 54}
    tracemalloc.start()
    try:
        for name, argv in argvs.items():
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            assert cli.main(argv) == 0
            per_entry = (tracemalloc.get_traced_memory()[1] - base) / entries
            assert per_entry <= bounds[name], f"{name}: {per_entry:.1f} bytes per adjacency entry"
    finally:
        tracemalloc.stop()


def test_console_invocation():
    # the child imports qgt from the same src/ tree as this process
    src = str(Path(qgt.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "qgt.cli", "design", "--t", "2", "--d", "2"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["t"] == 2
