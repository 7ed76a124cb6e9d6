"""Smoke runs of the A/B tools under tests/ against the library as it stands,
so an API change cannot leave them broken unnoticed."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import decode_digest

TESTS = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def other_src(tmp_path_factory):
    """A copy of this tree's package, for paired_timing to load as the other tree."""
    src = tmp_path_factory.mktemp("other_src")
    shutil.copytree(TESTS.parent / "src" / "qgt", src / "qgt", ignore=shutil.ignore_patterns("__pycache__"))
    return src


@pytest.mark.parametrize("layer", ["encode", "peel_decode", "trial"])
def test_paired_timing_runs_against_a_copy(other_src, layer):
    argv = [sys.executable, str(TESTS / "paired_timing.py"), str(other_src), layer, "--point", "desk1", "--pairs", "1", "--json"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["outputs_equal"] is True


def test_decode_digest_syndrome_outcomes():
    # 300 random block sets and 300 in-range sets of each weight 1..3, each
    # decoded at every weight 0..3
    out = decode_digest._syndrome_outcomes([(3, 13)])
    assert len(out) == 4 * (300 + 3 * 300)
    assert "failure" in out and any(o != "failure" for o in out)


def test_decode_digest_lowered_count_decodes():
    # three desk points, seeds 1-3, each of measurements no support produces
    out = decode_digest._lowered_count_decodes()
    assert len(out) == 9
    assert all(o["stalled"] or o["failed_nodes"] for o in out)
