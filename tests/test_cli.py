"""Smoke tests of the command-line entry points: ``python -m hybridris.cli``
and the demo scripts, each run in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(args, cwd):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, timeout=300,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def test_run_twice_then_compare(tmp_path):
    spec = {
        "env": {"topology": {"A": 1, "B": 1, "R": 2, "W": 1}},
        "agent": {"kind": "random"},
        "seeds": [0, 1],
        "total_steps": 20,
    }
    for name in ("a", "b"):
        (tmp_path / f"{name}.json").write_text(
            json.dumps({**spec, "name": name}))
        res = run_python(["-m", "hybridris.cli", "run", f"{name}.json",
                          "--out", name], tmp_path)
        assert res.returncode == 0, res.stderr
    res = run_python(["-m", "hybridris.cli", "compare", "a", "b",
                      "--out", "table.csv"], tmp_path)
    assert res.returncode == 0, res.stderr
    # the runs differ only in name, so every paired difference is zero
    assert "diff_b_vs_a: mean +0.0000" in res.stdout
    assert (tmp_path / "table.csv").exists()


@pytest.mark.parametrize("argv,named", [
    (["run", "bad.json"], "policy_delay"),
    (["run", "missing.json"], "missing.json"),
    (["compare", "no_such_run", "--out", "t.csv"], "no_such_run"),
    (["run", "bad_sweep.json"], "sweep[0]"),
    (["run", "untrainable.json"], "buffer_capacity must be >= batch"),
    (["run", "bad_window.json"], "stats_window must be an integer"),
], ids=["bad_spec", "missing_spec", "missing_run_dir", "malformed_sweep",
        "untrainable_agent", "non_integer_window"])
def test_user_error_is_one_line(argv, named, tmp_path):
    (tmp_path / "bad.json").write_text(json.dumps(
        {"name": "bad", "agent": {"kind": "td3", "policy_delay": 0}}))
    (tmp_path / "untrainable.json").write_text(json.dumps(
        {"name": "bad", "agent": {"kind": "sac", "buffer_capacity": 0}}))
    (tmp_path / "bad_sweep.json").write_text(json.dumps(
        {"name": "bad", "sweep": [{"values": [10, 40]}]}))
    (tmp_path / "bad_window.json").write_text(json.dumps(
        {"name": "bad", "agent": {"kind": "random"}, "total_steps": 5,
         "defense": {"stats_window": 100.5}}))
    res = run_python(["-m", "hybridris.cli", *argv], tmp_path)
    assert res.returncode == 2
    assert res.stderr.startswith("hybridris: error: ")
    assert len(res.stderr.splitlines()) == 1
    assert named in res.stderr
    assert "Traceback" not in res.stderr


def test_malformed_seeds_and_steps_are_one_line_errors(tmp_path):
    (tmp_path / "s.json").write_text(json.dumps(
        {"name": "s", "agent": {"kind": "random"}, "seeds": [0, 0],
         "total_steps": "abc"}))
    res = run_python(["-m", "hybridris.cli", "run", "s.json"], tmp_path)
    assert res.returncode == 2
    assert res.stderr.startswith("hybridris: error: ")
    assert len(res.stderr.splitlines()) == 1
    assert "seeds: [0] appear more than once" in res.stderr
    assert "total_steps: must be an integer, not 'abc'" in res.stderr
    assert not (tmp_path / "runs").exists()


def test_bad_worker_count_is_a_one_line_error(tmp_path, monkeypatch):
    monkeypatch.setenv("HYBRIDRIS_WORKERS", "two")
    (tmp_path / "s.json").write_text(json.dumps(
        {"name": "s", "agent": {"kind": "random"}, "seeds": [0],
         "total_steps": 5}))
    res = run_python(["-m", "hybridris.cli", "run", "s.json"], tmp_path)
    assert res.returncode == 2
    assert res.stderr.startswith("hybridris: error: HYBRIDRIS_WORKERS")
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    res = run_python([str(demo)], tmp_path)
    assert res.returncode == 0, res.stderr
