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
    (["run", "non_real.json"], "agent: gamma must be a real number"),
    (["run", "env_penalty.json"], "env: penalty_weight must be a real"),
    (["run", "env_count.json"], "env.topology: A must be an integer >= 1"),
    (["run", "env_nan.json"], "env.harvest: tau must be >= 0"),
    (["run", "env_fading.json"], "env: fading_block must be an integer"),
    (["run", "sweep_kind.json"],
     "sweep[0]: env.mode.kind: 'mode' is not an object"),
    (["run", "sweep_kind_x.json"],
     "sweep[0]: env.mode.kind.x: 'mode' is not an object"),
    (["run", "sweep_bad_point.json"],
     "tau=-1: invalid spec: env.harvest: tau must be >= 0"),
    (["run", "sweep_empty.json"], 'sweep[0]: needs a "path" string and a '
     'non-empty "values" list'),
    (["run", "list.json", "--out", "lst"],
     "invalid spec: spec: must be an object, not [1]"),
    (["run", "list.json"], "invalid spec: spec: must be an object, not [1]"),
    (["run", "ok.json", "--workers", "0"], "workers must be >= 1, not 0"),
    (["run", "ok.json", "--workers", "-5"], "workers must be >= 1, not -5"),
], ids=["bad_spec", "missing_spec", "missing_run_dir", "malformed_sweep",
        "untrainable_agent", "non_integer_window", "non_real_field",
        "non_real_env_field", "non_integer_topology", "nan_env_field",
        "non_integer_fading_block", "sweep_through_string",
        "sweep_below_string", "sweep_invalid_point", "sweep_empty_values",
        "spec_not_an_object_out", "spec_not_an_object", "workers_zero",
        "workers_negative"])
def test_user_error_is_one_line(argv, named, tmp_path):
    (tmp_path / "list.json").write_text("[1]")
    (tmp_path / "ok.json").write_text(json.dumps(
        {"name": "ok", "agent": {"kind": "random"}, "seeds": [0],
         "total_steps": 5}))
    (tmp_path / "bad.json").write_text(json.dumps(
        {"name": "bad", "agent": {"kind": "td3", "policy_delay": 0}}))
    (tmp_path / "untrainable.json").write_text(json.dumps(
        {"name": "bad", "agent": {"kind": "sac", "buffer_capacity": 0}}))
    (tmp_path / "bad_sweep.json").write_text(json.dumps(
        {"name": "bad", "sweep": [{"values": [10, 40]}]}))
    (tmp_path / "bad_window.json").write_text(json.dumps(
        {"name": "bad", "agent": {"kind": "random"}, "total_steps": 5,
         "defense": {"stats_window": 100.5}}))
    (tmp_path / "non_real.json").write_text(json.dumps(
        {"name": "bad", "agent": {"kind": "sac", "gamma": "x"}}))
    for name, path in (("sweep_kind", "env.mode.kind"),
                       ("sweep_kind_x", "env.mode.kind.x")):
        (tmp_path / f"{name}.json").write_text(json.dumps(
            {"name": "bad", "env": {"mode": "passive"},
             "sweep": [{"path": path, "values": ["active"]}]}))
    for name, values in (("sweep_bad_point", [10, -1]), ("sweep_empty", [])):
        (tmp_path / f"{name}.json").write_text(json.dumps(
            {"name": "bad", "agent": {"kind": "random"}, "total_steps": 5,
             "sweep": [{"path": "env.harvest.tau", "values": values}]}))
    for name, env in (("env_penalty", {"penalty_weight": "x"}),
                      ("env_count", {"topology": {"A": 2.5}}),
                      ("env_nan", {"harvest": {"tau": float("nan")}}),
                      ("env_fading", {"fading_block": 1.5})):
        (tmp_path / f"{name}.json").write_text(json.dumps(
            {"name": "bad", "agent": {"kind": "random"}, "total_steps": 5,
             "env": env}))
    res = run_python(["-m", "hybridris.cli", *argv], tmp_path)
    assert res.returncode == 2
    assert res.stderr.startswith("hybridris: error: ")
    assert len(res.stderr.splitlines()) == 1
    assert named in res.stderr
    assert "Traceback" not in res.stderr
    # no run directory or table was written, only the spec files
    assert all(p.suffix == ".json" for p in tmp_path.iterdir())


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


def test_bad_worker_count_is_a_one_line_error(tmp_path):
    (tmp_path / "s.json").write_text(json.dumps(
        {"name": "s", "agent": {"kind": "random"}, "seeds": [0],
         "total_steps": 5}))
    res = run_python(["-m", "hybridris.cli", "run", "s.json",
                      "--workers", "two"], tmp_path)
    assert res.returncode == 2
    # argparse prints its usage, then the one error line
    errors = [line for line in res.stderr.splitlines() if "error:" in line]
    assert errors == ["hybridris run: error: argument --workers: invalid "
                      "int value: 'two'"]
    assert "Traceback" not in res.stderr
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    res = run_python([str(demo)], tmp_path)
    assert res.returncode == 0, res.stderr
