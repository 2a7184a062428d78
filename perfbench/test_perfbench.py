"""Smoke tests of the benchmark itself: tiny workloads print every metric
with its unit, the correctness check catches a tampered step log, and span
self-times are right on a synthetic span tree."""

import dataclasses
import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import bench  # noqa: E402
import checks  # noqa: E402
from spans import SpanLog, self_times, traced  # noqa: E402


def benchmark_json():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture
def pinned_env(monkeypatch):
    """main() pins the BLAS thread variables; undo that after the test."""
    for var in bench.BLAS_THREAD_VARS:
        monkeypatch.setenv(var, "1")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_tiny_workload_prints_every_metric(workload, trace, capsys,
                                           monkeypatch, pinned_env):
    wl = dataclasses.replace(bench.WORKLOADS[workload], total_steps=30)
    monkeypatch.setitem(bench.WORKLOADS, workload, wl)
    rc = bench.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= bench.WORKLOADS[workload].seed_runs
    declared = benchmark_json()["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    detail = json.loads(lines[-2].split(" ", 1)[1])
    assert lines[-2].startswith("perfbench-detail ")
    assert detail["fail_frac"] == 0.0 and detail["seed_fingerprints"]
    assert all(c["host_ref_ms"] > 0 for c in detail["load"])


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in benchmark_json()["workloads"]] == \
        list(bench.WORKLOADS)


def test_no_program_means_no_result(tmp_path, monkeypatch, capsys,
                                    pinned_env):
    monkeypatch.setattr(bench, "ROOT", str(tmp_path))
    rc = bench.main(["--workload", "td3_poisoned", "--seed", "0",
                     "--seconds", "1", "--trace", "0"])
    assert rc != 0
    assert capsys.readouterr().out == ""


def _seed_run(tmp_path):
    from hybridris.harness import build_spec, run_single
    spec = build_spec({"agent": {"kind": "random"}, "seeds": [0],
                       "total_steps": 50})
    run_single(spec, 0, str(tmp_path))
    return tmp_path / "steps.jsonl"


def _rewrite_last_reward(path, value):
    lines = path.read_text().splitlines()
    rec = json.loads(lines[-1])
    rec["reward"] = value(rec["reward"])
    lines[-1] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")


def test_tampered_step_log_fails_the_check(tmp_path):
    steps = _seed_run(tmp_path)
    before = checks.fingerprint(str(tmp_path))
    assert checks.check_seed_run(str(tmp_path), 50)[1] == []
    _rewrite_last_reward(steps, lambda r: r + 1.0)
    problems = checks.check_seed_run(str(tmp_path), 50)[1]
    assert any("differs from its step log" in p for p in problems)
    assert checks.fingerprint(str(tmp_path)) != before


def test_non_finite_reward_fails_the_check(tmp_path):
    steps = _seed_run(tmp_path)
    _rewrite_last_reward(steps, lambda r: float("nan"))
    problems = checks.check_seed_run(str(tmp_path), 50)[1]
    assert any("non-finite reward at step 49" in p for p in problems)


def test_wrong_step_count_fails_the_check(tmp_path):
    _seed_run(tmp_path)
    problems = checks.check_seed_run(str(tmp_path), 60)[1]
    assert problems == ["50 steps, expected 60"]


def test_self_time_on_synthetic_span_tree():
    log = SpanLog()
    root = log.add("root", 0.0, 10.0)
    a = log.add("a", 1.0, 4.0, root)
    log.add("b", 5.0, 6.0, root)
    log.add("a_child", 2.0, 3.0, a)
    log.add("a_child", 3.0, 3.5, a)
    assert self_times(log) == pytest.approx([6.0, 1.5, 1.0, 1.0, 0.5])


def test_nested_alias_spans_count_as_one_call():
    log = SpanLog()
    step = log.add("env.step", 0.0, 5.0)
    fwd = log.add("nets.forward", 1.0, 2.0, step)
    inner = log.add("nets.forward", 1.1, 1.9, fwd)
    other = log.add("nets.forward", 3.0, 4.0, step)
    assert log.calls()["nets.forward"] == [fwd, other]
    assert list(log.enclosing("env.step")) == [-1, step, step, step]
    assert inner not in log.calls()["nets.forward"]


def test_traced_records_and_restores():
    import hybridris.env
    import hybridris.phy as phy
    orig = phy.rate_report
    orig_step = vars(hybridris.env.RisCrnEnv)["step"]
    log = SpanLog()
    targets = [("phy.rate", "hybridris.phy", ("rate_report",), None),
               ("env.step", "hybridris.env:RisCrnEnv", ("step",), None)]
    env = hybridris.env.RisCrnEnv(hybridris.env.EnvConfig())
    env.reset(0)
    with traced(log, targets, "hybridris"):
        env.step([0.0] * env.action_size)
    assert phy.rate_report is orig
    assert vars(hybridris.env.RisCrnEnv)["step"] is orig_step
    calls = log.calls()
    assert len(calls["env.step"]) == 1 and len(calls["phy.rate"]) == 1
    assert log.enclosing("env.step")[calls["phy.rate"][0]] == \
        calls["env.step"][0]
