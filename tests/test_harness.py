import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

import hybridris as hr
from hybridris import harness
from hybridris.env import CHANNEL_BLOCK
from hybridris.harness import (ExperimentSpec, SpecError, _write_jsonl,
                               build_loop, build_spec, compare,
                               converged_mean, expand_sweep, moving_average,
                               replay_summary, resolve_workers, run_experiment,
                               run_single, run_spec_dict, summarize)

NAN = float("nan")
INF = float("inf")

def tiny_env(**kw):
    base = dict(topo=hr.Topology(A=1, B=1, R=2, W=1),
                cascade=hr.CascadeSpec(1, 1, 1))
    base.update(kw)
    return hr.EnvConfig(**base)


def tiny_spec(name="t", agent_kind="random", steps=300, seeds=(0,), **kw):
    return ExperimentSpec(name=name, env=tiny_env(), agent_kind=agent_kind,
                          seeds=seeds, total_steps=steps, **kw)


def tau_sweep():
    """A 3-point x 2-seed random-agent sweep on the tiny topology."""
    return {"name": "sweep", "agent": {"kind": "random"},
            "env": {"topology": {"A": 1, "B": 1, "R": 2, "W": 1}},
            "seeds": [0, 1], "total_steps": 20,
            "sweep": [{"path": "env.harvest.tau", "values": [10, 30, 40]}]}


def file_tree(root) -> dict:
    """Every file under ``root`` but ``meta.json``, by relative path."""
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in root.rglob("*")
            if p.is_file() and p.name != "meta.json"}


def assert_same_state(got, want, where="state"):
    """Two ``get_state`` snapshots hold the same keys and values, and each
    array the same dtype, shape and bits."""
    assert type(got) is type(want), where
    if isinstance(want, dict):
        assert got.keys() == want.keys(), where
        for key in want:
            assert_same_state(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, np.ndarray):
        assert (got.dtype, got.shape) == (want.dtype, want.shape), where
        assert got.tobytes() == want.tobytes(), where
    else:
        assert got == want, where


@pytest.fixture
def pool_sizes(monkeypatch):
    """Stands a recording pool in for the process pool and returns the
    list of the sizes of the pools built. A fork-started pool starts all
    its workers at its first submit; the recording pool runs the jobs here
    and starts no process."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers, initializer=None, initargs=()):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr("hybridris.harness.ProcessPoolExecutor",
                        RecordingPool)
    return sizes


def blas_threads_run(spec, seed, out_dir=None):
    """``run_single``, its stats also holding the OpenBLAS thread count of
    the process it ran in."""
    summary = run_single(spec, seed, out_dir)
    summary.stats["blas_threads"] = (
        harness._openblas().scipy_openblas_get_num_threads64_())
    return summary


def dumps_per_row(log: dict) -> str:
    """A log's JSON lines as one ``json.dumps`` per row's dict writes
    them: the reference the template writer must match."""
    return "".join(json.dumps(dict(zip(log, row))) + "\n"
                   for row in zip(*log.values()))


class TestMovingAverage:
    def test_matches_naive(self):
        rng = hr.make_rng(0)
        x = rng.standard_normal(500)
        ma = moving_average(x, window=32)
        for t in (0, 5, 31, 32, 100, 499):
            lo = max(0, t - 31)
            assert ma[t] == pytest.approx(np.mean(x[lo:t + 1]), abs=1e-12)

    def test_converged_mean_tail(self):
        x = np.concatenate([np.zeros(90), np.ones(10)])
        assert converged_mean(x, 0.1) == 1.0


class TestRunSingle:
    def test_deterministic_rerun(self, tmp_path):
        spec = tiny_spec(steps=300)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        s1 = run_single(spec, 0, str(d1))
        s2 = run_single(spec, 0, str(d2))
        assert s1.stats == s2.stats
        assert file_tree(d1) == file_tree(d2)
        # a learner's weights, Adam moments and replay buffer, and the env
        # and pipeline state, end the same on a rerun
        spec = tiny_spec(
            agent_kind="td3",
            agent=hr.Td3Config(warmup_steps=30, batch=4, hidden=(12, 12)),
            attack=hr.AttackConfig(kind="invert", threshold=0.2),
            defense=hr.DefenseConfig(warmup_count=10), steps=150)
        states = []
        for _ in range(2):
            loop = build_loop(spec, 0)
            loop.run(spec.total_steps)
            states.append(loop.get_state())
        assert_same_state(*states)

    @pytest.mark.parametrize("attack,defense,logs", [
        (None, None, ()),
        (hr.AttackConfig(), None, ("pipeline.jsonl",)),
        (None, hr.DefenseConfig(), ("pipeline.jsonl",))],
        ids=["plain", "attack", "defense"])
    def test_seed_dir_holds_exactly_its_artifacts(self, tmp_path, attack,
                                                  defense, logs):
        spec = tiny_spec(
            agent_kind="sac",
            agent=hr.SacConfig(warmup_steps=20, batch=4, hidden=(8, 8)),
            attack=attack, defense=defense, steps=40)
        run_single(spec, 0, str(tmp_path))
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ("steps.jsonl", "curve.csv", "summary.json", "meta.json", *logs))

    def test_summary_matches_log_replay(self, tmp_path):
        spec = tiny_spec(steps=400)
        summary = run_single(spec, 3, str(tmp_path))
        replayed = replay_summary(str(tmp_path / "steps.jsonl"))
        assert replayed["steps"] == summary.stats["steps"]
        for key in ("converged_mean", "mode_fraction_active",
                    "mode_fraction_passive", "mean_energy_J"):
            assert replayed[key] == pytest.approx(summary.stats[key],
                                                  abs=1e-9)

    def test_wall_clock_not_in_summary_json(self, tmp_path):
        run_single(tiny_spec(steps=50), 0, str(tmp_path))
        data = json.loads((tmp_path / "summary.json").read_text())
        assert "wall_clock_s" not in data
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert "wall_clock_s" in meta


class TestRunExperiment:
    def test_aggregate_and_artifacts(self, tmp_path):
        spec = tiny_spec(steps=200, seeds=(0, 1))
        agg = run_experiment(spec, str(tmp_path), workers=1)
        assert agg["seeds"] == [0, 1]
        assert len(agg["per_seed"]) == 2
        assert (tmp_path / "seed_0" / "steps.jsonl").exists()
        assert (tmp_path / "curve_mean.csv").exists()

    @pytest.mark.parametrize("workers,seeds,expected", [
        (8, (0, 1), [2]), (3, (0, 1, 2, 3), [3]), (1, (0, 1), [])])
    def test_pool_is_capped_at_the_job_count(self, pool_sizes, workers, seeds,
                                             expected):
        agg = run_experiment(tiny_spec(steps=20, seeds=seeds),
                             workers=workers)
        assert pool_sizes == expected
        assert agg["seeds"] == list(seeds)

    def test_parallel_matches_serial(self, tmp_path):
        spec = tiny_spec(steps=200, seeds=(0, 1))
        a = run_experiment(spec, str(tmp_path / "ser"), workers=1)
        b = run_experiment(spec, str(tmp_path / "par"), workers=2)
        assert a == b

    def test_pool_workers_share_the_cores_among_blas_threads(
            self, monkeypatch):
        cores, lib = os.cpu_count() or 1, harness._openblas()
        if cores < 2 or lib is None:
            pytest.skip("needs 2 cores and numpy's bundled OpenBLAS")
        get, set_ = (lib.scipy_openblas_get_num_threads64_,
                     lib.scipy_openblas_set_num_threads64_)
        monkeypatch.setattr(harness, "run_single", blas_threads_run)
        before = get()
        set_(cores)
        try:
            agg = run_experiment(tiny_spec(steps=20, seeds=(0, 1)),
                                 workers=2)
            parent = get()
        finally:
            set_(before)
        threads = [p["blas_threads"] for p in agg["per_seed"]]
        assert all(2 * n <= cores for n in threads), threads
        # the cap holds in the workers alone
        assert parent == cores

    def test_energy_savings_recompute_from_logs(self, tmp_path):
        hyb = ExperimentSpec(name="h", env=tiny_env(), agent_kind="random",
                             seeds=(0,), total_steps=300)
        act = ExperimentSpec(
            name="a", env=tiny_env(mode=hr.RisMode.active()),
            agent_kind="random", seeds=(0,), total_steps=300)
        ha = run_experiment(hyb, str(tmp_path / "h"), workers=1)
        aa = run_experiment(act, str(tmp_path / "a"), workers=1)
        savings = 1.0 - ha["mean_energy_J"] / aa["mean_energy_J"]
        rh = replay_summary(str(tmp_path / "h" / "seed_0" / "steps.jsonl"))
        ra = replay_summary(str(tmp_path / "a" / "seed_0" / "steps.jsonl"))
        replay_savings = 1.0 - rh["mean_energy_J"] / ra["mean_energy_J"]
        assert savings == pytest.approx(replay_savings, abs=1e-9)


class TestOpenLoopBlocks:
    # run() scores open-loop steps a channel block at a time; one_step()
    # scores one step; both must give every bit of the same run, whose
    # warm-up runs on past the refill after the first drawn channel block;
    # the last case's replay ring is shorter than the block's stack
    @pytest.mark.parametrize("kind,agent", [
        ("random", None),
        ("sac", hr.SacConfig(warmup_steps=CHANNEL_BLOCK + 36, batch=4,
                             hidden=(8, 8))),
        ("td3", hr.Td3Config(warmup_steps=CHANNEL_BLOCK + 36, batch=4,
                             hidden=(8, 8))),
        ("sac", hr.SacConfig(warmup_steps=CHANNEL_BLOCK + 36, batch=4,
                             hidden=(8, 8), buffer_capacity=64))])
    @pytest.mark.parametrize("defended", [False, True])
    def test_run_equals_one_step_at_a_time(self, kind, agent, defended):
        extra = dict(attack=hr.AttackConfig(kind="invert", threshold=0.2,
                                            trigger_window=5),
                     defense=hr.DefenseConfig(warmup_count=10,
                                              stats_window=50)) \
            if defended else {}
        steps = CHANNEL_BLOCK + 116
        spec = tiny_spec(agent_kind=kind, agent=agent, steps=steps, **extra)
        block, single = build_loop(spec, 2), build_loop(spec, 2)
        block.run(steps)
        for _ in range(steps):
            single.one_step()
        assert block.step_log == single.step_log
        assert pipeline_log(block) == pipeline_log(single)
        assert block.obs.tobytes() == single.obs.tobytes()
        want, got = single.agent.get_state(), block.agent.get_state()
        assert got["rng"] == want["rng"]
        if "buffer" in want:
            for name, stored in want["buffer"].items():
                assert np.asarray(got["buffer"][name]).tobytes() == \
                    np.asarray(stored).tobytes(), name

    # the loop alone decides warm-up: a learner's act and update are its
    # policy and its gradient step, and the loop calls neither before
    # warmup_steps, even one step at a time
    @pytest.mark.parametrize("kind", ["sac", "ddpg", "td3"])
    def test_one_step_skips_act_and_update_in_warmup(self, kind):
        warmup = 40
        spec = tiny_spec(agent_kind=kind, agent=LEARNER_CONFIGS[kind](
            warmup_steps=warmup, batch=4, hidden=(8, 8)))
        loop = build_loop(spec, 3)
        calls = []

        def closed_loop_only(name, method):
            def wrapped(*args, **kwargs):
                if loop.t < warmup:
                    raise AssertionError(f"{name} called at step {loop.t}")
                calls.append(name)
                return method(*args, **kwargs)
            return wrapped

        for name in ("act", "update"):
            setattr(loop.agent, name,
                    closed_loop_only(name, getattr(loop.agent, name)))
        for _ in range(warmup + 3):
            loop.one_step()
        assert loop.t == warmup + 3
        assert calls == ["act", "update"] * 3


def rewards(loop) -> list:
    """The reward column of a loop's step log."""
    return loop.step_log["reward"]


def pipeline_log(loop) -> list:
    """A loop's pipeline log, one dict per step as pipeline.jsonl holds."""
    return [rec._asdict() for rec in loop.pipeline_log]


LEARNER_CONFIGS = {"sac": hr.SacConfig, "ddpg": hr.DdpgConfig,
                   "td3": hr.Td3Config}


class TestCheckpoints:
    """A loop's state restored, in memory, into a fresh loop of the same
    spec continues it bit for bit."""

    # every learner also stops at an odd step; for TD3 the restored critic
    # Adam step count must put the delayed actor update back in phase. The
    # source loop runs on before its state is restored, so a snapshot that
    # held views of its arrays would restore their later values; the
    # 50-row replay ring wraps after the snapshot, so its rows change too.
    @pytest.mark.parametrize("kind,stop", [
        ("sac", 120), ("ddpg", 120), ("td3", 120), ("td3", 121),
        ("sac", 121), ("ddpg", 121)])
    def test_resume_is_bitwise_identical(self, kind, stop):
        spec = tiny_spec(
            agent_kind=kind,
            agent=LEARNER_CONFIGS[kind](warmup_steps=30, batch=4,
                                        hidden=(12, 12), buffer_capacity=50),
            steps=stop + 100)
        loop = build_loop(spec, 0)
        loop.run(stop)
        state = loop.get_state()
        loop.run(100)
        expected_tail = rewards(loop)[stop:]

        loop2 = build_loop(spec, 0)
        loop2.set_state(state)
        assert loop2.t == stop
        loop2.run(100)
        assert rewards(loop2) == expected_tail
        assert_same_state(loop2.get_state(), loop.get_state())

    def test_uninterrupted_equals_checkpointed(self):
        spec = tiny_spec(
            agent_kind="sac",
            agent=hr.SacConfig(warmup_steps=30, batch=4, hidden=(12, 12)),
            steps=200)
        straight = build_loop(spec, 0)
        straight.run(200)
        loop = build_loop(spec, 0)
        loop.run(80)
        resumed = build_loop(spec, 0)
        resumed.set_state(loop.get_state())
        resumed.run(120)  # a restored loop logs only its own steps
        assert rewards(straight) == rewards(loop) + rewards(resumed)

    def test_resumed_summary_counts_its_own_steps(self, tmp_path):
        # the restored loop's log and curve hold its 100 steps, not the 300
        # of its step index, and its summary says the same as a replay
        loop = build_loop(tiny_spec(), 0)
        loop.run(200)
        resumed = build_loop(tiny_spec(), 0)
        resumed.set_state(loop.get_state())
        resumed.run(100)
        summary = summarize("t", 0, resumed, 0.0)
        log = resumed.step_log
        steps_path = tmp_path / "steps.jsonl"
        steps_path.write_text("".join(json.dumps(dict(zip(log, row))) + "\n"
                                      for row in zip(*log.values())))
        replay = replay_summary(str(steps_path))
        assert (summary.stats["steps"] == len(summary.curve)
                == replay["steps"] == 100)
        assert {k: summary.stats[k] for k in replay} == replay

    def test_resumed_pipeline_log_continues_the_log(self):
        # the state is taken after the filter's warm-up and before its
        # window of accepted rewards is full, with the attack firing
        spec = tiny_spec(
            agent_kind="sac",
            agent=hr.SacConfig(warmup_steps=30, batch=4, hidden=(12, 12)),
            attack=hr.AttackConfig(kind="invert", threshold=0.2,
                                   trigger_window=5),
            defense=hr.DefenseConfig(warmup_count=10, stats_window=200),
            steps=220)
        straight = build_loop(spec, 0)
        straight.run(220)
        loop = build_loop(spec, 0)
        loop.run(120)
        resumed = build_loop(spec, 0)
        resumed.set_state(loop.get_state())
        resumed.run(100)
        expected, got = pipeline_log(straight)[120:], pipeline_log(resumed)
        assert len(got) == 100
        for want, rec in zip(expected, got):
            assert list(rec) == list(want)
            for key in want:
                assert rec[key] == want[key], (rec["t"], key)
        for log in (pipeline_log(loop), got):
            decisions = {rec["decision"] for rec in log}
            assert decisions == {"accepted", "discarded"}
            assert any(rec["triggered"] for rec in log)

    @pytest.mark.parametrize("kind", ["sac", "td3"])
    def test_resume_mid_block_and_mid_warmup_is_bitwise(self, kind):
        # the warm-up runs on past the channel block that starts at step
        # CHANNEL_BLOCK + 1, and the state taken at step 40 falls inside both
        # the warm-up and the block before it
        warmup = CHANNEL_BLOCK + 36
        spec = tiny_spec(
            agent_kind=kind,
            agent=LEARNER_CONFIGS[kind](warmup_steps=warmup, batch=4,
                                        hidden=(12, 12)),
            steps=warmup + 100)
        straight = build_loop(spec, 0)
        straight.run(warmup + 100)
        loop = build_loop(spec, 0)
        loop.run(40)
        resumed = build_loop(spec, 0)
        resumed.set_state(loop.get_state())
        resumed.run(warmup + 60)
        assert resumed.step_log == {k: v[40:]
                                    for k, v in straight.step_log.items()}
        assert resumed.obs.tobytes() == straight.obs.tobytes()
        want, got = straight.agent.get_state(), resumed.agent.get_state()
        assert got["rng"] == want["rng"]
        for name, params in want["nets"].items():
            assert got["nets"][name].tobytes() == params.tobytes()


# sha256 of steps.jsonl for a 300-step random-agent run on the paper-default
# env (dynamic hybrid) at seed 7. Any change to the channel stream, the PHY
# arithmetic or the log format moves it. Recorded with numpy 2.4 on x86-64,
# with OpenBLAS's SkylakeX kernels (the CI log prints the core name); another
# numpy, CPU or OpenBLAS core may round some step differently, which is not a
# regression.
STEP_LOG_SHA256 = ("5657c32e5794a2a266cd48b163a8c1ea"
                   "74af0cbd2c3b0ac8a7689ff92cfb4151")


def test_step_log_digest_pinned(tmp_path):
    spec = ExperimentSpec(name="pin", env=hr.EnvConfig(), agent_kind="random",
                          seeds=(7,), total_steps=300)
    run_single(spec, 7, str(tmp_path))
    digest = hashlib.sha256((tmp_path / "steps.jsonl").read_bytes())
    assert digest.hexdigest() == STEP_LOG_SHA256


# sha256 of steps.jsonl for 121-step learner runs on the paper-default env
# at seed 5 (hidden 16x16, batch 4, 40 warmup steps, so TD3 stops after an
# odd number of updates). The actions after warmup carry every bit of the
# critic and policy updates, so a change to the learners' arithmetic or RNG
# use moves these even where Adam's scale invariance hides it from the
# unit tests. Recorded like the pin above (numpy 2.4, OpenBLAS SkylakeX).
LEARNER_LOG_SHA256 = {
    "ddpg": "1a76f64e1e1fee42eea7cabd52d6b5a1bf3a2e7b0b15ec9a5a0bc628ad8c930f",
    "sac": "50a1f8c2c84168bbf4b4b23d4d8a17aefcc90e7e5ca2f328df5bc179d8d1f8a9",
    "td3": "c9965532ae8453c9e1a77348928006e9a29c5bf7505c85a774219bf096e8ca0d",
}


@pytest.mark.parametrize("kind", sorted(LEARNER_LOG_SHA256))
def test_learner_step_log_digest_pinned(kind, tmp_path):
    spec = build_spec({"name": "pin", "seeds": [5], "total_steps": 121,
                       "agent": {"kind": kind, "warmup_steps": 40,
                                 "batch": 4, "hidden": [16, 16]}})
    run_single(spec, 5, str(tmp_path))
    digest = hashlib.sha256((tmp_path / "steps.jsonl").read_bytes())
    assert digest.hexdigest() == LEARNER_LOG_SHA256[kind]


# The same for 301-step runs at the default learner sizes (hidden 128x128,
# batch 16, 250 warmup steps), the sizes the benchmark and the paper run.
# OpenBLAS picks its kernels by shape, so the small pins above cannot see a
# rounding change at these sizes. Recorded like the pins above (numpy 2.4,
# OpenBLAS SkylakeX).
DEFAULT_SIZE_LOG_SHA256 = {
    "ddpg": "649ad392c11aa35953b873852b3f76537bcc9ad2ece0677db19c6e74a1e35615",
    "sac": "9b01c008c3755efa0b970e68e3ef5ed772a82c2efa8c06f2f7564b8fbd3d31cd",
    "td3": "f90ca620377402746e0fe87d5030611593b8e4a8c3beec52a456c5e947f67a23",
}


@pytest.mark.parametrize("kind", sorted(DEFAULT_SIZE_LOG_SHA256))
def test_default_size_learner_digest_pinned(kind, tmp_path):
    spec = build_spec({"name": "pin", "seeds": [5], "total_steps": 301,
                       "agent": {"kind": kind, "warmup_steps": 250}})
    run_single(spec, 5, str(tmp_path))
    digest = hashlib.sha256((tmp_path / "steps.jsonl").read_bytes())
    assert digest.hexdigest() == DEFAULT_SIZE_LOG_SHA256[kind]


# sha256 of a 200-step random-agent step log (the lines steps.jsonl holds)
# followed by the bytes of the last observation, seed 3, for the modes and
# env shapes the pin above leaves out. "small_I_thr" makes the projection
# bind on most steps; "integer_fields" gives P_t, fixed_gain and tau as JSON
# integers, which the log keeps as integers ("cap": 10, "alpha": 3).
# "A2B1R1W1" has one receiver and one element, whose complex product numpy
# rounds one way for a lone pair and another way in a stack of them; it was
# recorded with one step at a time, before steps were scored a block at a
# time. Recorded like the pins above (numpy 2.4, OpenBLAS SkylakeX).
ENV_DIGESTS = {
    "passive": (
        {"mode": "passive"},
        "3156fe529e4f1495668f1349b5e24954" "0c090fbf7af435ed5b8ff2b91db38bea"),
    "active": (
        {"mode": "active"},
        "bfb52684629d0dcccd24293ab627729b" "58a035777a5cb18aba891f8c3ec10805"),
    "fixed_hybrid_0.5": (
        {"mode": {"kind": "fixed_hybrid", "active_fraction": 0.5}},
        "cd1e2970554113b33f10f90bfc8d25fa" "2d2301159b690f492e2366ccad0cb20d"),
    "A2B3R5W2_fading_block_3": (
        {"topology": {"A": 2, "B": 3, "R": 5, "W": 2}, "fading_block": 3},
        "daf3aeed2a2c1335c206b95844ccedee" "825bdb50ff3fed7e0bd7b43d566c5079"),
    "small_I_thr": (
        {"power": {"P_t": 10.0, "I_thr": 0.5}},
        "5efdceb52cbc1147b7e90279d6fd22f6" "102806102d4cd251afbf3dcff0c44704"),
    "integer_fields": (
        {"power": {"P_t": 10, "I_thr": 30}, "harvest": {"tau": 40},
         "mode": {"kind": "fixed_hybrid", "fixed_gain": 3}},
        "3337a6e8d9e59438d88ce4fd5bd1a10f" "a356639b270e6c56c11134fb4c054e5e"),
    "A2B1R1W1": (
        {"topology": {"A": 2, "B": 1, "R": 1, "W": 1}},
        "3ab6303ee428f7c07908f15172bcf304" "6ec61ae84499aaa2a4b3140dd39c6707"),
}


def step_log_digest(env_d: dict, seed: int, steps: int) -> str:
    spec = build_spec({"env": env_d, "agent": {"kind": "random"},
                       "seeds": [seed], "total_steps": steps})
    loop = build_loop(spec, seed)
    loop.run(steps)
    digest = hashlib.sha256()
    for row in zip(*loop.step_log.values()):
        digest.update((json.dumps(dict(zip(loop.step_log, row))) + "\n")
                      .encode())
    digest.update(loop.obs.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", list(ENV_DIGESTS))
def test_env_digest_pinned(name):
    env_d, expected = ENV_DIGESTS[name]
    assert step_log_digest(env_d, 3, 200) == expected


# the block size reaches neither the stream nor the arithmetic, so each pin
# holds at any size; blocks of 3 and 64 slots put refills inside the pinned
# steps, where the default block puts none
@pytest.mark.parametrize("block", [3, 64])
@pytest.mark.parametrize("name", list(ENV_DIGESTS))
def test_env_digest_at_any_block_size(name, block, monkeypatch):
    monkeypatch.setattr("hybridris.env.CHANNEL_BLOCK", block)
    env_d, expected = ENV_DIGESTS[name]
    assert step_log_digest(env_d, 3, 200) == expected


# sha256 of every observation row that env.step returns in the runs of
# ENV_DIGESTS, which hash only the last one. The random agent never reads
# its observation, so a wrong row at a channel-block end leaves the step
# log as it was and shows only here. Recorded like the pins above (numpy
# 2.4, OpenBLAS SkylakeX).
OBSERVATION_DIGESTS = {
    "passive":
        "1095ce4301c6bdcad0080d44495d3d09" "0f5abc54b9ec273535da0b1158ba3003",
    "active":
        "f9ee64dbe2fdf3004fddbc5ef576c6d7" "43a76a3773768c4adf6ccd596b9cd41c",
    "fixed_hybrid_0.5":
        "83090e8bf32b888086cdef1b7ee6eae6" "15edf3529685699d3fbd991095e5bc49",
    "A2B3R5W2_fading_block_3":
        "8976d4777338f919296c22547aa9c91b" "a2ffff7d56b1e5d296dbdc009880b243",
    "small_I_thr":
        "821ec9e904403fa38498a035b757cb03" "c62479cd7458ccdda971688239220ac8",
    "integer_fields":
        "41b02762aaab30b0ac35d5e2bb31fb8d" "494a4141047d886d0ee4a851ebbbbc7f",
    "A2B1R1W1":
        "3476103bda941b7367200db70a0af50a" "a36fd9c08ad72fc70da4c860f9cc6ae1",
}


def observation_digest(env_d: dict, seed: int, steps: int) -> str:
    spec = build_spec({"env": env_d, "agent": {"kind": "random"},
                       "seeds": [seed], "total_steps": steps})
    loop = build_loop(spec, seed)
    digest = hashlib.sha256()
    step = loop.env.step

    def recording_step(actions):
        out = step(actions)
        digest.update(out.observation.tobytes())
        return out

    loop.env.step = recording_step
    loop.run(steps)
    return digest.hexdigest()


@pytest.mark.parametrize("block", [3, 64, CHANNEL_BLOCK])
@pytest.mark.parametrize("name", list(OBSERVATION_DIGESTS))
def test_observation_digest_pinned(name, block, monkeypatch):
    monkeypatch.setattr("hybridris.env.CHANNEL_BLOCK", block)
    assert observation_digest(ENV_DIGESTS[name][0], 3, 200) == \
        OBSERVATION_DIGESTS[name]


# sha256 of every artifact but meta.json for two 150-step runs of 2 seeds,
# and of compare's tables over them: a random agent on an
# always-active surface (so shortfall penalties part reward from sum rate),
# and a small SAC on the paper-default env under the invert attack with clip
# and filter (which then clips, attacks and discards). The summaries, the
# curves and the tables are pinned along with the logs. Recorded like the
# pins above (numpy 2.4, OpenBLAS SkylakeX).
ARTIFACT_SPECS = {
    "random": {"env": {"mode": "active"}, "agent": {"kind": "random"}},
    "sac_defended": {
        "agent": {"kind": "sac", "warmup_steps": 40, "batch": 4,
                  "hidden": [16, 16]},
        "attack": {"kind": "invert", "threshold": 0.6, "trigger_window": 8},
        "defense": {"chi": 2.0, "warmup_count": 12, "stats_window": 60}},
}
ARTIFACT_SHA256 = {
    "random/curve_mean.csv":
        "06c866e6cf9cf44083b3bf19795eb406e64cac829984efe2934a32df70575b05",
    "random/seed_0/curve.csv":
        "6d27fba3722f446ac293453f07c771918637b0b680e770a7c94e8dbcf1d862d0",
    "random/seed_0/steps.jsonl":
        "9cfc751b8ccce6ac027e79c04b3138169da70e0b7e55ed51c4fb69fc1686a70b",
    "random/seed_0/summary.json":
        "33282b9cdd5cfea5f4b40af6eb9410e4e03423f85cbf070d3dec83d5df9a496c",
    "random/seed_1/curve.csv":
        "5df552b5ac16e4eca1cd5e38a73d0d60028924b6c6c3c248e189bf1b13524f43",
    "random/seed_1/steps.jsonl":
        "ba4b2e62376148cd4b73841738fa12858660efb72b872a0c7cc774beef6b6a41",
    "random/seed_1/summary.json":
        "8d258e34ca809622b98400dff942b7b02cc13cbb4645926f047138e32c1c0afb",
    "random/summary.json":
        "3266331c0b317c9b0cc072d0455803a4e6fe3e4f7c9f08b143df6add49891d81",
    "sac_defended/curve_mean.csv":
        "6c859a445a8945b8498a64361300e2f26290825eaa60a96c87421bd57e3cec47",
    "sac_defended/seed_0/curve.csv":
        "62c2a17e4d3e919f31d8a50013da2a4fe68986a2506c05fc78a2145698020c03",
    "sac_defended/seed_0/pipeline.jsonl":
        "5b69db4dce34a2bdfbee5c6df5244c1154a5983dd5d8c414a28d5473f8475170",
    "sac_defended/seed_0/steps.jsonl":
        "c8ce767d2eb21b235c2d30029f3d5fce712cbc5afb7b27424d0b4b161499ad91",
    "sac_defended/seed_0/summary.json":
        "fc42ce4813c5a60d00b7c4474615b1e010159ad6225dfec6ec90695e4bf842ff",
    "sac_defended/seed_1/curve.csv":
        "7f5e883de1ae0666c69220d147fadbc0b7cdb579d9175d00c4803471adda2f14",
    "sac_defended/seed_1/pipeline.jsonl":
        "7f623f327929e001e5623b296629fe0dc48184bb74ef89fb8f48c12600d2ee64",
    "sac_defended/seed_1/steps.jsonl":
        "b37c27ac0769858c7b5d4ae569b0cee1c2fed5c0283dbcd97c1d169b7a66ffa7",
    "sac_defended/seed_1/summary.json":
        "57fe0dd817b24677dec652cc0ca0ede6ff58491acd2757eef6d9fa5e2d129cc8",
    "sac_defended/summary.json":
        "74a273779ab56958814df3ef8911e2fbdc3618070308b5d735a0f2a0a783c6bd",
    "table.csv":
        "7c759750c40153b82c1f97daf3ababf79cf054c8b1bf21d046ae138be56109c4",
    "table_curves.csv":
        "9d9d27c1f278bdbce137f3dd6a79fc5174bc851c8e8bd85a838fb909b2ec86bf",
}


def test_artifact_digests_pinned(tmp_path):
    for name, d in ARTIFACT_SPECS.items():
        spec = build_spec({"name": name, "seeds": [0, 1], "total_steps": 150,
                           **d})
        run_experiment(spec, str(tmp_path / name), workers=1)
    compare([str(tmp_path / name) for name in ARTIFACT_SPECS],
            str(tmp_path / "table.csv"))
    digests = {path.relative_to(tmp_path).as_posix():
               hashlib.sha256(path.read_bytes()).hexdigest()
               for path in tmp_path.rglob("*")
               if path.is_file() and path.name != "meta.json"}
    assert digests == ARTIFACT_SHA256


# names that cannot name a run: no string, empty, or holding a separator
# of compare's table, of a path or of lines, or a directory's own alias
BAD_NAMES = [None, 7, "", "a,b", "a/b", "a\\b", "a\nb", "a\r", ".", "..",
             "../x"]
BAD_NAME_IDS = ["null", "number", "empty", "comma", "slash", "backslash",
                "newline", "carriage_return", "dot", "dotdot", "parent"]


class TestSpecParsing:
    def test_defaults_build(self):
        spec = build_spec({"name": "d"})
        assert spec.env.topo.A == 2
        assert spec.agent_kind == "sac"
        assert spec.total_steps == 20_000
        assert spec.seeds == tuple(range(10))

    def test_db_conversion(self):
        spec = build_spec({"env": {"power": {"P_t_dB": 10.0, "I_dB": 20.0}}})
        assert spec.env.pc.P_t == pytest.approx(10.0)
        assert spec.env.pc.I_thr == pytest.approx(100.0)

    def test_mode_forms(self):
        s1 = build_spec({"env": {"mode": "passive"}})
        assert s1.env.mode.kind == "passive"
        s2 = build_spec({"env": {"mode": {"kind": "fixed_hybrid",
                                          "active_fraction": 0.25,
                                          "fixed_gain": 3.0}}})
        assert s2.env.mode.fixed_gain == 3.0

    def test_validation_lists_offending_fields(self):
        bad = {
            "env": {"topology": {"A": 0}, "harvest": {"eta": 2.0}},
            "agent": {"kind": "nope"},
            "total_steps": 0,
            "total_step": 5,
        }
        with pytest.raises(SpecError) as err:
            build_spec(bad)
        msg = str(err.value)
        assert "env.topology" in msg
        assert "env.harvest" in msg
        assert "agent.kind" in msg
        assert "total_steps: must be >= 1" in msg
        assert "spec: unknown key 'total_step'" in msg

    def test_readme_spec_shows_the_defaults(self):
        # the README says every field of its spec example shows its default
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        d = json.loads(text.split("```json\n", 1)[1].split("```", 1)[0])
        assert d.pop("sweep")
        assert build_spec(d) == build_spec({"name": "tau-sweep"})

    @pytest.mark.parametrize("key,cls", [("attack", hr.AttackConfig),
                                         ("defense", hr.DefenseConfig)])
    def test_empty_attack_or_defense_is_the_default(self, key, cls):
        assert getattr(build_spec({key: {}}), key) == cls()
        assert getattr(build_spec({key: None}), key) is None
        assert getattr(build_spec({}), key) is None

    def test_sweep_is_not_a_spec_key(self):
        # expand_sweep takes the sweep off every point it yields
        d = {"sweep": [{"path": "env.harvest.tau", "values": [10]}]}
        with pytest.raises(SpecError, match="spec: unknown key 'sweep'"):
            build_spec(d)
        assert "sweep" not in expand_sweep(d)[0][1]
        assert "sweep" not in expand_sweep({"sweep": []})[0][1]

    # Each of these passed the spec on earlier versions: the non-integer
    # counts and the penalty string then raised a TypeError in the run, and
    # the NaNs ran without error.
    @pytest.mark.parametrize("env,message", [
        ({"penalty_weight": "x"}, "env: penalty_weight must be a real number"),
        ({"topology": {"A": 2.5}}, "env.topology: A must be an integer"),
        ({"topology": {"A": True}}, "env.topology: A must be an integer"),
        ({"cascade": {"kappa_b": 2.0}}, "env.cascade: kappa_b must be an"),
        ({"fading_block": 1.5},
         "env: fading_block must be an integer >= 1"),
        ({"harvest": {"tau": NAN}}, "env.harvest: tau must be >= 0"),
        ({"noise": {"sigma_b_sq": NAN}}, "env.noise: sigma_b_sq must be > 0"),
        ({"power": {"I_thr": NAN}}, "env.power: I_thr must be > 0"),
        ({"passive": {"offset_l": NAN}}, "env.passive: offset_l must be"),
        ({"active": {"amp_noise_var": NAN}}, "env.active: amp_noise_var"),
        ({"consumption": {"P_ctrl": NAN}}, "env.consumption: P_ctrl must"),
        ({"mode": {"kind": "fixed_hybrid", "fixed_gain": NAN}},
         "env.mode: fixed_gain must be > 1"),
        ({"mode": {"kind": "passive", "gain": 2}},
         "env.mode: .*unexpected keyword argument 'gain'"),
        # each of these was dropped without a word; a run drew its env
        # stream from the run seed whatever env.seed said
        ({"topolgy": {"A": 1}}, "env: unknown key 'topolgy'"),
        ({"fading": 4}, "env: unknown key 'fading'"),
        ({"seed": 123}, "env: unknown key 'seed'"),
    ], ids=["penalty_string", "float_count", "bool_count", "float_kappa",
            "float_fading_block", "nan_tau", "nan_noise", "nan_I_thr",
            "nan_offset", "nan_amp_noise", "nan_power_draw", "nan_gain",
            "unknown_mode_field", "misspelt_key", "unknown_key", "env_seed"])
    def test_malformed_env_field_is_named(self, env, message):
        with pytest.raises(SpecError, match=message):
            build_spec({"env": env})

    # the dB form used to report a missing key as "env.power: 'I_dB'" and a
    # string as the TypeError of a division
    @pytest.mark.parametrize("power,message", [
        ({"P_t_dB": 10}, "env.power: I_dB is missing: give both P_t_dB and"),
        ({"I_dB": 10}, "env.power: P_t_dB is missing: give both P_t_dB and"),
        ({"P_t_dB": "x", "I_dB": 3}, "env.power: P_t_dB must be a real"),
        ({"P_t_dB": 10, "I_dB": True}, "env.power: I_dB must be a real"),
        ({"P_t_dB": 10, "I_dB": 20, "P_max": 1},
         "env.power: .*unexpected keyword argument 'P_max'"),
    ], ids=["missing_I_dB", "missing_P_t_dB", "string_P_t_dB", "bool_I_dB",
            "unknown_field_beside_dB"])
    def test_malformed_db_power_is_named(self, power, message):
        with pytest.raises(SpecError, match=message):
            build_spec({"env": {"power": power}})

    def test_agent_nans_listed_together(self):
        with pytest.raises(SpecError) as err:
            build_spec({"agent": {"kind": "sac", "lr": NAN,
                                  "entropy_alpha": NAN,
                                  "target_entropy": NAN}})
        msg = str(err.value)
        for named in ("lr must be > 0", "entropy_alpha must be >= 0",
                      "target_entropy must be finite"):
            assert named in msg
        with pytest.raises(SpecError) as err:
            build_spec({"agent": {"kind": "td3", "policy_noise": NAN,
                                  "noise_clip": NAN, "expl_noise": NAN}})
        for named in ("policy_noise", "noise_clip", "expl_noise"):
            assert f"{named} must be >= 0" in str(err.value)
        with pytest.raises(SpecError, match="expl_noise must be >= 0"):
            build_spec({"agent": {"kind": "ddpg", "expl_noise": -1.0}})

    def test_env_problems_listed_together(self):
        with pytest.raises(SpecError) as err:
            build_spec({"env": {"harvest": {"tau": -1, "eta": 2},
                                "topology": {"A": 0, "R": 1.5},
                                "noise": {"sigma_b_sq": 0.0,
                                          "sigma_a_sq": NAN}}})
        msg = str(err.value)
        for named in ("eta must", "tau must", "A must", "R must",
                      "sigma_b_sq must", "sigma_a_sq must"):
            assert named in msg

    @pytest.mark.parametrize("field,value", [
        ("seeds", 5), ("seeds", ["a"]), ("seeds", [0, 0]), ("seeds", [-1]),
        ("total_steps", 2.7), ("total_steps", "abc"), ("n_seeds", "two"),
    ])
    def test_malformed_seeds_and_steps_rejected(self, field, value):
        with pytest.raises(SpecError, match=field):
            build_spec({field: value})

    def test_seed_and_step_problems_listed_together(self):
        with pytest.raises(SpecError) as err:
            build_spec({"seeds": [0, "a", 0, -1], "total_steps": 2.7})
        msg = str(err.value)
        assert "['a', -1] are not integers" in msg
        assert "[0] appear more than once" in msg
        assert "total_steps: must be an integer, not 2.7" in msg

    def test_duplicate_seeds_refused(self):
        # both runs would write seed_1/ and count twice in the aggregate
        with pytest.raises(SpecError, match="more than once"):
            ExperimentSpec(name="x", seeds=(1, 2, 1))

    # a name names the run's default directory and its compare column
    @pytest.mark.parametrize("name", BAD_NAMES, ids=BAD_NAME_IDS)
    def test_bad_name_listed_with_other_errors(self, name):
        with pytest.raises(SpecError) as err:
            build_spec({"name": name, "total_steps": 0})
        msg = str(err.value)
        assert f"name: must be a string without ',', '/', '\\' or a line " \
               f"break, other than '', '.' and '..', not {name!r}" in msg
        assert "total_steps: must be >= 1" in msg

    @pytest.mark.parametrize("name", BAD_NAMES, ids=BAD_NAME_IDS)
    def test_bad_name_refused_by_the_spec(self, name):
        with pytest.raises(SpecError, match="name: must be a string"):
            ExperimentSpec(name=name)

    def test_names_that_name_a_directory_accepted(self):
        for name in ("t", "tau-sweep", "a b", "x.y", "...", "tau=30"):
            assert build_spec({"name": name}).name == name

    # a point's name is the spec's name and its label, so a list or an
    # object value is labelled without a comma
    @pytest.mark.parametrize("path, values, labels", [
        ("agent.hidden", [[8, 8], [4]], ["hidden=8x8", "hidden=4"]),
        ("env.mode", ["passive",
                      {"kind": "fixed_hybrid", "active_fraction": 0.5}],
         ["mode=passive", "mode=kind=fixed_hybrid+active_fraction=0.5"])],
        ids=["hidden", "fixed_hybrid_mode"])
    def test_list_and_object_sweeps_run_and_compare(self, path, values,
                                                    labels, tmp_path):
        d = {"name": "s", "agent": {"kind": "sac", "warmup_steps": 5,
                                    "batch": 4, "hidden": [4]},
             "env": {"topology": {"A": 1, "B": 1, "R": 2, "W": 1}},
             "seeds": [0, 1], "total_steps": 8,
             "sweep": [{"path": path, "values": values}]}
        res = run_spec_dict(d, str(tmp_path), workers=1)
        assert [a["name"] for a in res] == [f"s_{lb}" for lb in labels]
        compare([str(tmp_path / lb) for lb in labels],
                str(tmp_path / "t.csv"))
        for table in ("t.csv", "t_curves.csv"):
            header, *rows = (tmp_path / table).read_text().splitlines()
            assert {len(r.split(",")) for r in rows} == {
                len(header.split(","))}
        assert (tmp_path / "t.csv").read_text().startswith(
            f"seed,s_{labels[0]},s_{labels[1]},"
            f"diff_s_{labels[1]}_vs_s_{labels[0]}\n")

    def test_reward_baseline_is_not_an_agent_field(self):
        with pytest.raises(SpecError, match="reward_baseline"):
            build_spec({"agent": {"kind": "sac", "reward_baseline": True}})

    def test_td3_and_ddpg_configs_validated(self):
        with pytest.raises(SpecError) as err:
            build_spec({"agent": {"kind": "td3", "policy_delay": 0,
                                  "gamma": 5}})
        msg = str(err.value)
        assert "gamma" in msg and "policy_delay" in msg
        with pytest.raises(SpecError, match="batch"):
            build_spec({"agent": {"kind": "ddpg", "batch": 0}})

    def test_untrainable_agent_config_fields_listed_together(self):
        with pytest.raises(SpecError) as err:
            build_spec({"agent": {"kind": "sac", "buffer_capacity": 4,
                                  "batch": 16, "tau_soft": -1.0,
                                  "hidden": [0], "entropy_alpha": 0.0}})
        msg = str(err.value)
        assert "tau_soft must lie in [0, 1]" in msg
        assert "buffer_capacity must be >= batch" in msg
        assert "hidden widths must be integers >= 1" in msg
        assert "entropy_alpha must be > 0 with auto_entropy" in msg
        with pytest.raises(SpecError, match="hidden widths"):
            build_spec({"agent": {"kind": "td3", "hidden": 64}})

    @pytest.mark.parametrize("spec,message", [
        ({"attack": {"threshold": "a"}},
         "attack: threshold must be a real number"),
        ({"defense": {"chi": "a"}}, "defense: chi must be a real number"),
        ({"agent": {"kind": "sac", "gamma": "x"}},
         "agent: gamma must be a real number"),
    ], ids=["attack_threshold", "defense_chi", "agent_gamma"])
    def test_non_real_field_is_named(self, spec, message):
        with pytest.raises(SpecError, match=message):
            build_spec(spec)

    # a list or a string where an object belongs used to run the defaults
    # (an empty one) or raise outside SpecError
    @pytest.mark.parametrize("spec,message", [
        ([1], r"spec: must be an object, not \[1\]"),
        ({"env": []}, r"env: must be an object, not \[\]"),
        ({"agent": "sac"}, "agent: must be an object, not 'sac'"),
        ({"attack": [1]}, "attack: .* must be a mapping, not list"),
    ], ids=["spec", "env", "agent", "attack"])
    def test_section_that_is_no_object_is_named(self, spec, message):
        with pytest.raises(SpecError, match=message):
            build_spec(spec)

    # expand_sweep reads the top level before build_spec does, so each
    # reader must refuse it with build_spec's error
    @pytest.mark.parametrize("spec", [[1], "x", 3])
    def test_spec_that_is_no_object_is_refused_before_any_run(self, spec,
                                                             tmp_path):
        message = f"invalid spec: spec: must be an object, not {spec!r}"
        for read in (build_spec, expand_sweep,
                     lambda d: run_spec_dict(d, str(tmp_path / "out"))):
            with pytest.raises(SpecError) as err:
                read(spec)
            assert str(err.value) == message
        assert not (tmp_path / "out").exists()

    def test_seeds_and_n_seeds_refused_together(self):
        # one of the two would be dropped, so both are named
        with pytest.raises(SpecError) as err:
            build_spec({"seeds": [0], "n_seeds": 5, "total_step": 5})
        assert str(err.value) == (
            "invalid spec: spec: unknown key 'total_step'; "
            "spec: give either seeds or n_seeds, not both")
        assert build_spec({"n_seeds": 3}).seeds == (0, 1, 2)
        assert build_spec({"seeds": None, "n_seeds": 2}).seeds == (0, 1)

    def test_seeds_override_replaces_n_seeds(self):
        # the CLI's --seeds stands in for the spec's seeds, n_seeds too
        d = {"agent": {"kind": "random"}, "n_seeds": 3, "total_steps": 5,
             "env": {"topology": {"A": 1, "B": 1, "R": 2, "W": 1}}}
        (agg,) = run_spec_dict(d, None, seeds_override=[4], workers=1)
        assert agg["seeds"] == [4]
        assert d["n_seeds"] == 3

    def test_attack_and_defense_sections(self):
        spec = build_spec({
            "attack": {"kind": "scale", "scale": 0.5, "threshold": 0.4},
            "defense": {"chi": 1.0},
        })
        assert spec.attack.kind == "scale"
        assert spec.defense.chi == 1.0

    def test_sweep_expansion(self):
        d = {"env": {"harvest": {"tau": 50.0}},
             "sweep": [{"path": "env.harvest.tau", "values": [10, 40]}]}
        points = expand_sweep(d)
        assert [label for label, _ in points] == ["tau=10", "tau=40"]
        assert points[0][1]["env"]["harvest"]["tau"] == 10
        assert d["env"]["harvest"]["tau"] == 50.0  # original untouched
        # an int or a bool prints whole: %g would label both step counts
        # total_steps=1e+06, and the bools =1 and =0
        for path, values, labels in [
                ("total_steps", [1000000, 1000001],
                 ["total_steps=1000000", "total_steps=1000001"]),
                ("agent.auto_entropy", [True, False],
                 ["auto_entropy=True", "auto_entropy=False"])]:
            points = expand_sweep({"sweep": [{"path": path,
                                              "values": values}]})
            assert [label for label, _ in points] == labels

    def test_sweep_values_with_one_label_rejected(self):
        # both values format as tau=10, so their runs would share a directory
        d = {"sweep": [{"path": "env.harvest.tau",
                        "values": [10, 10.0000001, 40]}]}
        with pytest.raises(SpecError, match="tau=10") as err:
            expand_sweep(d)
        assert "tau=40" not in str(err.value)

    def test_malformed_sweep_entry_rejected(self):
        d = {"sweep": [{"path": "env.harvest.tau", "values": [10]},
                       {"values": [1, 2]}]}
        with pytest.raises(SpecError, match=r"sweep\[1\]"):
            expand_sweep(d)

    def test_empty_sweep_values_rejected(self):
        # an empty list would run no point and still report success
        d = {"sweep": [{"path": "env.harvest.tau", "values": []}]}
        with pytest.raises(SpecError, match=r"sweep\[0\]: .*non-empty"):
            expand_sweep(d)

    def test_agent_config_of_another_kind_rejected(self):
        with pytest.raises(SpecError, match="td3"):
            ExperimentSpec(name="x", agent_kind="td3", agent=hr.SacConfig())
        with pytest.raises(SpecError, match="random"):
            ExperimentSpec(name="x", agent_kind="random",
                           agent=hr.SacConfig())
        with pytest.raises(SpecError, match="td3"):
            ExperimentSpec(name="x", agent_kind="td3", agent=hr.DdpgConfig())
        spec = ExperimentSpec(name="x", agent_kind="td3", agent=hr.Td3Config())
        assert isinstance(spec.agent, hr.Td3Config)


class TestSweepRun:
    def test_tau_sweep_orders_active_fraction(self, tmp_path):
        d = {
            "name": "tausweep",
            "env": {"topology": {"A": 1, "B": 1, "R": 2, "W": 1},
                    "cascade": {"kappa_s": 1, "kappa_b": 1, "kappa_p": 1}},
            "agent": {"kind": "random"},
            "seeds": [0, 1],
            "total_steps": 1500,
            "sweep": [{"path": "env.harvest.tau", "values": [10.0, 40.0]}],
        }
        res = run_spec_dict(d, str(tmp_path), workers=1)
        frac = {r["name"]: r["mode_fraction_active"] for r in res}
        assert frac["tausweep_tau=10"] > frac["tausweep_tau=40"]

    @pytest.mark.parametrize("path,values,message", [
        ("env.harvest.tau", [10, -1],
         "tau=-1: invalid spec: env.harvest: tau must be >= 0"),
        ("agent.kind", ["random", "bogus"],
         "kind=bogus: invalid spec: agent.kind: unknown kind 'bogus'"),
        ("env.fadng_block", [2, 3],
         "fadng_block=2: invalid spec: env: unknown key 'fadng_block'"),
    ], ids=["tau", "agent_kind", "unknown_key"])
    def test_invalid_point_refused_before_any_point_runs(
            self, tmp_path, path, values, message):
        d = {"name": "s", "agent": {"kind": "random"}, "seeds": [0],
             "total_steps": 5, "sweep": [{"path": path, "values": values}]}
        out = tmp_path / "out"
        with pytest.raises(SpecError) as err:
            run_spec_dict(d, str(out), workers=1)
        assert str(err.value) == message
        assert not out.exists()

    @pytest.mark.parametrize("workers", [0, -5])
    def test_worker_count_below_one_refused(self, tmp_path, workers):
        out = tmp_path / "out"
        with pytest.raises(ValueError) as err:
            run_spec_dict(tau_sweep(), str(out), workers=workers)
        assert str(err.value) == f"workers must be >= 1, not {workers}"
        assert not out.exists()

    @pytest.mark.parametrize("workers", [2.5, True])
    def test_worker_count_not_an_integer_refused(self, tmp_path, workers):
        # refused before a pool starts, not inside it (2.5) or by running
        # serially (True, which is 1 to a comparison)
        out = tmp_path / "out"
        with pytest.raises(ValueError) as err:
            run_spec_dict(tau_sweep(), str(out), workers=workers)
        assert str(err.value) == f"workers must be an integer, not {workers}"
        assert not out.exists()

    @pytest.mark.parametrize("workers", [None, 2, 8])
    def test_one_pool_serves_every_point(self, pool_sizes, tmp_path, workers):
        size = resolve_workers(6, workers)     # 3 points x 2 seeds
        res = run_spec_dict(tau_sweep(), str(tmp_path), workers=workers)
        assert pool_sizes == ([size] if size > 1 else [])
        assert [r["name"] for r in res] == [
            "sweep_tau=10", "sweep_tau=30", "sweep_tau=40"]
        assert all((tmp_path / f"tau={tau}" / "curve_mean.csv").exists()
                   for tau in (10, 30, 40))

    def test_pool_writes_the_serial_tree(self, tmp_path):
        # 4 seed-runs of 2 points on 2 workers: a worker runs more than one
        d = {"name": "mix",
             "env": {"topology": {"A": 1, "B": 1, "R": 2, "W": 1}},
             "agent": {"kind": "random", "warmup_steps": 30, "batch": 4,
                       "hidden": [8, 8]},
             "attack": {"kind": "invert", "threshold": 0.6,
                        "trigger_window": 8},
             "defense": {"chi": 2.0, "warmup_count": 12, "stats_window": 60},
             "seeds": [0, 1], "total_steps": 60,
             "sweep": [{"path": "agent.kind", "values": ["random", "sac"]}]}
        for workers in (1, 2):
            run_spec_dict(d, str(tmp_path / f"w{workers}"), workers=workers)
        serial = file_tree(tmp_path / "w1")
        assert "kind=sac/seed_1/pipeline.jsonl" in serial
        assert serial == file_tree(tmp_path / "w2")

    def test_failing_seed_run_keeps_earlier_aggregates(self, monkeypatch,
                                                       tmp_path):
        real = harness.run_single

        def run_single(spec, seed, out_dir=None):
            if spec.name == "sweep_tau=30" and seed == 1:
                raise RuntimeError("seed-run failed")
            return real(spec, seed, out_dir)

        monkeypatch.setattr("hybridris.harness.run_single", run_single)
        with pytest.raises(RuntimeError, match="seed-run failed"):
            run_spec_dict(tau_sweep(), str(tmp_path), workers=1)
        for tau, written in ((10, True), (30, False), (40, False)):
            for name in ("summary.json", "curve_mean.csv"):
                assert (tmp_path / f"tau={tau}" / name).exists() == written


class TestJsonlWriter:
    @pytest.mark.parametrize("log", [
        {"x": [NAN, INF, -INF, -0.0, 1e16, 5e-324, 0.1]},
        {"x": [-0.0, 1e16, 5e-324, 1 / 3, -2.5e-8, 1e300]},
        {"x": [1.7e308, 1.7e308, 0.5], "n": [10 ** 400, 1.5, 2]},
        {"cap": [9.5, 10, 7.25], "alpha": [1.0, 2, 1.5]},
        {"t": [0, 1, 2], "triggered": [True, False, True]},
        {"x": [True, 1, 1.0, False, 0, 0.0]},
        {"x": [NAN, 0.0, -0.0]},
        {"x": [True, -0.0, 0.0, False]},
        {"s": ['a"b', "c\\d", "na\u00efve \u20ac", "%s %r %%"],
         "100%": [1, 2, 3, 4]},
        {"t": [], "mode": []},
        {},
    ], ids=["non_finite", "finite_edges", "float_range", "int_in_float",
            "bool", "true_and_one", "signed_zeros",
         "bool_and_signed_zeros", "strings", "no_rows", "no_columns"])
    def test_bytes_match_one_dumps_per_row(self, tmp_path, log):
        path = tmp_path / "log.jsonl"
        _write_jsonl(path, log)
        assert path.read_bytes() == dumps_per_row(log).encode()

    def test_integer_power_cap_in_a_step_log(self, tmp_path):
        # a slot capped at an integer P_t logs that integer among floats
        env = tiny_env(pc=hr.PowerConstraint(P_t=10, I_thr=5.0))
        loop = build_loop(ExperimentSpec(name="cap", env=env,
                                         agent_kind="random", seeds=(0,),
                                         total_steps=100), 0)
        loop.run(100)
        kinds = {type(c) for c in loop.step_log["cap"]}
        assert kinds == {int, float}
        _write_jsonl(tmp_path / "steps.jsonl", loop.step_log)
        assert (tmp_path / "steps.jsonl").read_bytes() == \
            dumps_per_row(loop.step_log).encode()


class TestPaperClaimsRandomAgent:
    """The paper's energy claims on the paper-default env. Harvest, mode
    and energy bill do not depend on the action, so the random agent checks
    them in well under a second (2 seeds x 400 steps per point)."""

    @staticmethod
    def aggregate(env: dict) -> dict:
        spec = build_spec({"name": "claim", "env": env,
                           "agent": {"kind": "random"}, "seeds": [0, 1],
                           "total_steps": 400})
        return run_experiment(spec, workers=1)

    def test_dynamic_hybrid_bills_between_passive_and_active(self):
        energy = {mode: self.aggregate({"mode": mode})["mean_energy_J"]
                  for mode in ("passive", "dynamic_hybrid", "active")}
        assert energy["passive"] < energy["dynamic_hybrid"] < energy["active"]

    def test_active_fraction_falls_as_tau_rises(self):
        fractions = [self.aggregate({"harvest": {"tau": tau}})
                     ["mode_fraction_active"] for tau in (10, 30, 50, 100)]
        assert all(a > b for a, b in zip(fractions, fractions[1:]))
def named_runs(tmp_path, *names):
    """The directories of 20-step tiny runs, each named as its directory."""
    dirs = [str(tmp_path / name) for name in names]
    for name, d in zip(names, dirs):
        run_experiment(tiny_spec(name=name, steps=20), d, workers=1)
    return dirs


class TestCompare:
    def test_self_comparison_zero_diff(self, tmp_path):
        # same spec under two names: the name does not enter the seeds
        for name in ("t1", "t2"):
            run_experiment(tiny_spec(name=name, steps=150, seeds=(0, 1)),
                           str(tmp_path / name), workers=1)
        out = str(tmp_path / "table.csv")
        res = compare([str(tmp_path / "t1"), str(tmp_path / "t2")], out)
        diffs = [row["diff_t2_vs_t1"] for row in res["rows"]]
        assert all(d == 0.0 for d in diffs)
        assert os.path.exists(out)
        assert os.path.exists(str(tmp_path / "table_curves.csv"))

    def test_one_step_runs(self, tmp_path):
        # one step leaves a single data row in each curve_mean.csv
        for name in ("t1", "t2"):
            run_experiment(tiny_spec(name=name, steps=1), str(tmp_path / name),
                           workers=1)
        res = compare([str(tmp_path / "t1"), str(tmp_path / "t2")],
                      str(tmp_path / "table.csv"))
        assert res["rows"][0]["diff_t2_vs_t1"] == 0.0
        curves = (tmp_path / "table_curves.csv").read_text().splitlines()
        assert curves[0] == "t,t1,t2" and len(curves) == 2

    def test_table_cells_are_numbers(self, tmp_path):
        # past the header and the label column every cell is a number, the
        # paired t statistic included
        dirs = [str(tmp_path / name) for name in ("h", "a")]
        run_experiment(tiny_spec(name="h", steps=150, seeds=(0, 1, 2)),
                       dirs[0], workers=1)
        run_experiment(ExperimentSpec(
            name="a", env=tiny_env(mode=hr.RisMode.active()),
            agent_kind="random", seeds=(0, 1, 2), total_steps=150),
            dirs[1], workers=1)
        out = tmp_path / "table.csv"
        res = compare(dirs, str(out))
        assert type(res["stats"]["paired_t"]["diff_a_vs_h"]) is float
        lines = out.read_text().splitlines()
        assert lines[-1].startswith("paired_t,")
        for line in lines[1:]:
            for cell in line.split(",")[1:]:
                if cell:
                    float(cell)

    # sha256 of both tables and of the result dict for 3 runs x 3 seeds:
    # "h2" repeats "h" under another name, so its paired differences are
    # all zero and its paired t is NaN, and "a" runs an always-active
    # surface, so its differences are not
    COMPARE_SHA256 = {
        "table.csv":
            "706e52b89fd9876b47e9417d6b435915656e53f8e7b4bff5044351ec8f6011be",
        "table_curves.csv":
            "2706ef4b2eb982e6bba69a41930ba0b0c31c8b335ddb300aa4890d8a5924318c",
        "result":
            "acffcb474150af57316ab6ec7897012e8373f5206dff204e78806ab6cc18ba38",
    }

    def test_tables_pinned(self, tmp_path):
        seeds = (0, 1, 2)
        runs = {"h": tiny_spec(name="h", steps=150, seeds=seeds),
                "a": ExperimentSpec(name="a", agent_kind="random",
                                    env=tiny_env(mode=hr.RisMode.active()),
                                    seeds=seeds, total_steps=150),
                "h2": tiny_spec(name="h2", steps=150, seeds=seeds)}
        for name, spec in runs.items():
            run_experiment(spec, str(tmp_path / name), workers=1)
        res = compare([str(tmp_path / name) for name in runs],
                      str(tmp_path / "table.csv"))
        digests = {name: hashlib.sha256(
            (tmp_path / name).read_bytes()).hexdigest()
            for name in ("table.csv", "table_curves.csv")}
        digests["result"] = hashlib.sha256(
            json.dumps(res).encode()).hexdigest()
        assert digests == self.COMPARE_SHA256

    def test_shared_name_rejected(self, tmp_path):
        dirs = [str(tmp_path / d) for d in ("a", "b")]
        for d in dirs:
            run_experiment(tiny_spec(steps=100), d, workers=1)
        with pytest.raises(ValueError, match="'t'") as err:
            compare(dirs, str(tmp_path / "t.csv"))
        assert dirs[0] in str(err.value) and dirs[1] in str(err.value)

    def test_run_named_like_a_difference_column_rejected(self, tmp_path):
        # the third run's name is the second run's difference column
        dirs = named_runs(tmp_path, "a", "b", "diff_b_vs_a")
        out = tmp_path / "t.csv"
        with pytest.raises(ValueError, match="'diff_b_vs_a'") as err:
            compare(dirs, str(out))
        assert dirs[2] in str(err.value)
        assert list(tmp_path.glob("*.csv")) == []

    def test_alignment_error_on_step_mismatch(self, tmp_path):
        run_experiment(tiny_spec(steps=100), str(tmp_path / "a"), workers=1)
        run_experiment(tiny_spec(steps=120), str(tmp_path / "b"), workers=1)
        with pytest.raises(ValueError, match="alignment"):
            compare([str(tmp_path / "a"), str(tmp_path / "b")],
                    str(tmp_path / "t.csv"))


class TestCli:
    # a bad name is refused before any run directory is named or written,
    # with one line and exit code 2, with or without --out
    @pytest.mark.parametrize("name", BAD_NAMES, ids=BAD_NAME_IDS)
    @pytest.mark.parametrize("out", [[], ["--out", "o"]],
                             ids=["default_out", "out"])
    def test_bad_name_writes_nothing(self, name, out, tmp_path, monkeypatch,
                                     capsys):
        from hybridris.cli import main
        monkeypatch.chdir(tmp_path)
        (tmp_path / "s.json").write_text(json.dumps(
            {"name": name, "agent": {"kind": "random"}, "seeds": [0],
             "total_steps": 0}))
        assert main(["run", "s.json", *out]) == 2
        err = capsys.readouterr().err
        # the name is listed with the spec's other errors on either path
        assert err.startswith("hybridris: error: invalid spec: name: must "
                              "be a string")
        assert "; total_steps: must be >= 1" in err
        assert len(err.splitlines()) == 1
        assert [p.name for p in tmp_path.iterdir()] == ["s.json"]

    def test_name_a_sweep_replaces_is_checked(self, tmp_path, monkeypatch,
                                              capsys):
        # every point is named by the sweep, and runs/<name> by the spec
        from hybridris.cli import main
        monkeypatch.chdir(tmp_path)
        (tmp_path / "s.json").write_text(json.dumps(
            {"name": "../x", "agent": {"kind": "random"}, "seeds": [0],
             "total_steps": 5, "sweep": [{"path": "name", "values": ["a"]}]}))
        assert main(["run", "s.json"]) == 2
        assert "name: must be a string" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["s.json"]

    def test_run_and_compare(self, tmp_path):
        from hybridris.cli import main
        spec = {
            "name": "cli",
            "env": {"topology": {"A": 1, "B": 1, "R": 2, "W": 1},
                    "cascade": {"kappa_s": 1, "kappa_b": 1, "kappa_p": 1}},
            "agent": {"kind": "random"},
            "seeds": [0],
            "total_steps": 100,
        }
        out1 = tmp_path / "o1"
        out2 = tmp_path / "o2"
        for name, out in (("cli1", out1), ("cli2", out2)):
            spec_path = tmp_path / f"{name}.json"
            spec_path.write_text(json.dumps({**spec, "name": name}))
            assert main(["run", str(spec_path), "--out", str(out),
                         "--workers", "1"]) == 0
        table = tmp_path / "cmp.csv"
        assert main(["compare", str(out1), str(out2),
                     "--out", str(table)]) == 0
        assert table.exists()

    def test_compare_prints_exactly_the_difference_columns(self, tmp_path,
                                                            capsys):
        # a run named like a difference is printed as a run
        from hybridris.cli import main
        dirs = named_runs(tmp_path, "a", "diff_x")
        assert main(["compare", *dirs, "--out",
                     str(tmp_path / "t.csv")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines[1:-1]] == \
            ["  a", "  diff_x", "  diff_diff_x_vs_a"]
        assert lines[3].startswith("  diff_diff_x_vs_a: mean ")

    def test_difference_column_clash_writes_nothing(self, tmp_path, capsys):
        from hybridris.cli import main
        dirs = named_runs(tmp_path, "a", "b", "diff_b_vs_a")
        assert main(["compare", *dirs, "--out",
                     str(tmp_path / "clash.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("hybridris: error: ") and "diff_b_vs_a" in err
        assert len(err.splitlines()) == 1
        assert list(tmp_path.glob("*.csv")) == []

    def test_seed_and_step_overrides(self, tmp_path):
        from hybridris.cli import main
        spec = {
            "name": "cli2",
            "env": {"topology": {"A": 1, "B": 1, "R": 2, "W": 1}},
            "agent": {"kind": "random"},
            "seeds": [5, 6, 7],
            "total_steps": 500,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "o"
        assert main(["run", str(spec_path), "--seeds", "1", "--steps", "60",
                     "--out", str(out), "--workers", "1"]) == 0
        agg = json.loads((out / "summary.json").read_text())
        assert agg["seeds"] == [0]
        assert agg["total_steps"] == 60
