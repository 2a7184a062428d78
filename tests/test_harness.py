import hashlib
import json
import os

import numpy as np
import pytest

import hybridris as hr
from hybridris.harness import (ExperimentSpec, SpecError, build_loop,
                               build_spec, compare, converged_mean,
                               expand_sweep, load_checkpoint, moving_average,
                               replay_summary, resolve_workers,
                               run_experiment, run_single, run_spec_dict,
                               save_checkpoint)


def tiny_env(**kw):
    base = dict(topo=hr.Topology(A=1, B=1, R=2, W=1),
                cascade=hr.CascadeSpec(1, 1, 1))
    base.update(kw)
    return hr.EnvConfig(**base)


def tiny_spec(name="t", agent_kind="random", steps=300, seeds=(0,), **kw):
    return ExperimentSpec(name=name, env=tiny_env(), agent_kind=agent_kind,
                          seeds=seeds, total_steps=steps, **kw)


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
        assert s1.to_json_dict() == s2.to_json_dict()
        assert (d1 / "steps.jsonl").read_bytes() == \
               (d2 / "steps.jsonl").read_bytes()
        assert (d1 / "summary.json").read_bytes() == \
               (d2 / "summary.json").read_bytes()
        assert (d1 / "checkpoint.pkl").read_bytes() == \
               (d2 / "checkpoint.pkl").read_bytes()

    def test_summary_matches_log_replay(self, tmp_path):
        spec = tiny_spec(steps=400)
        summary = run_single(spec, 3, str(tmp_path))
        replayed = replay_summary(str(tmp_path / "steps.jsonl"))
        assert replayed["steps"] == summary.steps
        for key in ("converged_mean", "mode_fraction_active",
                    "mode_fraction_passive", "mean_energy_J"):
            assert replayed[key] == pytest.approx(getattr(summary, key),
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

    def test_parallel_matches_serial(self, tmp_path):
        spec = tiny_spec(steps=200, seeds=(0, 1))
        a = run_experiment(spec, str(tmp_path / "ser"), workers=1)
        b = run_experiment(spec, str(tmp_path / "par"), workers=2)
        assert a == b

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


def rewards(loop) -> list:
    """The reward column of a loop's step records."""
    return [rec["reward"] for rec in loop.step_records]


LEARNER_CONFIGS = {"sac": hr.SacConfig, "ddpg": hr.DdpgConfig,
                   "td3": hr.Td3Config}


class TestCheckpoints:
    # every learner also stops at an odd step; for TD3 the restored critic
    # Adam step count must put the delayed actor update back in phase
    @pytest.mark.parametrize("kind,stop", [
        ("sac", 120), ("ddpg", 120), ("td3", 120), ("td3", 121),
        ("sac", 121), ("ddpg", 121)])
    def test_resume_is_bitwise_identical(self, tmp_path, kind, stop):
        spec = tiny_spec(
            agent_kind=kind,
            agent=LEARNER_CONFIGS[kind](warmup_steps=30, batch=4,
                                        hidden=(12, 12)),
            steps=stop + 100)
        loop = build_loop(spec, 0)
        loop.run(stop)
        path = str(tmp_path / "ck.pkl")
        save_checkpoint(path, loop)
        loop.run(100)
        expected_tail = rewards(loop)[stop:]

        loop2 = build_loop(spec, 0)
        load_checkpoint(path, loop2)
        assert loop2.t == stop
        loop2.run(100)
        assert rewards(loop2) == expected_tail

    def test_uninterrupted_equals_checkpointed(self, tmp_path):
        spec = tiny_spec(
            agent_kind="sac",
            agent=hr.SacConfig(warmup_steps=30, batch=4, hidden=(12, 12)),
            steps=200)
        straight = build_loop(spec, 0)
        straight.run(200)
        loop = build_loop(spec, 0)
        loop.run(80)
        path = str(tmp_path / "ck.pkl")
        save_checkpoint(path, loop)
        resumed = build_loop(spec, 0)
        load_checkpoint(path, resumed)
        resumed.run(120)  # a restored loop logs only its own steps
        assert rewards(straight) == rewards(loop) + rewards(resumed)

    # version 1 checkpoints hold h_b as a list of per-receiver columns;
    # version 2 ones hold each net and Adam moment as a list of per-layer
    # arrays; version 3 ones hold each critic member as its own net;
    # version 4 ones hold reward sums, the filter count and DDPG/TD3's
    # update count
    @pytest.mark.parametrize("version", [1, 2, 3, 4])
    def test_older_checkpoint_version_refused(self, version):
        loop = build_loop(tiny_spec(), 0)
        st = loop.get_state()
        st["version"] = version
        with pytest.raises(ValueError, match=f"version {version}"):
            build_loop(tiny_spec(), 0).set_state(st)


# sha256 of steps.jsonl for a 300-step random-agent run on the paper-default
# env (dynamic hybrid) at seed 7. Any change to the channel stream, the PHY
# arithmetic or the log format moves it. Recorded with numpy 2.4 on x86-64;
# another numpy or CPU may round some step differently.
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
# unit tests. Recorded with numpy 2.4 on x86-64, like the pin above.
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


# sha256 of a 200-step random-agent step log (the lines steps.jsonl holds)
# followed by the bytes of the last observation, seed 3, for the modes and
# env shapes the pin above leaves out. "small_I_thr" makes the projection
# bind on most steps; "integer_fields" gives P_t, fixed_gain and tau as JSON
# integers, which the log keeps as integers ("cap": 10, "alpha": 3).
# Recorded with numpy 2.4 on x86-64, like the pin above.
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
}


def step_log_digest(env_d: dict, seed: int, steps: int) -> str:
    spec = build_spec({"env": env_d, "agent": {"kind": "random"},
                       "seeds": [seed], "total_steps": steps})
    loop = build_loop(spec, seed)
    loop.run(steps)
    digest = hashlib.sha256()
    for rec in loop.step_records:
        digest.update((json.dumps(rec) + "\n").encode())
    digest.update(loop.obs.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", list(ENV_DIGESTS))
def test_env_digest_pinned(name):
    env_d, expected = ENV_DIGESTS[name]
    assert step_log_digest(env_d, 3, 200) == expected


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
        }
        with pytest.raises(SpecError) as err:
            build_spec(bad)
        msg = str(err.value)
        assert "env.topology" in msg
        assert "env.harvest" in msg
        assert "agent.kind" in msg
        assert "total_steps" in msg

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

    def test_reward_baseline_is_not_an_agent_field(self):
        with pytest.raises(SpecError, match="reward_baseline"):
            build_spec({"agent": {"kind": "sac", "reward_baseline": True}})

    def test_bad_worker_count_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("HYBRIDRIS_WORKERS", "two")
        with pytest.raises(ValueError, match="HYBRIDRIS_WORKERS.*'two'"):
            resolve_workers(4)

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

    def test_shared_name_rejected(self, tmp_path):
        dirs = [str(tmp_path / d) for d in ("a", "b")]
        for d in dirs:
            run_experiment(tiny_spec(steps=100), d, workers=1)
        with pytest.raises(ValueError, match="'t'") as err:
            compare(dirs, str(tmp_path / "t.csv"))
        assert dirs[0] in str(err.value) and dirs[1] in str(err.value)

    def test_alignment_error_on_step_mismatch(self, tmp_path):
        run_experiment(tiny_spec(steps=100), str(tmp_path / "a"), workers=1)
        run_experiment(tiny_spec(steps=120), str(tmp_path / "b"), workers=1)
        with pytest.raises(ValueError, match="alignment"):
            compare([str(tmp_path / "a"), str(tmp_path / "b")],
                    str(tmp_path / "t.csv"))


class TestCli:
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
