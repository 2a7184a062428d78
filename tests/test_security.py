import hashlib
import json
import pickle

import numpy as np
import pytest

from hybridris.harness import SpecError, build_spec
from hybridris.numerics import make_rng
from hybridris.security import (AttackConfig, DefenseConfig, RewardPipeline,
                                attack, defend)

NAN = float("nan")


class TestAttack:
    def test_invert_above_threshold(self):
        cfg = AttackConfig(kind="invert", threshold=0.5)
        assert attack(cfg, 0.9, rng=make_rng(0)) == -0.9

    def test_scale_above_threshold(self):
        cfg = AttackConfig(kind="scale", threshold=0.5, scale=0.5)
        assert attack(cfg, 0.8, make_rng(0)) == pytest.approx(0.4)

    def test_below_threshold_untouched(self):
        cfg = AttackConfig(kind="invert", threshold=0.5, trigger_window=1)
        p = RewardPipeline(cfg, None, rng=make_rng(0))
        p.step(0.3)  # the recent mean the trigger sees
        rec = p.step(0.9)
        assert not rec.triggered
        assert rec.post_attack == rec.raw == 0.9

    def test_random_scale_draws_in_range(self):
        cfg = AttackConfig(kind="random_scale", threshold=0.0,
                           scale_low=0.3, scale_high=0.9)
        rng = make_rng(1)
        for _ in range(500):
            out = attack(cfg, 1.0, rng)
            assert 0.3 <= out <= 0.9

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AttackConfig(kind="meow")
        with pytest.raises(ValueError):
            AttackConfig(scale=1.5)
        with pytest.raises(ValueError):
            AttackConfig(scale_low=0.9, scale_high=0.3)

    def test_problems_listed_together(self):
        with pytest.raises(ValueError) as err:
            AttackConfig(kind="meow", threshold=NAN, trigger_window=0)
        msg = str(err.value)
        for named in ("meow", "threshold", "trigger_window"):
            assert named in msg


class TestDefend:
    def test_accept_within_band(self):
        cfg = DefenseConfig(chi=2.0)
        accepted, clipped = defend(cfg, mean=1.0, std=0.2, r=1.3)
        assert accepted and clipped == 1.3

    def test_discard_outside_band(self):
        cfg = DefenseConfig(chi=2.0)
        accepted, clipped = defend(cfg, mean=1.0, std=0.2, r=1.5)
        assert not accepted

    def test_clip_applies_before_filter(self):
        cfg = DefenseConfig(r_min=-2.0, r_max=2.0, chi=2.0)
        accepted, clipped = defend(cfg, mean=1.9, std=0.1, r=5.0)
        assert clipped == 2.0
        assert accepted  # |2.0 - 1.9| <= 0.2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DefenseConfig(r_min=2.0, r_max=-2.0)
        with pytest.raises(ValueError):
            DefenseConfig(warmup_count=1)
        with pytest.raises(ValueError):
            DefenseConfig(stats_window=5, warmup_count=10)

    def test_problems_listed_together(self):
        with pytest.raises(ValueError) as err:
            DefenseConfig(r_min=NAN, chi=NAN, warmup_count=2.5,
                          stats_window=3.5)
        msg = str(err.value)
        for named in ("r_min", "chi", "warmup_count", "stats_window"):
            assert named in msg


# Each of these passed the spec on earlier versions and then raised a
# TypeError at the first run (the windows) or discarded every reward after
# warm-up (a NaN band or clip bound).
@pytest.mark.parametrize("section,field,value", [
    ("defense", "stats_window", 100.5),
    ("defense", "warmup_count", 10.5),
    ("attack", "trigger_window", 5.5),
    ("attack", "trigger_window", True),
    ("defense", "chi", NAN),
    ("defense", "r_min", NAN),
    ("defense", "r_max", NAN),
    ("attack", "threshold", NAN),
])
def test_spec_refuses_malformed_security_field(section, field, value):
    with pytest.raises(SpecError, match=f"{section}: .*{field}"):
        build_spec({section: {field: value}})


class TestRewardFilter:
    def test_warmup_accepts_everything(self):
        p = RewardPipeline(None, DefenseConfig(warmup_count=10))
        for i in range(10):
            assert p.step(float(i) * 100).accepted  # wild values

    def test_stats_over_recent_window(self):
        p = RewardPipeline(None, DefenseConfig(warmup_count=2, stats_window=4))
        for v in (1.0, 1.1, 1.05, 1.0, 0.98):
            assert p.step(v).accepted
        # only the stats_window most recent accepted rewards count
        mean, std = p.stats()
        assert mean == pytest.approx(np.mean([1.1, 1.05, 1.0, 0.98]))
        assert std == pytest.approx(np.std([1.1, 1.05, 1.0, 0.98], ddof=1))

    def test_std_floor(self):
        p = RewardPipeline(None, DefenseConfig(warmup_count=2))
        p.step(1.0)
        p.step(1.0)
        _, std = p.stats()
        assert std >= 1e-6


class TestPipeline:
    def test_passthrough_without_attack_or_defense(self):
        p = RewardPipeline(None, None)
        rec = p.step(1.2)
        assert rec.accepted and rec.value == 1.2 and rec.post_attack == 1.2
        rec = p.step(5.0)
        assert rec.accepted and rec.value == 2.0  # clipped

    def test_composed_invert_then_discard(self):
        atk = AttackConfig(kind="invert", threshold=0.5, trigger_window=1)
        dfn = DefenseConfig(r_min=-2.0, r_max=2.0, chi=2.0, warmup_count=2,
                            stats_window=10)
        p = RewardPipeline(atk, dfn, rng=make_rng(0))
        p.step(1.1)  # warmup (clean)
        p.step(1.1)  # warmup (clean): stats mean 1.1, tiny std
        rec = p.step(1.2)
        assert rec.triggered
        assert rec.post_attack == -1.2
        assert rec.clipped == -1.2
        assert not rec.accepted
        assert np.isnan(rec.value)

    def test_warmup_steps_always_accepted_and_clean(self):
        atk = AttackConfig(kind="invert", threshold=-100.0, trigger_window=1)
        dfn = DefenseConfig(warmup_count=10)
        p = RewardPipeline(atk, dfn, rng=make_rng(1))
        for i in range(10):
            rec = p.step(1.0)
            assert rec.accepted
            assert rec.post_attack == rec.raw  # attack held off in warmup
            assert not rec.triggered

    def test_trigger_requires_full_window(self):
        atk = AttackConfig(kind="invert", threshold=-100.0, trigger_window=5)
        p = RewardPipeline(atk, None, rng=make_rng(2))
        for _ in range(5):
            rec = p.step(1.0)
            assert not rec.triggered  # window not yet full
        rec = p.step(1.0)
        assert rec.triggered and rec.post_attack == -1.0

    def test_clip_bounds_always_respected(self):
        atk = AttackConfig(kind="invert", threshold=-100.0, trigger_window=1)
        p = RewardPipeline(atk, None, rng=make_rng(3))
        rng = make_rng(4)
        for _ in range(200):
            rec = p.step(float(rng.uniform(-10, 10)))
            assert -2.0 <= rec.clipped <= 2.0

    def test_inverted_mean_negates_raw_mean(self):
        # always-on trigger, no defense, rewards inside the clip range
        atk = AttackConfig(kind="invert", threshold=-100.0, trigger_window=1)
        p = RewardPipeline(atk, None, rng=make_rng(5))
        rng = make_rng(6)
        raws, stored = [], []
        p.step(0.5)  # fill trigger window
        for _ in range(2000):
            r = float(rng.uniform(-1.5, 1.5))
            rec = p.step(r)
            if rec.triggered:
                raws.append(r)
                stored.append(rec.value)
        assert np.mean(stored) == pytest.approx(-np.mean(raws), abs=1e-12)

    def test_discard_rate_bounded_for_stationary_rewards(self):
        # bounded rewards inside the clip range: long-run discard rate stays
        # under the Chebyshev ceiling 1/chi^2
        dfn = DefenseConfig(chi=2.0, warmup_count=10, stats_window=200)
        p = RewardPipeline(None, dfn)
        rng = make_rng(7)
        decisions = [p.step(float(rng.uniform(0.5, 1.5))).accepted
                     for _ in range(5000)]
        discard_rate = 1.0 - np.mean(decisions)
        assert discard_rate <= 1.0 / 2.0 ** 2

    def test_deterministic_log(self):
        atk = AttackConfig(kind="random_scale", threshold=0.0,
                           trigger_window=2)
        dfn = DefenseConfig()
        rng = make_rng(8)
        rewards = [float(x) for x in rng.uniform(0, 2, 300)]

        def run():
            p = RewardPipeline(atk, dfn, rng=make_rng(9))
            return [json.dumps(p.step(r).to_json_dict()) for r in rewards]

        assert run() == run()

    def test_state_roundtrip(self):
        atk = AttackConfig(kind="random_scale", threshold=0.2)
        dfn = DefenseConfig()
        p = RewardPipeline(atk, dfn, rng=make_rng(10))
        rng = make_rng(11)
        for _ in range(120):
            p.step(float(rng.uniform(0, 2)))
        st = p.get_state()
        tail = [float(x) for x in rng.uniform(0, 2, 50)]
        expected = [p.step(r).to_json_dict() for r in tail]
        q = RewardPipeline(atk, dfn, rng=make_rng(12))
        q.set_state(st)
        got = [q.step(r).to_json_dict() for r in tail]
        assert expected == got


PIN_ATTACKS = {
    "none": None,
    "invert": AttackConfig(kind="invert", threshold=0.6, trigger_window=8),
    "scale": AttackConfig(kind="scale", threshold=0.6, trigger_window=8,
                          scale=0.4),
    "random_scale": AttackConfig(kind="random_scale", threshold=0.6,
                                 trigger_window=8),
}
PIN_DEFENSE = DefenseConfig(chi=2.0, warmup_count=12, stats_window=60)

# sha256 of the pipeline log (one json.dumps(to_json_dict()) line per
# reward) for 300 rewards on a slow sine plus noise, with a spike every 37th
# step: the records cover triggers switching on and off, clipping and
# discards. At step 150 the state is pickled and restored into a fresh
# pipeline with another generator. Recorded with numpy 2.4 on x86-64.
PIPELINE_LOG_SHA256 = {
    "none": "328bd180a0d3d4815bdef275d489aaa6d3484b28f098156ddcfdde544398e2bd",
    "none+defense":
        "d2c7223cc77eced7c3a81a39cab17ba9cbf5308015acb2df51050f86beb7d8f9",
    "invert":
        "90abe463e6d9922845d3bcff64ed08e42174d42d6d2060486e2880b0c2a8b836",
    "invert+defense":
        "4189fbc62e54a070313bd1568894e2d04aced183787da03fbc5a44badcc89369",
    "scale":
        "742528a01a81612658bb823cdf8f5cb2db6cb9c55d4eb132a7256856d6906655",
    "scale+defense":
        "420a59409b0a745f5a96cf485e2275aaee518ded8817c9095868eb5d1d2e3e90",
    "random_scale":
        "b638e856939013d0024c41fe11118bd3463a0b9db96c6003f590e760ece6002f",
    "random_scale+defense":
        "04c14047f815a1638b14ac0d8363c236df8c36bba85de355d5e142ee07567eb1",
}


@pytest.mark.parametrize("name", list(PIPELINE_LOG_SHA256))
def test_pipeline_log_digest_pinned(name):
    kind, _, defended = name.partition("+")
    atk, dfn = PIN_ATTACKS[kind], PIN_DEFENSE if defended else None
    t = np.arange(300)
    rewards = (0.6 + 0.8 * np.sin(t / 15.0)
               + 0.3 * make_rng(13).standard_normal(300))
    rewards[::37] += 3.0
    p = RewardPipeline(atk, dfn, rng=make_rng(14))
    digest = hashlib.sha256()
    for i, r in enumerate(rewards):
        if i == 150:
            st = pickle.loads(pickle.dumps(p.get_state()))
            p = RewardPipeline(atk, dfn, rng=make_rng(15))
            p.set_state(st)
        digest.update((json.dumps(p.step(float(r)).to_json_dict())
                       + "\n").encode())
    assert digest.hexdigest() == PIPELINE_LOG_SHA256[name]


def test_discarded_transitions_never_reach_buffer():
    # integration: the training loop must skip storing discarded rewards
    import hybridris as hr
    from hybridris.harness import ExperimentSpec, build_loop

    spec = ExperimentSpec(
        name="audit",
        env=hr.EnvConfig(topo=hr.Topology(A=1, B=1, R=2, W=1),
                         cascade=hr.CascadeSpec(1, 1, 1)),
        agent_kind="sac",
        agent=hr.SacConfig(warmup_steps=20, batch=4, hidden=(16, 16)),
        attack=AttackConfig(kind="invert", threshold=0.2, trigger_window=5),
        defense=DefenseConfig(warmup_count=10, stats_window=50),
        seeds=(0,), total_steps=400)
    loop = build_loop(spec, 0)
    loop.run(400)
    recs = loop.pipeline_records
    accepted_values = [r for rec, r in
                       zip(recs, (json.loads(json.dumps(rec))["clipped"]
                                  for rec in recs))
                       if rec["decision"] == "accepted"]
    stored = loop.agent.buffer.r[:loop.agent.buffer.size]
    assert len(accepted_values) == stored.size
    assert np.allclose(stored, accepted_values)
    assert any(rec["decision"] == "discarded" for rec in recs)
