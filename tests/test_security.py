import json

import numpy as np
import pytest

from hybridris.numerics import make_rng
from hybridris.security import (AttackConfig, DefenseConfig, RewardFilter,
                                RewardPipeline, attack, defend)


class TestAttack:
    def test_invert_above_threshold(self):
        cfg = AttackConfig(kind="invert", threshold=0.5)
        assert attack(cfg, 0.9, recent_reward_mean=0.7,
                      rng=make_rng(0)) == -0.9

    def test_scale_above_threshold(self):
        cfg = AttackConfig(kind="scale", threshold=0.5, scale=0.5)
        assert attack(cfg, 0.8, 0.7, make_rng(0)) == pytest.approx(0.4)

    def test_below_threshold_untouched(self):
        cfg = AttackConfig(kind="invert", threshold=0.5)
        assert attack(cfg, 0.9, 0.3, make_rng(0)) == 0.9

    def test_random_scale_draws_in_range(self):
        cfg = AttackConfig(kind="random_scale", threshold=0.0,
                           scale_low=0.3, scale_high=0.9)
        rng = make_rng(1)
        for _ in range(500):
            out = attack(cfg, 1.0, 1.0, rng)
            assert 0.3 <= out <= 0.9

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AttackConfig(kind="meow")
        with pytest.raises(ValueError):
            AttackConfig(scale=1.5)
        with pytest.raises(ValueError):
            AttackConfig(scale_low=0.9, scale_high=0.3)


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


class TestRewardFilter:
    def test_warmup_accepts_everything(self):
        f = RewardFilter(DefenseConfig(warmup_count=10))
        for i in range(10):
            accepted, _, _, _ = f.process(float(i) * 100)  # wild values
            assert accepted

    def test_stats_over_recent_window(self):
        f = RewardFilter(DefenseConfig(warmup_count=2, stats_window=4))
        for v in (1.0, 1.1, 1.05, 1.0, 0.98):
            accepted, _, _, _ = f.process(v)
            assert accepted
        # only the stats_window most recent accepted rewards count
        mean, std = f.stats()
        assert mean == pytest.approx(np.mean([1.1, 1.05, 1.0, 0.98]))
        assert std == pytest.approx(np.std([1.1, 1.05, 1.0, 0.98], ddof=1))

    def test_std_floor(self):
        f = RewardFilter(DefenseConfig(warmup_count=2))
        f.process(1.0)
        f.process(1.0)
        _, std = f.stats()
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
