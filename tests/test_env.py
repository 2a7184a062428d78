import dataclasses
import hashlib
import json
import pickle

import numpy as np
import pytest

from hybridris.channel import CascadeSpec, Topology, pu_power_gains
from hybridris import phy, ris
from hybridris.env import (CHANNEL_BLOCK, STEP_LOG_FIELDS, EnvConfig,
                           RisCrnEnv, action_size, observation_size, score)
from hybridris.numerics import make_rng, rng_state
from hybridris.phy import PowerConstraint, power_cap
from hybridris.ris import (ActiveParams, HarvestParams, PassiveParams,
                           RisMode, build_reflection, wrap_phase)
from oracles import (naive_active_sinr, naive_beta, naive_passive_rates,
                     sample_cascaded)


def small_cfg(**kw):
    base = dict(topo=Topology(A=1, B=1, R=2, W=1),
                cascade=CascadeSpec(kappa_s=1, kappa_b=1, kappa_p=1))
    base.update(kw)
    return EnvConfig(**base)


def log_record(t, out):
    """The step-log line a loop writes for outcome ``out`` at step t."""
    return dict(zip(STEP_LOG_FIELDS, (t, *out[1:-1])))


def score_at_cap(a, cap, topo):
    """The projected beamformer, the wrapped phases and the rescaled flag
    that ``score`` gives the flat action ``a`` on a slot capped at ``cap``."""
    env = RisCrnEnv(EnvConfig(topo=topo))
    env.reset(0)
    _, _, G, phases, rescaled = score(
        env.cfg, env.slots()._replace(cap=np.array([cap])), [a])
    return G[0], phases[0], rescaled[0]


class TestDecodeAction:
    def test_zero_action(self):
        topo = Topology(A=2, B=2, R=4, W=2)
        G, phases, _ = score_at_cap(np.zeros(action_size(topo)), 5.0, topo)
        assert np.all(G == 0)
        assert np.allclose(phases, np.pi)

    def test_projection_applies(self):
        topo = Topology(A=1, B=1, R=2, W=1)
        a = np.array([np.sqrt(10.0), np.sqrt(10.0), 0.0, 0.0])  # power 20
        G, _, rescaled = score_at_cap(a, 5.0, topo)
        assert np.sum(np.abs(G) ** 2) == pytest.approx(5.0, abs=1e-12)
        assert rescaled

    def test_phase_boundary_wraps(self):
        topo = Topology(A=1, B=1, R=1, W=1)
        _, phases, _ = score_at_cap(np.array([0.0, 0.0, 1.0]), 1.0, topo)
        assert phases[0] == pytest.approx(0.0, abs=1e-12)

    # the env wraps an action's phases once, and the reflection reads them
    # as they come: an action whose phases (x + 1) * pi fall outside
    # [0, 2*pi) reflects as its wrapped phases do
    @pytest.mark.parametrize("n_active", [0, 2, 4])
    def test_phases_are_read_as_their_wrapped_values(self, n_active):
        phases = np.array([2 * np.pi + 0.3, -0.3, 7.5, 1.0, -1e-17])
        x = phases / np.pi - 1.0
        _, wrapped, _ = score_at_cap(np.concatenate([np.zeros(2), x]), 1.0,
                                     Topology(A=1, B=1, R=5, W=1))
        pp = PassiveParams(beta_min=0.6, exponent=1.5, offset_l=0.0)
        assert np.array_equal(
            build_reflection(wrapped, n_active, 1.6, pp),
            build_reflection(wrap_phase((x + 1.0) * np.pi), n_active, 1.6,
                             pp))


class TestReset:
    def test_seed_is_required(self):
        # the config holds no seed, so a reset without one would seed the
        # env from OS entropy
        with pytest.raises(TypeError, match="seed"):
            RisCrnEnv(EnvConfig()).reset()

    def test_deterministic(self):
        env = RisCrnEnv(EnvConfig())
        a = env.reset(7)
        b = RisCrnEnv(EnvConfig()).reset(7)
        assert np.array_equal(a, b)

    def test_reset_mid_run_restarts_the_stream(self):
        # a reset drops the slots left in the env's current block
        env = RisCrnEnv(EnvConfig())
        actions = make_rng(1).uniform(-1, 1, (10, env.action_size))
        first = env.reset(7)
        rewards = [env.step(a).reward for a in actions]
        assert np.array_equal(env.reset(7), first)
        assert [env.step(a).reward for a in actions] == rewards

    def test_get_state_and_step_need_a_reset(self):
        env = RisCrnEnv(EnvConfig())
        with pytest.raises(RuntimeError, match=r"reset\(\) before get_state"):
            env.get_state()
        with pytest.raises(RuntimeError, match=r"reset\(\) before step"):
            env.step(np.zeros(env.action_size))

    def test_steps_in_block_needs_a_reset(self):
        with pytest.raises(RuntimeError,
                           match=r"reset\(\) before steps_in_block"):
            RisCrnEnv(EnvConfig()).steps_in_block

    def test_observation_length_default_topology(self):
        env = RisCrnEnv(EnvConfig())
        obs = env.reset(0)
        # 2 + 2RA + 2RB + 2AW + 2AB + R + 2 for A=2,B=2,R=4,W=2
        assert obs.size == 2 + 16 + 16 + 8 + 8 + 4 + 2 == 56
        assert obs.size == observation_size(Topology())

    def test_power_fields_are_configured_linear_values(self):
        pc = PowerConstraint(P_t=3.5, I_thr=7.25)
        env = RisCrnEnv(EnvConfig(pc=pc))
        obs = env.reset(0)
        assert obs[0] == 3.5 and obs[1] == 7.25

    def test_previous_action_fields_zeroed(self):
        env = RisCrnEnv(EnvConfig())
        obs = env.reset(3)
        assert np.all(obs[-(4 + 2):] == 0.0)  # phases, alpha, mode flag


class TestStep:
    def test_forced_passive_reward_is_sum_rate(self):
        env = RisCrnEnv(small_cfg(mode=RisMode.passive()))
        env.reset(0)
        rng = make_rng(1)
        for _ in range(20):
            out = env.step(rng.uniform(-1, 1, env.action_size))
            assert out.reward == out.sum_rate
            assert out.penalty == 0.0

    def test_dynamic_active_steps_have_zero_penalty(self):
        env = RisCrnEnv(EnvConfig(mode=RisMode.dynamic_hybrid()))
        env.reset(0)
        rng = make_rng(2)
        saw_active = False
        for _ in range(200):
            out = env.step(rng.uniform(-1, 1, env.action_size))
            if out.mode == "active":
                saw_active = True
                assert out.E_total >= env.cfg.hp.tau
                assert out.penalty == 0.0
        assert saw_active

    def test_forced_active_shortfall_penalty(self):
        env = RisCrnEnv(EnvConfig(mode=RisMode.active(), penalty_weight=0.1))
        env.reset(0)
        rng = make_rng(3)
        saw_shortfall = False
        for _ in range(200):
            out = env.step(rng.uniform(-1, 1, env.action_size))
            expected = 0.1 * max(0.0, env.cfg.hp.tau - out.E_total)
            assert out.penalty == pytest.approx(expected, abs=1e-12)
            assert out.reward == pytest.approx(
                out.sum_rate - expected, abs=1e-12)
            if expected > 0:
                saw_shortfall = True
        assert saw_shortfall

    def test_forced_active_specific_shortfall(self):
        # E_total = 30 under tau = 50 with weight 0.1 costs exactly 2.0
        env = RisCrnEnv(EnvConfig(mode=RisMode.active(), penalty_weight=0.1))
        env.reset(0)
        out = env.step(np.zeros(env.action_size))
        assert 0.1 * max(0.0, 50.0 - 30.0) == pytest.approx(2.0)
        assert out.reward == out.sum_rate - out.penalty

    def test_constraint_never_violated(self):
        env = RisCrnEnv(EnvConfig())
        env.reset(0)
        rng = make_rng(4)
        for _ in range(500):
            env.step(rng.uniform(-3, 3, env.action_size))
        assert env.violations == 0

    def test_rescaled_beamformer_over_the_cap_is_counted(self, monkeypatch):
        # the check runs on every rescaled beamformer, one step or a block
        # of them; a faulty projection that leaves it over the cap is
        # counted once per step
        monkeypatch.setattr("hybridris.phy.project_beamformer",
                            lambda G, cap: (G * 1e3, np.full(len(G), True)))
        env = RisCrnEnv(EnvConfig())
        env.reset(0)
        env.step(np.ones(env.action_size))
        assert env.violations == 1
        env.step(np.ones((5, env.action_size)))
        assert env.violations == 6
        # only the beamformers the projection says it rescaled are checked
        monkeypatch.setattr("hybridris.phy.project_beamformer",
                            lambda G, cap: (G * 1e3, np.arange(len(G)) < 2))
        env.step(np.ones((5, env.action_size)))
        assert env.violations == 8

    def test_action_log_replay_bitwise(self):
        rng = make_rng(5)
        actions = rng.uniform(-1, 1, (100, action_size(Topology())))
        r1 = []
        env = RisCrnEnv(EnvConfig())
        env.reset(11)
        for a in actions:
            r1.append(env.step(a).reward)
        env2 = RisCrnEnv(EnvConfig())
        env2.reset(11)
        r2 = [env2.step(a).reward for a in actions]
        assert r1 == r2

    def test_non_finite_action_raises_with_step_index(self):
        env = RisCrnEnv(EnvConfig())
        env.reset(0)
        env.step(np.zeros(env.action_size))
        for bad in (np.nan, np.inf):
            a = np.zeros(env.action_size)
            a[-1] = bad
            with pytest.raises(ValueError, match="step 1"):
                env.step(a)
        assert env.violations == 0

    def test_non_finite_action_in_a_block_names_its_step(self):
        # a block is refused whole, naming the first bad row's step
        env = RisCrnEnv(EnvConfig())
        env.reset(0)
        env.step(np.zeros(env.action_size))
        actions = np.zeros((6, env.action_size))
        actions[4, 0] = actions[5, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite action at step 5"):
            env.step(actions)
        out = env.step(np.zeros(env.action_size))
        assert env.get_state()["t"] == 2 and np.isfinite(out.reward)

    def test_block_past_the_drawn_channels_refused(self):
        # a stack may hold at most the steps whose slots are drawn: the
        # reset's one slot, then a block of them
        env = RisCrnEnv(EnvConfig())
        env.reset(0)
        assert env.steps_in_block == 1
        env.step(np.zeros(env.action_size))
        env.step(np.zeros((5, env.action_size)))
        room = CHANNEL_BLOCK - 5
        assert env.steps_in_block == room
        with pytest.raises(ValueError, match=f"holds {room} steps"):
            env.step(np.zeros((room + 1, env.action_size)))
        out = env.step(np.zeros((room, env.action_size)))
        assert len(out.reward) == room
        assert env.steps_in_block == CHANNEL_BLOCK

    @pytest.mark.parametrize("shape", [(1, 3, 12), (0, 12), (), (3,)])
    def test_malformed_action_refused_before_any_change(self, shape):
        # a stack of stacks, an empty stack, a 0-d action and an action of
        # the wrong length are each refused with one message naming the
        # accepted shapes, and the env is left as it was
        env = RisCrnEnv(EnvConfig())
        env.reset(0)
        env.step(np.zeros(env.action_size))
        before = pickle.dumps(env.get_state())
        with pytest.raises(ValueError, match=r"expected \(12,\), or "
                           rf"\(k, 12\) with 1 <= k <= {CHANNEL_BLOCK}:"):
            env.step(np.zeros(shape))
        assert pickle.dumps(env.get_state()) == before

    def test_ideal_reflection_degenerate_case(self):
        cfg = small_cfg(mode=RisMode.passive(),
                        pp=PassiveParams(beta_min=1.0, exponent=2.7))
        env = RisCrnEnv(cfg)
        obs = env.reset(0)
        # with beta_min = 1 every reflection magnitude is exactly 1; verify
        # through the SINR: scaling all magnitudes would change it, so check
        # reward equals the magnitude-1 computation replayed via phases-only
        out = env.step(np.full(env.action_size, 0.25))
        assert out.reward == out.sum_rate
        assert np.isfinite(out.reward)

    def test_observation_carries_channels_used_next_step(self):
        env = RisCrnEnv(small_cfg())
        obs0 = env.reset(9)
        out1 = env.step(np.zeros(env.action_size))
        # fresh channels appear in the next observation
        assert not np.allclose(obs0[2:6], out1.observation[2:6])

    def test_observed_receiver_channels_are_the_scored_ones(self):
        # the h_b block holds [Re, Im] of each receiver's channel column in
        # receiver order, and the next step is scored on exactly those; the
        # run crosses the refills after the reset's slot and after the first
        # drawn channel block
        topo = Topology(A=2, B=3, R=4, W=2)
        cfg = EnvConfig(topo=topo, mode=RisMode.passive())
        R, A, B = topo.R, topo.A, topo.B
        pp, kappa = cfg.pp, cfg.cascade
        env = RisCrnEnv(cfg)
        obs = env.reset(5)
        draws = make_rng(5)      # replays the env's channel stream
        act_rng = make_rng(6)
        block = slice(2 + 2 * R * A, 2 + 2 * R * A + 2 * R * B)
        for _ in range(CHANNEL_BLOCK + 3):
            H_s = sample_cascaded(draws, kappa.kappa_s, (R, A))
            cols = [sample_cascaded(draws, kappa.kappa_b, (R, 1))
                    for _ in range(B)]
            H_p = sample_cascaded(draws, kappa.kappa_p, (A, topo.W))
            sample_cascaded(draws, 1, (R, 1))          # h_PB
            expected = np.concatenate([np.concatenate([c.real.ravel(),
                                                       c.imag.ravel()])
                                       for c in cols])
            assert np.array_equal(obs[block], expected)
            a = act_rng.uniform(-1, 1, env.action_size)
            slots = env.slots()
            assert slots.cap[0] == pytest.approx(
                power_cap(cfg.pc, pu_power_gains(H_p)), rel=1e-12)
            _, _, G, phases, _ = score(cfg, slots, [a])
            G, phases = G[0], phases[0]
            out = env.step(a)
            refl = (naive_beta(phases, pp.beta_min, pp.exponent, pp.offset_l)
                    * np.exp(1j * phases))
            _, _, naive_sum = naive_passive_rates(cols, refl, H_s, G,
                                                  cfg.noise.sigma_b_sq)
            assert out.sum_rate == pytest.approx(naive_sum, abs=1e-10)
            obs = out.observation

    @pytest.mark.parametrize("mode,n_amp", [
        (RisMode.active(), 4),
        (RisMode.fixed_hybrid(0.5, 2.0), 2),
    ], ids=["active", "fixed_hybrid"])
    def test_amplifying_slots_are_scored_on_the_observed_channels(self, mode,
                                                                  n_amp):
        # the first n_amp elements amplify and add amplifier noise; the
        # fully active surface takes its gain from the slot's harvest
        topo = Topology(A=2, B=3, R=4, W=2)
        cfg = EnvConfig(topo=topo, mode=mode)
        R, A, B = topo.R, topo.A, topo.B
        pp, ap, hp, kappa = cfg.pp, cfg.ap, cfg.hp, cfg.cascade
        env = RisCrnEnv(cfg)
        env.reset(5)
        draws = make_rng(5)      # replays the env's channel stream
        act_rng = make_rng(6)
        amp_mask = np.arange(R) < n_amp
        for _ in range(3):
            H_s = sample_cascaded(draws, kappa.kappa_s, (R, A))
            cols = [sample_cascaded(draws, kappa.kappa_b, (R, 1))
                    for _ in range(B)]
            H_p = sample_cascaded(draws, kappa.kappa_p, (A, topo.W))
            h_PB = sample_cascaded(draws, 1, (R, 1))
            a = act_rng.uniform(-1, 1, env.action_size)
            slots = env.slots()
            assert slots.cap[0] == pytest.approx(
                power_cap(cfg.pc, pu_power_gains(H_p)), rel=1e-12)
            _, _, G, phases, _ = score(cfg, slots, [a])
            G, phases = G[0], phases[0]
            out = env.step(a)
            if n_amp == R:
                E = hp.eta * np.sum(np.abs(h_PB) ** 2) * hp.P_PB * hp.T
                gain = min(ap.alpha_min + (ap.alpha_max - ap.alpha_min)
                           * (E / R) / ap.E_max, ap.alpha_max)
            else:
                gain = mode.fixed_gain
            mag = naive_beta(phases, pp.beta_min, pp.exponent, pp.offset_l)
            mag[amp_mask] = gain
            refl = mag * np.exp(1j * phases)
            naive_sum = sum(
                np.log2(1.0 + naive_active_sinr(
                    cols, refl, H_s, G, cfg.noise.sigma_a_sq,
                    ap.amp_noise_var, b, amp_mask))
                for b in range(B))
            assert out.alpha == pytest.approx(gain, rel=1e-12)
            assert out.sum_rate == pytest.approx(naive_sum, abs=1e-10)

    def test_frozen_fading_keeps_channels(self):
        env = RisCrnEnv(small_cfg(fading_block=10 ** 9))
        obs0 = env.reset(9)
        out = env.step(np.zeros(env.action_size))
        assert np.allclose(obs0[2:10], out.observation[2:10])

    def test_fading_block_is_a_count(self):
        for bad in (0, 1.5, True):
            with pytest.raises(ValueError, match=r"^fading_block must be an "
                                                 r"integer >= 1$"):
                EnvConfig(fading_block=bad)
        assert dataclasses.replace(EnvConfig(),
                                   fading_block=3).fading_block == 3

    def test_previous_action_fields_in_observation(self):
        env = RisCrnEnv(small_cfg(mode=RisMode.passive()))
        env.reset(0)
        a = np.array([0.5, -0.25, 0.0, 0.5])
        out = env.step(a)
        obs = out.observation
        R = 2
        # trailing fields: prev G (2), prev phases (R), alpha, mode flag
        prev_g_re, prev_g_im = obs[-(2 + R + 2)], obs[-(2 + R + 2) + 1]
        assert prev_g_re == pytest.approx(0.5)
        assert prev_g_im == pytest.approx(-0.25)
        assert obs[-R - 2] == pytest.approx(np.pi)          # phase from 0.0
        assert obs[-R - 1] == pytest.approx(1.5 * np.pi)    # phase from 0.5
        assert obs[-2] == 1.0   # passive slots report unit gain
        assert obs[-1] == 0.0   # passive mode flag


class TestCheckpointInsideBlock:
    @staticmethod
    def advance_per_slot(rng, cfg, slots):
        """Moves rng as one-slot-at-a-time link draws would."""
        topo, kappa = cfg.topo, cfg.cascade
        for _ in range(slots):
            sample_cascaded(rng, kappa.kappa_s, (topo.R, topo.A))
            for _ in range(topo.B):
                sample_cascaded(rng, kappa.kappa_b, (topo.R, 1))
            sample_cascaded(rng, kappa.kappa_p, (topo.A, topo.W))
            sample_cascaded(rng, 1, (topo.R, 1))

    @pytest.mark.parametrize("fading_block", [1, 3])
    def test_state_is_the_block_start_and_its_first_slot(self,
                                                          fading_block):
        cfg = EnvConfig(fading_block=fading_block)
        env = RisCrnEnv(cfg)
        env.reset(4)
        # reset's slot, a full block and 5 slots of the second block; the
        # last step sits inside its fading block when fading_block > 1
        slots = 1 + CHANNEL_BLOCK + 5
        act_rng = make_rng(8)
        for _ in range(slots * fading_block - 1):
            env.step(act_rng.uniform(-1, 1, env.action_size))
        # the state holds no channels: the generator before the current
        # block's draw (where one-slot-at-a-time draws of reset's slot and
        # the first full block leave it), the block's length and the run's
        # slot of its first row, which the step index places the step in
        expected = make_rng(4)
        self.advance_per_slot(expected, cfg, 1 + CHANNEL_BLOCK)
        st = env.get_state()
        assert set(st) == {"block_start", "block", "first", "t",
                           "violations"}
        assert st["block_start"] == rng_state(expected)
        assert (st["block"], st["first"]) == (CHANNEL_BLOCK, 1 + CHANNEL_BLOCK)
        assert st["t"] // fading_block - st["first"] == 4
        resumed = RisCrnEnv(cfg)
        resumed.set_state(st)
        assert resumed.steps_in_block == env.steps_in_block

    @pytest.mark.parametrize("fading_block", [1, 3])
    def test_checkpointing_leaves_the_run_unchanged(self, fading_block):
        # states are taken in the first three drawn channel blocks and,
        # when fading_block > 1, inside a fading block
        cfg = EnvConfig(fading_block=fading_block)
        span = fading_block * CHANNEL_BLOCK
        actions = make_rng(9).uniform(-1, 1, (2 * span + 44,
                                              action_size(cfg.topo)))
        plain, checked = RisCrnEnv(cfg), RisCrnEnv(cfg)
        plain.reset(2)
        checked.reset(2)
        expected = [plain.step(a).reward for a in actions]
        rewards, states = [], {}
        for t, a in enumerate(actions):
            if t in (1, span + 7, 2 * span + 7):
                states[t] = checked.get_state()
            rewards.append(checked.step(a).reward)
        assert rewards == expected
        # restoring redraws the current block from its start
        for t, st in states.items():
            checked.set_state(st)
            assert [checked.step(a).reward for a in actions[t:]] == \
                expected[t:]

    @pytest.mark.parametrize("fading_block", [1, 3])
    @pytest.mark.parametrize("mode", [
        RisMode.passive(), RisMode.active(), RisMode.dynamic_hybrid(),
        RisMode.fixed_hybrid(0.5, 2.0)],
        ids=["passive", "active", "dynamic_hybrid", "fixed_hybrid"])
    def test_fresh_env_resumes_inside_a_block(self, mode, fading_block):
        # the state is taken inside the second channel block and, when
        # fading_block > 1, inside a fading block; a fresh env restored from
        # it continues with the same step records and observations
        cfg = EnvConfig(mode=mode, fading_block=fading_block,
                        pc=PowerConstraint(P_t=10.0, I_thr=3.0))
        start = (CHANNEL_BLOCK + 2) * fading_block + 1
        actions = make_rng(3).uniform(-1, 1, (start + 50,
                                              action_size(cfg.topo)))
        env = RisCrnEnv(cfg)
        env.reset(6)
        for a in actions[:start]:
            env.step(a)
        resumed = RisCrnEnv(cfg)
        resumed.set_state(env.get_state())
        for t, a in enumerate(actions[start:], start=start):
            out, again = env.step(a), resumed.step(a)
            assert log_record(t, again) == log_record(t, out)
            assert again[1:] == out[1:]
            assert again.observation.tobytes() == out.observation.tobytes()


class TestFixedHybrid:
    def test_resolves_active_and_penalized_like_active(self):
        env = RisCrnEnv(EnvConfig(mode=RisMode.fixed_hybrid(0.5, 2.0)))
        env.reset(0)
        rng = make_rng(6)
        for _ in range(50):
            out = env.step(rng.uniform(-1, 1, env.action_size))
            assert out.mode == "active"
            assert out.alpha == 2.0
            expected_pen = 0.1 * max(0.0, 50.0 - out.E_total)
            assert out.penalty == pytest.approx(expected_pen)

    def test_energy_bills_only_active_subset(self):
        env = RisCrnEnv(EnvConfig(mode=RisMode.fixed_hybrid(0.5, 2.0)))
        env.reset(0)
        out = env.step(np.zeros(env.action_size))
        # 2 elements at gain 2 plus 2 passive elements
        expected = 2 * (2.0 * 50e-3 + 10e-3) + 2 * 0.1e-3
        assert out.energy_J == pytest.approx(expected)


def test_step_log_record_schema():
    env = RisCrnEnv(EnvConfig())
    env.reset(0)
    out = env.step(np.zeros(env.action_size))
    rec = log_record(3, out)
    assert list(rec.keys()) == ["t", "reward", "sum_rate", "mode", "E_total",
                                "alpha", "energy_J", "cap"]
    json.dumps(rec)  # must be JSON-serializable as-is


# Entries the action path treats specially: the ends of the agent's box
# (phase 2*pi wraps to 0), the middle, entries outside the box, and the
# float just below -1, whose phase wraps to just under 2*pi.
EDGE_VALUES = (1.0, -1.0, 0.0, 1.5, -1.5, np.nextafter(-1.0, -2.0))


def edge_actions(topo):
    """Scripted actions: every entry at one edge value, the same with an
    all-zero beamformer, and two edge values alternating."""
    n, ab2 = action_size(topo), 2 * topo.A * topo.B
    actions = []
    for v in EDGE_VALUES:
        a = np.full(n, v)
        actions.append(a)
        actions.append(np.concatenate((np.zeros(ab2), a[ab2:])))
    for v in EDGE_VALUES:
        for w in EDGE_VALUES:
            if v != w:
                actions.append(np.where(np.arange(n) % 2 == 0, v, w))
    return actions


# sha256 of the step-log lines and the bytes of every observation while the
# edge actions run twice (84 steps), on the paper-default topology at seed 3. "passive" scores without amplifier
# noise, "active" with it on every element, and "small_I_thr" makes the
# projection bind. Recorded like the step-log pins (numpy 2.4, OpenBLAS
# SkylakeX).
EDGE_ACTION_DIGESTS = {
    "passive": (
        dict(mode=RisMode.passive()),
        "4dcb2e18c15ceb84ba4aaf0bda373903" "9a0dedcc0d470a74b9699b02401f555d"),
    "active": (
        dict(mode=RisMode.active()),
        "a9d89ef396e359a87f0a4debdfc81e1a" "e9fd24c28ec19afec99d5658e596bc88"),
    "small_I_thr": (
        dict(pc=PowerConstraint(P_t=10.0, I_thr=0.5)),
        "445b57cfa1d0dccad9d82c54ace4ff12" "2ef90d4d0a72d405d57bb9ece7bae4a3"),
}


def edge_action_digest(name) -> str:
    env = RisCrnEnv(EnvConfig(**EDGE_ACTION_DIGESTS[name][0]))
    digest = hashlib.sha256(env.reset(3).tobytes())
    for t, a in enumerate(2 * edge_actions(env.cfg.topo)):
        out = env.step(a)
        digest.update((json.dumps(log_record(t, out)) + "\n").encode())
        digest.update(out.observation.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", list(EDGE_ACTION_DIGESTS))
def test_edge_action_digest_pinned(name):
    assert edge_action_digest(name) == EDGE_ACTION_DIGESTS[name][1]


# the block size reaches neither the stream nor the arithmetic, so each pin
# holds at any size; blocks of 3 and 64 slots put refills inside the pinned
# steps, where the default block puts none
@pytest.mark.parametrize("block", [3, 64])
@pytest.mark.parametrize("name", list(EDGE_ACTION_DIGESTS))
def test_edge_action_digest_at_any_block_size(name, block, monkeypatch):
    monkeypatch.setattr("hybridris.env.CHANNEL_BLOCK", block)
    assert edge_action_digest(name) == EDGE_ACTION_DIGESTS[name][1]


BLOCK_TOPOLOGIES = {
    "A1B1R1W1": (Topology(A=1, B=1, R=1, W=1), CascadeSpec(1, 1, 1)),
    "default": (Topology(), CascadeSpec()),
    "A2B3R5W2": (Topology(A=2, B=3, R=5, W=2), CascadeSpec(2, 3, 1)),
    "A3B2R8W1": (Topology(A=3, B=2, R=8, W=1), CascadeSpec(3, 5, 5)),
    "A4B4R16W3": (Topology(A=4, B=4, R=16, W=3), CascadeSpec(5, 2, 3)),
}
BLOCK_ENVS = {
    "passive": dict(mode=RisMode.passive()),
    "active": dict(mode=RisMode.active()),
    "fixed_hybrid_0.5": dict(mode=RisMode.fixed_hybrid(0.5)),
    "dynamic": dict(),
    "dynamic_fading_block_3": dict(fading_block=3),
    "dynamic_amp_noise_var_0": dict(ap=ActiveParams(amp_noise_var=0.0)),
}


@pytest.mark.parametrize("topo_name", list(BLOCK_TOPOLOGIES))
@pytest.mark.parametrize("env_name", list(BLOCK_ENVS))
def test_block_scoring_equals_one_step_at_a_time(topo_name, env_name):
    # tau near the mean harvest mixes passive and amplifying slots in a
    # block; I_thr = 1 makes the projection bind on some steps of a block
    # and not on others; the blocks cross channel blocks at uneven points,
    # and the run crosses three refills
    topo, cascade = BLOCK_TOPOLOGIES[topo_name]
    cfg = EnvConfig(topo=topo, cascade=cascade,
                    hp=HarvestParams(tau=8.0 * topo.R),
                    pc=PowerConstraint(P_t=10.0, I_thr=1.0),
                    **BLOCK_ENVS[env_name])
    span = cfg.fading_block * CHANNEL_BLOCK
    chunks = (1, 40, span, 30, span + 1)
    actions = make_rng(9).uniform(-1.5, 1.5, (sum(chunks), action_size(topo)))
    single, block = RisCrnEnv(cfg), RisCrnEnv(cfg)
    assert single.reset(3).tobytes() == block.reset(3).tobytes()
    want = [single.step(a) for a in actions]
    got, start = [], 0
    for k in chunks:
        # a chunk is cut where the drawn channel block ends
        while k:
            n = min(k, block.steps_in_block)
            out = block.step(actions[start:start + n])
            assert out.observation.shape == (n, single.observation_size)
            got += [type(out)._make(row) for row in zip(*out)]
            start, k = start + n, k - n
    assert start == len(actions)
    modes = {out.mode for out in want}
    assert env_name != "dynamic" or modes == {"active", "passive"}
    for t, (w, g) in enumerate(zip(want, got)):
        assert json.dumps(log_record(t, g)) == json.dumps(log_record(t, w))
        assert g.observation.tobytes() == w.observation.tobytes()
        assert g.penalty == w.penalty
    assert block.violations == single.violations
    s_state, b_state = single.get_state(), block.get_state()
    assert pickle.dumps(b_state) == pickle.dumps(s_state)


@pytest.mark.parametrize("block", [1, 3, 512])
@pytest.mark.parametrize("topo_name", ["A1B1R1W1", "default"])
@pytest.mark.parametrize("env_name", list(BLOCK_ENVS))
def test_score_is_the_reward_step_gives(env_name, topo_name, block,
                                        monkeypatch):
    # the best of 64 candidates, scored against the next slot, is stepped
    # and earns the reward score gave it, bit for bit; the steps cross
    # refills at every block size, and scoring changes no state
    monkeypatch.setattr("hybridris.env.CHANNEL_BLOCK", block)
    topo, cascade = BLOCK_TOPOLOGIES[topo_name]
    cfg = EnvConfig(topo=topo, cascade=cascade,
                    hp=HarvestParams(tau=8.0 * topo.R),
                    pc=PowerConstraint(P_t=10.0, I_thr=1.0),
                    **BLOCK_ENVS[env_name])
    env = RisCrnEnv(cfg)
    with pytest.raises(RuntimeError, match=r"reset\(\) before slots"):
        env.slots()
    env.reset(3)
    room = env.steps_in_block
    for k in (0, room + 1):
        with pytest.raises(ValueError,
                           match=rf"k = {k} is not in \[1, {room}\]$"):
            env.slots(k)
    rng = make_rng(9)
    m = env.action_size
    for t in range(12):
        if t == 4 and env.steps_in_block > 3:
            # on to the last two steps before the refill
            env.step(rng.uniform(-1.5, 1.5, (env.steps_in_block - 2, m)))
        cands = rng.uniform(-1.5, 1.5, (64, m))
        before = pickle.dumps(env.get_state())
        reward, sum_rate, G, phases, _ = score(cfg, env.slots(), cands)
        assert pickle.dumps(env.get_state()) == before
        best = int(np.argmax(reward))
        out = env.step(cands[best])
        assert out.reward.hex() == float(reward[best]).hex()
        assert out.sum_rate.hex() == float(sum_rate[best]).hex()
        G = G[best].ravel()
        assert out.observation[-(2 * G.size + topo.R + 2):-2].tobytes() == \
            np.concatenate((G.real, G.imag, phases[best])).tobytes()
    # past the reset's one-slot block and a drawn one
    assert env.get_state()["first"] > 1


def test_each_stage_runs_once_per_step_and_per_score(monkeypatch):
    # the benchmark times these stages where they live, so step and score
    # must reach each one through its module, once per call
    calls = {}

    def counted(module, name):
        f = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return f(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for name in ("project_beamformer", "sinrs", "rate_report"):
        counted(phy, name)
    counted(ris, "build_reflection")
    once = dict.fromkeys(("project_beamformer", "build_reflection", "sinrs",
                          "rate_report"), 1)
    env = RisCrnEnv(EnvConfig())
    env.reset(0)
    for actions in (np.zeros(env.action_size), np.zeros((5, env.action_size))):
        calls.clear()
        env.step(actions)
        assert calls == once
        calls.clear()
        score(env.cfg, env.slots(), np.zeros((64, env.action_size)))
        assert calls == once
