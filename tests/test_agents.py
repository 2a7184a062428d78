import warnings

import numpy as np
import pytest

from hybridris.agents import (DdpgAgent, DdpgConfig, RandomAgent,
                              ReplayBuffer, SacAgent, SacConfig, Td3Agent,
                              Td3Config, random_action)
from hybridris.numerics import make_rng, restore_rng, rng_state

OBS, ACT = 6, 3


def filled_agent(agent, n=40, seed=0):
    rng = make_rng(seed)
    for _ in range(n):
        s = rng.standard_normal(agent.obs_dim)
        a = rng.uniform(-1, 1, agent.act_dim)
        r = float(rng.standard_normal())
        s2 = rng.standard_normal(agent.obs_dim)
        agent.observe(s, a, r, s2)
    return agent


class TestReplayBuffer:
    def test_ring_overwrite(self):
        buf = ReplayBuffer(4, 2, 1)
        for i in range(6):
            buf.store(np.full(2, i), [i], float(i), np.full(2, i + 0.5))
        assert buf.size == 4 and buf.ptr == 2
        assert sorted(buf.r[:4].tolist()) == [2.0, 3.0, 4.0, 5.0]

    def test_sample_without_replacement(self):
        buf = ReplayBuffer(16, 2, 1)
        for i in range(8):
            buf.store([i, i], [i], float(i), [i, i])
        s, a, r, s2 = buf.sample(make_rng(0), 8)
        assert sorted(r.tolist()) == [float(i) for i in range(8)]

    def test_state_roundtrip(self):
        buf = ReplayBuffer(8, 2, 1)
        for i in range(5):
            buf.store([i, i], [i], float(i), [i, -i])
        st = buf.get_state()
        buf2 = ReplayBuffer(8, 2, 1)
        buf2.set_state(st)
        assert np.array_equal(buf2.s[:5], buf.s[:5])
        assert buf2.ptr == buf.ptr and buf2.size == buf.size


LEARNER_CONFIGS = [SacConfig, DdpgConfig, Td3Config]


class TestConfigRules:
    @pytest.mark.parametrize("cfg_cls", LEARNER_CONFIGS)
    @pytest.mark.parametrize("kw,named", [
        ({"buffer_capacity": 0}, "buffer_capacity"),
        ({"buffer_capacity": 4, "batch": 16}, "buffer_capacity"),
        ({"tau_soft": -1.0}, "tau_soft"),
        ({"tau_soft": 1.5}, "tau_soft"),
        ({"tau_soft": float("nan")}, "tau_soft"),
        ({"hidden": (0,)}, "hidden"),
        ({"hidden": (64, 2.5)}, "hidden"),
        ({"hidden": 64}, "hidden"),
    ])
    def test_untrainable_field_refused(self, cfg_cls, kw, named):
        with pytest.raises(ValueError, match=named):
            cfg_cls(**kw)

    @pytest.mark.parametrize("cfg_cls", LEARNER_CONFIGS)
    def test_edges_accepted(self, cfg_cls):
        for tau in (0.0, 1.0):
            cfg_cls(tau_soft=tau, buffer_capacity=16, batch=16, hidden=())

    def test_zero_temperature_refused_only_when_tuned(self):
        # log(0) would pin the tuned log-temperature at -inf
        with pytest.raises(ValueError, match="entropy_alpha"):
            SacConfig(entropy_alpha=0.0)
        SacConfig(entropy_alpha=0.0, auto_entropy=False)

    def test_fixed_zero_temperature_builds_and_trains(self):
        cfg = SacConfig(entropy_alpha=0.0, auto_entropy=False,
                        warmup_steps=0, batch=4, hidden=(8, 8))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ag = filled_agent(SacAgent(OBS, ACT, cfg, seed=3), n=10)
            diag = ag.update(0)
        assert ag.entropy_alpha == 0.0
        assert diag["entropy_alpha"] == 0.0
        assert np.all(np.isfinite(diag["critic_losses"]))
        assert np.isfinite(diag["policy_loss"])


class TestRandomPolicy:
    def test_bounds(self):
        rng = make_rng(1)
        draws = np.array([random_action(rng, 4) for _ in range(10_000)])
        assert np.all(draws >= -1.0) and np.all(draws <= 1.0)

    def test_mean_near_zero(self):
        rng = make_rng(2)
        draws = np.array([random_action(rng, 5) for _ in range(100_000)])
        assert np.max(np.abs(draws.mean(axis=0))) < 0.02

    def test_seed_reproducible(self):
        a = RandomAgent(OBS, ACT, seed=3)
        b = RandomAgent(OBS, ACT, seed=3)
        obs = np.zeros(OBS)
        for t in range(10):
            assert np.array_equal(a.act(obs, t), b.act(obs, t))


class TestSacPolicy:
    def test_log_std_clamped_and_actions_finite(self):
        ag = SacAgent(OBS, ACT, SacConfig(warmup_steps=0), seed=0)
        # force extreme raw log-std outputs through the last layer bias
        ag.policy.params[-1][ACT:] = 1e3
        _, log_std, _, _ = ag._policy_stats(np.zeros((1, OBS)))
        assert np.all(log_std <= 2.0)
        ag.policy.params[-1][ACT:] = -1e3
        _, log_std, _, _ = ag._policy_stats(np.zeros((1, OBS)))
        assert np.all(log_std >= -20.0)
        a = ag.act(np.zeros(OBS), t=10)
        assert np.all(np.isfinite(a)) and np.all(np.abs(a) <= 1.0)

    def test_deterministic_action_repeats(self):
        ag = SacAgent(OBS, ACT, SacConfig(), seed=1)
        obs = make_rng(4).standard_normal(OBS)
        a1 = ag.act(obs, 0, deterministic=True)
        a2 = ag.act(obs, 0, deterministic=True)
        assert np.array_equal(a1, a2)

    def test_warmup_actions_uniform(self):
        ag = SacAgent(OBS, ACT, SacConfig(warmup_steps=100), seed=2)
        draws = np.array([ag.act(np.zeros(OBS), t) for t in range(100)])
        assert np.all(np.abs(draws) <= 1.0)
        # uniform warmup draws differ from the policy's tanh-gaussian shape:
        # spot-check spread is wide
        assert draws.std() > 0.4

    def test_stochastic_mean_matches_independent_pushforward(self):
        ag = SacAgent(OBS, ACT, SacConfig(warmup_steps=0), seed=5)
        obs = make_rng(6).standard_normal(OBS)
        n = 10_000
        actions = np.array([ag.act(obs, t=10) for t in range(n)])
        mu, log_std, _, _ = ag._policy_stats(obs[None, :])
        rng = make_rng(7)
        eps = rng.standard_normal((200_000, ACT))
        ref = np.tanh(mu + np.exp(log_std) * eps)
        se = ref.std(axis=0) / np.sqrt(n)
        assert np.all(np.abs(actions.mean(axis=0) - ref.mean(axis=0)) <= 3 * se)

    @pytest.mark.parametrize("mu,log_std", [(0.3, -0.5), (-1.2, 0.0),
                                            (0.0, 0.5)])
    def test_squashed_density_integrates_to_one(self, mu, log_std):
        # 1-D policy: the density implied by the agent's log-probability
        # (including the tanh correction) must integrate to 1 over (-1, 1)
        ag = SacAgent(2, 1, SacConfig(), seed=8)
        sigma = np.exp(log_std)
        u = np.linspace(mu - 10 * sigma, mu + 10 * sigma, 40_001)
        mu_col = np.full((u.size, 1), mu)
        ls_col = np.full((u.size, 1), log_std)
        eps = (u[:, None] - mu_col) / sigma
        a, logp, _, _ = ag._squash(mu_col, ls_col, eps)
        # change of variables back to u: da = (1 - a^2) du
        integral = np.trapezoid(np.exp(logp.ravel()) * (1 - a.ravel() ** 2), u)
        assert integral == pytest.approx(1.0, abs=1e-3)


class TestSacUpdate:
    def test_gamma_zero_target_is_reward(self):
        ag = SacAgent(OBS, ACT, SacConfig(gamma=0.0, warmup_steps=0), seed=9)
        filled_agent(ag)
        s, a, r, s2 = ag.buffer.sample(ag.rng, 8)
        eps2 = np.zeros((8, ACT))
        U = ag.critic_target(s2, r, eps2)
        assert np.allclose(U.ravel(), r)

    def test_min_of_target_critics_used(self):
        ag = SacAgent(OBS, ACT, SacConfig(warmup_steps=0), seed=10)
        filled_agent(ag)
        s, a, r, s2 = ag.buffer.sample(ag.rng, 8)
        eps2 = make_rng(11).standard_normal((8, ACT))
        U = ag.critic_target(s2, r, eps2)
        # independent recomputation
        mu2, log_std2, _, _ = ag._policy_stats(s2)
        a2, logp2, _, _ = ag._squash(mu2, log_std2, eps2)
        x2 = np.concatenate([s2, a2], axis=1)
        q1 = ag.target_critic.member(0).forward(x2)
        q2 = ag.target_critic.member(1).forward(x2)
        expected = (r.reshape(-1, 1) + ag.cfg.gamma *
                    (np.minimum(q1, q2) - ag.entropy_alpha * logp2))
        assert np.allclose(U, expected, atol=1e-12)
        assert np.all(np.minimum(q1, q2) <= q1 + 1e-15)

    def test_critic_fixed_point_zero_loss_zero_movement(self):
        ag = SacAgent(OBS, ACT, SacConfig(gamma=0.0, warmup_steps=0), seed=12)
        rng = make_rng(13)
        s = rng.standard_normal((4, OBS))
        a = rng.uniform(-1, 1, (4, ACT))
        s2 = rng.standard_normal((4, OBS))
        x = np.concatenate([s, a], axis=1)
        r1 = ag.critic.member(0).forward(x).ravel()
        before1 = [p.copy() for p in ag.critic.member(0).params]
        # with gamma=0 and r equal to current predictions, q1's target is its
        # own output: zero loss, zero gradient, no parameter movement
        U, losses = ag.update_critics(s, a, r1, s2, eps2=np.zeros((4, ACT)))
        assert losses[0] == pytest.approx(0.0, abs=1e-24)
        assert all(np.array_equal(p, q)
                   for p, q in zip(ag.critic.member(0).params, before1))

    def test_single_transition_regression(self):
        # critic-only steps at lr 1e-2 drive Q(s, a) to r under gamma=0;
        # 200 updates clear Adam's transient on every seed (at 100 the
        # error still sits near 3e-3)
        cfg = SacConfig(gamma=0.0, lr=1e-2, batch=1, warmup_steps=0,
                        hidden=(32, 32))
        ag = SacAgent(OBS, ACT, cfg, seed=14)
        s = np.full(OBS, 0.3)
        a = np.zeros(ACT)
        r = 1.234
        ag.observe(s, a, r, np.full(OBS, 0.1))
        for _ in range(200):
            batch = ag.buffer.sample(ag.rng, 1)
            ag.update_critics(*batch)
        x = np.concatenate([s, a])[None, :]
        assert abs(ag.critic.member(0).forward(x)[0, 0] - r) < 1e-3
        assert abs(ag.critic.member(1).forward(x)[0, 0] - r) < 1e-3

    def test_batch_underflow_warns(self):
        ag = SacAgent(OBS, ACT, SacConfig(warmup_steps=0, batch=16), seed=15)
        out = ag.update(t=5)
        assert out == {"warning": "batch underflow"}

    def test_policy_update_descends_its_loss(self):
        ag = SacAgent(OBS, ACT, SacConfig(warmup_steps=0), seed=16)
        filled_agent(ag, n=60)
        s, _, _, _ = ag.buffer.sample(ag.rng, 16)
        eps = make_rng(17).standard_normal((16, ACT))
        first, _ = ag.update_policy(s, eps=eps)
        for _ in range(30):
            ag.update_policy(s, eps=eps)
        # evaluate the same loss expression without updating
        mu, log_std, _, _ = ag._policy_stats(s)
        a, logp, _, _ = ag._squash(mu, log_std, eps)
        x = np.concatenate([s, a], axis=1)
        qmin = np.minimum(ag.critic.member(0).forward(x),
                          ag.critic.member(1).forward(x))
        final = float(np.mean(ag.entropy_alpha * logp - qmin))
        assert final < first

    def test_soft_update_extremes_through_config(self):
        for tau, expect_equal in ((1.0, True), (0.0, False)):
            ag = SacAgent(OBS, ACT,
                          SacConfig(warmup_steps=0, tau_soft=tau), seed=18)
            # make targets differ from critics first
            q1, q1_target = ag.critic.member(0), ag.target_critic.member(0)
            for p in q1.params:
                p += 0.5
            frozen_target = [p.copy() for p in q1_target.params]
            filled_agent(ag, n=30, seed=19)
            ag.update(t=100)
            if expect_equal:
                assert all(np.array_equal(a, b) for a, b in
                           zip(q1_target.params, q1.params))
            else:
                assert all(np.array_equal(a, b) for a, b in
                           zip(q1_target.params, frozen_target))

    def test_temperature_moves_toward_target_entropy(self):
        ag = SacAgent(OBS, ACT, SacConfig(warmup_steps=0), seed=20)
        # entropy far above target: alpha should fall
        before = ag.entropy_alpha
        ag.update_temperature(np.full((16, 1), -0.1))  # logp near 0
        assert ag.entropy_alpha < before


LEARNERS = {"sac": (SacAgent, SacConfig), "ddpg": (DdpgAgent, DdpgConfig),
            "td3": (Td3Agent, Td3Config)}


class TestSacStateRoundtrip:
    # TD3 also stops after an odd number of updates, so the restored update
    # count must put the delayed actor update back in phase
    @pytest.mark.parametrize("kind,n_updates", [("sac", 20), ("ddpg", 20),
                                                ("td3", 20), ("td3", 21)])
    def test_bitwise_resume(self, kind, n_updates):
        agent_cls, cfg_cls = LEARNERS[kind]
        cfg = cfg_cls(warmup_steps=5, batch=4, hidden=(16, 16))
        ag = agent_cls(OBS, ACT, cfg, seed=21)
        filled_agent(ag, n=30, seed=22)
        for t in range(10, 10 + n_updates):
            ag.update(t)
        st = ag.get_state()
        obs = np.linspace(-1, 1, OBS)
        expected_actions = [ag.act(obs, t) for t in range(30, 40)]
        expected_diag = ag.update(50)

        ag2 = agent_cls(OBS, ACT, cfg, seed=999)
        ag2.set_state(st)
        got_actions = [ag2.act(obs, t) for t in range(30, 40)]
        got_diag = ag2.update(50)
        for a, b in zip(expected_actions, got_actions):
            assert np.array_equal(a, b)
        assert expected_diag == got_diag
        # the update's diagnostics precede its optimizer steps, so compare
        # the weights and Adam moments it leaves behind as well
        after, after2 = ag.get_state(), ag2.get_state()
        for k, flat in after["nets"].items():
            assert np.array_equal(flat, after2["nets"][k]), k
        for k, opt in after["opts"].items():
            got = after2["opts"][k]
            assert opt["t"] == got["t"], k
            assert np.array_equal(opt["m"], got["m"]), k
            assert np.array_equal(opt["v"], got["v"]), k


class TestDdpg:
    def test_deterministic_policy_repeats(self):
        ag = DdpgAgent(OBS, ACT, DdpgConfig(expl_noise=0.0, warmup_steps=0),
                       seed=23)
        obs = make_rng(24).standard_normal(OBS)
        assert np.array_equal(ag.act(obs, 5), ag.act(obs, 5))

    def test_actor_updates_every_step(self):
        ag = DdpgAgent(OBS, ACT, DdpgConfig(warmup_steps=0, batch=4), seed=25)
        filled_agent(ag, n=10, seed=26)
        before = [p.copy() for p in ag.actor.params]
        diag = ag.update(0)
        assert diag["actor_updated"]
        assert any(not np.array_equal(p, q)
                   for p, q in zip(ag.actor.params, before))


class TestTd3:
    def test_actor_delayed_on_odd_updates(self):
        ag = Td3Agent(OBS, ACT, Td3Config(warmup_steps=0, batch=4), seed=27)
        filled_agent(ag, n=10, seed=28)
        before = [p.copy() for p in ag.actor.params]
        d1 = ag.update(0)
        assert not d1["actor_updated"]
        assert all(np.array_equal(p, q)
                   for p, q in zip(ag.actor.params, before))
        d2 = ag.update(1)
        assert d2["actor_updated"]

    def test_twin_min_target_matches_scalar_recompute(self):
        ag = Td3Agent(OBS, ACT, Td3Config(warmup_steps=0, batch=3), seed=29)
        rng = make_rng(30)
        s2 = rng.standard_normal((3, OBS))
        r = rng.standard_normal(3)
        st = rng_state(ag.rng)
        U = ag.critic_target_value(s2, r)
        # replay the same smoothing noise and recompute by hand
        replay = restore_rng(st)
        a2 = np.tanh(ag.actor_target.forward(s2))
        noise = np.clip(ag.cfg.policy_noise * replay.standard_normal(a2.shape),
                        -ag.cfg.noise_clip, ag.cfg.noise_clip)
        a2 = np.clip(a2 + noise, -1.0, 1.0)
        x2 = np.concatenate([s2, a2], axis=1)
        q1 = ag.target_critic.member(0).forward(x2)
        q2 = ag.target_critic.member(1).forward(x2)
        expected = r.reshape(-1, 1) + ag.cfg.gamma * np.minimum(q1, q2)
        for i in range(3):
            assert U[i, 0] == pytest.approx(expected[i, 0], abs=1e-12)
            assert expected[i, 0] <= r[i] + ag.cfg.gamma * q1[i, 0] + 1e-12

    def test_smoothing_noise_is_clipped(self):
        ag = Td3Agent(OBS, ACT, Td3Config(policy_noise=5.0, noise_clip=0.1),
                      seed=31)
        base = np.tanh(ag.actor_target.forward(np.zeros((200, OBS))))
        smoothed = ag._target_action(np.zeros((200, OBS)))
        assert np.max(np.abs(smoothed - np.clip(base, -1, 1))) <= 0.1 + 1e-12
