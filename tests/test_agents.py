import warnings

import numpy as np
import pytest

import hybridris as hr
from hybridris.agents import (LOG_STD_MAX, LOG_STD_MIN, TANH_EPS, DdpgAgent,
                              DdpgConfig, RandomAgent, ReplayBuffer, SacAgent,
                              SacConfig, Td3Agent, Td3Config, random_action)
from hybridris.nets import Adam, soft_update
from hybridris.numerics import make_rng, restore_rng, rng_state

OBS, ACT = 6, 3
NAN, INF = float("nan"), float("inf")


def filled_agent(agent, n=40, seed=0):
    rng = make_rng(seed)
    for _ in range(n):
        s = rng.standard_normal(agent.obs_dim)
        a = rng.uniform(-1, 1, agent.act_dim)
        r = float(rng.standard_normal())
        s2 = rng.standard_normal(agent.obs_dim)
        agent.observe(s[None], a[None], [r], s2[None])
    return agent


class TestReplayBuffer:
    def test_ring_overwrite(self):
        buf = ReplayBuffer(4, 2, 1)
        for i in range(6):
            buf.store(np.full((1, 2), i), [[i]], [float(i)],
                      np.full((1, 2), i + 0.5))
        assert buf.size == 4 and buf.ptr == 2
        assert sorted(buf.r[:4].tolist()) == [2.0, 3.0, 4.0, 5.0]

    # a stack stores what its rows stored one at a time would: one row, a
    # stack that ends exactly at capacity, one that wraps the ring, and
    # ones longer than the ring, from a part-filled and from a full one
    @pytest.mark.parametrize("before,k", [(3, 1), (3, 5), (6, 5), (3, 19),
                                          (11, 20), (4, 0)],
                             ids=["one_row", "ends_at_capacity", "wraps",
                                  "longer_than_capacity",
                                  "longer_after_a_wrap", "empty"])
    def test_stack_equals_one_row_stores(self, before, k):
        rng = make_rng(before + k)
        rows = [(rng.standard_normal(2), rng.uniform(-1, 1, 1),
                 float(rng.standard_normal()), rng.standard_normal(2))
                for _ in range(before + k)]
        stacked, single = ReplayBuffer(8, 2, 1), ReplayBuffer(8, 2, 1)
        for i, (s, a, r, s2) in enumerate(rows):
            if i < before:
                stacked.store(s[None], a[None], [r], s2[None])
            single.store(s[None], a[None], [r], s2[None])
        tail = rows[before:]
        stacked.store(np.array([s for s, _, _, _ in tail]).reshape(k, 2),
                      np.array([a for _, a, _, _ in tail]).reshape(k, 1),
                      [r for _, _, r, _ in tail],
                      np.array([s2 for *_, s2 in tail]).reshape(k, 2))
        for name in ("s", "a", "r", "s2"):
            assert getattr(stacked, name).tobytes() == \
                getattr(single, name).tobytes()
        assert (stacked.ptr, stacked.size) == (single.ptr, single.size)

    def test_sample_without_replacement(self):
        buf = ReplayBuffer(16, 2, 1)
        for i in range(8):
            buf.store([[i, i]], [[i]], [float(i)], [[i, i]])
        s, a, r, s2 = buf.sample(make_rng(0), 8)
        assert sorted(r.tolist()) == [float(i) for i in range(8)]

    def test_state_roundtrip(self):
        buf = ReplayBuffer(8, 2, 1)
        for i in range(5):
            buf.store([[i, i]], [[i]], [float(i)], [[i, -i]])
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
        ({"gamma": "x"}, "gamma must be a real number"),
        ({"lr": True}, "lr must be a real number"),
        ({"tau_soft": None}, "tau_soft must be a real number"),
        ({"batch": "16"}, "batch must be an integer"),
        ({"batch": 4.0, "buffer_capacity": 8}, "batch must be an integer"),
        ({"buffer_capacity": 100.5}, "buffer_capacity"),
        ({"warmup_steps": "x"}, "warmup_steps must be an integer"),
    ])
    def test_untrainable_field_refused(self, cfg_cls, kw, named):
        with pytest.raises(ValueError, match=named):
            cfg_cls(**kw)

    @pytest.mark.parametrize("cfg_cls", LEARNER_CONFIGS)
    def test_edges_accepted(self, cfg_cls):
        for tau in (0.0, 1.0):
            cfg_cls(tau_soft=tau, buffer_capacity=16, batch=16, hidden=())

    def test_non_numbers_in_own_fields_named(self):
        with pytest.raises(ValueError, match="entropy_alpha must be a real"):
            SacConfig(entropy_alpha="0.2")
        with pytest.raises(ValueError, match="target_entropy must be a real"):
            SacConfig(target_entropy="x")
        SacConfig(target_entropy=None)
        with pytest.raises(ValueError) as err:
            Td3Config(policy_delay=2.5, noise_clip="x")
        assert "noise_clip must be a real number" in str(err.value)
        with pytest.raises(ValueError, match="policy_delay must be an integer"):
            Td3Config(policy_delay=2.5)

    # each of these was accepted before: the rules compared with < or <=,
    # which a NaN passes, and expl_noise had no rule
    @pytest.mark.parametrize("cfg_cls,kw,named", [
        (SacConfig, {"lr": NAN}, "lr must be > 0"),
        (DdpgConfig, {"lr": NAN}, "lr must be > 0"),
        (SacConfig, {"entropy_alpha": NAN}, "entropy_alpha must be >= 0"),
        (SacConfig, {"entropy_alpha": -1.0, "auto_entropy": False},
         "entropy_alpha must be >= 0"),
        (SacConfig, {"target_entropy": NAN}, "target_entropy must be finite"),
        (SacConfig, {"target_entropy": -INF}, "target_entropy must be finite"),
        (Td3Config, {"policy_noise": NAN}, "policy_noise must be >= 0"),
        (Td3Config, {"noise_clip": NAN}, "noise_clip must be >= 0"),
        (Td3Config, {"expl_noise": NAN}, "expl_noise must be >= 0"),
        (DdpgConfig, {"expl_noise": -1.0}, "expl_noise must be >= 0"),
        (DdpgConfig, {"expl_noise": NAN}, "expl_noise must be >= 0"),
    ], ids=["sac_nan_lr", "ddpg_nan_lr", "nan_entropy_alpha",
            "negative_fixed_alpha", "nan_target_entropy",
            "infinite_target_entropy", "nan_policy_noise", "nan_noise_clip",
            "td3_nan_expl_noise", "ddpg_negative_expl_noise",
            "ddpg_nan_expl_noise"])
    def test_nan_and_negative_refused(self, cfg_cls, kw, named):
        with pytest.raises(ValueError, match=named):
            cfg_cls(**kw)

    def test_every_nan_field_named(self):
        with pytest.raises(ValueError) as err:
            Td3Config(lr=NAN, policy_noise=NAN, noise_clip=NAN,
                      expl_noise=NAN)
        for named in ("lr", "policy_noise", "noise_clip", "expl_noise"):
            assert f"{named} must be" in str(err.value)
        with pytest.raises(ValueError) as err:
            SacConfig(lr=NAN, entropy_alpha=NAN, target_entropy=NAN)
        for named in ("lr", "entropy_alpha", "target_entropy"):
            assert f"{named} must be" in str(err.value)

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
            diag = ag.update()
        assert ag.entropy_alpha == 0.0
        assert diag["entropy_alpha"] == 0.0
        assert np.all(np.isfinite(diag["critic_losses"]))
        assert np.isfinite(diag["policy_loss"])


class TestRandomPolicy:
    def test_bounds(self):
        draws = random_action(make_rng(1), 4, 10_000)
        assert draws.shape == (10_000, 4)
        assert np.all(draws >= -1.0) and np.all(draws <= 1.0)

    def test_mean_near_zero(self):
        draws = random_action(make_rng(2), 5, 100_000)
        assert np.max(np.abs(draws.mean(axis=0))) < 0.02

    def test_seed_reproducible(self):
        a = RandomAgent(OBS, ACT, seed=3)
        b = RandomAgent(OBS, ACT, seed=3)
        for k in (1, 10):
            assert np.array_equal(a.open_loop_actions(0, k),
                                  b.open_loop_actions(0, k))


class TestOpenLoop:
    @pytest.mark.parametrize("cls", [RandomAgent, SacAgent, DdpgAgent,
                                     Td3Agent])
    def test_block_draw_equals_single_draws(self, cls):
        # one draw of k rows takes the stream k one-row draws from a twin
        # of the agent's generator take, and leaves it where they leave it
        block = cls(OBS, ACT, seed=4)
        twin = restore_rng(rng_state(block.rng))
        for k in (1, 7, 64):
            rows = block.open_loop_actions(0, k)
            assert rows.shape == (k, ACT)
            want = np.concatenate([random_action(twin, ACT, 1)
                                   for _ in range(k)])
            assert rows.tobytes() == want.tobytes()
            assert rng_state(block.rng) == rng_state(twin)

    @pytest.mark.parametrize("cls,cfg_cls", [
        (SacAgent, SacConfig), (DdpgAgent, DdpgConfig),
        (Td3Agent, Td3Config)])
    def test_open_loop_rows_are_the_warmup_left(self, cls, cfg_cls):
        agent = cls(OBS, ACT, cfg_cls(warmup_steps=100, batch=4,
                                      hidden=(8, 8)), seed=0)
        rows = [agent.open_loop_actions(t, 64)
                for t in (0, 60, 99, 100, 250)]
        assert [a.shape for a in rows] == [(k, ACT) for k in (64, 40, 1, 0, 0)]
        # past warm-up the empty stack leaves the generator where it was
        before = rng_state(agent.rng)
        for t in (100, 250):
            assert agent.open_loop_actions(t, 64).shape == (0, ACT)
            assert rng_state(agent.rng) == before
        # and is made without calling the generator at all
        agent.rng = None
        assert agent.open_loop_actions(100, 64).shape == (0, ACT)

    def test_random_agent_never_reads_the_observation(self):
        agent = RandomAgent(OBS, ACT)
        for t in (0, 100, 10 ** 6):
            assert agent.open_loop_actions(t, 64).shape == (64, ACT)


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
        a = ag.act(np.zeros(OBS))
        assert np.all(np.isfinite(a)) and np.all(np.abs(a) <= 1.0)

    def test_deterministic_action_repeats(self):
        ag = SacAgent(OBS, ACT, SacConfig(), seed=1)
        obs = make_rng(4).standard_normal(OBS)
        a1 = ag.act(obs, deterministic=True)
        a2 = ag.act(obs, deterministic=True)
        assert np.array_equal(a1, a2)

    def test_warmup_actions_uniform(self):
        ag = SacAgent(OBS, ACT, SacConfig(warmup_steps=100), seed=2)
        draws = ag.open_loop_actions(0, 100)
        assert np.all(np.abs(draws) <= 1.0)
        # uniform warmup draws differ from the policy's tanh-gaussian shape:
        # spot-check spread is wide
        assert draws.std() > 0.4

    def test_stochastic_mean_matches_independent_pushforward(self):
        ag = SacAgent(OBS, ACT, SacConfig(warmup_steps=0), seed=5)
        obs = make_rng(6).standard_normal(OBS)
        n = 10_000
        actions = np.array([ag.act(obs) for _ in range(n)])
        mu, log_std, _, _ = ag._policy_stats(obs[None, :])
        rng = make_rng(7)
        eps = rng.standard_normal((200_000, ACT))
        ref = np.tanh(mu + np.exp(log_std) * eps)
        se = ref.std(axis=0) / np.sqrt(n)
        assert np.all(np.abs(actions.mean(axis=0) - ref.mean(axis=0)) <= 3 * se)

    def test_act_draws_one_normal_per_dim_and_matches_squash(self):
        # the policy acts whatever the step: warm-up is the loop's to skip
        ag = SacAgent(OBS, ACT, SacConfig(), seed=9)
        obs = make_rng(10).standard_normal(OBS)
        twin = restore_rng(rng_state(ag.rng))
        a = ag.act(obs)
        eps = twin.standard_normal((1, ACT))
        assert rng_state(ag.rng) == rng_state(twin)
        mu, log_std, _, _ = ag._policy_stats(obs[None, :])
        expected, _, _ = ag._squash(mu, log_std, eps)
        assert np.array_equal(a, expected[0])

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
        a, logp, _ = ag._squash(mu_col, ls_col, eps)
        # change of variables back to u: da = (1 - a^2) du
        integral = np.trapezoid(np.exp(logp.ravel()) * (1 - a.ravel() ** 2), u)
        assert integral == pytest.approx(1.0, abs=1e-3)


def twin_of(ag):
    """A second agent in the same state as ``ag``, its generator included."""
    twin = type(ag)(ag.obs_dim, ag.act_dim, ag.cfg, seed=0)
    twin.set_state(ag.get_state())
    return twin


def with_eps(eps2, eps):
    """The noise ``SacAgent._learn`` takes: eps2, then eps."""
    return np.stack([eps2, eps])


def split_reference_update(ag):
    """One SAC update as separate passes: a policy forward over s2 for the
    critic targets, the critic step, then a second policy forward over s
    for the policy step. eps2 is drawn before eps."""
    s, a, r, s2 = ag.buffer.sample(ag.rng, ag.cfg.batch)
    M = s.shape[0]
    alpha = ag.entropy_alpha
    mu2, log_std2, _, _ = ag._policy_stats(s2)
    eps2 = ag.rng.standard_normal(mu2.shape)
    a2, logp2, _ = ag._squash(mu2, log_std2, eps2)
    ag._fit_critics(s, a, ag._td_target(r, s2, a2, alpha * logp2))

    mu, log_std, log_std_raw, cache = ag._policy_stats(s)
    eps = ag.rng.standard_normal(mu.shape)
    a_pi, logp, std = ag._squash(mu, log_std, eps)
    (p1, p2), qc = ag.critic.forward_cache(np.concatenate([s, a_pi], axis=1))
    take1 = p1 <= p2
    gx = ag.critic.backward(qc, np.stack([take1, ~take1]), wrt="input")
    dq_da = (gx[0] + gx[1])[:, ag.obs_dim:]
    one_m_a2 = 1.0 - a_pi ** 2
    corr = 2.0 * a_pi * one_m_a2 / (one_m_a2 + TANH_EPS)
    g_u = alpha * corr - dq_da * one_m_a2
    clamp_mask = (log_std_raw > LOG_STD_MIN) & (log_std_raw < LOG_STD_MAX)
    g_log_std = (g_u * std * eps - alpha) / M * clamp_mask
    grad = ag.policy.backward(cache, np.concatenate([g_u / M, g_log_std], 1))
    ag.opt_policy.step(ag.policy.flat, grad)
    ag.update_temperature(logp)
    soft_update(ag.target_critic, ag.critic, ag.cfg.tau_soft)


class TestSacUpdate:
    def test_gamma_zero_target_is_reward(self):
        ag = SacAgent(OBS, ACT, SacConfig(gamma=0.0, warmup_steps=0), seed=9)
        filled_agent(ag)
        s, a, r, s2 = ag.buffer.sample(ag.rng, 8)
        eps2 = np.zeros((8, ACT))
        # the critics step on their error to the target, so they end bit
        # for bit where a step on the rewards themselves leaves them
        ref = twin_of(ag)
        ref._fit_critics(s, a, r[:, None])
        diag = ag._learn(s, a, r, s2, with_eps(eps2, eps2))
        assert np.array_equal(ag.critic.flat, ref.critic.flat)
        assert np.array_equal(ag.opt_critic.m, ref.opt_critic.m)
        assert diag["target_mean"] == np.mean(r)

    def test_min_of_target_critics_used(self):
        ag = SacAgent(OBS, ACT, SacConfig(warmup_steps=0), seed=10)
        filled_agent(ag)
        s, a, r, s2 = ag.buffer.sample(ag.rng, 8)
        eps2 = make_rng(11).standard_normal((8, ACT))
        # independent recomputation
        mu2, log_std2, _, _ = ag._policy_stats(s2)
        a2, logp2, _ = ag._squash(mu2, log_std2, eps2)
        x2 = np.concatenate([s2, a2], axis=1)
        q1 = ag.target_critic.member(0).forward(x2)
        q2 = ag.target_critic.member(1).forward(x2)
        expected = (r.reshape(-1, 1) + ag.cfg.gamma *
                    (np.minimum(q1, q2) - ag.entropy_alpha * logp2))
        assert np.all(np.minimum(q1, q2) <= q1 + 1e-15)
        # after one step, Adam's first moment is a tenth of the critic
        # gradient, which is linear in each row's error to the target
        ref = twin_of(ag)
        losses = ref._fit_critics(s, a, expected)
        diag = ag._learn(s, a, r, s2, with_eps(eps2, np.zeros((8, ACT))))
        assert np.allclose(ag.opt_critic.m, ref.opt_critic.m, atol=1e-12)
        assert np.allclose(diag["critic_losses"], losses, atol=1e-12)
        assert diag["target_mean"] == pytest.approx(expected.mean(), abs=1e-12)

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
        eps = np.zeros((4, ACT))
        losses = ag._learn(s, a, r1, s2, with_eps(eps, eps))["critic_losses"]
        assert losses[0] == pytest.approx(0.0, abs=1e-24)
        assert all(np.array_equal(p, q)
                   for p, q in zip(ag.critic.member(0).params, before1))

    def test_single_transition_regression(self):
        # steps at lr 1e-2 drive Q(s, a) to r under gamma=0; 200 updates
        # clear Adam's transient on every seed (at 100 the error still sits
        # near 3e-3)
        cfg = SacConfig(gamma=0.0, lr=1e-2, batch=1, warmup_steps=0,
                        hidden=(32, 32))
        ag = SacAgent(OBS, ACT, cfg, seed=14)
        s = np.full(OBS, 0.3)
        a = np.zeros(ACT)
        r = 1.234
        ag.observe(s[None], a[None], [r], np.full((1, OBS), 0.1))
        for _ in range(200):
            ag.update()
        x = np.concatenate([s, a])[None, :]
        assert abs(ag.critic.member(0).forward(x)[0, 0] - r) < 1e-3
        assert abs(ag.critic.member(1).forward(x)[0, 0] - r) < 1e-3

    def test_update_equals_split_reference(self):
        # at the paper env's sizes and the default learner sizes, where
        # OpenBLAS runs the kernels that training runs
        env = hr.RisCrnEnv(hr.EnvConfig())
        obs_dim, act_dim = env.observation_size, env.action_size
        ag = SacAgent(obs_dim, act_dim, SacConfig(warmup_steps=0), seed=32)
        filled_agent(ag, n=200, seed=33)
        for _ in range(3):
            ref = twin_of(ag)
            ag.update()
            split_reference_update(ref)
            assert rng_state(ag.rng) == rng_state(ref.rng)
            got, want = ag.get_state(), ref.get_state()
            for k, flat in want["nets"].items():
                assert np.array_equal(got["nets"][k], flat), k
            for k, opt in want["opts"].items():
                assert got["opts"][k]["t"] == opt["t"], k
                assert np.array_equal(got["opts"][k]["m"], opt["m"]), k
                assert np.array_equal(got["opts"][k]["v"], opt["v"]), k

    def test_temperature_step_is_adams_one_element_step(self):
        # the float step leaves log_alpha, m, v and t where Adam.step on a
        # one-element array leaves them, bit for bit, over 2 000 steps and
        # across a get_state/set_state
        cfg = SacConfig(warmup_steps=0, hidden=(4, 4), lr=1e-2)
        ag = SacAgent(OBS, ACT, cfg, seed=35)
        ref_p = ag.log_alpha.copy()
        ref = Adam(ref_p, cfg.lr)
        rng = make_rng(36)
        for i in range(2000):
            if i == 1000:
                twin = SacAgent(OBS, ACT, cfg, seed=37)
                twin.set_state(ag.get_state())
                ag = twin
            logp = rng.normal(rng.normal(0.0, 3.0), 2.0, (16, 1))
            ag.update_temperature(logp)
            g = -float(np.add.reduce(logp + ag.target_entropy, axis=None)
                       / logp.size)
            ref.step(ref_p, np.array([g]))
            got = ag.opt_alpha.get_state()
            assert got["t"] == ref.t
            assert got["m"].tobytes() == ref.m.tobytes()
            assert got["v"].tobytes() == ref.v.tobytes()
            assert ag.log_alpha.tobytes() == ref_p.tobytes()

    # log-std is 10 * tanh(tanh(x0)) - 5 in every action dimension: it
    # clamps at LOG_STD_MAX for x0 = 3 and lies inside the box for x0 = -3;
    # the next states take the other value
    @pytest.mark.parametrize("x0,moves", [(-3.0, True), (3.0, False)])
    def test_log_std_gradient_masked_where_the_states_clamp(self, x0, moves):
        ag = SacAgent(OBS, ACT, SacConfig(warmup_steps=0, hidden=(4, 4)),
                      seed=34)
        W0, _, W1, _, W2, b2 = ag.policy.params
        ag.policy.flat[...] = 0.0
        W0[0, 0] = W1[0, 0] = 1.0
        W2[ACT:, 0] = 10.0
        b2[ACT:] = -5.0
        s, s2 = np.zeros((4, OBS)), np.zeros((4, OBS))
        s[:, 0], s2[:, 0] = x0, -x0
        a = make_rng(35).uniform(-1, 1, (4, ACT))
        before = b2[ACT:].copy()
        ag._learn(s, a, np.ones(4), s2, with_eps(np.zeros((4, ACT)),
                                                 np.ones((4, ACT))))
        assert (not np.array_equal(b2[ACT:], before)) == moves

    def test_batch_underflow_warns(self):
        ag = SacAgent(OBS, ACT, SacConfig(warmup_steps=0, batch=16), seed=15)
        out = ag.update()
        assert out == {"warning": "batch underflow"}

    def test_policy_update_descends_its_loss(self):
        # a fixed temperature, and critics held still by a zero step size,
        # leave the policy step as the only thing that moves the loss
        ag = SacAgent(OBS, ACT, SacConfig(warmup_steps=0, auto_entropy=False),
                      seed=16)
        ag.opt_critic.lr = 0.0
        filled_agent(ag, n=60)
        s, a, r, s2 = ag.buffer.sample(ag.rng, 16)
        eps = make_rng(17).standard_normal((16, ACT))
        noise = with_eps(np.zeros((16, ACT)), eps)
        first = ag._learn(s, a, r, s2, noise)["policy_loss"]
        for _ in range(30):
            ag._learn(s, a, r, s2, noise)
        # evaluate the same loss expression without updating
        mu, log_std, _, _ = ag._policy_stats(s)
        a, logp, _ = ag._squash(mu, log_std, eps)
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
            ag.update()
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
        for _ in range(n_updates):
            ag.update()
        st = ag.get_state()
        obs = np.linspace(-1, 1, OBS)
        expected_actions = [ag.act(obs) for _ in range(10)]
        expected_diag = ag.update()

        ag2 = agent_cls(OBS, ACT, cfg, seed=999)
        ag2.set_state(st)
        got_actions = [ag2.act(obs) for _ in range(10)]
        got_diag = ag2.update()
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
    @pytest.mark.parametrize("cls", [DdpgAgent, Td3Agent])
    def test_batch_underflow_warns(self, cls):
        cfg = cls.config_cls(warmup_steps=0, batch=16)
        ag = filled_agent(cls(OBS, ACT, cfg, seed=15), n=15)
        assert ag.update() == {"warning": "batch underflow"}

    def test_deterministic_policy_repeats(self):
        ag = DdpgAgent(OBS, ACT, DdpgConfig(expl_noise=0.0, warmup_steps=0),
                       seed=23)
        obs = make_rng(24).standard_normal(OBS)
        assert np.array_equal(ag.act(obs), ag.act(obs))

    def test_actor_updates_every_step(self):
        ag = DdpgAgent(OBS, ACT, DdpgConfig(warmup_steps=0, batch=4), seed=25)
        filled_agent(ag, n=10, seed=26)
        before = [p.copy() for p in ag.actor.params]
        diag = ag.update()
        assert diag["actor_updated"]
        assert any(not np.array_equal(p, q)
                   for p, q in zip(ag.actor.params, before))


class TestTd3:
    def test_actor_delayed_on_odd_updates(self):
        ag = Td3Agent(OBS, ACT, Td3Config(warmup_steps=0, batch=4), seed=27)
        filled_agent(ag, n=10, seed=28)
        before = [p.copy() for p in ag.actor.params]
        d1 = ag.update()
        assert not d1["actor_updated"]
        assert all(np.array_equal(p, q)
                   for p, q in zip(ag.actor.params, before))
        d2 = ag.update()
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
