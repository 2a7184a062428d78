"""Continuous-control agents over the environment's flat observation and
action vectors: soft actor-critic (primary), DDPG and TD3 baselines, and a
uniform random policy, which every learner extends.

All agents share one loop contract. ``open_loop_actions(t, n)`` draws at
once the actions of those of the n steps from t that act without reading
the observation (every step of the random agent, the rest of a learner's
warm-up): no rows means the next step is closed-loop.
``observe(s, a, r, s2)`` stores a k-row stack of transitions in row order
(k >= 0; the caller decides which transitions are stored at all, e.g. when
a reward filter discards some). A learner's ``act(obs, deterministic=False)``
is its policy, whatever the step, and ``update()`` performs one gradient
step; the training loop calls them on closed-loop steps only, so the
random agent has neither. Every stochastic choice comes from the agent's
own generator so a (seed, config) pair replays bit-for-bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from .nets import Adam, DenseNet, soft_update
from .numerics import (is_count, make_rng, raise_broken, require_reals,
                       restore_rng, rng_state)

LOG_STD_MIN = -20.0
LOG_STD_MAX = 2.0
TANH_EPS = 1e-6
HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)


def random_action(rng: np.random.Generator, dim: int, k: int):
    """k uniform actions in [-1, 1]^dim as rows: one draw of k rows takes
    the stream and leaves the generator as k one-row draws do."""
    return rng.uniform(-1.0, 1.0, (k, dim))


def _clip_unit(x: np.ndarray) -> np.ndarray:
    """``x`` clipped to [-1, 1] in place, as ``np.clip`` would."""
    np.maximum(x, -1.0, out=x)
    return np.minimum(x, 1.0, out=x)


class ReplayBuffer:
    """Fixed-capacity ring of (s, a, r, s') transitions with uniform
    without-replacement batch sampling."""

    def __init__(self, capacity: int, obs_dim: int, act_dim: int):
        self.capacity = capacity
        self.s = np.zeros((capacity, obs_dim))
        self.a = np.zeros((capacity, act_dim))
        self.r = np.zeros(capacity)
        self.s2 = np.zeros((capacity, obs_dim))
        self.ptr = 0
        self.size = 0

    def store(self, s, a, r, s2):
        """Stores a k-row stack of transitions, in row order, as k one-row
        stores would: the ring keeps the last ``capacity`` of them."""
        k, cap = len(r), self.capacity
        # row j lands at (ptr + j) % cap, so only the last cap rows stay;
        # they are written as at most two runs, split where the ring wraps
        j = max(0, k - cap)
        while j < k:
            i = (self.ptr + j) % cap
            m = min(k - j, cap - i)
            self.s[i:i + m] = s[j:j + m]
            self.a[i:i + m] = a[j:j + m]
            self.r[i:i + m] = r[j:j + m]
            self.s2[i:i + m] = s2[j:j + m]
            j += m
        self.ptr = (self.ptr + k) % cap
        self.size = min(self.size + k, cap)

    def sample(self, rng: np.random.Generator, batch: int):
        idx = rng.choice(self.size, size=batch, replace=False)
        return [x.take(idx, 0) for x in (self.s, self.a, self.r, self.s2)]

    def get_state(self) -> dict:
        n = self.size
        return {"s": self.s[:n].copy(), "a": self.a[:n].copy(),
                "r": self.r[:n].copy(), "s2": self.s2[:n].copy(),
                "ptr": self.ptr, "size": n}

    def set_state(self, st: dict):
        n = int(st["size"])
        self.s[:n] = st["s"]
        self.a[:n] = st["a"]
        self.r[:n] = st["r"]
        self.s2[:n] = st["s2"]
        self.ptr = int(st["ptr"])
        self.size = n


@dataclass(frozen=True)
class _LearnerConfig:
    """The off-policy settings every learner shares, and their rules.
    gamma = 0 is allowed as a degenerate case (no bootstrapping); a buffer
    smaller than a batch never trains. A subclass adds its own fields and
    the rules on them in ``_own_rules``; one ValueError names every field
    that breaks its rule."""
    gamma: float = 0.99
    lr: float = 1e-3
    batch: int = 16
    tau_soft: float = 0.005
    buffer_capacity: int = 100_000
    warmup_steps: int = 1000
    hidden: tuple = (128, 128)

    def __post_init__(self):
        require_reals(self)
        batch_ok = is_count(self.batch, 1)
        raise_broken(
            (not 0.0 <= self.gamma <= 1.0, "gamma must lie in [0, 1]"),
            (not self.lr > 0, "lr must be > 0"),
            (not batch_ok, "batch must be an integer >= 1"),
            (not 0.0 <= self.tau_soft <= 1.0, "tau_soft must lie in [0, 1]"),
            (not is_count(self.buffer_capacity, self.batch if batch_ok else 1),
             "buffer_capacity must be >= batch and an integer"),
            (not is_count(self.warmup_steps, 0),
             "warmup_steps must be an integer >= 0"),
            (not isinstance(self.hidden, (tuple, list))
             or not all(is_count(w, 1) for w in self.hidden),
             "hidden widths must be integers >= 1"), *self._own_rules())

    def _own_rules(self) -> list:
        return []


@dataclass(frozen=True)
class SacConfig(_LearnerConfig):
    entropy_alpha: float = 0.2
    auto_entropy: bool = True
    target_entropy: float = None   # default: -action_dim

    def _own_rules(self) -> list:
        return [(not self.entropy_alpha >= 0, "entropy_alpha must be >= 0"),
                # log(alpha) is the tuned variable, so it must start finite
                (self.auto_entropy and self.entropy_alpha == 0,
                 "entropy_alpha must be > 0 with auto_entropy"),
                (self.target_entropy is not None
                 and not math.isfinite(self.target_entropy),
                 "target_entropy must be finite")]


@dataclass(frozen=True)
class DdpgConfig(_LearnerConfig):
    expl_noise: float = 0.1

    def _own_rules(self) -> list:
        return [(not self.expl_noise >= 0, "expl_noise must be >= 0")]


@dataclass(frozen=True)
class Td3Config(DdpgConfig):
    policy_noise: float = 0.2
    noise_clip: float = 0.5
    policy_delay: int = 2

    def _own_rules(self) -> list:
        return [*super()._own_rules(),
                (not is_count(self.policy_delay, 1),
                 "policy_delay must be an integer >= 1"),
                (not self.policy_noise >= 0, "policy_noise must be >= 0"),
                (not self.noise_clip >= 0, "noise_clip must be >= 0")]


class RandomAgent:
    """Chooses uniform random actions and never learns: every step is
    open-loop, so it has no ``act`` or ``update``. Every learner extends
    it and acts so until ``open_loop_end``, the end of its warm-up. It
    takes a config as the learners do, and has none to read."""

    config_cls = None
    open_loop_end = math.inf

    def __init__(self, obs_dim: int, act_dim: int, cfg=None, seed: int = 0):
        self.obs_dim = obs_dim
        self.act_dim = act_dim
        self.rng = make_rng(seed)

    def open_loop_actions(self, t: int, n: int) -> np.ndarray:
        """One row for each of the n steps from t before ``open_loop_end``;
        past it none, and the generator is left as it is."""
        k = min(n, self.open_loop_end - t)
        if k <= 0:
            return np.empty((0, self.act_dim))
        return random_action(self.rng, self.act_dim, k)

    def observe(self, s, a, r, s2):
        pass

    def get_state(self) -> dict:
        return {"rng": rng_state(self.rng)}

    def set_state(self, st: dict):
        self.rng = restore_rng(st["rng"])


class _OffPolicyAgent(RandomAgent):
    """Replay buffer, warm-up length, critic and resume state shared by the
    learners. Subclasses set ``config_cls`` and ``n_critics``, build their
    nets from ``self.rng`` after this constructor (the critic through
    ``_build_critic``) and add their own parameter arrays and optimizers
    to ``_nets``/``_opts``, whose keys name them in ``get_state``."""

    def __init__(self, obs_dim: int, act_dim: int, cfg=None, seed: int = 0):
        super().__init__(obs_dim, act_dim, cfg, seed)
        self.cfg = cfg or self.config_cls()
        self.open_loop_end = self.cfg.warmup_steps
        self.buffer = ReplayBuffer(self.cfg.buffer_capacity, obs_dim, act_dim)

    def observe(self, s, a, r, s2):
        self.buffer.store(s, a, r, s2)

    def _sample(self):
        """``(batch, None)``, or ``(None, diag)`` with what ``update``
        returns instead: a warning while the buffer holds fewer
        transitions than a batch."""
        if self.buffer.size < self.cfg.batch:
            return None, {"warning": "batch underflow"}
        return self.buffer.sample(self.rng, self.cfg.batch), None

    def _build_critic(self):
        """The ``n_critics`` critics on (s, a) as one stacked net, its
        Polyak target and one Adam over all members."""
        self.critic = DenseNet(
            [self.obs_dim + self.act_dim] + list(self.cfg.hidden) + [1],
            self.rng, members=self.n_critics)
        self.target_critic = self.critic.copy()
        self.opt_critic = Adam(self.critic.flat, self.cfg.lr)

    def _fit_critics(self, s, a, U):
        """One Adam step of every critic member on its mean squared error
        to the targets ``U``; returns the per-member losses."""
        pred, cache = self.critic.forward_cache(np.concatenate([s, a], axis=1))
        diff = pred - U
        M = diff.shape[-2]
        grad = self.critic.backward(cache, 2.0 * diff / M)
        self.opt_critic.step(self.critic.flat, grad)
        return (np.add.reduce(diff * diff, axis=(1, 2)) / M).tolist()

    def _td_target(self, r, s2, a2, entropy=None):
        """r + gamma * (min of the target critics at (s2, a2) - entropy):
        clipped double-Q for two members. ``r`` is a 1-D array."""
        qt = self.target_critic.forward(np.concatenate([s2, a2], axis=1))
        q = np.minimum.reduce(qt, axis=0)
        if entropy is not None:
            q -= entropy
        q *= self.cfg.gamma
        q += r[:, None]
        return q

    def _nets(self):
        return {"critic": self.critic.flat,
                "critic_target": self.target_critic.flat}

    def _opts(self):
        return {"critic": self.opt_critic}

    def get_state(self) -> dict:
        return {
            **super().get_state(),
            "nets": {k: p.copy() for k, p in self._nets().items()},
            "opts": {k: opt.get_state() for k, opt in self._opts().items()},
            "buffer": self.buffer.get_state(),
        }

    def set_state(self, st: dict):
        super().set_state(st)
        for k, p in self._nets().items():
            p[...] = st["nets"][k]
        for k, opt in self._opts().items():
            opt.set_state(st["opts"][k])
        self.buffer.set_state(st["buffer"])


class SacAgent(_OffPolicyAgent):
    """Soft actor-critic with twin critics, target critics, squashed
    Gaussian policy, and automatic entropy-temperature tuning."""

    config_cls = SacConfig
    n_critics = 2

    def __init__(self, obs_dim: int, act_dim: int, cfg: SacConfig = None,
                 seed: int = 0):
        super().__init__(obs_dim, act_dim, cfg, seed)
        cfg = self.cfg
        self.policy = DenseNet([obs_dim] + list(cfg.hidden) + [2 * act_dim],
                               self.rng)
        self._build_critic()
        self.opt_policy = Adam(self.policy.flat, cfg.lr)
        # a fixed temperature of 0 is log_alpha = -inf, exp of which is 0
        with np.errstate(divide="ignore"):
            self.log_alpha = np.array([np.log(cfg.entropy_alpha)])
        self.opt_alpha = Adam(self.log_alpha, cfg.lr)
        self.target_entropy = (cfg.target_entropy if cfg.target_entropy
                               is not None else -float(act_dim))

    @property
    def entropy_alpha(self) -> float:
        return float(np.exp(self.log_alpha[0]))

    def _heads(self, out):
        """Mean, clamped log-std and raw log-std heads of policy outputs."""
        mu = out[..., :self.act_dim]
        log_std_raw = out[..., self.act_dim:]
        log_std = np.maximum(log_std_raw, LOG_STD_MIN)
        np.minimum(log_std, LOG_STD_MAX, out=log_std)
        return mu, log_std, log_std_raw

    def _policy_stats(self, s):
        """Mean and clamped log-std heads for a batch of states."""
        out, cache = self.policy.forward_cache(s)
        return (*self._heads(out), cache)

    @staticmethod
    def _squash(mu, log_std, eps):
        """Reparameterized squashed-Gaussian sample, its log-density and
        the standard deviation.

        The log-density carries the tanh change-of-variables correction
        -log(1 - a^2 + eps) per dimension.
        """
        std = np.exp(log_std)
        u = std * eps
        u += mu
        a = np.tanh(u, out=u)
        # the terms of -eps^2/2 - log_std - log(2 pi)/2 - log(1 - a^2 + eps),
        # taken in that order
        corr = a * a
        np.subtract(1.0, corr, out=corr)
        corr += TANH_EPS
        np.log(corr, out=corr)
        z = eps * eps
        z *= -0.5
        z -= log_std
        z -= HALF_LOG_2PI
        z -= corr
        return a, np.add.reduce(z, axis=-1, keepdims=True), std

    def act(self, obs, deterministic: bool = False):
        mu, log_std, _, _ = self._policy_stats(np.asarray(obs)[None, :])
        if deterministic:
            return np.tanh(mu[0])
        eps = self.rng.standard_normal((1, self.act_dim))
        return np.tanh(mu + np.exp(log_std) * eps)[0]

    def update_temperature(self, logp):
        g = -float(np.add.reduce(logp + self.target_entropy,
                                 axis=None)) / logp.size
        self.opt_alpha.step_one(self.log_alpha, g)

    def update(self):
        batch, idle = self._sample()
        if batch is None:
            return idle
        # eps2 for the target actions is drawn first, then eps for the policy
        eps = self.rng.standard_normal((2, self.cfg.batch, self.act_dim))
        return self._learn(*batch, eps)

    def _learn(self, s, a, r, s2, eps):
        """One update on a batch of M transitions; ``eps`` is (2, M, act):
        the standard normals for the target actions at ``s2``, then those
        for the policy step at ``s``.

        The policy does not change before its own step, so one forward
        pass over ``s2`` and ``s`` stacked on a leading axis serves both the
        critic targets and the policy step; it makes the same products as
        two passes, one per half. The critics step on their squared error
        to r + gamma * (min target critic - alpha * logp2). The policy then
        steps on mean(alpha * logp - min_i Q_i(s, a)) with a
        reparameterized action; value gradients flow through the action
        input of whichever critic attains the minimum per sample.
        """
        cfg = self.cfg
        M = s.shape[0]
        alpha = self.entropy_alpha
        out, cache = self.policy.forward_cache(
            np.concatenate([s2, s]).reshape(2, M, -1))
        mu, log_std, log_std_raw = self._heads(out)
        (a2, a_pi), (logp2, logp), (_, std) = self._squash(mu, log_std, eps)
        U = self._td_target(r, s2, a2, alpha * logp2)
        critic_losses = self._fit_critics(s, a, U)

        (p1, p2), qc = self.critic.forward_cache(
            np.concatenate([s, a_pi], axis=1))
        take1 = p1 <= p2
        qmin = np.where(take1, p1, p2)
        policy_loss = float(np.add.reduce(alpha * logp - qmin, axis=None) / M)

        gx = self.critic.backward(
            qc, np.concatenate((take1, ~take1)).reshape(2, M, 1), wrt="input")
        dq_da = gx[0, :, self.obs_dim:] + gx[1, :, self.obs_dim:]
        one_m_a2 = 1.0 - a_pi * a_pi
        corr = 2.0 * a_pi * one_m_a2 / (one_m_a2 + TANH_EPS)
        g_u = alpha * corr - dq_da * one_m_a2
        clamp_mask = ((log_std_raw[1] > LOG_STD_MIN)
                      & (log_std_raw[1] < LOG_STD_MAX))
        g_log_std = (g_u * std * eps[1] - alpha) / M * clamp_mask
        grad = self.policy.backward(
            [c[1] for c in cache],
            np.concatenate([g_u / M, g_log_std], axis=1))
        self.opt_policy.step(self.policy.flat, grad)

        if cfg.auto_entropy:
            self.update_temperature(logp)
        soft_update(self.target_critic, self.critic, cfg.tau_soft)
        return {"critic_losses": critic_losses, "policy_loss": policy_loss,
                "entropy_alpha": self.entropy_alpha,
                "target_mean": float(np.add.reduce(U, axis=None) / M)}

    def _nets(self):
        return {"policy": self.policy.flat, **super()._nets(),
                "log_alpha": self.log_alpha}

    def _opts(self):
        return {"policy": self.opt_policy, **super()._opts(),
                "alpha": self.opt_alpha}


class DdpgAgent(_OffPolicyAgent):
    """Deterministic actor with one critic, additive Gaussian exploration
    noise, and target networks."""

    config_cls = DdpgConfig
    n_critics = 1

    def __init__(self, obs_dim: int, act_dim: int, cfg: DdpgConfig = None,
                 seed: int = 0):
        super().__init__(obs_dim, act_dim, cfg, seed)
        cfg = self.cfg
        self.actor = DenseNet([obs_dim] + list(cfg.hidden) + [act_dim],
                              self.rng)
        self._build_critic()
        # the actor steps on the first critic alone
        self._q0 = self.critic.member(0)
        self.actor_target = self.actor.copy()
        self.opt_actor = Adam(self.actor.flat, cfg.lr)

    @staticmethod
    def _policy_action(net: DenseNet, s):
        out = net.forward(s)
        return np.tanh(out, out=out)

    def act(self, obs, deterministic: bool = False):
        a = self._policy_action(self.actor, np.asarray(obs)[None, :])[0]
        if deterministic or self.cfg.expl_noise == 0.0:
            return a
        noise = self.rng.standard_normal(self.act_dim)
        noise *= self.cfg.expl_noise
        noise += a
        return _clip_unit(noise)

    def _target_action(self, s2):
        return self._policy_action(self.actor_target, s2)

    def critic_target_value(self, s2, r):
        return self._td_target(r, s2, self._target_action(s2))

    def _update_actor(self, s):
        M = s.shape[0]
        out, cache = self.actor.forward_cache(s)
        a = np.tanh(out)
        pred, qc = self._q0.forward_cache(np.concatenate([s, a], axis=1))
        gx = self._q0.backward(qc, np.full(pred.shape, -1.0 / M), wrt="input")
        g_out = gx[:, self.obs_dim:] * (1.0 - a * a)
        grad = self.actor.backward(cache, g_out)
        self.opt_actor.step(self.actor.flat, grad)
        return float(-(np.add.reduce(pred, axis=None) / M))

    def update(self):
        batch, idle = self._sample()
        if batch is None:
            return idle
        cfg = self.cfg
        s, a, r, s2 = batch
        U = self.critic_target_value(s2, r)
        losses = self._fit_critics(s, a, U)
        diag = {"critic_losses": losses, "actor_updated": False}
        if self._actor_due():
            diag["policy_loss"] = self._update_actor(s)
            diag["actor_updated"] = True
            soft_update(self.actor_target, self.actor, cfg.tau_soft)
            soft_update(self.target_critic, self.critic, cfg.tau_soft)
        return diag

    def _actor_due(self) -> bool:
        return True

    def _nets(self):
        return {"actor": self.actor.flat,
                "actor_target": self.actor_target.flat, **super()._nets()}

    def _opts(self):
        return {"actor": self.opt_actor, **super()._opts()}


class Td3Agent(DdpgAgent):
    """Twin critics, target-policy smoothing noise, and delayed actor
    updates on top of the DDPG skeleton."""

    config_cls = Td3Config
    n_critics = 2

    def _target_action(self, s2):
        a2 = self._policy_action(self.actor_target, s2)
        cfg = self.cfg
        noise = self.rng.standard_normal(a2.shape)
        noise *= cfg.policy_noise
        np.maximum(noise, -cfg.noise_clip, out=noise)
        np.minimum(noise, cfg.noise_clip, out=noise)
        a2 += noise
        return _clip_unit(a2)

    def _actor_due(self) -> bool:
        # the critic's Adam has taken one step per update, this one included
        return self.opt_critic.t % self.cfg.policy_delay == 0
