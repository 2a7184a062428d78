"""Continuous-control agents over the environment's flat observation and
action vectors: soft actor-critic (primary), DDPG and TD3 baselines, and a
uniform random policy.

All agents share one loop contract: ``act(obs, t)`` returns an action in
[-1, 1]^dim, ``observe(s, a, r, s2)`` stores a transition (the caller
decides whether a transition is stored at all, e.g. when a reward filter
discards it), and ``update(t)`` performs one gradient step once the warmup
phase is over. Every stochastic choice comes from the agent's own generator
so a (seed, config) pair replays bit-for-bit.
"""

from dataclasses import dataclass, field

import numpy as np

from .nets import Adam, DenseNet, soft_update
from .numerics import make_rng, restore_rng, rng_state

LOG_STD_MIN = -20.0
LOG_STD_MAX = 2.0
TANH_EPS = 1e-6


def random_action(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Uniform action in [-1, 1]^dim."""
    return rng.uniform(-1.0, 1.0, dim)


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
        i = self.ptr
        self.s[i] = s
        self.a[i] = a
        self.r[i] = r
        self.s2[i] = s2
        self.ptr = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, rng: np.random.Generator, batch: int):
        idx = rng.choice(self.size, size=batch, replace=False)
        return self.s[idx], self.a[idx], self.r[idx], self.s2[idx]

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


def _check_config(cfg, *rules):
    """Raise one ValueError naming every field that breaks its rule.

    ``rules`` are (broken, message) pairs added to the rules that every
    learning agent shares. gamma = 0 is allowed as a degenerate case (no
    bootstrapping); a buffer smaller than a batch never trains.
    """
    rules = ((not 0.0 <= cfg.gamma <= 1.0, "gamma must lie in [0, 1]"),
             (cfg.lr <= 0, "lr must be > 0"),
             (cfg.batch < 1, "batch must be >= 1"),
             (not 0.0 <= cfg.tau_soft <= 1.0, "tau_soft must lie in [0, 1]"),
             (cfg.buffer_capacity < cfg.batch,
              "buffer_capacity must be >= batch"),
             (not isinstance(cfg.hidden, (tuple, list)) or not all(
                 isinstance(w, (int, np.integer)) and w >= 1
                 for w in cfg.hidden),
              "hidden widths must be integers >= 1")) + rules
    errors = [msg for broken, msg in rules if broken]
    if errors:
        raise ValueError("; ".join(errors))


@dataclass(frozen=True)
class SacConfig:
    gamma: float = 0.99
    lr: float = 1e-3
    batch: int = 16
    tau_soft: float = 0.005
    entropy_alpha: float = 0.2
    auto_entropy: bool = True
    target_entropy: float = None   # default: -action_dim
    buffer_capacity: int = 100_000
    warmup_steps: int = 1000
    hidden: tuple = (128, 128)

    def __post_init__(self):
        # log(alpha) is the tuned variable, so it must start finite
        _check_config(self, (self.auto_entropy and self.entropy_alpha <= 0,
                             "entropy_alpha must be > 0 with auto_entropy"))


@dataclass(frozen=True)
class DdpgConfig:
    gamma: float = 0.99
    lr: float = 1e-3
    batch: int = 16
    tau_soft: float = 0.005
    buffer_capacity: int = 100_000
    warmup_steps: int = 1000
    hidden: tuple = (128, 128)
    expl_noise: float = 0.1

    def __post_init__(self):
        _check_config(self)


@dataclass(frozen=True)
class Td3Config(DdpgConfig):
    policy_noise: float = 0.2
    noise_clip: float = 0.5
    policy_delay: int = 2

    def __post_init__(self):
        _check_config(
            self,
            (self.policy_delay < 1, "policy_delay must be >= 1"),
            (self.policy_noise < 0, "policy_noise must be >= 0"),
            (self.noise_clip < 0, "noise_clip must be >= 0"))


class RandomAgent:
    """Chooses uniform random actions; never learns."""

    def __init__(self, obs_dim: int, act_dim: int, seed: int = 0):
        self.act_dim = act_dim
        self.rng = make_rng(seed)

    def act(self, obs, t: int, deterministic: bool = False):
        return random_action(self.rng, self.act_dim)

    def observe(self, s, a, r, s2):
        pass

    def update(self, t: int):
        return None

    def get_state(self) -> dict:
        return {"rng": rng_state(self.rng)}

    def set_state(self, st: dict):
        self.rng = restore_rng(st["rng"])


class _OffPolicyAgent:
    """Replay buffer, warmup gate, critic and checkpoint state shared by
    the learners. Subclasses set ``config_cls`` and ``n_critics``, build
    their nets from ``self.rng`` after this constructor (the critic
    through ``_build_critic``) and add their own parameter arrays and
    optimizers to ``_nets``/``_opts``, whose keys name them in the
    checkpoint."""

    def __init__(self, obs_dim: int, act_dim: int, cfg=None, seed: int = 0):
        self.cfg = cfg or self.config_cls()
        self.obs_dim = obs_dim
        self.act_dim = act_dim
        self.rng = make_rng(seed)
        self.buffer = ReplayBuffer(self.cfg.buffer_capacity, obs_dim, act_dim)

    def observe(self, s, a, r, s2):
        self.buffer.store(s, a, r, s2)

    def _sample(self, t: int):
        """``(batch, None)`` when step ``t`` trains, else ``(None, diag)``
        with what ``update`` returns instead: None during warmup, a
        warning while the buffer holds fewer transitions than a batch."""
        if t < self.cfg.warmup_steps:
            return None, None
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
        grad, _ = self.critic.backward(cache, 2.0 * diff / diff.shape[-2])
        self.opt_critic.step(self.critic.flat, grad)
        return np.mean(diff ** 2, axis=(1, 2)).tolist()

    def _td_target(self, r, s2, a2, entropy=0.0):
        """r + gamma * (min of the target critics at (s2, a2) - entropy):
        clipped double-Q for two members."""
        qt = self.target_critic.forward(np.concatenate([s2, a2], axis=1))
        r_col = np.asarray(r, dtype=float).reshape(-1, 1)
        return r_col + self.cfg.gamma * (qt.min(axis=0) - entropy)

    def _nets(self):
        return {"critic": self.critic.flat,
                "critic_target": self.target_critic.flat}

    def _opts(self):
        return {"critic": self.opt_critic}

    def get_state(self) -> dict:
        return {
            "nets": {k: p.copy() for k, p in self._nets().items()},
            "opts": {k: opt.get_state() for k, opt in self._opts().items()},
            "rng": rng_state(self.rng),
            "buffer": self.buffer.get_state(),
        }

    def set_state(self, st: dict):
        for k, p in self._nets().items():
            p[...] = st["nets"][k]
        for k, opt in self._opts().items():
            opt.set_state(st["opts"][k])
        self.rng = restore_rng(st["rng"])
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

    def _policy_stats(self, s):
        """Mean and clamped log-std heads for a batch of states."""
        out, cache = self.policy.forward_cache(s)
        mu = out[:, :self.act_dim]
        log_std_raw = out[:, self.act_dim:]
        log_std = np.clip(log_std_raw, LOG_STD_MIN, LOG_STD_MAX)
        return mu, log_std, log_std_raw, cache

    @staticmethod
    def _squash(mu, log_std, eps):
        """Reparameterized squashed-Gaussian sample and its log-density.

        The log-density carries the tanh change-of-variables correction
        -log(1 - a^2 + eps) per dimension.
        """
        std = np.exp(log_std)
        u = mu + std * eps
        a = np.tanh(u)
        logp = np.sum(-0.5 * eps ** 2 - log_std - 0.5 * np.log(2.0 * np.pi)
                      - np.log(1.0 - a ** 2 + TANH_EPS), axis=1, keepdims=True)
        return a, logp, std, u

    def act(self, obs, t: int, deterministic: bool = False):
        if not deterministic and t < self.cfg.warmup_steps:
            return random_action(self.rng, self.act_dim)
        mu, log_std, _, _ = self._policy_stats(np.asarray(obs)[None, :])
        if deterministic:
            return np.tanh(mu[0])
        eps = self.rng.standard_normal((1, self.act_dim))
        a, _, _, _ = self._squash(mu, log_std, eps)
        return a[0]

    def critic_target(self, s2, r, eps2=None):
        """Bootstrapped target: r + gamma * (min of the two target critics
        at a fresh policy action, minus the entropy term)."""
        mu2, log_std2, _, _ = self._policy_stats(s2)
        if eps2 is None:
            eps2 = self.rng.standard_normal(mu2.shape)
        a2, logp2, _, _ = self._squash(mu2, log_std2, eps2)
        return self._td_target(r, s2, a2, self.entropy_alpha * logp2)

    def update_critics(self, s, a, r, s2, eps2=None):
        U = self.critic_target(s2, r, eps2)
        return U, self._fit_critics(s, a, U)

    def update_policy(self, s, eps=None):
        """One gradient step on mean(alpha * logp - min_i Q_i(s, a)) with a
        reparameterized action; value gradients flow through the action
        input of whichever critic attains the minimum per sample."""
        M = s.shape[0]
        mu, log_std, log_std_raw, cache = self._policy_stats(s)
        if eps is None:
            eps = self.rng.standard_normal(mu.shape)
        a, logp, std, _ = self._squash(mu, log_std, eps)
        x = np.concatenate([s, a], axis=1)
        (p1, p2), qc = self.critic.forward_cache(x)
        take1 = p1 <= p2
        qmin = np.where(take1, p1, p2)
        alpha = self.entropy_alpha
        loss = float(np.mean(alpha * logp - qmin))

        _, gx = self.critic.backward(qc, np.stack([take1, ~take1]))
        dq_da = (gx[0] + gx[1])[:, self.obs_dim:]

        one_m_a2 = 1.0 - a ** 2
        corr = 2.0 * a * one_m_a2 / (one_m_a2 + TANH_EPS)
        g_u = alpha * corr - dq_da * one_m_a2
        g_mu = g_u / M
        clamp_mask = ((log_std_raw > LOG_STD_MIN) & (log_std_raw < LOG_STD_MAX))
        g_log_std = (g_u * std * eps - alpha) / M * clamp_mask
        grad, _ = self.policy.backward(
            cache, np.concatenate([g_mu, g_log_std], axis=1))
        self.opt_policy.step(self.policy.flat, grad)
        return loss, logp

    def update_temperature(self, logp):
        g = -float(np.mean(logp + self.target_entropy))
        self.opt_alpha.step(self.log_alpha, np.array([g]))

    def update(self, t: int):
        batch, idle = self._sample(t)
        if batch is None:
            return idle
        cfg = self.cfg
        s, a, r, s2 = batch
        U, critic_losses = self.update_critics(s, a, r, s2)
        policy_loss, logp = self.update_policy(s)
        if cfg.auto_entropy:
            self.update_temperature(logp)
        soft_update(self.target_critic, self.critic, cfg.tau_soft)
        return {"critic_losses": critic_losses, "policy_loss": policy_loss,
                "entropy_alpha": self.entropy_alpha,
                "target_mean": float(np.mean(U))}

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
        self.actor_target = self.actor.copy()
        self.opt_actor = Adam(self.actor.flat, cfg.lr)

    def _policy_action(self, net: DenseNet, s):
        return np.tanh(net.forward(s))

    def act(self, obs, t: int, deterministic: bool = False):
        if not deterministic and t < self.cfg.warmup_steps:
            return random_action(self.rng, self.act_dim)
        a = self._policy_action(self.actor, np.asarray(obs)[None, :])[0]
        if deterministic or self.cfg.expl_noise == 0.0:
            return a
        noise = self.cfg.expl_noise * self.rng.standard_normal(self.act_dim)
        return np.clip(a + noise, -1.0, 1.0)

    def _target_action(self, s2):
        return self._policy_action(self.actor_target, s2)

    def critic_target_value(self, s2, r):
        return self._td_target(r, s2, self._target_action(s2))

    def _update_actor(self, s):
        M = s.shape[0]
        out, cache = self.actor.forward_cache(s)
        a = np.tanh(out)
        x = np.concatenate([s, a], axis=1)
        q = self.critic.member(0)
        pred, qc = q.forward_cache(x)
        _, gx = q.backward(qc, np.full_like(pred, -1.0 / M))
        g_out = gx[:, self.obs_dim:] * (1.0 - a ** 2)
        grad, _ = self.actor.backward(cache, g_out)
        self.opt_actor.step(self.actor.flat, grad)
        return float(-np.mean(pred))

    def update(self, t: int):
        batch, idle = self._sample(t)
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
        noise = np.clip(cfg.policy_noise * self.rng.standard_normal(a2.shape),
                        -cfg.noise_clip, cfg.noise_clip)
        return np.clip(a2 + noise, -1.0, 1.0)

    def _actor_due(self) -> bool:
        # the critic's Adam has taken one step per update, this one included
        return self.opt_critic.t % self.cfg.policy_delay == 0
