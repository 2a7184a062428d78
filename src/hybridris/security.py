"""Reward-poisoning attacks and the clipping + statistical-filter defense.

The attacker is black-box: it watches the raw reward stream and, whenever
the recent average indicates the victim is doing well, inverts or scales
the reward handed to the learner. The defense clips every reward to a fixed
range and then discards values that deviate from the running mean of
recently accepted rewards by more than ``chi`` standard deviations. A
discarded reward means the whole transition is kept out of the replay
buffer.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .numerics import (is_count, raise_broken, require_reals, restore_rng,
                       rng_state)

INVERT = "invert"
SCALE = "scale"
RANDOM_SCALE = "random_scale"

STD_FLOOR = 1e-6


@dataclass(frozen=True)
class AttackConfig:
    kind: str = INVERT
    threshold: float = 0.5        # trigger when recent mean exceeds this
    trigger_window: int = 50
    scale: float = 0.5            # fixed-scale factor
    scale_low: float = 0.3        # random-scale draw bounds
    scale_high: float = 0.9

    def __post_init__(self):
        require_reals(self)
        raise_broken(
            (self.kind not in (INVERT, SCALE, RANDOM_SCALE),
             f"unknown attack kind {self.kind!r}"),
            (math.isnan(self.threshold), "threshold must not be NaN"),
            (not is_count(self.trigger_window, 1),
             "trigger_window must be an integer >= 1"),
            (not 0.0 < self.scale < 1.0, "scale must lie in (0, 1)"),
            (not 0.0 < self.scale_low < self.scale_high < 1.0,
             "need 0 < scale_low < scale_high < 1"))


@dataclass(frozen=True)
class DefenseConfig:
    r_min: float = -2.0
    r_max: float = 2.0
    chi: float = 2.0
    warmup_count: int = 10
    stats_window: int = 500

    def __post_init__(self):
        require_reals(self)
        warmup_ok = is_count(self.warmup_count, 2)
        raise_broken(
            (math.isnan(self.r_min) or math.isnan(self.r_max),
             "r_min and r_max must not be NaN"),
            (self.r_min >= self.r_max, "need r_min < r_max"),
            (not self.chi > 0, "chi must be > 0"),
            (not warmup_ok, "warmup_count must be an integer >= 2"),
            (not is_count(self.stats_window,
                          self.warmup_count if warmup_ok else 2),
             "stats_window must be an integer >= warmup_count"))


ACCEPTED = "accepted"
DISCARDED = "discarded"


class RewardPipelineRecord(NamedTuple):
    """Trace of one reward through attack, clip, and filter stages, its
    fields named as the pipeline log names them."""
    t: int
    raw: float
    post_attack: float
    clipped: float
    decision: str         # ACCEPTED or DISCARDED
    mean: float           # mean and std of the accepted window before it
    std: float
    triggered: bool


# the logged fields, in log order; an accepted record's clipped value is
# the learner's reward
PIPELINE_LOG_FIELDS = RewardPipelineRecord._fields


def attack(cfg: AttackConfig, r: float, rng: np.random.Generator) -> float:
    """Poison one reward on which the trigger has fired."""
    if cfg.kind == INVERT:
        return -r
    if cfg.kind == SCALE:
        return cfg.scale * r
    return float(rng.uniform(cfg.scale_low, cfg.scale_high)) * r


def clip(x: float, lo: float, hi: float) -> float:
    """``float(np.clip(x, lo, hi))`` for float bounds lo < hi, by the rule
    numpy's loop runs: only a value past a bound becomes that bound, so a
    value on one (a -0.0 on a 0.0 bound too) and a NaN pass through."""
    if x < lo:
        return lo
    if x > hi:
        return hi
    return x


def _mean(vals: np.ndarray) -> float:
    """``float(np.mean(vals))`` of a non-empty float array, by the
    operations np.mean runs: the pairwise sum, divided by the count."""
    return float(np.add.reduce(vals, axis=None)) / vals.size


def defend(cfg: DefenseConfig, mean: float, std: float,
           clipped: float) -> bool:
    """The filter: accept iff a clipped reward sits within chi standard
    deviations of the running mean."""
    return abs(clipped - mean) <= cfg.chi * std


class _Window:
    """The most recent ``size`` values pushed, oldest first, as one
    contiguous float array, so its mean and std see the values in push
    order. A push onto a full window shifts the others down by one."""

    def __init__(self, size: int, values=()):
        self.size = size
        self._buf = np.empty(size)
        self._n = 0
        for v in values:
            self.push(v)

    def __len__(self) -> int:
        return self._n

    def push(self, v: float):
        if self._n < self.size:
            self._buf[self._n] = v
            self._n += 1
        elif self.size:
            self._buf[:-1] = self._buf[1:]
            self._buf[-1] = v

    def values(self) -> np.ndarray:
        return self._buf[:self._n]


class RewardPipeline:
    """Per-run composition: attack (optional) -> clip -> filter (optional).

    Every reward is clipped, to the defense's range or to
    ``DefenseConfig``'s default one. The filter runs only when a defense is
    configured; it keeps the most recent ``stats_window`` accepted rewards.
    The first ``warmup_count`` steps are its warm-up: their rewards are all
    accepted and the attack is held off, so the seeded statistics are
    clean. The attack arms once a full trigger window of raw rewards has
    been observed.
    """

    def __init__(self, attack_cfg: AttackConfig = None,
                 defense_cfg: DefenseConfig = None,
                 rng: np.random.Generator = None):
        raise_broken((rng is None and attack_cfg is not None
                      and attack_cfg.kind == RANDOM_SCALE,
                      "a random_scale attack draws its scales from rng, "
                      "and no generator was given"))
        self.attack_cfg = attack_cfg
        self.defense_cfg = defense_cfg
        self.rng = rng
        bounds = defense_cfg or DefenseConfig()
        # as floats, so a clipped reward is a float for integer bounds too
        self.clip = (float(bounds.r_min), float(bounds.r_max))
        self._accepted = _Window(
            defense_cfg.stats_window if defense_cfg else 0)
        self._raw_history = _Window(
            attack_cfg.trigger_window if attack_cfg else 1)
        self._t = 0
        self._stats = None   # stats() of the window as it is, once asked

    def stats(self):
        """Mean and std of the accepted rewards in the window. The std is
        the unbiased (n-1) estimate, floored so the acceptance band never
        collapses to zero width. A discarded reward leaves the window as it
        was, so the pair is worked out again only after a push."""
        if self._stats is None:
            vals = self._accepted.values()
            n = vals.size
            if n < 2:
                self._stats = (_mean(vals) if n else 0.0, STD_FLOOR)
            else:
                # np.std(ddof=1)'s operations: the squared deviations from
                # the mean, summed pairwise, over n - 1, rooted
                mu = _mean(vals)
                d = vals - mu
                d *= d
                var = float(np.add.reduce(d, axis=None)) / (n - 1)
                self._stats = (mu, max(math.sqrt(var), STD_FLOOR))
        return self._stats

    def step(self, raw: float) -> RewardPipelineRecord:
        raw = float(raw)
        t = self._t
        self._t += 1
        atk, dfn = self.attack_cfg, self.defense_cfg
        history = self._raw_history
        warmup = dfn is not None and t < dfn.warmup_count
        triggered = (atk is not None and not warmup
                     and len(history) == history.size
                     and _mean(history.values()) > atk.threshold)
        post = attack(atk, raw, self.rng) if triggered else raw
        history.push(raw)

        mean, std = self.stats() if dfn is not None else (0.0, 0.0)
        clipped = clip(post, *self.clip)
        accepted = dfn is None or warmup or defend(dfn, mean, std, clipped)
        if accepted:
            self._accepted.push(clipped)     # a no-op without a defense
            self._stats = None
        return RewardPipelineRecord(
            t, raw, post, clipped,
            ACCEPTED if accepted else DISCARDED, mean, std, triggered)

    def get_state(self) -> dict:
        return {
            "t": self._t,
            "raw_history": self._raw_history.values().tolist(),
            "accepted": self._accepted.values().tolist(),
            "rng": rng_state(self.rng) if self.rng is not None else None,
        }

    def set_state(self, st: dict):
        self._t = int(st["t"])
        self._raw_history = _Window(self._raw_history.size,
                                    st["raw_history"])
        self._accepted = _Window(self._accepted.size, st["accepted"])
        self._stats = None
        if st["rng"] is not None:
            self.rng = restore_rng(st["rng"])
