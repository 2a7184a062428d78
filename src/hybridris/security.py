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
from collections import deque
from dataclasses import dataclass

import numpy as np

from .numerics import restore_rng, rng_state

INVERT = "invert"
SCALE = "scale"
RANDOM_SCALE = "random_scale"

STD_FLOOR = 1e-6


def _is_count(x, least: int) -> bool:
    return (isinstance(x, (int, np.integer)) and not isinstance(x, bool)
            and x >= least)


def _raise_broken(*rules):
    """Raise one ValueError naming every (broken, message) rule broken."""
    errors = [msg for broken, msg in rules if broken]
    if errors:
        raise ValueError("; ".join(errors))


@dataclass(frozen=True)
class AttackConfig:
    kind: str = INVERT
    threshold: float = 0.5        # trigger when recent mean exceeds this
    trigger_window: int = 50
    scale: float = 0.5            # fixed-scale factor
    scale_low: float = 0.3        # random-scale draw bounds
    scale_high: float = 0.9

    def __post_init__(self):
        _raise_broken(
            (self.kind not in (INVERT, SCALE, RANDOM_SCALE),
             f"unknown attack kind {self.kind!r}"),
            (math.isnan(self.threshold), "threshold must not be NaN"),
            (not _is_count(self.trigger_window, 1),
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
        warmup_ok = _is_count(self.warmup_count, 2)
        _raise_broken(
            (math.isnan(self.r_min) or math.isnan(self.r_max),
             "r_min and r_max must not be NaN"),
            (self.r_min >= self.r_max, "need r_min < r_max"),
            (not self.chi > 0, "chi must be > 0"),
            (not warmup_ok, "warmup_count must be an integer >= 2"),
            (not _is_count(self.stats_window,
                           self.warmup_count if warmup_ok else 2),
             "stats_window must be an integer >= warmup_count"))


@dataclass(frozen=True)
class RewardPipelineRecord:
    """Trace of one reward through attack, clip, and filter stages."""
    t: int
    raw: float
    post_attack: float
    clipped: float
    accepted: bool
    value: float          # reward handed to the learner; NaN when discarded
    mean_snapshot: float
    std_snapshot: float
    triggered: bool

    def to_json_dict(self) -> dict:
        return {
            "t": self.t,
            "raw": self.raw,
            "post_attack": self.post_attack,
            "clipped": self.clipped,
            "decision": "accepted" if self.accepted else "discarded",
            "mean": self.mean_snapshot,
            "std": self.std_snapshot,
            "triggered": self.triggered,
        }


def attack(cfg: AttackConfig, r: float, rng: np.random.Generator) -> float:
    """Poison one reward on which the trigger has fired."""
    if cfg.kind == INVERT:
        return -r
    if cfg.kind == SCALE:
        return cfg.scale * r
    return float(rng.uniform(cfg.scale_low, cfg.scale_high)) * r


def defend(cfg: DefenseConfig, mean: float, std: float, r: float):
    """Clip, then accept iff the clipped value sits within chi standard
    deviations of the running mean. Returns (accepted, clipped)."""
    clipped = float(np.clip(r, cfg.r_min, cfg.r_max))
    return abs(clipped - mean) <= cfg.chi * std, clipped


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
        self.attack_cfg = attack_cfg
        self.defense_cfg = defense_cfg
        self.rng = rng
        bounds = defense_cfg or DefenseConfig()
        self.clip = (bounds.r_min, bounds.r_max)
        self._accepted = deque(
            maxlen=defense_cfg.stats_window if defense_cfg else 0)
        self._raw_history = deque(
            maxlen=attack_cfg.trigger_window if attack_cfg else 1)
        self._t = 0

    def stats(self):
        """Mean and std of the accepted rewards in the window. The std is
        the unbiased (n-1) estimate, floored so the acceptance band never
        collapses to zero width."""
        vals = np.fromiter(self._accepted, dtype=float)
        if vals.size < 2:
            return (float(vals.mean()) if vals.size else 0.0, STD_FLOOR)
        return float(vals.mean()), max(float(vals.std(ddof=1)), STD_FLOOR)

    def step(self, raw: float) -> RewardPipelineRecord:
        t = self._t
        self._t += 1
        atk, dfn = self.attack_cfg, self.defense_cfg
        history = self._raw_history
        warmup = dfn is not None and t < dfn.warmup_count
        triggered = (atk is not None and not warmup
                     and len(history) == history.maxlen
                     and float(np.mean(history)) > atk.threshold)
        post = attack(atk, raw, self.rng) if triggered else raw
        history.append(raw)

        mean, std = self.stats() if dfn is not None else (0.0, 0.0)
        if dfn is None or warmup:
            accepted, clipped = True, float(np.clip(post, *self.clip))
        else:
            accepted, clipped = defend(dfn, mean, std, post)
        if accepted:
            self._accepted.append(clipped)   # a no-op without a defense
        return RewardPipelineRecord(
            t=t, raw=float(raw), post_attack=float(post), clipped=clipped,
            accepted=accepted, value=clipped if accepted else float("nan"),
            mean_snapshot=mean, std_snapshot=std, triggered=triggered)

    def get_state(self) -> dict:
        return {
            "t": self._t,
            "raw_history": list(self._raw_history),
            "accepted": list(self._accepted),
            "rng": rng_state(self.rng) if self.rng is not None else None,
        }

    def set_state(self, st: dict):
        self._t = int(st["t"])
        self._raw_history = deque(st["raw_history"],
                                  maxlen=self._raw_history.maxlen)
        self._accepted = deque(st["accepted"], maxlen=self._accepted.maxlen)
        if st["rng"] is not None:
            self.rng = restore_rng(st["rng"])
