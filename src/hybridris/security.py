"""Reward-poisoning attacks and the clipping + statistical-filter defense.

The attacker is black-box: it watches the raw reward stream and, whenever
the recent average indicates the victim is doing well, inverts or scales
the reward handed to the learner. The defense clips every reward to a fixed
range and then discards values that deviate from the running mean of
recently accepted rewards by more than ``chi`` standard deviations. A
discarded reward means the whole transition is kept out of the replay
buffer.
"""

from collections import deque
from dataclasses import dataclass

import numpy as np

INVERT = "invert"
SCALE = "scale"
RANDOM_SCALE = "random_scale"

STD_FLOOR = 1e-6
CLIP_BOUNDS = (-2.0, 2.0)   # reward clip when no defense sets its own


@dataclass(frozen=True)
class AttackConfig:
    kind: str = INVERT
    threshold: float = 0.5        # trigger when recent mean exceeds this
    trigger_window: int = 50
    scale: float = 0.5            # fixed-scale factor
    scale_low: float = 0.3        # random-scale draw bounds
    scale_high: float = 0.9

    def __post_init__(self):
        if self.kind not in (INVERT, SCALE, RANDOM_SCALE):
            raise ValueError(f"unknown attack kind {self.kind!r}")
        if not 0.0 < self.scale < 1.0:
            raise ValueError("scale must lie in (0, 1)")
        if not 0.0 < self.scale_low < self.scale_high < 1.0:
            raise ValueError("need 0 < scale_low < scale_high < 1")
        if self.trigger_window < 1:
            raise ValueError("trigger_window must be >= 1")


@dataclass(frozen=True)
class DefenseConfig:
    r_min: float = -2.0
    r_max: float = 2.0
    chi: float = 2.0
    warmup_count: int = 10
    stats_window: int = 500

    def __post_init__(self):
        if self.r_min >= self.r_max:
            raise ValueError("need r_min < r_max")
        if self.chi <= 0:
            raise ValueError("chi must be > 0")
        if self.warmup_count < 2:
            raise ValueError("warmup_count must be >= 2")
        if self.stats_window < self.warmup_count:
            raise ValueError("stats_window must be >= warmup_count")


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


def attack(cfg: AttackConfig, r: float, recent_reward_mean: float,
           rng: np.random.Generator) -> float:
    """Poison one reward if the victim's recent average beats the
    threshold; otherwise pass it through untouched."""
    if recent_reward_mean <= cfg.threshold:
        return r
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


class RewardFilter:
    """Running mean/std over the most recent accepted rewards.

    The first ``warmup_count`` rewards are always accepted and seed the
    statistics. Standard deviation uses the unbiased (n-1) estimator with a
    small floor so the acceptance band never collapses to zero width.
    """

    def __init__(self, cfg: DefenseConfig):
        self.cfg = cfg
        self._accepted = deque(maxlen=cfg.stats_window)
        self._count = 0

    @property
    def warmed_up(self) -> bool:
        return self._count >= self.cfg.warmup_count

    def stats(self):
        vals = np.fromiter(self._accepted, dtype=float)
        if vals.size < 2:
            return (float(vals.mean()) if vals.size else 0.0, STD_FLOOR)
        return float(vals.mean()), max(float(vals.std(ddof=1)), STD_FLOOR)

    def process(self, r: float):
        """Returns (accepted, clipped, mean_snapshot, std_snapshot)."""
        mean, std = self.stats()
        if not self.warmed_up:
            clipped = float(np.clip(r, self.cfg.r_min, self.cfg.r_max))
            accepted = True
        else:
            accepted, clipped = defend(self.cfg, mean, std, r)
        if accepted:
            self._accepted.append(clipped)
            self._count += 1
        return accepted, clipped, mean, std

    def get_state(self) -> dict:
        return {"accepted": list(self._accepted), "count": self._count}

    def set_state(self, st: dict):
        self._accepted = deque(st["accepted"], maxlen=self.cfg.stats_window)
        self._count = int(st["count"])


class RewardPipeline:
    """Per-run composition: attack (optional) -> clip -> filter (optional).

    Clipping always applies once the pipeline is in the loop; the filter
    only when a defense is configured. The attack is forced off during the
    defense warm-up so the seeded statistics are clean, and it only arms
    once a full trigger window of raw rewards has been observed.
    """

    def __init__(self, attack_cfg: AttackConfig = None,
                 defense_cfg: DefenseConfig = None,
                 rng: np.random.Generator = None):
        self.attack_cfg = attack_cfg
        self.defense_cfg = defense_cfg
        self.rng = rng
        if defense_cfg is not None:
            self.clip = (defense_cfg.r_min, defense_cfg.r_max)
            self.filter = RewardFilter(defense_cfg)
            self._clean_warmup = defense_cfg.warmup_count
        else:
            self.clip = CLIP_BOUNDS
            self.filter = None
            self._clean_warmup = 0
        self._raw_history = deque(
            maxlen=attack_cfg.trigger_window if attack_cfg else 1)
        self._t = 0

    def step(self, raw: float) -> RewardPipelineRecord:
        t = self._t
        self._t += 1

        triggered = False
        post = raw
        if self.attack_cfg is not None and t >= self._clean_warmup:
            window_full = len(self._raw_history) == self._raw_history.maxlen
            if window_full:
                recent = float(np.mean(self._raw_history))
                triggered = recent > self.attack_cfg.threshold
                post = attack(self.attack_cfg, raw, recent, self.rng)
        self._raw_history.append(raw)

        if self.filter is not None:
            accepted, clipped, mean, std = self.filter.process(post)
        else:
            clipped = float(np.clip(post, *self.clip))
            accepted, mean, std = True, 0.0, 0.0
        return RewardPipelineRecord(
            t=t, raw=float(raw), post_attack=float(post), clipped=clipped,
            accepted=accepted, value=clipped if accepted else float("nan"),
            mean_snapshot=mean, std_snapshot=std, triggered=triggered)

    def get_state(self) -> dict:
        from .numerics import rng_state
        return {
            "t": self._t,
            "raw_history": list(self._raw_history),
            "filter": self.filter.get_state() if self.filter else None,
            "rng": rng_state(self.rng) if self.rng is not None else None,
        }

    def set_state(self, st: dict):
        from .numerics import restore_rng
        self._t = int(st["t"])
        self._raw_history = deque(st["raw_history"],
                                  maxlen=self._raw_history.maxlen)
        if self.filter is not None and st["filter"] is not None:
            self.filter.set_state(st["filter"])
        if st["rng"] is not None:
            self.rng = restore_rng(st["rng"])
