"""Follow individual rewards through the poisoning pipeline: the trigger,
the sign-flip, the clip, and the statistical filter's accept/discard
decisions.

Run:  python3 demos/04_reward_poisoning_and_defense.py
"""

import numpy as np

from hybridris import AttackConfig, DefenseConfig, RewardPipeline, make_rng

attack = AttackConfig(kind="invert", threshold=0.5, trigger_window=5)
defense = DefenseConfig(r_min=-2.0, r_max=2.0, chi=2.0, warmup_count=10,
                        stats_window=100)
pipeline = RewardPipeline(attack, defense, rng=make_rng(0))

# a victim whose true rewards improve over time, crossing the trigger
rng = make_rng(1)
print(" t   raw     post-attack  clipped  decision   running mean")
for t in range(40):
    true_reward = min(0.2 + 0.05 * t, 1.5) + 0.05 * rng.standard_normal()
    rec = pipeline.step(float(true_reward))
    mark = "<- poisoned" if rec.post_attack != rec.raw else ""
    print(f"{rec.t:3d}  {rec.raw:6.3f}   {rec.post_attack:7.3f}   "
          f"{rec.clipped:6.3f}   {rec.decision:9s}  {rec.mean:6.3f} {mark}")

print("\nOnce the victim performs well (recent mean > 0.5), the attacker "
      "flips the sign; the filter sees the flipped value sit far outside "
      "the running band of accepted rewards and discards it, so the "
      "poisoned transition never reaches the replay buffer.")
