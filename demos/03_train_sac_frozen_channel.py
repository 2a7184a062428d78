"""Train the soft actor-critic on a single frozen channel and compare it to
an exhaustive grid search over phases and transmit power. A small, fast
sanity run (about half a minute).

Run:  python3 demos/03_train_sac_frozen_channel.py
"""

import numpy as np

from hybridris import (CascadeSpec, EnvConfig, PowerConstraint, RisCrnEnv,
                       RisMode, SacAgent, SacConfig, Topology, TrainingLoop)

topo = Topology(A=1, B=1, R=2, W=1)
cfg = EnvConfig(topo=topo, cascade=CascadeSpec(1, 1, 1),
                mode=RisMode.passive(),
                pc=PowerConstraint(P_t=1.0, I_thr=10.0),
                fading_block=10 ** 9)

# --- grid search over the reachable action set ------------------------------
env = RisCrnEnv(cfg)
env.reset(123)
best = -np.inf
for p_idx in range(1, 9):
    for k1 in range(16):
        for k2 in range(16):
            action = np.array([np.sqrt(p_idx / 8.0), 0.0,
                               2 * k1 / 16 - 1.0, 2 * k2 / 16 - 1.0])
            best = max(best, env.step(action).reward)
print(f"grid-search optimum rate: {best:.4f} bits/s/Hz")

# --- SAC training on the same frozen channel ---------------------------------
env = RisCrnEnv(cfg)
agent = SacAgent(env.observation_size, env.action_size, SacConfig(), seed=1)
loop = TrainingLoop(env, agent, 123)
for k in range(1, 6):
    loop.run(1000)
    print(f"  step {1000 * k}: entropy temperature {agent.entropy_alpha:.4f}")

obs, rates = loop.obs, []
for _ in range(20):
    out = env.step(agent.act(obs, deterministic=True))
    rates.append(out.sum_rate)
    obs = out.observation
print(f"deterministic policy rate: {np.mean(rates):.4f} "
      f"({np.mean(rates) / best:.1%} of the grid optimum)")
