"""Walk through the physical-layer building blocks: the phase-dependent
reflection amplitude of a passive element, cascaded-fading statistics, and
the PU interference power cap.

Run:  python3 demos/01_reflection_and_channels.py
"""

import numpy as np

from hybridris import (CascadeSpec, PassiveParams, PowerConstraint, Topology,
                       make_rng, passive_amplitude, power_cap,
                       pu_power_gains, sample_channel_set)

# --- reflection amplitude vs phase -----------------------------------------
# Hardware cannot reflect at full amplitude for every phase: the amplitude
# dips toward beta_min where sin(eps - offset) = -1.
pp = PassiveParams(beta_min=0.6, exponent=1.5, offset_l=0.0)
print("phase shift (rad) -> reflection amplitude")
for eps in np.linspace(0.0, 2 * np.pi, 9):
    bar = "#" * int(40 * passive_amplitude(eps, pp))
    print(f"  {eps:5.2f}  {passive_amplitude(eps, pp):.4f}  {bar}")

# --- cascaded fading gets heavier-tailed with the cascade level -------------
# 25 000 slots of the 4 x 2 transmitter-to-RIS link H_s: 200 000 entries
rng = make_rng(0)
topo = Topology(A=2, B=2, R=4, W=2)
print("\ncascade level -> mean |xi|^2 (always ~1) and P(|xi|^2 > 4) (tail)")
for kappa in (1, 2, 4):
    xi = sample_channel_set(rng, topo, CascadeSpec(kappa_s=kappa), 25_000).H_s
    power = np.abs(xi) ** 2
    print(f"  kappa={kappa}:  mean {power.mean():.3f}   tail {np.mean(power > 4):.4f}")

# --- the strongest PU link caps the transmit power --------------------------
pc = PowerConstraint(P_t=10.0, I_thr=10.0)
caps = []
for seed in range(2000):
    ch = sample_channel_set(make_rng(seed), topo, CascadeSpec(), 1)
    caps.append(power_cap(pc, pu_power_gains(ch.H_p[0])))
caps = np.array(caps)
print(f"\nwith W={topo.W} PUs: power cap mean {caps.mean():.2f} W "
      f"(budget {pc.P_t} W); cap binds on {np.mean(caps < pc.P_t):.0%} of slots")
