"""Drive the experiment harness from Python: build a spec, run seeds in
parallel, sweep a parameter, and compare two runs.

Run:  python3 demos/05_experiment_harness.py
(writes artifacts under ./runs/demo)
"""

from dataclasses import replace

from hybridris import (CascadeSpec, EnvConfig, ExperimentSpec, RisMode,
                       Topology, compare, run_experiment)

env = EnvConfig(topo=Topology(A=1, B=1, R=2, W=1),
                cascade=CascadeSpec(1, 1, 1))

# two tiny random-policy runs that differ only in the RIS operating mode
hybrid = ExperimentSpec(name="hybrid", env=env, agent_kind="random",
                        seeds=(0, 1, 2), total_steps=2000)
active = ExperimentSpec(name="active",
                        env=replace(env, mode=RisMode.active()),
                        agent_kind="random", seeds=(0, 1, 2),
                        total_steps=2000)

agg_h = run_experiment(hybrid, "runs/demo/hybrid")
agg_a = run_experiment(active, "runs/demo/active")
print(f"hybrid: reward {agg_h['converged_mean']:.3f}, "
      f"energy {agg_h['mean_energy_J']:.4f} J/step, "
      f"active {agg_h['mode_fraction_active']:.0%} of slots")
print(f"active: reward {agg_a['converged_mean']:.3f}, "
      f"energy {agg_a['mean_energy_J']:.4f} J/step")
savings = 1.0 - agg_h["mean_energy_J"] / agg_a["mean_energy_J"]
print(f"energy savings of the hybrid mode: {savings:.1%}")

result = compare(["runs/demo/hybrid", "runs/demo/active"],
                 "runs/demo/table.csv")
diff = result["stats"]["mean"]["diff_active_vs_hybrid"]
print(f"paired reward difference (active - hybrid): {diff:+.3f}")
print("table written to runs/demo/table.csv")
