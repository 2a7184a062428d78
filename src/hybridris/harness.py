"""Experiment orchestration: specs, seeded runs, step/pipeline logs,
summaries, sweeps, and run-to-run comparisons.

A run is fully determined by (spec, seed): the environment, agent, and
reward pipeline each get an independent child stream of the run seed, so
every artifact except the wall-clock metadata is reproducible
byte-for-byte. Seeds and sweep points execute in parallel worker processes
(HYBRIDRIS_WORKERS caps the pool); the aggregator is the only writer of
top-level summary files.
"""

import copy
import json
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .agents import (DdpgAgent, DdpgConfig, RandomAgent, SacAgent, SacConfig,
                     Td3Agent, Td3Config)
from .channel import CascadeSpec, FadingMode, Topology
from .env import EnvConfig, RisCrnEnv, step_log_record
from .phy import NoiseParams, PowerConstraint, db_to_linear
from .ris import (ActiveParams, ConsumptionParams, HarvestParams,
                  PassiveParams, RisMode)
from .security import AttackConfig, DefenseConfig, RewardPipeline
from .numerics import make_rng

MA_WINDOW = 200
CONVERGED_FRACTION = 0.1
CHECKPOINT_VERSION = 5

AGENT_KINDS = {
    "sac": (SacAgent, SacConfig),
    "ddpg": (DdpgAgent, DdpgConfig),
    "td3": (Td3Agent, Td3Config),
    "random": (RandomAgent, None),
}


class SpecError(ValueError):
    """Invalid experiment spec; the message lists every offending field."""


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _run_size_errors(seeds, total_steps) -> list:
    """Every problem with a seed list and a step count. Seeds must be
    distinct integers >= 0: each seed writes its own ``seed_<k>`` directory
    and counts once in the aggregate."""
    errors = []
    if not isinstance(seeds, (list, tuple)):
        errors.append(f"seeds: must be a list of integers, not {seeds!r}")
    elif not seeds:
        errors.append("seeds: must be non-empty")
    else:
        bad = [s for s in seeds if not _is_int(s) or s < 0]
        if bad:
            errors.append(f"seeds: {bad!r} are not integers >= 0")
        ints = [s for s in seeds if _is_int(s)]
        if len(set(ints)) < len(ints):
            repeated = sorted({s for s in ints if ints.count(s) > 1})
            errors.append(f"seeds: {repeated!r} appear more than once")
    if not _is_int(total_steps):
        errors.append(f"total_steps: must be an integer, not {total_steps!r}")
    elif total_steps < 1:
        errors.append("total_steps: must be >= 1")
    return errors


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    env: EnvConfig = field(default_factory=EnvConfig)
    agent_kind: str = "sac"
    agent: object = None            # kind-matching config, None for defaults
    attack: AttackConfig = None
    defense: DefenseConfig = None
    seeds: tuple = tuple(range(10))
    total_steps: int = 20_000

    def __post_init__(self):
        if self.agent_kind not in AGENT_KINDS:
            raise SpecError(f"agent_kind: unknown kind {self.agent_kind!r}")
        cfg_cls = AGENT_KINDS[self.agent_kind][1]
        if self.agent is not None and type(self.agent) is not cfg_cls:
            raise SpecError(f"agent: a {type(self.agent).__name__} cannot "
                            f"configure a {self.agent_kind!r} agent")
        errors = _run_size_errors(self.seeds, self.total_steps)
        if errors:
            raise SpecError("; ".join(errors))


@dataclass
class RunSummary:
    name: str
    seed: int
    steps: int
    converged_mean: float
    mode_fraction_active: float
    mode_fraction_passive: float
    mean_energy_J: float
    violations: int
    wall_clock_s: float
    ma_window: int = MA_WINDOW
    curve: np.ndarray = None        # moving-average reward, length == steps

    def to_json_dict(self) -> dict:
        d = {k: getattr(self, k) for k in
             ("name", "seed", "steps", "converged_mean",
              "mode_fraction_active", "mode_fraction_passive",
              "mean_energy_J", "violations", "ma_window")}
        return d


def make_agent(kind: str, obs_dim: int, act_dim: int, cfg, seed):
    cls, cfg_cls = AGENT_KINDS[kind]
    if kind == "random":
        return cls(obs_dim, act_dim, seed=seed)
    return cls(obs_dim, act_dim, cfg or cfg_cls(), seed=seed)


def moving_average(x, window: int = MA_WINDOW) -> np.ndarray:
    """Trailing moving average; uses the expanding mean until a full
    window is available, so the curve starts at step 1."""
    x = np.asarray(x, dtype=float)
    csum = np.concatenate([[0.0], np.cumsum(x)])
    n = x.size
    out = np.empty(n)
    head = min(window, n)
    out[:head] = csum[1:head + 1] / np.arange(1, head + 1)
    if n > window:
        out[window:] = (csum[window + 1:] - csum[1:-window]) / window
    return out


def converged_mean(rewards, fraction: float = CONVERGED_FRACTION) -> float:
    rewards = np.asarray(rewards, dtype=float)
    tail = max(1, int(round(fraction * rewards.size)))
    return float(np.mean(rewards[-tail:]))


class TrainingLoop:
    """One seeded env+agent(+pipeline) loop with step/pipeline logs."""

    def __init__(self, env: RisCrnEnv, agent, pipeline: RewardPipeline = None):
        self.env = env
        self.agent = agent
        self.pipeline = pipeline
        self.t = 0
        self.obs = None
        self.step_records = []
        self.pipeline_records = []

    def start(self, env_seed=None):
        self.obs = self.env.reset(env_seed)

    def run(self, n_steps: int):
        for _ in range(n_steps):
            self.one_step()

    def one_step(self):
        a = self.agent.act(self.obs, self.t)
        out = self.env.step(a)
        if self.pipeline is not None:
            rec = self.pipeline.step(out.reward)
            self.pipeline_records.append(rec.to_json_dict())
            if rec.accepted:
                self.agent.observe(self.obs, a, rec.value, out.observation)
        else:
            self.agent.observe(self.obs, a, out.reward, out.observation)
        self.agent.update(self.t)
        self.step_records.append(step_log_record(self.t, out))
        self.obs = out.observation
        self.t += 1

    def get_state(self) -> dict:
        return {
            "version": CHECKPOINT_VERSION,
            "t": self.t,
            "obs": None if self.obs is None else np.asarray(self.obs).copy(),
            "env": self.env.get_state(),
            "agent": self.agent.get_state(),
            "pipeline": (self.pipeline.get_state()
                         if self.pipeline is not None else None),
        }

    def set_state(self, st: dict):
        if st["version"] != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {st['version']}")
        self.t = int(st["t"])
        self.obs = st["obs"]
        self.env.set_state(st["env"])
        self.agent.set_state(st["agent"])
        if self.pipeline is not None and st["pipeline"] is not None:
            self.pipeline.set_state(st["pipeline"])


def save_checkpoint(path, loop: TrainingLoop):
    with open(path, "wb") as fh:
        pickle.dump(loop.get_state(), fh)


def load_checkpoint(path, loop: TrainingLoop):
    with open(path, "rb") as fh:
        loop.set_state(pickle.load(fh))


def build_loop(spec: ExperimentSpec, seed: int) -> TrainingLoop:
    env = RisCrnEnv(spec.env)
    env_ss, agent_ss, attack_ss = np.random.SeedSequence(seed).spawn(3)
    agent = make_agent(spec.agent_kind, env.observation_size,
                       env.action_size, spec.agent, agent_ss)
    pipeline = None
    if spec.attack is not None or spec.defense is not None:
        pipeline = RewardPipeline(spec.attack, spec.defense,
                                  rng=make_rng(attack_ss))
    loop = TrainingLoop(env, agent, pipeline)
    loop.start(env_ss)
    return loop


def summarize(name: str, seed: int, loop: TrainingLoop,
              wall_clock_s: float) -> RunSummary:
    rewards = np.array([r["reward"] for r in loop.step_records])
    modes = np.array([r["mode"] for r in loop.step_records])
    energy = np.array([r["energy_J"] for r in loop.step_records])
    active_frac = float(np.mean(modes == "active"))
    return RunSummary(
        name=name, seed=seed, steps=loop.t,
        converged_mean=converged_mean(rewards),
        mode_fraction_active=active_frac,
        mode_fraction_passive=1.0 - active_frac,
        mean_energy_J=float(np.mean(energy)),
        violations=loop.env.violations,
        wall_clock_s=wall_clock_s,
        curve=moving_average(rewards),
    )


def _write_jsonl(path, records):
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def _write_curve(path, curve):
    with open(path, "w") as fh:
        fh.write("t,ma_reward\n")
        for t, v in enumerate(curve):
            fh.write(f"{t},{float(v)!r}\n")


def run_single(spec: ExperimentSpec, seed: int,
               out_dir: str = None) -> RunSummary:
    """Execute one seed of a spec; optionally write its artifacts."""
    start = time.perf_counter()
    loop = build_loop(spec, seed)
    loop.run(spec.total_steps)
    summary = summarize(spec.name, seed, loop, time.perf_counter() - start)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        _write_jsonl(os.path.join(out_dir, "steps.jsonl"), loop.step_records)
        if loop.pipeline is not None:
            _write_jsonl(os.path.join(out_dir, "pipeline.jsonl"),
                         loop.pipeline_records)
        _write_curve(os.path.join(out_dir, "curve.csv"), summary.curve)
        with open(os.path.join(out_dir, "summary.json"), "w") as fh:
            json.dump(summary.to_json_dict(), fh, indent=1)
        with open(os.path.join(out_dir, "meta.json"), "w") as fh:
            json.dump({"wall_clock_s": summary.wall_clock_s}, fh)
        save_checkpoint(os.path.join(out_dir, "checkpoint.pkl"), loop)
    return summary


def _run_single_worker(args):
    spec, seed, out_dir = args
    return run_single(spec, seed, out_dir)


def resolve_workers(n_jobs: int) -> int:
    env_val = os.environ.get("HYBRIDRIS_WORKERS")
    if env_val is not None:
        try:
            return max(1, int(env_val))
        except ValueError:
            raise ValueError(f"HYBRIDRIS_WORKERS must be an integer, not "
                             f"{env_val!r}") from None
    return max(1, min(n_jobs, os.cpu_count() or 1))


def run_experiment(spec: ExperimentSpec, out_dir: str = None,
                   workers: int = None) -> dict:
    """Run every seed of a spec and aggregate.

    Returns the aggregate summary dict; per-seed artifacts land in
    ``out_dir/seed_<k>/`` when an output directory is given.
    """
    jobs = [(spec, seed,
             None if out_dir is None else os.path.join(out_dir, f"seed_{seed}"))
            for seed in spec.seeds]
    workers = resolve_workers(len(jobs)) if workers is None else workers
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            summaries = list(pool.map(_run_single_worker, jobs))
    else:
        summaries = [_run_single_worker(j) for j in jobs]

    per_seed = [s.to_json_dict() for s in summaries]
    conv = np.array([s.converged_mean for s in summaries])
    aggregate = {
        "name": spec.name,
        "agent_kind": spec.agent_kind,
        "total_steps": spec.total_steps,
        "seeds": list(spec.seeds),
        "per_seed": per_seed,
        "converged_mean": float(np.mean(conv)),
        "converged_std": float(np.std(conv)),
        "mode_fraction_active": float(
            np.mean([s.mode_fraction_active for s in summaries])),
        "mean_energy_J": float(
            np.mean([s.mean_energy_J for s in summaries])),
        "violations": int(sum(s.violations for s in summaries)),
        "ma_window": MA_WINDOW,
    }
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "summary.json"), "w") as fh:
            json.dump(aggregate, fh, indent=1)
        curves = np.stack([s.curve for s in summaries])
        with open(os.path.join(out_dir, "curve_mean.csv"), "w") as fh:
            fh.write("t,ma_reward_mean,ma_reward_std\n")
            mean = curves.mean(axis=0)
            std = curves.std(axis=0)
            for t in range(curves.shape[1]):
                fh.write(f"{t},{float(mean[t])!r},{float(std[t])!r}\n")
    return aggregate


def replay_summary(steps_jsonl_path: str) -> dict:
    """Recompute summary statistics straight from a step log; used to audit
    that shipped summaries match their logs."""
    rewards, modes, energy = [], [], []
    with open(steps_jsonl_path) as fh:
        for line in fh:
            rec = json.loads(line)
            rewards.append(rec["reward"])
            modes.append(rec["mode"])
            energy.append(rec["energy_J"])
    modes = np.array(modes)
    active = float(np.mean(modes == "active"))
    return {
        "steps": len(rewards),
        "converged_mean": converged_mean(rewards),
        "mode_fraction_active": active,
        "mode_fraction_passive": 1.0 - active,
        "mean_energy_J": float(np.mean(energy)),
    }


# ---------------------------------------------------------------------------
# Spec files (JSON)
# ---------------------------------------------------------------------------

def _build_section(errors, label, cls, data, transform=None):
    data = dict(data or {})
    if transform:
        try:
            data = transform(data)
        except (ValueError, TypeError, KeyError) as exc:
            errors.append(f"{label}: {exc}")
            return None
    try:
        return cls(**data)
    except (ValueError, TypeError) as exc:
        errors.append(f"{label}: {exc}")
        return None


def _power_section(data):
    if "P_t_dB" in data or "I_dB" in data:
        if "P_t" in data or "I_thr" in data:
            raise ValueError("give either dB or linear powers, not both")
        return {"P_t": db_to_linear(data["P_t_dB"]),
                "I_thr": db_to_linear(data["I_dB"])}
    return data


def _mode_section(mode):
    if isinstance(mode, str):
        return RisMode(mode)
    if isinstance(mode, dict):
        return RisMode(**mode)
    raise ValueError(f"unrecognized mode {mode!r}")


def env_config_from_dict(d: dict, errors: list) -> EnvConfig:
    d = dict(d or {})
    topo = _build_section(errors, "env.topology", Topology, d.get("topology"))
    cascade = _build_section(errors, "env.cascade", CascadeSpec,
                             d.get("cascade"))
    pp = _build_section(errors, "env.passive", PassiveParams, d.get("passive"))
    ap = _build_section(errors, "env.active", ActiveParams, d.get("active"))
    hp = _build_section(errors, "env.harvest", HarvestParams, d.get("harvest"))
    cp = _build_section(errors, "env.consumption", ConsumptionParams,
                        d.get("consumption"))
    noise = _build_section(errors, "env.noise", NoiseParams, d.get("noise"))
    pc = _build_section(errors, "env.power", PowerConstraint, d.get("power"),
                        transform=_power_section)
    try:
        mode = _mode_section(d.get("mode", "dynamic_hybrid"))
    except ValueError as exc:
        errors.append(f"env.mode: {exc}")
        mode = RisMode.dynamic_hybrid()
    fading = _build_section(errors, "env.fading", FadingMode,
                            {"block_length": d.get("fading_block", 1)})
    if errors:
        return None
    try:
        return EnvConfig(topo=topo, cascade=cascade, pp=pp, ap=ap, hp=hp,
                         cp=cp, noise=noise, pc=pc, mode=mode,
                         penalty_weight=d.get("penalty_weight", 0.1),
                         fading=fading, seed=d.get("seed", 0))
    except ValueError as exc:
        errors.append(f"env: {exc}")
        return None


def build_spec(d: dict) -> ExperimentSpec:
    """Build a validated spec from a config dict; raises SpecError listing
    every offending field."""
    errors = []
    env = env_config_from_dict(d.get("env"), errors)

    agent_d = dict(d.get("agent") or {})
    kind = agent_d.pop("kind", "sac")
    agent_cfg = None
    if kind not in AGENT_KINDS:
        errors.append(f"agent.kind: unknown kind {kind!r}")
    elif kind != "random":
        if isinstance(agent_d.get("hidden"), list):
            agent_d["hidden"] = tuple(agent_d["hidden"])
        agent_cfg = _build_section(errors, "agent", AGENT_KINDS[kind][1],
                                   agent_d)

    attack = defense = None
    if d.get("attack"):
        attack = _build_section(errors, "attack", AttackConfig, d["attack"])
    if d.get("defense"):
        defense = _build_section(errors, "defense", DefenseConfig,
                                 d["defense"])

    seeds = d.get("seeds")
    if seeds is None:
        n_seeds = d.get("n_seeds", 10)
        if not _is_int(n_seeds):
            errors.append(f"n_seeds: must be an integer, not {n_seeds!r}")
            n_seeds = 1
        seeds = list(range(n_seeds))
    total_steps = d.get("total_steps", 20_000)
    errors += _run_size_errors(seeds, total_steps)

    if errors:
        raise SpecError("invalid spec: " + "; ".join(errors))
    return ExperimentSpec(name=d.get("name", "experiment"), env=env,
                          agent_kind=kind, agent=agent_cfg, attack=attack,
                          defense=defense, seeds=tuple(seeds),
                          total_steps=total_steps)


def expand_sweep(d: dict):
    """Expand the optional sweep section into (label, spec-dict) points.

    Each sweep entry is {"path": "env.harvest.tau", "values": [...]};
    multiple entries expand as a cartesian product. Every point's label
    names its run directory, so values that format to the same label are
    refused.
    """
    sweep = d.get("sweep")
    if not sweep:
        return [("", d)]
    points = [("", d)]
    for i, entry in enumerate(sweep):
        if not (isinstance(entry, dict) and isinstance(entry.get("path"), str)
                and isinstance(entry.get("values"), (list, tuple))):
            raise SpecError(f"sweep[{i}]: needs a \"path\" string and a "
                            f"\"values\" list")
        path, values = entry["path"], entry["values"]
        leaf = path.split(".")[-1]
        new_points = []
        for label, base in points:
            for v in values:
                dd = copy.deepcopy(base)
                node = dd
                parts = path.split(".")
                for p in parts[:-1]:
                    node = node.setdefault(p, {})
                node[parts[-1]] = v
                tag = (f"{leaf}={v:g}" if isinstance(v, (int, float))
                       else f"{leaf}={v}")
                new_points.append((f"{label}_{tag}" if label else tag, dd))
        points = new_points
    labels = [label for label, _ in points]
    clashes = sorted({label for label in labels if labels.count(label) > 1})
    if clashes:
        raise SpecError(f"sweep: points share the label {', '.join(clashes)}"
                        f" and would overwrite each other's runs")
    return points


def load_spec_file(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def run_spec_dict(d: dict, out_dir: str, seeds_override=None,
                  steps_override=None, workers=None) -> list:
    """Run every sweep point of a spec dict; returns aggregate summaries."""
    results = []
    for label, point in expand_sweep(d):
        point = copy.deepcopy(point)
        point.pop("sweep", None)
        if seeds_override is not None:
            point["seeds"] = list(seeds_override)
        if steps_override is not None:
            point["total_steps"] = steps_override
        spec = build_spec(point)
        sub = out_dir if not label else os.path.join(out_dir, label)
        if label:
            spec = replace(spec, name=f"{spec.name}_{label}")
        results.append(run_experiment(spec, sub, workers=workers))
    return results


# ---------------------------------------------------------------------------
# Comparison tables
# ---------------------------------------------------------------------------

def _load_aggregate(run_dir: str) -> dict:
    with open(os.path.join(run_dir, "summary.json")) as fh:
        return json.load(fh)


def compare(run_dirs, out_csv: str) -> dict:
    """Align runs on identical seeds/steps and tabulate converged means with
    per-seed paired differences against the first run.

    Writes ``out_csv`` plus an aligned moving-average curve file next to it.
    Raises on mismatched step counts or seed sets, and on runs that share a
    name, since each run's column is keyed by its name.
    """
    aggs = [_load_aggregate(p) for p in run_dirs]
    names = [a["name"] for a in aggs]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ValueError(
                f"runs {run_dirs[names.index(name)]} and {run_dirs[i]} share "
                f"the name {name!r}; give each run a distinct name")
    base = aggs[0]
    for agg in aggs[1:]:
        if agg["total_steps"] != base["total_steps"]:
            raise ValueError(
                f"alignment error: step counts differ "
                f"({agg['name']}={agg['total_steps']}, "
                f"{base['name']}={base['total_steps']})")
        if agg["seeds"] != base["seeds"]:
            raise ValueError("alignment error: seed sets differ")

    seeds = base["seeds"]
    conv = {a["name"]: {p["seed"]: p["converged_mean"] for p in a["per_seed"]}
            for a in aggs}

    rows = []
    for seed in seeds:
        row = {"seed": seed}
        for name in names:
            row[name] = conv[name][seed]
        for name in names[1:]:
            row[f"diff_{name}_vs_{names[0]}"] = (conv[name][seed]
                                                 - conv[names[0]][seed])
        rows.append(row)

    result = {"names": names, "seeds": seeds, "rows": rows, "stats": {}}
    cols = list(rows[0].keys())[1:]
    means = {c: float(np.mean([r[c] for r in rows])) for c in cols}
    stds = {c: float(np.std([r[c] for r in rows], ddof=1))
            if len(rows) > 1 else 0.0 for c in cols}
    tstats = {}
    for c in cols:
        if c.startswith("diff_") and len(rows) > 1 and stds[c] > 0:
            tstats[c] = means[c] / (stds[c] / np.sqrt(len(rows)))
        else:
            tstats[c] = float("nan") if c.startswith("diff_") else None
    result["stats"] = {"mean": means, "std": stds, "paired_t": tstats}

    with open(out_csv, "w") as fh:
        fh.write(",".join(["seed"] + cols) + "\n")
        for row in rows:
            fh.write(",".join([str(row["seed"])]
                              + [repr(float(row[c])) for c in cols]) + "\n")
        fh.write(",".join(["mean"] + [repr(means[c]) for c in cols]) + "\n")
        fh.write(",".join(["std"] + [repr(stds[c]) for c in cols]) + "\n")
        fh.write(",".join(["paired_t"]
                          + ["" if tstats[c] is None else repr(tstats[c])
                             for c in cols]) + "\n")

    curve_path = os.path.splitext(out_csv)[0] + "_curves.csv"
    curves = []
    for path, agg in zip(run_dirs, aggs):
        data = np.genfromtxt(os.path.join(path, "curve_mean.csv"),
                             delimiter=",", skip_header=1, ndmin=2)
        curves.append(data[:, 1])
    with open(curve_path, "w") as fh:
        fh.write(",".join(["t"] + names) + "\n")
        for t in range(len(curves[0])):
            fh.write(",".join([str(t)] + [repr(float(c[t]))
                                          for c in curves]) + "\n")
    return result
