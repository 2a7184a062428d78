"""Experiment orchestration: specs, seeded runs, step/pipeline logs,
summaries, sweeps, and run-to-run comparisons.

A run is fully determined by (spec, seed): the environment, agent, and
reward pipeline each get an independent child stream of the run seed, so
every artifact except the wall-clock metadata is reproducible
byte-for-byte. The seed-runs of every sweep point of a call execute in one
pool of worker processes (``workers`` caps it); the parent process
is the only writer of a point's summary files, and writes them as soon as
that point's seed-runs are back.
"""

import copy
import ctypes
import functools
import glob
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .agents import DdpgAgent, RandomAgent, SacAgent, Td3Agent
from .channel import CascadeSpec, Topology
from .env import STEP_LOG_FIELDS, EnvConfig, RisCrnEnv
from .phy import NoiseParams, PowerConstraint, db_to_linear
from .ris import (ACTIVE, ActiveParams, ConsumptionParams, HarvestParams,
                  PassiveParams, RisMode)
from .security import (ACCEPTED, PIPELINE_LOG_FIELDS, AttackConfig,
                       DefenseConfig, RewardPipeline)
from .numerics import is_int, is_real, make_rng, raise_broken

MA_WINDOW = 200
CONVERGED_FRACTION = 0.1

# each agent kind's class; its ``config_cls`` is the kind's config class
AGENT_KINDS = {"sac": SacAgent, "ddpg": DdpgAgent, "td3": Td3Agent,
               "random": RandomAgent}


class SpecError(ValueError):
    """Invalid experiment spec; the message lists every offending field."""


def _run_errors(name, seeds, total_steps) -> list:
    """Every problem with a run's name, seed list and step count. The name
    names a directory and a column of ``compare``'s CSV; seeds must be
    distinct integers >= 0: each seed writes its own ``seed_<k>``
    directory and counts once in the aggregate."""
    errors = []
    if not (isinstance(name, str) and name not in ("", ".", "..")
            and name.splitlines() == [name] and not set(",/\\") & set(name)):
        errors.append(f"name: must be a string without ',', '/', '\\' or "
                      f"a line break, other than '', '.' and '..', not "
                      f"{name!r}")
    if not isinstance(seeds, (list, tuple)):
        errors.append(f"seeds: must be a list of integers, not {seeds!r}")
    elif not seeds:
        errors.append("seeds: must be non-empty")
    else:
        bad = [s for s in seeds if not is_int(s) or s < 0]
        if bad:
            errors.append(f"seeds: {bad!r} are not integers >= 0")
        ints = [s for s in seeds if is_int(s)]
        if len(set(ints)) < len(ints):
            repeated = sorted({s for s in ints if ints.count(s) > 1})
            errors.append(f"seeds: {repeated!r} appear more than once")
    if not is_int(total_steps):
        errors.append(f"total_steps: must be an integer, not {total_steps!r}")
    elif total_steps < 1:
        errors.append("total_steps: must be >= 1")
    return errors


@dataclass(frozen=True)
class ExperimentSpec:
    name: str = "experiment"
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
        cfg_cls = AGENT_KINDS[self.agent_kind].config_cls
        if self.agent is not None and type(self.agent) is not cfg_cls:
            raise SpecError(f"agent: a {type(self.agent).__name__} cannot "
                            f"configure a {self.agent_kind!r} agent")
        errors = _run_errors(self.name, self.seeds, self.total_steps)
        if errors:
            raise SpecError("; ".join(errors))


class RunSummary(NamedTuple):
    """One seed's run: ``stats`` is what its summary.json holds."""
    stats: dict
    curve: np.ndarray               # moving-average reward, one per step
    wall_clock_s: float


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
    """One seeded env+agent(+pipeline) loop, its env reset with
    ``env_seed``, with logs of the steps this loop ran: the step log kept
    as columns, one list per ``STEP_LOG_FIELDS`` entry, and the pipeline
    log as the list of the pipeline's records."""

    def __init__(self, env: RisCrnEnv, agent, env_seed,
                 pipeline: RewardPipeline = None):
        self.env = env
        self.agent = agent
        self.pipeline = pipeline
        self.t = 0
        self.obs = env.reset(env_seed)
        self.step_log = {name: [] for name in STEP_LOG_FIELDS}
        self.pipeline_log = []

    def run(self, n_steps: int):
        """Runs ``n_steps`` steps. Steps whose actions do not read the
        observation are scored a channel block at a time."""
        end = self.t + n_steps
        while self.t < end:
            self.one_step(end - self.t)

    def one_step(self, limit: int = 1):
        """Runs the next step, or the next open-loop steps, at most
        ``limit`` of them and no more than the drawn channel block holds.
        The agent draws the actions of those that are open-loop at once,
        and they are scored in one ``env.step``; if there are none, the
        agent's ``act`` gives the next step's action. The reward pipeline
        then takes each reward in turn, the agent observes the accepted
        transitions as one stack, and a closed-loop step updates the agent
        (open-loop steps never train)."""
        actions = self.agent.open_loop_actions(
            self.t, min(limit, self.env.steps_in_block))
        closed_loop = not len(actions)
        if closed_loop:
            actions = self.agent.act(self.obs)[None]
        out = self.env.step(actions)
        s2, r = out.observation, out.reward
        s = np.concatenate((self.obs[None], s2[:-1]))
        if self.pipeline is not None:
            keep, r = [], []
            for i, reward in enumerate(out.reward):
                rec = self.pipeline.step(reward)
                self.pipeline_log.append(rec)
                if rec.decision == ACCEPTED:
                    keep.append(i)
                    r.append(rec.clipped)
            if len(keep) < len(s):
                # take reads a row list in a third of the time indexing does
                s, actions, s2 = (s.take(keep, 0), actions.take(keep, 0),
                                  s2.take(keep, 0))
        self.agent.observe(s, actions, r, s2)
        if closed_loop:
            self.agent.update()
        n = len(out.reward)
        self.obs = out.observation[-1]
        self.t += n
        # the outcome holds the logged fields after t, in log order
        for column, values in zip(self.step_log.values(),
                                  (range(self.t - n, self.t), *out[1:-1])):
            column.extend(values)

    def get_state(self) -> dict:
        """Snapshot for an exact resume in memory: ``set_state`` of a loop
        built from the same spec continues this one bit for bit. It holds
        copies, so this loop may run on after taking it."""
        return {
            "t": self.t,
            "obs": self.obs.copy(),
            "env": self.env.get_state(),
            "agent": self.agent.get_state(),
            "pipeline": (self.pipeline.get_state()
                         if self.pipeline is not None else None),
        }

    def set_state(self, st: dict):
        self.t = int(st["t"])
        self.obs = st["obs"]
        self.env.set_state(st["env"])
        self.agent.set_state(st["agent"])
        if self.pipeline is not None and st["pipeline"] is not None:
            self.pipeline.set_state(st["pipeline"])


def build_loop(spec: ExperimentSpec, seed: int) -> TrainingLoop:
    env = RisCrnEnv(spec.env)
    env_ss, agent_ss, attack_ss = np.random.SeedSequence(seed).spawn(3)
    agent = AGENT_KINDS[spec.agent_kind](
        env.observation_size, env.action_size, spec.agent, seed=agent_ss)
    pipeline = None
    if spec.attack is not None or spec.defense is not None:
        pipeline = RewardPipeline(spec.attack, spec.defense,
                                  rng=make_rng(attack_ss))
    return TrainingLoop(env, agent, env_ss, pipeline)


def _log_stats(step_log: dict) -> dict:
    """The summary statistics of a step log given as columns."""
    rewards = step_log["reward"]
    active = step_log["mode"].count(ACTIVE) / len(rewards)
    return {
        "steps": len(rewards),
        "converged_mean": converged_mean(rewards),
        "mode_fraction_active": active,
        "mode_fraction_passive": 1.0 - active,
        "mean_energy_J": float(np.mean(step_log["energy_J"])),
    }


def summarize(name: str, seed: int, loop: TrainingLoop,
              wall_clock_s: float) -> RunSummary:
    """The summary of the steps ``loop`` ran (after a ``set_state``, of the
    steps run since, as its step log holds)."""
    stats = {"name": name, "seed": seed, **_log_stats(loop.step_log),
             "violations": loop.env.violations, "ma_window": MA_WINDOW}
    return RunSummary(stats, moving_average(loop.step_log["reward"]),
                      wall_clock_s)


def _repr_is_json(column, kinds) -> bool:
    """Whether ``%r`` prints every cell as json.dumps does: each is an int
    or a finite float (a bool or a NaN is not); ``kinds`` is the set of
    the cells' types."""
    try:
        return kinds <= {int, float} and (float not in kinds
                                          or math.isfinite(sum(column)))
    except OverflowError:           # an int beyond the float range
        return False


def _write_jsonl(path, log: dict):
    """Write a log kept as columns, one JSON object per row, with the bytes
    of ``json.dumps`` of each row's dict. Every row is formatted from one
    template: ``%r`` for a column of ints and finite floats, else each
    cell's JSON text, worked out once per distinct (type, value); floats
    are keyed by their text, since 0.0 == -0.0 prints two ways."""
    fields, cells = [], []
    for name, column in log.items():
        fmt, kinds = "%r", set(map(type, column))
        if not _repr_is_json(column, kinds):
            keys = list(zip(map(type, column), map(str, column)
                            if float in kinds else column))
            text = {key: json.dumps(x)
                    for key, x in dict(zip(keys, column)).items()}
            column, fmt = list(map(text.__getitem__, keys)), "%s"
        fields.append(json.dumps(name).replace("%", "%%") + ": " + fmt)
        cells.append(column)
    template = "{" + ", ".join(fields) + "}\n"
    with open(path, "w") as fh:
        fh.writelines(map(template.__mod__, zip(*cells)))


def _csv_cells(row) -> tuple:
    """A table row's cells, with an empty cell for each None."""
    if None in row:
        return tuple("" if x is None else x for x in row)
    return tuple(row)


def _write_csv(path, header, rows):
    """Write a table whose cells are Python ints, floats and strings, each
    as ``str`` prints it (for a float, its repr); None is an empty cell.
    Every row is formatted from one template."""
    line = ",".join(["%s"] * len(header)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(map(line.__mod__, map(_csv_cells, rows)))


def run_single(spec: ExperimentSpec, seed: int,
               out_dir: str = None) -> RunSummary:
    """Execute one seed of a spec; optionally write its artifacts."""
    start = time.perf_counter()
    loop = build_loop(spec, seed)
    loop.run(spec.total_steps)
    summary = summarize(spec.name, seed, loop, time.perf_counter() - start)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        _write_jsonl(os.path.join(out_dir, "steps.jsonl"), loop.step_log)
        if loop.pipeline is not None:
            _write_jsonl(os.path.join(out_dir, "pipeline.jsonl"),
                         dict(zip(PIPELINE_LOG_FIELDS,
                                  zip(*loop.pipeline_log))))
        _write_csv(os.path.join(out_dir, "curve.csv"), ("t", "ma_reward"),
                   enumerate(summary.curve.tolist()))
        with open(os.path.join(out_dir, "summary.json"), "w") as fh:
            json.dump(summary.stats, fh, indent=1)
        with open(os.path.join(out_dir, "meta.json"), "w") as fh:
            json.dump({"wall_clock_s": summary.wall_clock_s}, fh)
    return summary


def resolve_workers(n_jobs: int, requested: int = None) -> int:
    """Worker processes for ``n_jobs`` jobs: ``requested``, else the CPU
    count, and never more than the jobs; a request that is no integer, or
    is below 1, is refused.
    One pool serves all the points of a ``run_experiment`` or
    ``run_spec_dict`` call, so the jobs are the seed-runs of every point. A
    fork-started pool starts every worker at its first submit, so a worker
    beyond the jobs would only idle."""
    if requested is None:
        requested = os.cpu_count() or 1
    elif not is_int(requested):
        raise ValueError(f"workers must be an integer, not {requested}")
    elif requested < 1:
        raise ValueError(f"workers must be >= 1, not {requested}")
    return min(n_jobs, requested)


@functools.cache
def _openblas():
    """numpy's bundled OpenBLAS library, or None where numpy has none (a
    numpy built on another BLAS)."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    found = glob.glob(os.path.join(libs, "libscipy_openblas*"))
    if not found:
        return None
    lib = ctypes.CDLL(found[0])
    get, set_ = (lib.scipy_openblas_get_num_threads64_,
                 lib.scipy_openblas_set_num_threads64_)
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return lib


def _cap_blas_threads(workers: int):
    """Pool initializer: caps numpy's OpenBLAS at this worker's share of
    the cores and at least one thread, so ``workers`` workers together
    run no more BLAS threads than there are cores, or one each when they
    outnumber the cores."""
    lib = _openblas()
    if lib is not None:
        share = (os.cpu_count() or 1) // workers
        lib.scipy_openblas_set_num_threads64_(
            max(1, min(lib.scipy_openblas_get_num_threads64_(), share)))


def _aggregate(spec: ExperimentSpec, out_dir: str, summaries) -> dict:
    """The aggregate summary of one point's seed-runs; with an output
    directory, also written as its ``summary.json`` and
    ``curve_mean.csv``."""
    per_seed = [s.stats for s in summaries]
    conv = np.array([p["converged_mean"] for p in per_seed])
    aggregate = {
        "name": spec.name,
        "agent_kind": spec.agent_kind,
        "total_steps": spec.total_steps,
        "seeds": list(spec.seeds),
        "per_seed": per_seed,
        "converged_mean": float(np.mean(conv)),
        "converged_std": float(np.std(conv)),
        "mode_fraction_active": float(
            np.mean([p["mode_fraction_active"] for p in per_seed])),
        "mean_energy_J": float(
            np.mean([p["mean_energy_J"] for p in per_seed])),
        "violations": int(sum(p["violations"] for p in per_seed)),
        "ma_window": MA_WINDOW,
    }
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "summary.json"), "w") as fh:
            json.dump(aggregate, fh, indent=1)
        curves = np.stack([s.curve for s in summaries])
        _write_csv(os.path.join(out_dir, "curve_mean.csv"),
                   ("t", "ma_reward_mean", "ma_reward_std"),
                   zip(range(curves.shape[1]), curves.mean(axis=0).tolist(),
                       curves.std(axis=0).tolist()))
    return aggregate


def run_points(points, out_dir: str = None, workers: int = None) -> list:
    """Run the seed-runs of every ``(label, spec)`` point, in point order,
    in one pool, into ``out_dir/<label>`` if ``out_dir`` is given, and
    aggregate each point as soon as its seed-runs are back. A raising
    seed-run reaches the caller after the points before its own are
    aggregated; the seed-runs not yet started are cancelled."""
    points = [(spec, os.path.join(out_dir, label)
               if label and out_dir is not None else out_dir)
              for label, spec in points]
    jobs = [(spec, seed,
             None if path is None else os.path.join(path, f"seed_{seed}"))
            for spec, path in points for seed in spec.seeds]
    workers = resolve_workers(len(jobs), workers)
    with (ProcessPoolExecutor(max_workers=workers,
                              initializer=_cap_blas_threads,
                              initargs=(workers,)) if workers > 1
          else nullcontext()) as pool:
        runs = (pool.map if pool else map)(run_single, *zip(*jobs))
        return [_aggregate(spec, path, [next(runs) for _ in spec.seeds])
                for spec, path in points]


def run_experiment(spec: ExperimentSpec, out_dir: str = None,
                   workers: int = None) -> dict:
    """Run every seed of a spec and aggregate.

    Returns the aggregate summary dict; per-seed artifacts land in
    ``out_dir/seed_<k>/`` when an output directory is given.
    """
    return run_points([("", spec)], out_dir, workers)[0]


def replay_summary(steps_jsonl_path: str) -> dict:
    """Recompute summary statistics straight from a step log; used to audit
    that shipped summaries match their logs."""
    step_log = {name: [] for name in STEP_LOG_FIELDS}
    with open(steps_jsonl_path) as fh:
        for line in fh:
            rec = json.loads(line)
            for name, column in step_log.items():
                column.append(rec[name])
    return _log_stats(step_log)


# ---------------------------------------------------------------------------
# Spec files (JSON)
# ---------------------------------------------------------------------------

def _build_section(errors, label, build, value):
    """``build(value)``; if that raises, None, with the error named by
    ``label`` added to ``errors``."""
    try:
        return build(value)
    except (ValueError, TypeError) as exc:
        errors.append(f"{label}: {exc}")
        return None


def _object(errors, label, value) -> dict:
    """The keys of an object section, none for null; a value that is no
    object is an error."""
    if value is None or isinstance(value, dict):
        return value or {}
    errors.append(f"{label}: must be an object, not {value!r}")
    return {}


def spec_object(d) -> dict:
    """A spec's top level as a dict, null meaning every default; a value
    that is no object raises the SpecError that build_spec gives."""
    errors = []
    d = _object(errors, "spec", d)
    if errors:
        raise SpecError("invalid spec: " + errors[0])
    return d


def _fields(build):
    """What builds an object section: ``build(**section)``, a null section
    meaning every default."""
    return lambda data: build(**({} if data is None else data))


def _power(**data):
    """The power constraint in linear watts (``P_t``, ``I_thr``) or in dB
    (``P_t_dB``, ``I_dB``)."""
    db_keys = ("P_t_dB", "I_dB")
    if not any(k in data for k in db_keys):
        return PowerConstraint(**data)
    if "P_t" in data or "I_thr" in data:
        raise ValueError("give either dB or linear powers, not both")
    raise_broken(
        *[(k not in data, f"{k} is missing: give both P_t_dB and I_dB")
          for k in db_keys],
        *[(k in data and not is_real(data[k]), f"{k} must be a real number")
          for k in db_keys])
    rest = {k: v for k, v in data.items() if k not in db_keys}
    return PowerConstraint(**rest, P_t=db_to_linear(data["P_t_dB"]),
                           I_thr=db_to_linear(data["I_dB"]))


def _mode_section(mode):
    return RisMode(**mode) if isinstance(mode, dict) else RisMode(mode)


# Each key of a spec's env object: the EnvConfig field it sets and what
# builds that field from the key's value (None: the value as it is).
# A key left out keeps the field's default.
ENV_KEYS = {
    "topology": ("topo", _fields(Topology)),
    "cascade": ("cascade", _fields(CascadeSpec)),
    "passive": ("pp", _fields(PassiveParams)),
    "active": ("ap", _fields(ActiveParams)),
    "harvest": ("hp", _fields(HarvestParams)),
    "consumption": ("cp", _fields(ConsumptionParams)),
    "noise": ("noise", _fields(NoiseParams)),
    "power": ("pc", _fields(_power)),
    "mode": ("mode", _mode_section),
    "fading_block": ("fading_block", None),
    "penalty_weight": ("penalty_weight", None),
}
# The top-level keys of a spec; ``sweep`` is expand_sweep's.
SPEC_KEYS = ("name", "env", "agent", "attack", "defense", "seeds", "n_seeds",
             "total_steps")


def env_config_from_dict(d: dict, errors: list) -> EnvConfig:
    """The EnvConfig of a spec's env object (null means every default);
    each problem is added to ``errors``."""
    fields = {}
    for key, value in _object(errors, "env", d).items():
        if key not in ENV_KEYS:
            errors.append(f"env: unknown key {key!r}")
            continue
        name, build = ENV_KEYS[key]
        fields[name] = (_build_section(errors, f"env.{key}", build, value)
                        if build else value)
    return _build_section(errors, "env", _fields(EnvConfig), fields)


def build_spec(d: dict) -> ExperimentSpec:
    """Build a validated spec from a config dict; raises SpecError listing
    every offending field and every key it does not read."""
    d = spec_object(d)
    errors = [f"spec: unknown key {k!r}" for k in d if k not in SPEC_KEYS]
    env = env_config_from_dict(d.get("env"), errors)

    agent_d = dict(_object(errors, "agent", d.get("agent")))
    kind = agent_d.pop("kind", ExperimentSpec.agent_kind)
    agent_cfg = None
    if kind not in AGENT_KINDS:
        errors.append(f"agent.kind: unknown kind {kind!r}")
    elif (cfg_cls := AGENT_KINDS[kind].config_cls) is not None:
        if isinstance(agent_d.get("hidden"), list):
            agent_d["hidden"] = tuple(agent_d["hidden"])
        agent_cfg = _build_section(errors, "agent", _fields(cfg_cls), agent_d)

    # an empty object is the default config; null or no key is none
    attack, defense = [
        None if d.get(key) is None
        else _build_section(errors, key, _fields(cls), d[key])
        for key, cls in (("attack", AttackConfig), ("defense", DefenseConfig))]

    seeds = d.get("seeds")
    if seeds is None:
        n_seeds = d.get("n_seeds", len(ExperimentSpec.seeds))
        if not is_int(n_seeds):
            errors.append(f"n_seeds: must be an integer, not {n_seeds!r}")
            n_seeds = 1
        seeds = list(range(n_seeds))
    elif "n_seeds" in d:
        errors.append("spec: give either seeds or n_seeds, not both")
    total_steps = d.get("total_steps", ExperimentSpec.total_steps)
    name = d.get("name", ExperimentSpec.name)
    errors += _run_errors(name, seeds, total_steps)

    if errors:
        raise SpecError("invalid spec: " + "; ".join(errors))
    return ExperimentSpec(name=name, env=env,
                          agent_kind=kind, agent=agent_cfg, attack=attack,
                          defense=defense, seeds=tuple(seeds),
                          total_steps=total_steps)


def _label_value(v) -> str:
    """A sweep value as its point's label prints it, without a comma: a
    float by %g, an int or a bool whole, a list's items joined by ``x``
    (``hidden=8x8``) and an object's as ``key=value`` joined by ``+``."""
    if isinstance(v, dict):
        return "+".join(f"{k}={_label_value(x)}" for k, x in v.items())
    if isinstance(v, list):
        return "x".join(map(_label_value, v))
    return f"{v:g}" if isinstance(v, float) else str(v)


def expand_sweep(d: dict):
    """Expand the optional sweep section into (label, spec-dict) points,
    each without the sweep section.

    Each sweep entry is {"path": "env.harvest.tau", "values": [...]};
    multiple entries expand as a cartesian product. Every point's label
    names its run directory, so values that format to the same label are
    refused.
    """
    d = spec_object(d)
    points = [("", {k: v for k, v in d.items() if k != "sweep"})]
    for i, entry in enumerate(d.get("sweep") or ()):
        if not (isinstance(entry, dict) and isinstance(entry.get("path"), str)
                and isinstance(entry.get("values"), (list, tuple))
                and entry["values"]):
            raise SpecError(f"sweep[{i}]: needs a \"path\" string and a "
                            f"non-empty \"values\" list")
        path, values = entry["path"], entry["values"]
        *parents, leaf = path.split(".")
        new_points = []
        for label, base in points:
            for v in values:
                dd = copy.deepcopy(base)
                node = dd
                for p in parents:
                    node = node.setdefault(p, {})
                    if not isinstance(node, dict):
                        raise SpecError(
                            f"sweep[{i}]: {path}: {p!r} is not an object")
                node[leaf] = v
                tag = f"{leaf}={_label_value(v)}"
                new_points.append((f"{label}_{tag}" if label else tag, dd))
        points = new_points
    labels = [label for label, _ in points]
    clashes = sorted({label for label in labels if labels.count(label) > 1})
    if clashes:
        raise SpecError(f"sweep: points share the label {', '.join(clashes)}"
                        f" and would overwrite each other's runs")
    return points


def spec_points(d: dict, seeds_override=None, steps_override=None) -> list:
    """Every sweep point of a spec dict as a (label, spec) pair, each spec
    named ``<name>_<label>``; a point's error names its label."""
    points = []
    for label, point in expand_sweep(d):
        if seeds_override is not None:
            point.pop("n_seeds", None)
            point["seeds"] = list(seeds_override)
        if steps_override is not None:
            point["total_steps"] = steps_override
        try:
            spec = build_spec(point)
            if label:
                spec = replace(spec, name=f"{spec.name}_{label}")
        except SpecError as exc:
            if label:
                raise SpecError(f"{label}: {exc}") from None
            raise
        points.append((label, spec))
    return points


def run_spec_dict(d: dict, out_dir: str, seeds_override=None,
                  steps_override=None, workers=None) -> list:
    """Run every sweep point of a spec dict; returns aggregate summaries.
    Every point's spec is built before any point runs."""
    return run_points(spec_points(d, seeds_override, steps_override),
                      out_dir, workers)


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
    Raises on mismatched step counts or seed sets, on runs that share a
    name, and on a run named like a difference column, since each column is
    keyed by its name.
    """
    aggs = [_load_aggregate(p) for p in run_dirs]
    names = [a["name"] for a in aggs]
    diff_of = {f"diff_{name}_vs_{names[0]}": name for name in names[1:]}
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ValueError(
                f"runs {run_dirs[names.index(name)]} and {run_dirs[i]} share "
                f"the name {name!r}; give each run a distinct name")
        if name in diff_of:
            raise ValueError(
                f"run {run_dirs[i]} is named {name!r}, as is the column of "
                f"the difference {diff_of[name]} - {names[0]}; give it "
                f"another name")
    base = aggs[0]
    for agg in aggs[1:]:
        if agg["total_steps"] != base["total_steps"]:
            raise ValueError(
                f"alignment error: step counts differ "
                f"({agg['name']}={agg['total_steps']}, "
                f"{base['name']}={base['total_steps']})")
        if agg["seeds"] != base["seeds"]:
            raise ValueError("alignment error: seed sets differ")

    # one column per run, then one per paired difference against the first
    seeds, n = base["seeds"], len(base["seeds"])
    cols = {}
    for agg in aggs:
        conv = {p["seed"]: p["converged_mean"] for p in agg["per_seed"]}
        cols[agg["name"]] = [conv[seed] for seed in seeds]
    diffs = {col: [x - y for x, y in zip(cols[name], cols[names[0]])]
             for col, name in diff_of.items()}
    cols.update(diffs)
    mean = {c: float(np.mean(x)) for c, x in cols.items()}
    std = {c: float(np.std(x, ddof=1)) if n > 1 else 0.0
           for c, x in cols.items()}
    t = {c: float(mean[c] / (std[c] / np.sqrt(n))) if std[c] > 0
         else math.nan for c in diffs}
    stats = {"mean": mean, "std": std, "paired_t": {c: t.get(c) for c in cols}}
    result = {"names": names, "seeds": seeds,
              "rows": [{"seed": seed, **dict(zip(cols, cells))}
                       for seed, *cells in zip(seeds, *cols.values())],
              "stats": stats}

    # one row per seed, then one per statistic
    _write_csv(out_csv, ["seed", *cols],
               [*zip(seeds, *cols.values()),
                *([label, *stat.values()] for label, stat in stats.items())])

    curve_path = os.path.splitext(out_csv)[0] + "_curves.csv"
    curves = [np.genfromtxt(os.path.join(path, "curve_mean.csv"), delimiter=",",
                            skip_header=1, ndmin=2)[:, 1].tolist()
              for path in run_dirs]
    _write_csv(curve_path, ["t"] + names,
               zip(range(len(curves[0])), *curves))
    return result
