"""Training-throughput benchmark for hybridris.

    python3 perfbench/bench.py --workload sac_seeds --seed 0 --seconds 40 --trace 0

Drives one workload through the harness's public entry points
(``run_experiment``, ``run_single``, ``run_spec_dict``) for about
``--seconds`` seconds, checks every seed-run's artifacts, and prints the
metrics as the last line of standard output: one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it,
starting with ``perfbench-detail``, holds each metric's quartiles and
sample count, the result fingerprints, the machine and its load.

``--trace 0`` reports the end-to-end metrics from untraced calls.
``--trace 1`` reports the per-layer metrics from serial traced calls, which
wrap each module's public callables from this file (nothing in ``src/``
is instrumented). perfbench/README.md says why each workload exists and
which end-to-end metric each layer metric should move.
"""

import argparse
import copy
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass

from spans import SpanLog, self_times
from spans import traced as tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
# Workers x BLAS threads must not exceed the cores, so BLAS runs one thread.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Set-up is sampled this many times before every call, so that its samples
# spread over the run like the calls' do: the host's speed drifts by tens
# of percent within seconds. One set-up takes 1-20 ms, so each sample
# repeats it until at least SETUP_SAMPLE_S has passed and divides.
SETUP_SAMPLES = 3
SETUP_SAMPLE_S = 0.05

END_TO_END_UNITS = {
    "steps_per_s": "1/s",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "artifact_mb": "MB",
    "reward_converged": "bit/s/Hz",
}

PER_LAYER_UNITS = {
    "channel.sample.us": "us",
    "channel.sample.calls_per_step": "calls/step",
    "ris.harvest.us": "us",
    "ris.reflection.us": "us",
    "ris.active_frac": "frac",
    "phy.sinr.us": "us",
    "phy.sinr.calls_per_step": "calls/step",
    "phy.project.us": "us",
    "phy.rate.us": "us",
    "env.step.us": "us",
    "env.step.self_us": "us",
    "env.step.share": "frac",
    "agents.act.us": "us",
    "agents.update.us": "us",
    "agents.update.share": "frac",
    "agents.update_frac": "frac",
    "agents.replay_sample.us": "us",
    "nets.forward.us": "us",
    "nets.forward.calls_per_update": "calls/update",
    "nets.backward.us": "us",
    "nets.backward.calls_per_update": "calls/update",
    "nets.adam.us": "us",
    "nets.adam.calls_per_update": "calls/update",
    "nets.soft_update.us": "us",
    "nets.soft_update.calls_per_update": "calls/update",
    "nets.params": "count",
    "nets.mflop_per_update": "MFLOP_computed",
    "security.pipeline.us": "us",
    "security.discard_frac": "frac",
    "security.trigger_frac": "frac",
    "harness.write_s": "s",
    "harness.checkpoint_s": "s",
    "harness.checkpoint_mb": "MB",
    "harness.pool_util": "frac",
    "harness.trace_overhead": "frac",
}

# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

# The paper-default env, written out so a change of defaults in the program
# does not change the workload.
PAPER_ENV = {
    "topology": {"A": 2, "B": 2, "R": 4, "W": 2},
    "cascade": {"kappa_s": 4, "kappa_b": 4, "kappa_p": 1},
    "harvest": {"tau": 50.0},
    "mode": "dynamic_hybrid",
}
INVERT_ATTACK = {"kind": "invert", "threshold": 0.5, "trigger_window": 50}
CLIP_FILTER_DEFENSE = {"r_min": -2.0, "r_max": 2.0, "chi": 2.0,
                       "warmup_count": 10, "stats_window": 500}


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str              # run_experiment, run_single or run_spec_dict
    agent: str
    seeds_per_point: int
    total_steps: int
    warmup_steps: int = None  # agent's random-action steps; None: default
    attack: dict = None
    defense: dict = None
    taus: tuple = ()        # one sweep point per value of env.harvest.tau

    @property
    def seed_runs(self) -> int:
        return self.seeds_per_point * max(1, len(self.taus))

    def spec_dict(self, seed: int) -> dict:
        """The spec for workload seed ``seed``: seed lists of different
        workload seeds do not overlap."""
        n = self.seeds_per_point
        agent = {"kind": self.agent}
        if self.warmup_steps is not None:
            agent["warmup_steps"] = self.warmup_steps
        d = {"name": self.name, "env": copy.deepcopy(PAPER_ENV),
             "agent": agent, "attack": self.attack,
             "defense": self.defense,
             "seeds": [seed * n + k for k in range(n)],
             "total_steps": self.total_steps}
        if self.taus:
            d["sweep"] = [{"path": "env.harvest.tau",
                           "values": list(self.taus)}]
        return d

    def call(self, d: dict, out_dir: str, workers: int):
        from hybridris import harness
        if self.entry == "run_single":
            spec = harness.build_spec(d)
            harness.run_single(spec, spec.seeds[0], out_dir)
        elif self.entry == "run_experiment":
            harness.run_experiment(harness.build_spec(d), out_dir,
                                   workers=workers)
        else:
            harness.run_spec_dict(d, out_dir, workers=workers)


WORKLOADS = {w.name: w for w in (
    Workload("sac_seeds", "run_experiment", "sac", 4, 500, warmup_steps=250),
    Workload("td3_poisoned", "run_single", "td3", 1, 1250, warmup_steps=250,
             attack=INVERT_ATTACK, defense=CLIP_FILTER_DEFENSE),
    Workload("tau_sweep_random", "run_spec_dict", "random", 2, 1500,
             taus=(10, 30, 40, 50)),
)}

# ---------------------------------------------------------------------------
# Tracing targets
# ---------------------------------------------------------------------------


def _layer_macs(net) -> int:
    return sum(a * b for a, b in zip(net.sizes[:-1], net.sizes[1:]))


def _rows(x) -> int:
    return x.shape[0] if getattr(x, "ndim", 1) > 1 else 1


def _forward_flops(net, x, *args, **kwargs) -> float:
    """One multiply-add per weight and row, counted as 2 flops."""
    return 2.0 * _rows(x) * _layer_macs(net)


def _backward_flops(net, acts, grad_out, *args, **kwargs) -> float:
    """Weight gradient and input gradient: two products per layer."""
    return 4.0 * _rows(grad_out) * _layer_macs(net)


AGENT_CLASSES = ("SacAgent", "DdpgAgent", "Td3Agent", "RandomAgent")
TRACE_TARGETS = [
    ("harness.build_loop", "hybridris.harness", ("build_loop",), None),
    ("harness.loop", "hybridris.harness:TrainingLoop", ("run",), None),
    ("harness.summarize", "hybridris.harness", ("summarize",), None),
    ("harness.checkpoint", "hybridris.harness", ("save_checkpoint",), None),
    ("env.step", "hybridris.env:RisCrnEnv", ("step",), None),
    ("channel.sample", "hybridris.channel", ("sample_channel_set",), None),
    ("ris.harvest", "hybridris.ris", ("harvest",), None),
    ("ris.reflection", "hybridris.ris", ("build_reflection",), None),
    # sinrs is the one-call form for all users, once it exists.
    ("phy.sinr", "hybridris.phy", ("sinr_passive", "sinr_active", "sinrs"),
     None),
    ("phy.project", "hybridris.phy", ("project_beamformer",), None),
    ("phy.rate", "hybridris.phy", ("rate_report",), None),
    *[("agents.act", f"hybridris.agents:{c}", ("act",), None)
      for c in AGENT_CLASSES],
    *[("agents.update", f"hybridris.agents:{c}", ("update",), None)
      for c in AGENT_CLASSES],
    ("agents.replay_sample", "hybridris.agents:ReplayBuffer", ("sample",),
     None),
    ("nets.forward", "hybridris.nets:DenseNet", ("forward", "forward_cache"),
     _forward_flops),
    ("nets.backward", "hybridris.nets:DenseNet", ("backward",),
     _backward_flops),
    ("nets.adam", "hybridris.nets:Adam", ("step",), None),
    ("nets.soft_update", "hybridris.nets", ("soft_update",), None),
    ("security.pipeline", "hybridris.security:RewardPipeline", ("step",),
     None),
]
NETS_SPANS = ("nets.forward", "nets.backward", "nets.adam",
              "nets.soft_update")
# Spans of the public call that are not writing artifacts; the rest of the
# call's time is harness.write_s.
LOOP_SPANS = ("harness.build_loop", "harness.loop", "harness.summarize",
              "harness.checkpoint")

# ---------------------------------------------------------------------------
# One call of a workload
# ---------------------------------------------------------------------------


@dataclass
class CallResult:
    wall_s: float
    steps_per_s: float      # sum over seed-runs of steps / loop seconds
    loop_s: float           # summed loop seconds of the seed-runs
    reward: float           # mean converged_mean over seed-runs
    artifact_bytes: int
    checkpoint_bytes: int
    active_frac: float
    discard_frac: float
    trigger_frac: float
    load: dict              # loadavg before and after, host speed reading
    log: object = None      # SpanLog of a traced call


class Tally:
    """Seed-runs attempted and failed, and each seed-run's first result
    fingerprint, over all calls of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.fingerprints = {}

    def fail(self, n: int, problem: str):
        self.failed += n
        self.problems.append(problem)
        print(f"perfbench: FAILED {problem}", file=sys.stderr)


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _pipeline_fractions(run_dir):
    """(discarded, triggered, records) counted in a pipeline log."""
    path = os.path.join(run_dir, "pipeline.jsonl")
    if not os.path.exists(path):
        return 0, 0, 0
    discarded = triggered = n = 0
    with open(path) as fh:
        for rec in map(json.loads, fh):
            n += 1
            discarded += rec["decision"] == "discarded"
            triggered += bool(rec["triggered"])
    return discarded, triggered, n


def inspect_call(out_dir, wl: Workload, steps: int, tally: Tally, wall_s,
                 load, log):
    """Check the call's seed-runs and reduce its artifacts to a result."""
    import checks   # imports the program, which main() put on the path
    dirs = checks.seed_run_dirs(out_dir)
    tally.attempted += wl.seed_runs
    if len(dirs) < wl.seed_runs:
        tally.fail(wl.seed_runs - len(dirs),
                   f"{len(dirs)} seed-runs written, expected {wl.seed_runs}")
    rates, loop_s, rewards, active = [], 0.0, [], []
    discarded = triggered = records = 0
    for rel in dirs:
        path = os.path.join(out_dir, rel)
        try:
            summary, problems = checks.check_seed_run(path, steps)
            seconds = _read_json(os.path.join(path, "meta.json"))[
                "wall_clock_s"]
            fp = checks.fingerprint(path)
            pipe = _pipeline_fractions(path)
        except (OSError, ValueError, KeyError) as exc:
            tally.fail(1, f"{wl.name}/{rel}: unreadable artifacts: {exc!r}")
            continue
        if tally.fingerprints.setdefault(rel, fp) != fp:
            problems.append("result fingerprint changed between repeats")
        if problems:
            tally.fail(1, f"{wl.name}/{rel}: " + "; ".join(problems))
            continue
        rates.append(summary["steps"] / seconds)
        loop_s += seconds
        rewards.append(summary["converged_mean"])
        active.append(summary["mode_fraction_active"])
        discarded, triggered, records = (discarded + pipe[0],
                                         triggered + pipe[1],
                                         records + pipe[2])
    if not rates:
        return None
    artifact = checkpoint = 0
    for dirpath, _, files in os.walk(out_dir):
        for f in files:
            size = os.path.getsize(os.path.join(dirpath, f))
            artifact += size
            checkpoint += size if f.startswith("checkpoint") else 0
    return CallResult(
        wall_s=wall_s, steps_per_s=sum(rates), loop_s=loop_s,
        reward=statistics.fmean(rewards), artifact_bytes=artifact,
        checkpoint_bytes=checkpoint, active_frac=statistics.fmean(active),
        discard_frac=discarded / records if records else 0.0,
        trigger_frac=triggered / records if records else 0.0,
        load=load, log=log)


def host_reference_ms() -> float:
    """Milliseconds of a fixed computation that does not touch the
    program. It tells a slow host from a slow program; loadavg inside a
    guest VM does not show a host that got slower."""
    import numpy as np
    a = np.full((48, 48), 0.5)
    start = time.perf_counter()
    for _ in range(400):
        a = np.tanh(a @ a * 0.02)
    return 1e3 * (time.perf_counter() - start)


def run_call(wl: Workload, d: dict, steps: int, workers: int, tally: Tally,
             run_dir: str, traced: bool = False):
    """One public call of the workload into a fresh output directory."""
    out = tempfile.mkdtemp(dir=run_dir)
    log = SpanLog() if traced else None
    load0, ref_ms = os.getloadavg(), host_reference_ms()
    try:
        try:
            start = time.perf_counter()
            if traced:
                with tracing(log, TRACE_TARGETS, "hybridris"):
                    with log.span("workload"):
                        wl.call(d, out, 1)
            else:
                wl.call(d, out, workers)
            wall_s = time.perf_counter() - start
        except Exception:
            traceback.print_exc()
            tally.attempted += wl.seed_runs
            tally.fail(wl.seed_runs, f"{wl.name}: call raised")
            return None
        load = {"loadavg": (load0, os.getloadavg()), "host_ref_ms": ref_ms}
        return inspect_call(out, wl, steps, tally, wall_s, load, log)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def repeat_for(seconds: float, fn) -> list:
    """Call ``fn`` at least once and again while the median call time still
    fits before the deadline; return the results that are not None."""
    results, durations = [], []
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        result = fn()
        durations.append(time.perf_counter() - start)
        if result is not None:
            results.append(result)
        if time.perf_counter() + statistics.median(durations) > deadline:
            return results


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def measure_setup(d: dict) -> list:
    """Samples of the seconds to validate every sweep point's spec and
    build every seed's loop (env reset, net init, replay allocation); each
    sample is the mean over repeated set-ups lasting SETUP_SAMPLE_S."""
    from hybridris.harness import build_loop, build_spec, expand_sweep
    times = []
    for _ in range(SETUP_SAMPLES):
        n, start = 0, time.perf_counter()
        while True:
            for _, point in expand_sweep(d):
                spec = build_spec({k: v for k, v in point.items()
                                   if k != "sweep"})
                for seed in spec.seeds:
                    build_loop(spec, seed)
            n += 1
            elapsed = time.perf_counter() - start
            if elapsed >= SETUP_SAMPLE_S:
                break
        times.append(elapsed / n)
    return times


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child."""
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb * 1024 / 1e6


def nets_params(d: dict) -> int:
    """Parameters in the nets of the first seed's agent, targets included."""
    from hybridris.harness import build_loop, build_spec, expand_sweep
    from hybridris.nets import DenseNet
    point = expand_sweep(d)[0][1]
    spec = build_spec({k: v for k, v in point.items() if k != "sweep"})
    agent = build_loop(spec, spec.seeds[0]).agent
    nets = []
    for v in vars(agent).values():
        nets += [n for n in (v if isinstance(v, list) else [v])
                 if isinstance(n, DenseNet)]
    return sum(p.size for n in nets for p in n.params)


def _median_us(log, idx) -> float:
    return 1e6 * statistics.median(log.durations(idx)) if idx else 0.0


def layer_metrics(res: CallResult) -> dict:
    """Per-layer metrics of one traced call."""
    log = res.log
    calls = log.calls()
    dur = {name: sum(log.durations(idx)) for name, idx in calls.items()}
    steps = calls.get("env.step", [])
    n_steps = max(1, len(steps))
    loop_s = dur.get("harness.loop", 0.0) or float("inf")
    in_step = log.enclosing("env.step")
    in_update = log.enclosing("agents.update")
    # An update ran a gradient step when an optimizer step ran inside it.
    grad_updates = {in_update[i] for i in calls.get("nets.adam", [])
                    if in_update[i] >= 0}
    n_upd = len(grad_updates)

    def named(name, within=None):
        idx = calls.get(name, [])
        return idx if within is None else [i for i in idx if within(i)]

    m = {}
    chan = named("channel.sample", lambda i: in_step[i] >= 0)
    m["channel.sample.us"] = _median_us(log, chan)
    m["channel.sample.calls_per_step"] = len(chan) / n_steps
    m["ris.harvest.us"] = _median_us(log, named("ris.harvest"))
    m["ris.reflection.us"] = _median_us(log, named("ris.reflection"))
    m["ris.active_frac"] = res.active_frac
    sinr = named("phy.sinr")
    m["phy.sinr.us"] = _median_us(log, sinr)
    m["phy.sinr.calls_per_step"] = len(sinr) / n_steps
    m["phy.project.us"] = _median_us(log, named("phy.project"))
    m["phy.rate.us"] = _median_us(log, named("phy.rate"))
    m["env.step.us"] = _median_us(log, steps)
    own = self_times(log)
    m["env.step.self_us"] = (1e6 * statistics.median(own[i] for i in steps)
                             if steps else 0.0)
    m["env.step.share"] = dur.get("env.step", 0.0) / loop_s
    m["agents.act.us"] = _median_us(log, named("agents.act"))
    m["agents.update.us"] = _median_us(log, sorted(grad_updates))
    m["agents.update.share"] = dur.get("agents.update", 0.0) / loop_s
    m["agents.update_frac"] = n_upd / n_steps
    m["agents.replay_sample.us"] = _median_us(
        log, named("agents.replay_sample"))
    flops = 0.0
    for name in NETS_SPANS:
        idx = named(name, lambda i: in_update[i] in grad_updates)
        m[f"{name}.us"] = _median_us(log, idx)
        m[f"{name}.calls_per_update"] = len(idx) / n_upd if n_upd else 0.0
        flops += sum(log.work[i] for i in idx)
    m["nets.mflop_per_update"] = flops / n_upd / 1e6 if n_upd else 0.0
    m["security.pipeline.us"] = _median_us(log, named("security.pipeline"))
    m["security.discard_frac"] = res.discard_frac
    m["security.trigger_frac"] = res.trigger_frac
    m["harness.write_s"] = (dur["workload"]
                            - sum(dur.get(n, 0.0) for n in LOOP_SPANS))
    m["harness.checkpoint_s"] = dur.get("harness.checkpoint", 0.0)
    m["harness.checkpoint_mb"] = res.checkpoint_bytes / 1e6
    return m


def quartiles(values) -> dict:
    """Median, quartiles and sample count."""
    values = list(values)
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(wl, d, steps, seconds, workers, tally, run_dir):
    """Samples of every end-to-end metric, from untraced pool calls."""
    setup = []

    def call():
        setup.extend(measure_setup(d))
        return run_call(wl, d, steps, workers, tally, run_dir)

    calls = repeat_for(seconds, call)
    if not calls:
        return None
    samples = {
        "steps_per_s": [c.steps_per_s for c in calls],
        "wall_s": [c.wall_s for c in calls],
        "setup_s": setup,
        "peak_rss_mb": [peak_rss_mb()],
        "artifact_mb": [c.artifact_bytes / 1e6 for c in calls],
        "reward_converged": [c.reward for c in calls],
    }
    return samples, calls


def per_layer(wl, d, steps, seconds, workers, tally, run_dir):
    """Samples of every per-layer metric: one untraced pool call, then
    pairs of an untraced and a traced serial call."""
    start = time.perf_counter()
    pool = run_call(wl, d, steps, workers, tally, run_dir)
    seconds -= time.perf_counter() - start

    def pair():
        plain = run_call(wl, d, steps, 1, tally, run_dir)
        traced = run_call(wl, d, steps, 1, tally, run_dir, traced=True)
        if plain is None or traced is None:
            return None
        layers = layer_metrics(traced)
        traced.log = None
        return plain, traced, layers

    pairs = repeat_for(seconds, pair)
    if pool is None or not pairs:
        return None
    samples = {name: [] for name in PER_LAYER_UNITS}
    for _, _, layers in pairs:
        for name, value in layers.items():
            samples[name].append(value)
    samples["nets.params"] = [nets_params(d)]
    samples["harness.pool_util"] = [pool.loop_s / (workers * pool.wall_s)]
    plain_rate = statistics.median(p.steps_per_s for p, _, _ in pairs)
    traced_rate = statistics.median(t.steps_per_s for _, t, _ in pairs)
    samples["harness.trace_overhead"] = [1.0 - traced_rate / plain_rate]
    return samples, [pool] + [c for p, t, _ in pairs for c in (p, t)]


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def machine_info() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "platform": platform.platform(),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True,
                   help="workload seed; offsets every seed list")
    p.add_argument("--seconds", type=int, required=True,
                   help="measure for about this long")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: per-layer metrics from traced calls")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "hybridris", "__init__.py")):
        print(f"perfbench: no hybridris package under {src}",
              file=sys.stderr)
        return 2
    if src not in sys.path:
        sys.path.insert(0, src)

    wl = WORKLOADS[args.workload]
    steps = wl.total_steps
    d = wl.spec_dict(args.seed)
    workers = max(1, min(len(os.sched_getaffinity(0)), wl.seeds_per_point))
    tally = Tally()
    os.makedirs(WORK_DIR, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK_DIR)
    try:
        # One checked but unmeasured call first, so that imports, caches
        # and the allocator are warm before anything is timed.
        start = time.perf_counter()
        run_call(wl, d, steps, workers, tally, run_dir)
        seconds = max(0.0, args.seconds - (time.perf_counter() - start))
        measure = per_layer if args.trace else end_to_end
        out = measure(wl, d, steps, seconds, workers, tally, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass
    if out is None:
        print("perfbench: no call of the workload succeeded",
              file=sys.stderr)
        return 1
    samples, calls = out
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    stats = {name: {**quartiles(samples[name]), "unit": unit}
             for name, unit in units.items()}
    detail = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "steps_per_seed": steps,
        "seeds": d["seeds"], "workers": workers,
        "machine": machine_info(),
        "load": [c.load for c in calls],
        "metrics": stats,
        "fail_frac": tally.failed / max(1, tally.attempted),
        "problems": tally.problems[:20],
        "fingerprint": hashlib.sha256(json.dumps(
            tally.fingerprints, sort_keys=True).encode()).hexdigest(),
        "seed_fingerprints": tally.fingerprints,
    }
    print("perfbench-detail " + json.dumps(detail))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": s["median"], "unit": s["unit"]}
                    for name, s in stats.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
