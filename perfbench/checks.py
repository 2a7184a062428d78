"""Correctness checks and result fingerprints for the artifacts of one
workload call.

A seed-run is a directory holding a step log. It passes when its rewards
are finite, it has no constraint violations, its ``summary.json`` equals
the summary recomputed from ``steps.jsonl`` by ``replay_summary``, and its
step count and curve length both equal the steps the spec asked for.
"""

import hashlib
import json
import math
import os

from hybridris.harness import replay_summary

FINGERPRINT_FILES = ("summary.json", "steps.jsonl", "pipeline.jsonl")


def seed_run_dirs(out_dir: str) -> list:
    """Paths, relative to ``out_dir``, of the directories holding a step
    log, sorted."""
    return sorted(os.path.relpath(dirpath, out_dir)
                  for dirpath, _, files in os.walk(out_dir)
                  if "steps.jsonl" in files)


def fingerprint(run_dir: str) -> str:
    """sha256 over the seed-run's summary, step log and pipeline log."""
    h = hashlib.sha256()
    for name in FINGERPRINT_FILES:
        path = os.path.join(run_dir, name)
        if os.path.exists(path):
            h.update(name.encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def check_seed_run(run_dir: str, expected_steps: int):
    """Return ``(summary, problems)``; ``problems`` is empty when the
    seed-run passes."""
    problems = []
    with open(os.path.join(run_dir, "summary.json")) as fh:
        summary = json.load(fh)
    steps_path = os.path.join(run_dir, "steps.jsonl")
    with open(steps_path) as fh:
        bad = [rec["t"] for rec in map(json.loads, fh)
               if not math.isfinite(rec["reward"])]
    if bad:
        problems.append(f"non-finite reward at step {bad[0]} "
                        f"({len(bad)} steps)")
    if summary["violations"] > 0:
        problems.append(f"{summary['violations']} constraint violations")
    replay = replay_summary(steps_path)
    differ = sorted(k for k, v in replay.items() if summary.get(k) != v)
    if differ:
        problems.append("summary.json differs from its step log in "
                        + ", ".join(differ))
    if summary["steps"] != expected_steps:
        problems.append(f"{summary['steps']} steps, expected "
                        f"{expected_steps}")
    with open(os.path.join(run_dir, "curve.csv")) as fh:
        curve_rows = sum(1 for _ in fh) - 1
    if curve_rows != summary["steps"]:
        problems.append(f"curve has {curve_rows} rows for "
                        f"{summary['steps']} steps")
    return summary, problems
