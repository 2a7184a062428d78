"""Command line front-end.

    hybridris run <spec.json> [--seeds N] [--steps N] [--out DIR] [--workers N]
    hybridris compare <dir>... --out table.csv

Spec files are JSON; see the README for the schema. --workers caps the
worker pool, which serves every sweep point; without it, the CPU count
does.
"""

import argparse
import json
import os
import sys

from .harness import build_spec, compare, run_points, spec_object, spec_points


def _cmd_run(args):
    with open(args.spec) as fh:
        d = spec_object(json.load(fh))
    seeds = list(range(args.seeds)) if args.seeds is not None else None
    points = spec_points(d, seeds, args.steps)
    # every point is checked first; a sweep of "name" leaves the spec's own
    # name to check before it names runs/<name>
    out = args.out or os.path.join("runs", build_spec(
        {"name": d["name"]} if "name" in d else {}).name)
    results = run_points(points, out, args.workers)
    for agg in results:
        print(f"{agg['name']}: converged mean reward "
              f"{agg['converged_mean']:.4f} +/- {agg['converged_std']:.4f} "
              f"(active {agg['mode_fraction_active']:.1%}, "
              f"energy {agg['mean_energy_J']:.4g} J/step, "
              f"violations {agg['violations']})")
    print(f"artifacts written to {out}")
    return 0


def _cmd_compare(args):
    result = compare(args.dirs, args.out)
    names = result["names"]
    means = result["stats"]["mean"]
    print("converged mean reward per run:")
    for name in names:
        print(f"  {name}: {means[name]:.4f}")
    # a paired t is worked out for the difference columns only
    for col, t in result["stats"]["paired_t"].items():
        if t is not None:
            print(f"  {col}: mean {means[col]:+.4f} (paired t = {t:.2f})")
    print(f"table written to {args.out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="hybridris",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment spec")
    p_run.add_argument("spec", help="path to a JSON spec file")
    p_run.add_argument("--seeds", type=int, default=None,
                       help="override: use seeds 0..N-1")
    p_run.add_argument("--steps", type=int, default=None,
                       help="override total_steps")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--workers", type=int, default=None,
                       help="parallel seed-run workers, over all sweep points")
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="tabulate runs against each other")
    p_cmp.add_argument("dirs", nargs="+", help="run output directories")
    p_cmp.add_argument("--out", required=True, help="output CSV path")
    p_cmp.set_defaults(func=_cmd_compare)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # bad specs, missing files and mismatched runs: the message names
        # what to fix, so a traceback would only bury it
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
