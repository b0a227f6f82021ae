"""Command-line entry point.

Subcommands:
  run        run an experiment spec (or preset) and write CSV outputs
  grid       resolve step-length grid searches only, print selections
  aggregate  (re)build aggregate curves from a directory of trace CSVs
"""

from __future__ import annotations

import argparse
import sys

from .harness import (AGG_BY_ITERATION, AGG_BY_TIME, ExperimentSpec, PRESETS,
                      aggregate_directory, build_problem, build_solver_config,
                      resolve_grid_searches, run_experiment, write_manifest)


def _load_spec(args) -> ExperimentSpec:
    if args.preset:
        spec = ExperimentSpec.from_preset(args.preset)
    elif args.spec:
        spec = ExperimentSpec.from_file(args.spec)
    else:
        raise SystemExit("error: provide a spec file or --preset NAME")
    overrides = {}
    if args.seed is not None:
        overrides["run.seed"] = args.seed
    if args.reps is not None:
        overrides["run.reps"] = args.reps
    if args.budget_s is not None:
        overrides["run.time_budget_s"] = args.budget_s
    if getattr(args, "max_iters", None) is not None:
        overrides["run.max_iters"] = args.max_iters
    return spec.override(**overrides) if overrides else spec


def _print_finals(curves: dict) -> None:
    """One line per solver: runs and the final mean error with its CI, or
    a note that no run recorded an iteration."""
    for name, curve in curves.items():
        if not len(curve.mean_error):
            print(f"{name}: {curve.n_runs} runs, no iteration recorded")
            continue
        print(f"{name}: {curve.n_runs} runs, "
              f"final mean error {curve.mean_error[-1]:.6e} "
              f"(+- {curve.ci_half[-1]:.1e})")


def _add_common(p):
    p.add_argument("spec", nargs="?", help="experiment spec file")
    p.add_argument("--preset", choices=sorted(PRESETS),
                   help="use a built-in desk-scale preset")
    p.add_argument("--seed", type=int, help="override run.seed")
    p.add_argument("--reps", type=int, help="override run.reps")
    p.add_argument("--budget-s", type=float, help="override run.time_budget_s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="stochnewton",
        description="Stochastic second-order optimization benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment")
    _add_common(p_run)
    p_run.add_argument("--max-iters", type=int, help="override run.max_iters")
    p_run.add_argument("--out", default="runs", help="output directory")

    p_grid = sub.add_parser("grid", help="resolve step-length grid searches")
    _add_common(p_grid)
    p_grid.add_argument("--out", help="write the resolved spec here")

    p_agg = sub.add_parser("aggregate", help="aggregate trace CSVs in a directory")
    p_agg.add_argument("directory")
    p_agg.add_argument("--mode", choices=["iter", "time"], default="iter")

    args = parser.parse_args(argv)

    if args.command == "aggregate":
        curves = aggregate_directory(args.directory, args.mode)
        _print_finals(dict(sorted(curves.items())))
        return 0

    if args.command == "grid":
        spec = _load_spec(args)
        problem, kind = build_problem(spec)
        resolved = resolve_grid_searches(spec, problem, kind)
        for name in resolved.solver_names():
            t_ini = build_solver_config(resolved, name).ls.t_start
            print(f"solver.{name}.t_ini = {t_ini}")
        if args.out:
            with open(args.out, "w") as fh:
                write_manifest(resolved, problem, fh)
            print(f"resolved spec written to {args.out}")
        return 0

    # run
    spec = _load_spec(args)
    result = run_experiment(spec, out_dir=args.out)
    mode = (AGG_BY_TIME if spec.get("run.aggregate") == AGG_BY_TIME
            else AGG_BY_ITERATION)
    _print_finals({name: result.aggregates[name, mode]
                   for name in spec.solver_names()})
    print(f"outputs in {result.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
