"""Command line front end.

Four subcommands share one configuration pipeline: defaults, an optional
INI file, then repeatable ``--set section.key=value`` overrides.  CSV goes
to the file ``--output`` names, else to ``experiment.output``, else to
stdout; human-readable notes go to stderr so the data stream stays clean.
"""

from __future__ import annotations

import argparse
import io
import sys
from contextlib import nullcontext
from dataclasses import replace

from .cegmm import InfeasibleBand
from .cluster_alloc import ClusterPlan, write_cluster_plan_csv
from .clustering import write_clustering_csv
from .config import load_config
from .harness import (ExperimentConfig, build_clustering, check_drop,
                      run_experiment, run_trial, trial_cell, write_plan_csv)
from .mimo import SingularChannel
from .scenario import generate_scenario


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE",
                        help="INI configuration file")
    common.add_argument("--set", metavar="SECTION.KEY=VALUE", action="append",
                        default=[], dest="overrides",
                        help="override one configuration value (repeatable)")
    common.add_argument("--output", metavar="FILE",
                        help="write CSV to this file instead of "
                             "experiment.output or stdout")
    parser = argparse.ArgumentParser(
        prog="lwcf",
        description="Cell-free leaky-wave network simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    single = argparse.ArgumentParser(add_help=False)
    single.add_argument("--trial", metavar="T", type=int, default=0,
                        help="take sweep trial T's drop (geometry seed "
                             "experiment.base_seed + T) and optimiser "
                             "stream (default 0)")
    sub.add_parser("simulate", parents=[common, single],
                   help="run one trial and dump its subchannel plan")
    sub.add_parser("sweep", parents=[common],
                   help="run the configured Monte-Carlo sweep")
    sub.add_parser("cluster", parents=[common, single],
                   help="form AP clusters and dump the assignment")
    sub.add_parser("baseline", parents=[common],
                   help="equal-bandwidth reference plan")
    return parser


def _out_stream(path: str | None):
    if path is None:
        return nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="")


def _single_run(config: ExperimentConfig, trial: int):
    """The drop template and optimiser stream of a single run: the
    ``trial_cell`` of trial T at the scenario's own sweep value.
    ``check_drop`` rejects a drop the run cannot take, by the key it reads,
    before the drop is drawn."""
    cell = trial_cell(config, getattr(config.scenario, config.sweep), trial)
    check_drop(config, cell[0], None)
    return cell


def _cmd_simulate(config: ExperimentConfig, trial: int, out) -> None:
    plan = run_trial(config, *_single_run(config, trial))
    if isinstance(plan, ClusterPlan):
        write_cluster_plan_csv(plan, out)
        suffix = f" feasible={plan.feasible}"
    else:
        write_plan_csv(plan, out)
        suffix = ""
    print(f"total_rate_bps={plan.total_rate:.6g}{suffix}", file=sys.stderr)


def _cmd_cluster(config: ExperimentConfig, trial: int, out) -> None:
    if config.clustering == "none":
        raise ValueError("clustering.mode is 'none'; set kmeans or hierarchical")
    sc_cfg, rng = _single_run(config, trial)
    clustering = build_clustering(config, generate_scenario(sc_cfg), rng)
    write_clustering_csv(clustering, out)
    print(f"clusters={clustering.num_clusters} "
          f"converged={clustering.converged}", file=sys.stderr)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config, args.overrides)
        # the CSV is written only after the command succeeded, so a failed
        # run leaves an existing output file as it was
        out = io.StringIO()
        if args.command == "sweep":
            out.write(run_experiment(config))
        elif args.command == "simulate":
            _cmd_simulate(config, args.trial, out)
        elif args.command == "cluster":
            _cmd_cluster(config, args.trial, out)
        else:
            _cmd_simulate(replace(config, allocator="equal_bandwidth",
                                  clustering="none"), 0, out)
        path = config.output if args.output is None else args.output
        with _out_stream(path) as fh:
            fh.write(out.getvalue())
        if path is not None:
            print(f"wrote {path}", file=sys.stderr)
    except (ValueError, OSError, InfeasibleBand, SingularChannel) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
