"""Command line front end.

Four subcommands share one configuration pipeline: defaults, an optional
INI file, then repeatable ``--set section.key=value`` overrides.  CSV goes
to stdout unless ``--output`` names a file; human-readable notes go to
stderr so the data stream stays clean.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from dataclasses import replace

from .cegmm import InfeasibleBand
from .cluster_alloc import ClusterPlan, write_cluster_plan_csv
from .clustering import write_clustering_csv
from .config import load_config
from .harness import (ExperimentConfig, build_clustering,
                      equal_bandwidth_baseline, run_experiment, run_trial,
                      trial_rng, write_plan_csv)
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
                        help="write CSV to this file instead of stdout")
    parser = argparse.ArgumentParser(
        prog="lwcf",
        description="Cell-free leaky-wave network simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("simulate", parents=[common],
                   help="run one trial and dump its subchannel plan")
    sub.add_parser("sweep", parents=[common],
                   help="run the configured Monte-Carlo sweep")
    sub.add_parser("cluster", parents=[common],
                   help="form AP clusters and dump the assignment")
    sub.add_parser("baseline", parents=[common],
                   help="equal-bandwidth reference plan")
    return parser


def _out_stream(path: str | None):
    if path is None:
        return nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="")


def _cmd_simulate(config: ExperimentConfig, out) -> None:
    plan = run_trial(config, config.scenario, trial_rng(config, 0))
    if isinstance(plan, ClusterPlan):
        write_cluster_plan_csv(plan, out)
        suffix = f" feasible={plan.feasible}"
    else:
        write_plan_csv(plan, out)
        suffix = ""
    print(f"total_rate_bps={plan.total_rate:.6g}{suffix}", file=sys.stderr)


def _cmd_sweep(config: ExperimentConfig, out_path: str | None) -> None:
    if out_path is not None:
        config = replace(config, output=out_path)
    text = run_experiment(config)
    if config.output is None:
        sys.stdout.write(text)
    else:
        print(f"wrote {config.output}", file=sys.stderr)


def _cmd_cluster(config: ExperimentConfig, out) -> None:
    if config.clustering == "none":
        raise ValueError("clustering.mode is 'none'; set kmeans or hierarchical")
    clustering = build_clustering(config, generate_scenario(config.scenario),
                                  trial_rng(config, 0))
    write_clustering_csv(clustering, out)
    print(f"clusters={clustering.num_clusters} "
          f"converged={clustering.converged}", file=sys.stderr)


def _cmd_baseline(config: ExperimentConfig, out) -> None:
    scenario = generate_scenario(config.scenario)
    plan = equal_bandwidth_baseline(scenario, config.params,
                                    config.hyper.num_subchannels, config.band,
                                    config.scenario.total_bandwidth,
                                    config.precoder)
    write_plan_csv(plan, out)
    print(f"total_rate_bps={plan.achieved_rate:.6g}", file=sys.stderr)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config, args.overrides)
        if args.command == "sweep":
            _cmd_sweep(config, args.output)
        else:
            with _out_stream(args.output) as out:
                if args.command == "simulate":
                    _cmd_simulate(config, out)
                elif args.command == "cluster":
                    _cmd_cluster(config, out)
                else:
                    _cmd_baseline(config, out)
    except (ValueError, OSError, InfeasibleBand, SingularChannel) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
