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

import numpy as np

from .cegmm import InfeasibleBand
from .cluster_alloc import ClusterPlan, write_cluster_plan_csv
from .clustering import write_clustering_csv
from .config import AppConfig, load_config
from .harness import (build_clustering, equal_bandwidth_baseline,
                      run_experiment, run_trial, write_plan_csv)
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


def _worker_rng(app: AppConfig) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((app.base_seed, 0)))


def _out_stream(path: str | None):
    if path is None:
        return nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="")


def _cmd_simulate(app: AppConfig, out) -> None:
    plan = run_trial(generate_scenario(app.scenario), app.params, app.band,
                     app.hyper, app.qos, app.scenario.total_bandwidth,
                     app.precoder, app.allocator, app.clustering_mode,
                     app.num_clusters, _worker_rng(app))
    if isinstance(plan, ClusterPlan):
        write_cluster_plan_csv(plan, out)
        suffix = f" feasible={plan.feasible}"
    else:
        write_plan_csv(plan, out)
        suffix = ""
    print(f"total_rate_bps={plan.total_rate:.6g}{suffix}", file=sys.stderr)


def _cmd_sweep(app: AppConfig, out_path: str | None) -> None:
    experiment = app.experiment()
    if out_path is not None:
        experiment = replace(experiment, output=out_path)
    text = run_experiment(experiment)
    if experiment.output is None:
        sys.stdout.write(text)
    else:
        print(f"wrote {experiment.output}", file=sys.stderr)


def _cmd_cluster(app: AppConfig, out) -> None:
    if app.clustering_mode == "none":
        raise ValueError("clustering.mode is 'none'; set kmeans or hierarchical")
    scenario = generate_scenario(app.scenario)
    clustering = build_clustering(app.clustering_mode, scenario, app.params,
                                  app.band, app.num_clusters, app.precoder,
                                  _worker_rng(app))
    write_clustering_csv(clustering, out)
    print(f"clusters={clustering.num_clusters} "
          f"converged={clustering.converged}", file=sys.stderr)


def _cmd_baseline(app: AppConfig, out) -> None:
    scenario = generate_scenario(app.scenario)
    plan = equal_bandwidth_baseline(scenario, app.params,
                                    app.hyper.num_subchannels, app.band,
                                    app.scenario.total_bandwidth,
                                    app.precoder)
    write_plan_csv(plan, out)
    print(f"total_rate_bps={plan.achieved_rate:.6g}", file=sys.stderr)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        app = load_config(args.config, args.overrides)
        if args.command == "sweep":
            _cmd_sweep(app, args.output)
        else:
            with _out_stream(args.output) as out:
                if args.command == "simulate":
                    _cmd_simulate(app, out)
                elif args.command == "cluster":
                    _cmd_cluster(app, out)
                else:
                    _cmd_baseline(app, out)
    except (ValueError, OSError, InfeasibleBand, SingularChannel) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
