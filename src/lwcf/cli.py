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

from .cegmm import InfeasibleBand, allocate
from .cluster_alloc import (allocate_clustered, greedy_assign,
                            write_cluster_plan_csv)
from .clustering import (hierarchical_clustering, kmeans_clustering,
                         write_clustering_csv)
from .config import AppConfig, load_config
from .harness import equal_bandwidth_baseline, run_experiment, write_plan_csv
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


def _build_clustering(app: AppConfig, scenario, rng):
    if app.clustering_mode == "kmeans":
        return kmeans_clustering(scenario, app.params, app.band[1],
                                 app.num_clusters, rng)
    return hierarchical_clustering(scenario, app.params, app.band[1],
                                   method=app.precoder)


def _out_stream(path: str | None):
    if path is None:
        return nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="")


def _cmd_simulate(app: AppConfig, out) -> None:
    scenario = generate_scenario(app.scenario)
    rng = _worker_rng(app)
    hyper = app.hyper
    if app.allocator == "fixed_gmm":
        hyper = replace(hyper, max_components=1)
    budget = app.scenario.total_bandwidth
    if app.clustering_mode == "none":
        if app.allocator == "equal_bandwidth":
            plan = equal_bandwidth_baseline(scenario, app.params,
                                            hyper.num_subchannels, app.band,
                                            budget, app.precoder)
        else:
            plan = allocate(scenario, app.params, app.band, app.precoder,
                            hyper, app.qos, rng, total_bandwidth=budget)
        write_plan_csv(plan, out)
        print(f"total_rate_bps={plan.achieved_rate:.6g}", file=sys.stderr)
        return
    clustering = _build_clustering(app, scenario, rng)
    if app.allocator == "equal_bandwidth":
        base = equal_bandwidth_baseline(scenario, app.params,
                                        hyper.num_subchannels, app.band,
                                        budget, app.precoder)
        cplan = greedy_assign(base.subchannels, clustering,
                              app.qos.min_cluster_avg_rate, scenario,
                              app.params, app.precoder)
    else:
        cplan = allocate_clustered(scenario, app.params, app.band,
                                   app.precoder, hyper, app.qos, clustering,
                                   rng, total_bandwidth=budget)
    write_cluster_plan_csv(cplan, out)
    print(f"total_rate_bps={cplan.total_rate:.6g} feasible={cplan.feasible}",
          file=sys.stderr)


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
    clustering = _build_clustering(app, scenario, _worker_rng(app))
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
