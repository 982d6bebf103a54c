"""Experiment driver: seeded sweeps, Monte-Carlo averaging, CSV output.

One experiment sweeps a single scenario dimension (AP count, UE count, or
spectrum budget), runs every trial on its own deterministic substream, and
emits one CSV row per trial plus a mean/standard-error summary per sweep
value.  Reruns of the same configuration byte-match except for the wall
clock column.
"""

from __future__ import annotations

import csv
import io
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .antenna import AntennaParams
from .cegmm import (CeHyperparams, InfeasibleBand, QosConfig, SubchannelPlan,
                    allocate, score_batch)
from .cluster_alloc import ClusterPlan, allocate_clustered, greedy_assign
from .clustering import Clustering, hierarchical_clustering, kmeans_clustering
from .mimo import PRECODER_METHODS, SingularChannel, require_zf_shape
from .scenario import ScenarioConfig, generate_scenario

SWEEP_VARIABLES = ("num_aps", "num_ues", "total_bandwidth")
ALLOCATORS = ("adaptive_gmm", "fixed_gmm", "equal_bandwidth")
CLUSTERING_MODES = ("none", "kmeans", "hierarchical")

CSV_HEADER = ("sweep_value", "trial", "seed", "allocator", "clustering",
              "precoder", "total_rate_bps", "stderr_bps", "wall_time_ms",
              "status")


@dataclass(frozen=True)
class ExperimentConfig:
    """The one configuration type: the scenario template, radio model,
    optimiser knobs, and the sweep.  ``load_config`` builds it from INI;
    every CLI command runs it.  ``load_config`` sets ``scenario.seed`` from
    ``base_seed``, so the template is trial 0's drop; no command reads it,
    each takes its trial's seed from ``trial_cell``."""

    scenario: ScenarioConfig
    params: AntennaParams
    band: tuple[float, float]
    hyper: CeHyperparams
    qos: QosConfig
    sweep: str
    sweep_values: tuple[float, ...]
    precoder: str = "zf"
    allocator: str = "adaptive_gmm"
    clustering: str = "none"
    num_clusters: int = 2
    trials: int = 1
    base_seed: int = 0
    output: str | None = None
    workers: int = 1

    def __post_init__(self):
        for value, allowed, name in (
                (self.clustering, CLUSTERING_MODES, "clustering.mode"),
                (self.precoder, PRECODER_METHODS, "experiment.precoder"),
                (self.allocator, ALLOCATORS, "experiment.allocator"),
                (self.sweep, SWEEP_VARIABLES, "experiment.sweep")):
            if value not in allowed:
                raise ValueError(f"{name} must be one of {', '.join(allowed)}")
        if not self.sweep_values:
            raise ValueError("sweep_values must be nonempty")
        vals = tuple(float(v) for v in self.sweep_values)
        if any(v <= 0 for v in vals):
            raise ValueError("sweep_values must be positive")
        if list(vals) != sorted(vals):
            raise ValueError("sweep_values must be sorted ascending")
        fractional = [v for v in vals if not v.is_integer()]
        if self.sweep != "total_bandwidth" and fractional:
            raise ValueError(f"experiment.sweep_values: {self.sweep} takes "
                             f"integers, got {fractional[0]:g}")
        if self.clustering == "kmeans" and self.num_clusters < 1:
            raise ValueError("clustering.num_clusters must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    def experiment(self) -> ExperimentConfig:
        """Identity; kept because perfbench/workloads.py still calls it."""
        return self


def check_drop(config: ExperimentConfig, sc_cfg: ScenarioConfig,
               where: str | None) -> None:
    """Reject, before it is drawn, a drop of ``sc_cfg`` that the configured
    trial cannot run: a spectrum budget wider than the band, fewer APs than
    k-means clusters, or network-wide zero forcing with more UEs than APs.
    ``where`` names the drop in the message; None names the scenario key
    the broken rule reads.  The one home of these rules: sweeps apply it to
    every sweep point, single runs to their own drop."""
    def refuse(key: str, value: float, reason: str):
        return ValueError(f"{where or f'scenario.{key}={value:g}'}: {reason}")

    span = config.band[1] - config.band[0]
    if sc_cfg.total_bandwidth > span:
        raise refuse("total_bandwidth_hz", sc_cfg.total_bandwidth,
                     f"the spectrum budget exceeds the band width {span:g} Hz")
    if config.clustering == "kmeans" and sc_cfg.num_aps < config.num_clusters:
        raise refuse("num_aps", sc_cfg.num_aps,
                     f"fewer APs than the {config.num_clusters} k-means "
                     "clusters of clustering.num_clusters")
    if config.precoder == "zf" and config.clustering == "none":
        # network-wide zero forcing fails every trial with K > M
        try:
            require_zf_shape(sc_cfg.num_ues, sc_cfg.num_aps)
        except SingularChannel as exc:
            raise refuse("num_ues", sc_cfg.num_ues,
                         f"{exc}; use precoder mrt or clustering") from exc


def trial_cell(config: ExperimentConfig, value: float, trial: int
               ) -> tuple[ScenarioConfig, np.random.Generator]:
    """The (sweep value, trial) cell: the scenario template with its sweep
    dimension set to ``value`` and the geometry seed ``base_seed + trial``,
    and the optimiser stream ``SeedSequence((base_seed, trial))``.  The one
    place a trial gets its drop and stream, for sweep trials, the sweep
    check and every single run (trial 0 without ``--trial``)."""
    if trial < 0:
        raise ValueError(f"trial must be >= 0, got {trial}")
    sc_cfg = replace(config.scenario, seed=config.base_seed + trial, **{
        config.sweep: (int(value) if config.sweep != "total_bandwidth"
                       else float(value))})
    seq = np.random.SeedSequence((config.base_seed, trial))
    return sc_cfg, np.random.default_rng(seq)


def equal_tiles(num_tiles: int, band: tuple[float, float],
                total_bandwidth: float) -> tuple[tuple[float, float], ...]:
    """The spectrum budget as one centered block of ``num_tiles`` equal
    contiguous (center, width) tiles."""
    if num_tiles < 1:
        raise ValueError("num_tiles must be >= 1")
    span = band[1] - band[0]
    if total_bandwidth > span:
        raise ValueError("spectrum budget exceeds the band")
    guard = (span - total_bandwidth) / 2.0
    tile = total_bandwidth / num_tiles
    return tuple((band[0] + guard + (i + 0.5) * tile, tile)
                 for i in range(num_tiles))


def equal_bandwidth_baseline(scenario, params: AntennaParams, num_tiles: int,
                             band: tuple[float, float],
                             total_bandwidth: float,
                             method: str) -> SubchannelPlan:
    """Static allocation: the ``equal_tiles`` rated with ``method``.
    Raises SingularChannel where the precoder fails at a tile's center."""
    plan = score_batch([equal_tiles(num_tiles, band, total_bandwidth)],
                       scenario, params, method)[0]
    if plan is None:
        raise SingularChannel(f"the {method} precoder failed at a center")
    return plan


def build_clustering(config: ExperimentConfig, scenario,
                     rng: np.random.Generator) -> Clustering:
    """AP clusters of one drop: k-means for clustering 'kmeans', otherwise
    the hierarchical merge scored with the configured precoder."""
    if config.clustering == "kmeans":
        return kmeans_clustering(scenario, config.params, config.band[1],
                                 config.num_clusters, rng)
    return hierarchical_clustering(scenario, config.params, config.band[1],
                                   method=config.precoder)


def run_trial(config: ExperimentConfig, sc_cfg: ScenarioConfig,
              rng: np.random.Generator) -> SubchannelPlan | ClusterPlan:
    """One allocation on the drop of ``sc_cfg``, with its spectrum budget,
    as a sweep trial and ``lwcf simulate`` run it.

    ``fixed_gmm`` is the adaptive search with the proposal pinned to one
    mixture component; ``equal_bandwidth`` splits the budget into
    ``hyper.num_subchannels`` equal tiles, which clusters rate each under
    its own precoder fallback.  Clustering 'none' gives a SubchannelPlan,
    'kmeans' and 'hierarchical' a ClusterPlan.
    """
    scenario = generate_scenario(sc_cfg)
    params, band, precoder = config.params, config.band, config.precoder
    hyper, qos, budget = config.hyper, config.qos, sc_cfg.total_bandwidth
    if config.allocator == "fixed_gmm":
        hyper = replace(hyper, max_components=1)
    if config.clustering == "none":
        if config.allocator == "equal_bandwidth":
            return equal_bandwidth_baseline(scenario, params,
                                            hyper.num_subchannels, band,
                                            budget, precoder)
        return allocate(scenario, params, band, precoder, hyper, qos, rng,
                        total_bandwidth=budget)
    clusters = build_clustering(config, scenario, rng)
    if config.allocator == "equal_bandwidth":
        return greedy_assign(equal_tiles(hyper.num_subchannels, band, budget),
                             clusters, qos.min_cluster_avg_rate, scenario,
                             params, precoder)
    return allocate_clustered(scenario, params, band, precoder, hyper, qos,
                              clusters, rng, total_bandwidth=budget)


def _trial_rate(config: ExperimentConfig, value: float,
                trial: int) -> tuple[float | None, str]:
    """Run one (sweep value, trial) cell; returns (rate or None, status)."""
    try:
        plan = run_trial(config, *trial_cell(config, value, trial))
    except InfeasibleBand:
        return None, "infeasible_band"
    except SingularChannel:
        return None, "singular_channel"
    return plan.total_rate, "ok"


def _run_cell(args) -> tuple[int, int, float | None, str, float]:
    config, value_idx, trial = args
    t0 = time.perf_counter()
    rate, status = _trial_rate(config, config.sweep_values[value_idx], trial)
    wall_ms = (time.perf_counter() - t0) * 1e3
    return value_idx, trial, rate, status, wall_ms


def run_experiment(config: ExperimentConfig) -> str:
    """Execute the sweep and return the CSV text; the CLI writes it.

    Trials are independent jobs; with ``workers > 1`` they run in a process
    pool, and results are merged in (sweep value, trial) order either way so
    the output does not depend on scheduling.  Failed trials keep their row
    with an empty rate and a status flag.  Summary statistics are computed
    from the rounded rates that appear in the file, so the CSV is
    self-consistent.  ``check_drop`` vets every sweep point first.
    """
    for value in config.sweep_values:
        check_drop(config, trial_cell(config, value, 0)[0],
                   f"sweep point {config.sweep}={value:g}")
    jobs = [(config, vi, t)
            for vi in range(len(config.sweep_values))
            for t in range(config.trials)]
    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            results = list(pool.map(_run_cell, jobs))
    else:
        results = [_run_cell(job) for job in jobs]
    by_cell = {(vi, t): (rate, status, wall)
               for vi, t, rate, status, wall in results}

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for vi, value in enumerate(config.sweep_values):
        shown_rates = []
        for t in range(config.trials):
            rate, status, wall = by_cell[(vi, t)]
            rate_str = "" if rate is None else format(rate, ".6g")
            if rate is not None:
                shown_rates.append(float(rate_str))
            writer.writerow([str(int(value)), t,
                             config.base_seed + t, config.allocator,
                             config.clustering, config.precoder, rate_str,
                             "", format(wall, ".3f"), status])
        mean_str = stderr_str = ""
        if shown_rates:
            mean_str = format(float(np.mean(shown_rates)), ".6g")
        if len(shown_rates) >= 2:
            stderr = float(np.std(shown_rates, ddof=1) / np.sqrt(len(shown_rates)))
            stderr_str = format(stderr, ".6g")
        writer.writerow([str(int(value)), "summary", "",
                         config.allocator, config.clustering, config.precoder,
                         mean_str, stderr_str, "", ""])
    return buf.getvalue()


def write_plan_csv(plan: SubchannelPlan, fp) -> None:
    """Subchannel dump for a single-trial run."""
    fp.write("subchannel_index,center_hz,width_hz,subchannel_rate_bps\n")
    for i, (center, width) in enumerate(plan.subchannels):
        fp.write(f"{i},{round(center)},{round(width)},"
                 f"{plan.subchannel_rates[i]:.6g}\n")
