"""Subchannel allocation across AP clusters.

Clusters never share spectrum, so the cross-entropy search from the
single-cell allocator carries over unchanged except for scoring: each
candidate subchannel list is first handed out to the clusters by a greedy
rule that prioritises clusters still short of their per-user rate floor,
and the candidate's reward is the total rate of that assignment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .antenna import AntennaParams
from .cegmm import CeHyperparams, QosConfig, ce_search
from .clustering import Clustering
from .mimo import SingularChannel, build_channels, fallback_sinrs
from .mimo import cluster_subchannel_reward  # noqa: F401  (traced here)
from .scenario import Scenario


@dataclass(frozen=True)
class ClusterPlan:
    """Exclusive subchannel assignment and the rates it achieves.

    ``subchannels[z]`` holds the (center_hz, width_hz) pairs of cluster z,
    sorted by center; ``avg_rates[z]`` is cluster z's rate divided by its
    user count (zero for a user-less cluster).  ``feasible`` records whether
    every cluster that serves users reached the per-user rate floor.
    """

    subchannels: tuple[tuple[tuple[float, float], ...], ...]
    subchannel_rates: tuple[tuple[float, ...], ...]
    cluster_rates: tuple[float, ...]
    avg_rates: tuple[float, ...]
    feasible: bool

    @property
    def total_rate(self) -> float:
        return float(sum(self.cluster_rates))


def cluster_ue_sets(clustering: Clustering) -> list[list[int]]:
    """Ascending UE indices served by each cluster."""
    sets: list[list[int]] = [[] for _ in clustering.clusters]
    for k, z in enumerate(clustering.ue_to_cluster):
        sets[int(z)].append(k)
    return sets


def greedy_assign(candidates, clustering: Clustering, min_avg_rate: float,
                  scenario: Scenario, params: AntennaParams,
                  method: str) -> ClusterPlan:
    """Hand disjoint candidate subchannels to clusters, rate floor first.

    Candidates are visited in descending order of their best-cluster reward.
    While some user-serving cluster sits below the per-user floor and values
    the candidate, the candidate goes to the best such cluster; otherwise it
    goes to the cluster that values it most.  Ties fall to the lower index.
    Infeasibility is reported through the flag, never as an exception.

    A reward is width times the cluster's rate density, rated on its
    C-contiguous slice of one channel stack under ``mimo.fallback_sinrs``,
    which raises SingularChannel on a collapsed maximum-ratio column.
    """
    ue_sets = cluster_ue_sets(clustering)
    num_clusters = len(clustering.clusters)
    cands = [(float(c), float(w)) for c, w in candidates]
    widths = np.array([w for _, w in cands])
    live = np.flatnonzero(widths > 0.0)
    rewards = np.zeros((len(cands), num_clusters))
    h = build_channels(scenario, params, [cands[i][0] for i in live])
    for z, ues in enumerate(ue_sets):
        if ues and live.size:
            aps = sorted(int(a) for a in clustering.clusters[z])
            gammas = fallback_sinrs(h[np.ix_(np.arange(live.size), ues, aps)],
                                    method, scenario.tx_psd[ues],
                                    scenario.noise_psd)
            rewards[live, z] = widths[live] * np.sum(np.log2(1.0 + gammas),
                                                     axis=-1)

    order = sorted(range(len(cands)),
                   key=lambda i: (-float(np.max(rewards[i])), i))
    assigned: list[list[int]] = [[] for _ in range(num_clusters)]
    totals = np.zeros(num_clusters)
    counts = np.array([len(s) for s in ue_sets], dtype=float)
    for i in order:
        deficient = [z for z in range(num_clusters)
                     if counts[z] > 0 and totals[z] < min_avg_rate * counts[z]
                     and rewards[i, z] > 0.0]
        if deficient:
            z_star = max(deficient, key=lambda z: (rewards[i, z], -z))
        else:
            z_star = int(np.argmax(rewards[i]))
        assigned[z_star].append(i)
        totals[z_star] += rewards[i, z_star]

    owned = [sorted(a, key=lambda i: cands[i][0]) for a in assigned]
    rates = tuple(tuple(float(rewards[i, z]) for i in idx)
                  for z, idx in enumerate(owned))
    cluster_rates = tuple(float(sum(r)) for r in rates)
    avg_rates = tuple(t / n if n > 0 else 0.0
                      for t, n in zip(cluster_rates, counts))
    feasible = not any(a < min_avg_rate
                       for a, n in zip(avg_rates, counts) if n > 0)
    return ClusterPlan(tuple(tuple(cands[i] for i in idx) for idx in owned),
                       rates, cluster_rates, avg_rates, feasible)


def allocate_clustered(scenario: Scenario, params: AntennaParams,
                       band: tuple[float, float], method: str,
                       hyper: CeHyperparams, qos: QosConfig,
                       clustering: Clustering, rng: np.random.Generator,
                       total_bandwidth: float | None = None) -> ClusterPlan:
    """Cross-entropy search scored through the greedy cluster assignment.

    The search is ``cegmm.ce_search``, the loop of the cluster-free
    allocator, so with a single all-AP cluster and a zero rate floor the two
    return the same plan for the same generator state.  The best plan ever
    seen wins, feasible plans strictly before infeasible ones.
    """
    def score_one(subchannels):
        try:
            plan = greedy_assign(subchannels, clustering,
                                 qos.min_cluster_avg_rate, scenario, params,
                                 method)
        except SingularChannel:   # a collapsed maximum-ratio column
            return None
        return plan.feasible, plan.total_rate, plan

    return ce_search(lambda batch: [score_one(s) for s in batch], scenario,
                     params, band, method, hyper, qos, rng, total_bandwidth)


def write_cluster_plan_csv(plan: ClusterPlan, fp) -> None:
    """One row per assigned subchannel with its cluster's summary figures."""
    fp.write("cluster_index,subchannel_index,center_hz,width_hz,"
             "subchannel_rate_bps,cluster_avg_rate_per_ue_bps,feasible\n")
    for z, subs in enumerate(plan.subchannels):
        for i, (center, width) in enumerate(subs):
            fp.write(f"{z},{i},{round(center)},{round(width)},"
                     f"{plan.subchannel_rates[z][i]:.6g},"
                     f"{plan.avg_rates[z]:.6g},{plan.feasible}\n")
